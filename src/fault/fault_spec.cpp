#include "fault/fault_spec.hpp"

#include <array>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>
#include <variant>

#include "sim/logging.hpp"

namespace smarco::fault {
namespace {

/** What a spec number means; fixes its range and its C++ type. */
enum class Kind : std::uint8_t {
    Rate,        ///< per-million-cycle rate or its sweep multiplier
    Probability, ///< per-event probability
    Factor,      ///< bandwidth multiplier
    Cycles,      ///< a cycle count
    Count,       ///< an attempt count
};

/** Closed range of each kind, indexed by Kind. NaN is in none. */
struct Range {
    double lo;
    double hi;
    const char *text;
};
constexpr Range kRanges[] = {
    {0.0, std::numeric_limits<double>::max(), "[0, inf)"},
    {0.0, 0x1.fffffffffffffp-1, "[0, 1)"},
    {std::numeric_limits<double>::denorm_min(), 1.0, "(0, 1]"},
    {0.0, 0x1p53, "[0, 2^53]"}, // a double holds every such cycle
    {0.0, 4294967295.0, "[0, 2^32)"},
};

/** One spec key: its dotted path, its kind and the field it sets. */
struct Field {
    const char *path;
    Kind kind;
    std::variant<double *, Cycle *, std::uint32_t *> slot;
};

/** Every key a campaign spec may set. */
auto
fieldsOf(FaultSpec &s)
{
    return std::to_array<Field>({
        {"core.hangRate", Kind::Rate, &s.coreHangRate},
        {"core.killRate", Kind::Rate, &s.coreKillRate},
        {"noc.dropProb", Kind::Probability, &s.nocDropProb},
        {"noc.nackDelay", Kind::Cycles, &s.nocNackDelay},
        {"noc.maxRetransmits", Kind::Count, &s.nocMaxRetransmits},
        {"noc.degradeRate", Kind::Rate, &s.nocDegradeRate},
        {"noc.degradeFactor", Kind::Factor, &s.nocDegradeFactor},
        {"noc.degradeDuration", Kind::Cycles, &s.nocDegradeDuration},
        {"noc.dupRate", Kind::Rate, &s.nocDupRate},
        {"dram.stallRate", Kind::Rate, &s.dramStallRate},
        {"dram.stallDuration", Kind::Cycles, &s.dramStallDuration},
        {"mact.lossRate", Kind::Rate, &s.mactLossRate},
        {"mact.recoveryLatency", Kind::Cycles, &s.mactRecoveryLatency},
        {"recovery.heartbeatInterval", Kind::Cycles,
         &s.recovery.heartbeatInterval},
        {"recovery.hangTimeout", Kind::Cycles, &s.recovery.hangTimeout},
        {"recovery.backoffBase", Kind::Cycles, &s.recovery.backoffBase},
        {"recovery.backoffMax", Kind::Cycles, &s.recovery.backoffMax},
        {"recovery.maxAttempts", Kind::Count, &s.recovery.maxAttempts},
        {"campaign.horizon", Kind::Cycles, &s.horizon},
        {"campaign.watchdogInterval", Kind::Cycles, &s.watchdogInterval},
        {"campaign.rateScale", Kind::Rate, &s.rateScale},
        {"campaign.rateScaleCeiling", Kind::Rate, &s.rateScaleCeiling},
    });
}

/**
 * Minimal recursive-descent parser for the campaign subset of JSON:
 * objects, string keys, numbers, and one level of nested objects.
 * Arrays, strings as values, booleans and null are rejected — no
 * campaign field needs them, and a loud failure beats silently
 * mis-reading a spec.
 */
class SpecParser
{
  public:
    SpecParser(const std::string &text, const std::string &origin)
        : text_(text), origin_(origin) {}

    void parseInto(FaultSpec &spec)
    {
        skipWs();
        parseObject(spec, "");
        skipWs();
        if (pos_ < text_.size())
            malformed("trailing content");
    }

  private:
    [[noreturn]] void malformed(const char *what)
    {
        fatal("fault spec %s: %s at offset %zu", origin_.c_str(),
              what, pos_);
    }

    char peek() const
    { return pos_ < text_.size() ? text_[pos_] : '\0'; }

    void expect(char c)
    {
        if (peek() != c)
            malformed(strprintf("expected '%c'", c).c_str());
        ++pos_;
    }

    void skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    std::string parseKey()
    {
        expect('"');
        const std::size_t start = pos_;
        while (pos_ < text_.size() && text_[pos_] != '"')
            ++pos_;
        if (pos_ >= text_.size())
            malformed("unterminated key");
        std::string key = text_.substr(start, pos_ - start);
        ++pos_;
        skipWs();
        expect(':');
        skipWs();
        return key;
    }

    double parseNumber()
    {
        const char *begin = text_.c_str() + pos_;
        char *end = nullptr;
        const double v = std::strtod(begin, &end);
        if (end == begin)
            malformed("expected a number");
        pos_ += static_cast<std::size_t>(end - begin);
        return v;
    }

    /**
     * Parse one object. At the top level (empty section) a value may
     * be an object, a section whose keys are dotted under its name.
     */
    void parseObject(FaultSpec &spec, const std::string &section)
    {
        expect('{');
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return;
        }
        for (;;) {
            const std::string key = parseKey();
            if (section.empty() && peek() == '{')
                parseObject(spec, key);
            else
                setField(spec, section.empty() ? key
                                               : section + "." + key,
                         parseNumber());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                skipWs();
                continue;
            }
            expect('}');
            return;
        }
    }

    void setField(FaultSpec &spec, const std::string &path, double v)
    {
        for (const Field &f : fieldsOf(spec)) {
            if (path != f.path)
                continue;
            // Checked before the cast: a value outside the field's
            // type would be undefined behaviour to convert.
            const Range &r = kRanges[static_cast<int>(f.kind)];
            if (!(v >= r.lo && v <= r.hi))
                fatal("fault spec %s: %s %g outside %s",
                      origin_.c_str(), f.path, v, r.text);
            std::visit(
                [v](auto *field) {
                    *field = static_cast<
                        std::remove_pointer_t<decltype(field)>>(v);
                },
                f.slot);
            return;
        }
        warn("fault spec %s: ignoring unknown key \"%s\"",
             origin_.c_str(), path.c_str());
    }

    const std::string &text_;
    const std::string &origin_;
    std::size_t pos_ = 0;
};

} // namespace

bool
FaultSpec::anyFaults() const
{
    const double rates = coreHangRate + coreKillRate + nocDegradeRate +
                         nocDupRate + dramStallRate + mactLossRate;
    return (rates > 0.0 && rateScale > 0.0 && horizon > 0) ||
           nocDropProb > 0.0;
}

FaultSpec
FaultSpec::fromJsonText(const std::string &text,
                        const std::string &origin)
{
    FaultSpec spec;
    SpecParser(text, origin).parseInto(spec);
    return spec;
}

FaultSpec
FaultSpec::fromJsonFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("fault spec: cannot open %s", path.c_str());
    std::ostringstream buf;
    buf << in.rdbuf();
    return fromJsonText(buf.str(), path);
}

} // namespace smarco::fault
