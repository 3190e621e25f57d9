#include "fault/fault_spec.hpp"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "sim/logging.hpp"

namespace smarco::fault {
namespace {

/**
 * Minimal recursive-descent parser for the campaign subset of JSON:
 * objects, string keys, numbers, and nested objects. Arrays, strings
 * as values, booleans and null are rejected — no campaign field needs
 * them, and a loud failure beats silently mis-reading a spec.
 */
class SpecParser
{
  public:
    SpecParser(const std::string &text, const std::string &origin)
        : text_(text), origin_(origin) {}

    void parseInto(FaultSpec &spec)
    {
        skipWs();
        expect('{');
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return;
        }
        for (;;) {
            const std::string section = parseKey();
            skipWs();
            if (peek() == '{')
                parseSection(section, spec);
            else
                setField(spec, "", section, parseNumber());
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

    void parseSection(const std::string &section, FaultSpec &spec)
    {
        expect('{');
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return;
        }
        for (;;) {
            const std::string key = parseKey();
            setField(spec, section, key, parseNumber());
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

    static Cycle asCycle(double v)
    { return v <= 0.0 ? 0 : static_cast<Cycle>(v); }

    void setField(FaultSpec &spec, const std::string &section,
                  const std::string &key, double v)
    {
        const std::string path =
            section.empty() ? key : section + "." + key;
        if (path == "core.hangRate")
            spec.coreHangRate = v;
        else if (path == "core.killRate")
            spec.coreKillRate = v;
        else if (path == "noc.dropProb")
            spec.nocDropProb = v;
        else if (path == "noc.nackDelay")
            spec.nocNackDelay = asCycle(v);
        else if (path == "noc.maxRetransmits")
            spec.nocMaxRetransmits = static_cast<std::uint32_t>(v);
        else if (path == "noc.degradeRate")
            spec.nocDegradeRate = v;
        else if (path == "noc.degradeFactor")
            spec.nocDegradeFactor = v;
        else if (path == "noc.degradeDuration")
            spec.nocDegradeDuration = asCycle(v);
        else if (path == "noc.dupRate")
            spec.nocDupRate = v;
        else if (path == "dram.stallRate")
            spec.dramStallRate = v;
        else if (path == "dram.stallDuration")
            spec.dramStallDuration = asCycle(v);
        else if (path == "mact.lossRate")
            spec.mactLossRate = v;
        else if (path == "mact.recoveryLatency")
            spec.mactRecoveryLatency = asCycle(v);
        else if (path == "recovery.heartbeatInterval")
            spec.recovery.heartbeatInterval = asCycle(v);
        else if (path == "recovery.hangTimeout")
            spec.recovery.hangTimeout = asCycle(v);
        else if (path == "recovery.backoffBase")
            spec.recovery.backoffBase = asCycle(v);
        else if (path == "recovery.backoffMax")
            spec.recovery.backoffMax = asCycle(v);
        else if (path == "recovery.maxAttempts")
            spec.recovery.maxAttempts = static_cast<std::uint32_t>(v);
        else if (path == "campaign.horizon")
            spec.horizon = asCycle(v);
        else if (path == "campaign.watchdogInterval")
            spec.watchdogInterval = asCycle(v);
        else if (path == "campaign.rateScale")
            spec.rateScale = v;
        else if (path == "campaign.rateScaleCeiling")
            spec.rateScaleCeiling = v;
        else
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
    if (spec.nocDropProb < 0.0 || spec.nocDropProb >= 1.0)
        fatal("fault spec %s: noc.dropProb %.3f outside [0,1)",
              origin.c_str(), spec.nocDropProb);
    if (spec.nocDegradeFactor <= 0.0 || spec.nocDegradeFactor > 1.0)
        fatal("fault spec %s: noc.degradeFactor %.3f outside (0,1]",
              origin.c_str(), spec.nocDegradeFactor);
    if (spec.rateScale < 0.0)
        fatal("fault spec %s: negative rateScale", origin.c_str());
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
