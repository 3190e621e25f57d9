/**
 * @file
 * Tests for the observability layer: JSON stats export, Chrome-trace
 * event emission, interval sampling, the logging cycle prefix, and
 * the command-line and environment forms of the options.
 *
 * The trace and stats outputs are validated by parsing them back with
 * a small self-contained JSON parser, so a formatting regression that
 * chrome://tracing or jq would reject fails here first.
 */
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "sim/logging.hpp"
#include "sim/observability.hpp"
#include "sim/sampler.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"

namespace smarco {
namespace {

// ---------------------------------------------------------------------
// Minimal JSON parser (objects, arrays, strings, numbers, bools,
// null). Enough to round-trip everything the simulator emits.

struct JsonValue {
    enum class Kind { Null, Bool, Number, String, Array, Object };
    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string text;
    std::vector<JsonValue> items;
    std::map<std::string, JsonValue> fields;

    const JsonValue &at(const std::string &key) const
    {
        auto it = fields.find(key);
        if (it == fields.end())
            throw std::runtime_error("missing key: " + key);
        return it->second;
    }
    bool has(const std::string &key) const
    { return fields.count(key) != 0; }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : s_(text) {}

    JsonValue parse()
    {
        JsonValue v = value();
        skipWs();
        if (pos_ != s_.size())
            throw std::runtime_error("trailing characters");
        return v;
    }

  private:
    void skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                s_[pos_] == '\n' || s_[pos_] == '\r'))
            ++pos_;
    }

    char peek()
    {
        skipWs();
        if (pos_ >= s_.size())
            throw std::runtime_error("unexpected end of input");
        return s_[pos_];
    }

    void expect(char c)
    {
        if (peek() != c)
            throw std::runtime_error(std::string("expected '") + c +
                                     "' at " + std::to_string(pos_));
        ++pos_;
    }

    JsonValue value()
    {
        switch (peek()) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return word("true", true);
          case 'f': return word("false", false);
          case 'n': return word("null", false);
          default:  return number();
        }
    }

    JsonValue word(const char *w, bool b)
    {
        const std::size_t n = std::string(w).size();
        if (s_.compare(pos_, n, w) != 0)
            throw std::runtime_error("bad literal");
        pos_ += n;
        JsonValue v;
        v.kind = w[0] == 'n' ? JsonValue::Kind::Null
                             : JsonValue::Kind::Bool;
        v.boolean = b;
        return v;
    }

    JsonValue string()
    {
        expect('"');
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            char c = s_[pos_++];
            if (c == '\\') {
                if (pos_ >= s_.size())
                    throw std::runtime_error("bad escape");
                char e = s_[pos_++];
                switch (e) {
                  case 'n': c = '\n'; break;
                  case 't': c = '\t'; break;
                  case 'r': c = '\r'; break;
                  case '"': case '\\': case '/': c = e; break;
                  case 'u':
                    if (pos_ + 4 > s_.size())
                        throw std::runtime_error("bad \\u escape");
                    pos_ += 4;
                    c = '?';
                    break;
                  default:
                    throw std::runtime_error("bad escape");
                }
            }
            v.text.push_back(c);
        }
        expect('"');
        return v;
    }

    JsonValue number()
    {
        const std::size_t start = pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
                s_[pos_] == 'e' || s_[pos_] == 'E'))
            ++pos_;
        if (pos_ == start)
            throw std::runtime_error("bad number at " +
                                     std::to_string(pos_));
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        v.number = std::stod(s_.substr(start, pos_ - start));
        return v;
    }

    JsonValue array()
    {
        expect('[');
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        if (peek() == ']') { ++pos_; return v; }
        for (;;) {
            v.items.push_back(value());
            if (peek() == ',') { ++pos_; continue; }
            expect(']');
            return v;
        }
    }

    JsonValue object()
    {
        expect('{');
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        if (peek() == '}') { ++pos_; return v; }
        for (;;) {
            JsonValue key = string();
            expect(':');
            v.fields.emplace(key.text, value());
            if (peek() == ',') { ++pos_; continue; }
            expect('}');
            return v;
        }
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

JsonValue parseJson(const std::string &text)
{
    return JsonParser(text).parse();
}

// ---------------------------------------------------------------------
// Stats JSON export

TEST(StatsJson, RoundTripAllKinds)
{
    StatRegistry reg;
    Scalar counter(reg, "a.counter", "a counter");
    counter += 41.0;
    ++counter;
    Average avg(reg, "a.avg", "an average");
    avg.sample(2.0);
    avg.sample(4.0);
    Histogram hist(reg, "a.hist", "a histogram", 0.0, 10.0, 5);
    hist.sample(1.0);
    hist.sample(3.0, 2);
    hist.sample(100.0); // saturates into the top bucket

    std::ostringstream os;
    reg.dumpJson(os);
    const JsonValue doc = parseJson(os.str());
    ASSERT_EQ(doc.kind, JsonValue::Kind::Object);
    ASSERT_EQ(doc.fields.size(), 3u);

    const JsonValue &c = doc.at("a.counter");
    EXPECT_EQ(c.at("kind").text, "scalar");
    EXPECT_DOUBLE_EQ(c.at("value").number, 42.0);
    EXPECT_EQ(c.at("desc").text, "a counter");

    const JsonValue &a = doc.at("a.avg");
    EXPECT_EQ(a.at("kind").text, "average");
    EXPECT_DOUBLE_EQ(a.at("value").number, 3.0);
    EXPECT_DOUBLE_EQ(a.at("sum").number, 6.0);
    EXPECT_DOUBLE_EQ(a.at("count").number, 2.0);

    const JsonValue &h = doc.at("a.hist");
    EXPECT_EQ(h.at("kind").text, "histogram");
    EXPECT_DOUBLE_EQ(h.at("value").number, hist.value());
    EXPECT_DOUBLE_EQ(h.at("count").number, 4.0);
    EXPECT_DOUBLE_EQ(h.at("min").number, 1.0);
    EXPECT_DOUBLE_EQ(h.at("max").number, 100.0);
    EXPECT_DOUBLE_EQ(h.at("lo").number, 0.0);
    EXPECT_DOUBLE_EQ(h.at("hi").number, 10.0);
    EXPECT_DOUBLE_EQ(h.at("bucketWidth").number, 2.0);
    ASSERT_EQ(h.at("buckets").items.size(), 5u);
    EXPECT_DOUBLE_EQ(h.at("buckets").items[0].number, 1.0);
    EXPECT_DOUBLE_EQ(h.at("buckets").items[1].number, 2.0);
    EXPECT_DOUBLE_EQ(h.at("buckets").items[4].number, 1.0);
}

TEST(StatsJson, EscapesSpecialCharacters)
{
    StatRegistry reg;
    Scalar s(reg, "weird", "quote \" backslash \\ newline \n done");
    std::ostringstream os;
    reg.dumpJson(os);
    const JsonValue doc = parseJson(os.str());
    EXPECT_EQ(doc.at("weird").at("desc").text,
              "quote \" backslash \\ newline \n done");
}

TEST(StatsJson, NonFiniteValuesBecomeNull)
{
    StatRegistry reg;
    Scalar s(reg, "inf", "an infinity");
    s.set(INFINITY);
    std::ostringstream os;
    reg.dumpJson(os);
    const JsonValue doc = parseJson(os.str());
    EXPECT_EQ(doc.at("inf").at("value").kind, JsonValue::Kind::Null);
}

TEST(StatsRegistry, TypedLookupAndTotals)
{
    StatRegistry reg;
    Scalar s0(reg, "chip.core000.slotsUsed", "");
    Scalar s1(reg, "chip.core001.slotsUsed", "");
    Scalar other(reg, "chip.core000.slotsOffered", "");
    Average a(reg, "chip.core000.lat", "");
    s0 += 10.0;
    s1 += 5.0;
    other += 100.0;

    EXPECT_DOUBLE_EQ(reg.total("chip.core", ".slotsUsed"), 15.0);
    EXPECT_DOUBLE_EQ(reg.total("chip.core", ".slotsOffered"), 100.0);
    EXPECT_DOUBLE_EQ(reg.total("chip.core", ".missing"), 0.0);
    EXPECT_DOUBLE_EQ(reg.total("nothing", ".slotsUsed"), 0.0);

    EXPECT_EQ(reg.findAs<Scalar>("chip.core000.slotsUsed"), &s0);
    EXPECT_EQ(reg.findAs<Average>("chip.core000.slotsUsed"), nullptr);
    EXPECT_EQ(reg.findAs<Scalar>("no.such.stat"), nullptr);
    EXPECT_DOUBLE_EQ(reg.getAs<Average>("chip.core000.lat").value(),
                     0.0);
}

// ---------------------------------------------------------------------
// Histogram weight semantics

TEST(Histogram, ZeroWeightIsANoOp)
{
    StatRegistry reg;
    Histogram h(reg, "h", "", 0.0, 10.0, 4);
    h.sample(7.0, 0);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.value(), 0.0);
    for (std::uint64_t b : h.buckets())
        EXPECT_EQ(b, 0u);

    // The zero-weight sample must not have primed min/max either.
    h.sample(3.0);
    EXPECT_DOUBLE_EQ(h.minSample(), 3.0);
    EXPECT_DOUBLE_EQ(h.maxSample(), 3.0);
}

TEST(Histogram, WeightsAreFrequencyWeights)
{
    StatRegistry reg;
    Histogram weighted(reg, "w", "", 0.0, 10.0, 4);
    Histogram repeated(reg, "r", "", 0.0, 10.0, 4);
    weighted.sample(2.0, 3);
    weighted.sample(8.0, 1);
    for (int i = 0; i < 3; ++i)
        repeated.sample(2.0);
    repeated.sample(8.0);
    EXPECT_EQ(weighted.count(), repeated.count());
    EXPECT_DOUBLE_EQ(weighted.value(), repeated.value());
    EXPECT_DOUBLE_EQ(weighted.stddev(), repeated.stddev());
    EXPECT_EQ(weighted.buckets(), repeated.buckets());
}

// ---------------------------------------------------------------------
// Trace emission

TEST(Trace, ProducesValidChromeTraceJson)
{
    std::ostringstream os;
    {
        TraceSink sink(os);
        TraceManager tm;
        tm.enable(&sink, kAllTraceCats, 7);
        tm.labelRun("run 7");
        tm.complete(TraceCat::Core, "kernel", 100, 250, 3,
                    "{\"ops\":12}");
        tm.instant(TraceCat::Noc, "inject", 120, 1);
        tm.counter(TraceCat::Sim, "ipc", 200, 1.5);
        EXPECT_EQ(sink.eventCount(), 4u);
    }

    const JsonValue doc = parseJson(os.str());
    ASSERT_TRUE(doc.has("traceEvents"));
    const auto &events = doc.at("traceEvents").items;
    ASSERT_EQ(events.size(), 4u);

    const JsonValue &meta = events[0];
    EXPECT_EQ(meta.at("ph").text, "M");
    EXPECT_EQ(meta.at("name").text, "process_name");
    EXPECT_DOUBLE_EQ(meta.at("pid").number, 7.0);
    EXPECT_EQ(meta.at("args").at("name").text, "run 7");

    const JsonValue &span = events[1];
    EXPECT_EQ(span.at("ph").text, "X");
    EXPECT_EQ(span.at("name").text, "kernel");
    EXPECT_EQ(span.at("cat").text, "core");
    EXPECT_DOUBLE_EQ(span.at("ts").number, 100.0);
    EXPECT_DOUBLE_EQ(span.at("dur").number, 150.0);
    EXPECT_DOUBLE_EQ(span.at("tid").number, 3.0);
    EXPECT_DOUBLE_EQ(span.at("args").at("ops").number, 12.0);

    const JsonValue &inst = events[2];
    EXPECT_EQ(inst.at("ph").text, "i");
    EXPECT_EQ(inst.at("cat").text, "noc");
    EXPECT_DOUBLE_EQ(inst.at("ts").number, 120.0);

    const JsonValue &ctr = events[3];
    EXPECT_EQ(ctr.at("ph").text, "C");
    EXPECT_EQ(ctr.at("cat").text, "sim");
    EXPECT_DOUBLE_EQ(ctr.at("args").at("value").number, 1.5);
}

TEST(Trace, CategoryMaskFiltersEvents)
{
    std::ostringstream os;
    {
        TraceSink sink(os);
        TraceManager tm;
        tm.enable(&sink, static_cast<std::uint32_t>(TraceCat::Noc), 1);
        EXPECT_TRUE(tm.enabled());
        EXPECT_TRUE(tm.enabled(TraceCat::Noc));
        EXPECT_FALSE(tm.enabled(TraceCat::Core));
        tm.instant(TraceCat::Core, "dropped", 1);
        tm.instant(TraceCat::Noc, "kept", 2);
        tm.complete(TraceCat::Sched, "dropped", 0, 5);
        EXPECT_EQ(sink.eventCount(), 1u);
    }
    const JsonValue doc = parseJson(os.str());
    ASSERT_EQ(doc.at("traceEvents").items.size(), 1u);
    EXPECT_EQ(doc.at("traceEvents").items[0].at("name").text, "kept");
}

TEST(Trace, DisabledManagerEmitsNothing)
{
    TraceManager tm;
    EXPECT_FALSE(tm.enabled());
    // Must be safe with no sink attached.
    tm.complete(TraceCat::Core, "x", 0, 10);
    tm.instant(TraceCat::Mem, "y", 5);
    tm.counter(TraceCat::Sim, "z", 5, 1.0);
}

TEST(Trace, EmptySinkIsStillValidJson)
{
    std::ostringstream os;
    { TraceSink sink(os); }
    const JsonValue doc = parseJson(os.str());
    EXPECT_EQ(doc.at("traceEvents").items.size(), 0u);
    EXPECT_TRUE(doc.has("displayTimeUnit"));
}

TEST(Trace, DisabledSimulationAddsZeroEvents)
{
    // A full simulator run with no observability configured must not
    // touch any sink (there is none) and keeps tracing disabled.
    Simulator sim;
    EXPECT_FALSE(sim.trace().enabled());
    bool fired = false;
    sim.events().schedule(50, [&fired]() { fired = true; });
    sim.run(1000);
    EXPECT_TRUE(fired);
    EXPECT_TRUE(sim.finishedIdle());
    EXPECT_FALSE(sim.trace().enabled());
}

TEST(Trace, CategoryParsing)
{
    EXPECT_EQ(parseTraceCategories(""), kAllTraceCats);
    EXPECT_EQ(parseTraceCategories("all"), kAllTraceCats);
    EXPECT_EQ(parseTraceCategories("core"),
              static_cast<std::uint32_t>(TraceCat::Core));
    EXPECT_EQ(parseTraceCategories("core,noc"),
              static_cast<std::uint32_t>(TraceCat::Core) |
                  static_cast<std::uint32_t>(TraceCat::Noc));
    EXPECT_EQ(parseTraceCategories("mem,sched,runtime,sim,fault"),
              kAllTraceCats &
                  ~(static_cast<std::uint32_t>(TraceCat::Core) |
                    static_cast<std::uint32_t>(TraceCat::Noc)));
    EXPECT_EQ(parseTraceCategories("fault"),
              static_cast<std::uint32_t>(TraceCat::Fault));
    // An unknown name invalidates the whole list.
    EXPECT_FALSE(parseTraceCategories("core,bogus").has_value());
}

// ---------------------------------------------------------------------
// Interval sampler

TEST(Sampler, FiresAtExactBoundaries)
{
    IntervalSampler s;
    s.setInterval(10);
    int calls = 0;
    s.addProbe("calls", [&calls]() {
        return static_cast<double>(++calls);
    });
    ASSERT_TRUE(s.active());
    for (Cycle now = 1; now <= 35; ++now)
        s.maybeSample(now);
    const std::vector<Cycle> expected{10, 20, 30};
    EXPECT_EQ(s.times(), expected);
    ASSERT_EQ(s.rows().size(), 3u);
    EXPECT_DOUBLE_EQ(s.rows()[2][0], 3.0);
}

TEST(Sampler, SkippedBoundariesSampleOnceAndRealign)
{
    // Event-driven runs can jump the clock past several boundaries;
    // the sampler takes one sample and realigns to the grid.
    IntervalSampler s;
    s.setInterval(10);
    s.addProbe("one", []() { return 1.0; });
    s.maybeSample(5);
    s.maybeSample(47); // skipped 10,20,30,40
    s.maybeSample(50);
    const std::vector<Cycle> expected{47, 50};
    EXPECT_EQ(s.times(), expected);
}

TEST(Sampler, InactiveWithoutIntervalOrProbes)
{
    IntervalSampler s;
    EXPECT_FALSE(s.active());
    s.maybeSample(100); // no interval: no-op
    s.setInterval(5);
    EXPECT_FALSE(s.active()); // no probes yet
    s.maybeSample(100);
    EXPECT_TRUE(s.times().empty());
}

TEST(Sampler, DumpsParseableJsonAndCsv)
{
    IntervalSampler s;
    s.setInterval(4);
    double v = 0.0;
    s.addProbe("ipc", [&v]() { return v += 0.5; });
    s.addProbe("depth", []() { return 7.0; });
    for (Cycle now = 1; now <= 8; ++now)
        s.maybeSample(now);

    std::ostringstream js;
    s.dumpJson(js);
    const JsonValue doc = parseJson(js.str());
    EXPECT_DOUBLE_EQ(doc.at("interval").number, 4.0);
    ASSERT_EQ(doc.at("probes").items.size(), 2u);
    EXPECT_EQ(doc.at("probes").items[0].text, "ipc");
    ASSERT_EQ(doc.at("samples").items.size(), 2u);
    const auto &row0 = doc.at("samples").items[0].items;
    ASSERT_EQ(row0.size(), 3u);
    EXPECT_DOUBLE_EQ(row0[0].number, 4.0);
    EXPECT_DOUBLE_EQ(row0[1].number, 0.5);
    EXPECT_DOUBLE_EQ(row0[2].number, 7.0);

    std::ostringstream cs;
    s.dumpCsv(cs);
    EXPECT_EQ(cs.str(), "cycle,ipc,depth\n4,0.5,7\n8,1,7\n");
}

/** Stays busy until its tick reaches the given cycle, forcing the
 *  run loop to advance cycle by cycle instead of fast-forwarding. */
class BusyUntil : public Ticking
{
  public:
    explicit BusyUntil(Cycle until) : until_(until) {}
    void tick(Cycle now) override { last_ = now; }
    bool busy() const override { return last_ < until_; }

  private:
    Cycle until_;
    Cycle last_ = 0;
};

TEST(Sampler, DrivenByTheSimulatorRunLoop)
{
    Simulator sim;
    BusyUntil work(35);
    sim.addTicking(&work);
    sim.sampler().setInterval(10);
    std::vector<Cycle> seen;
    sim.sampler().addProbe("now", [&]() {
        seen.push_back(sim.now());
        return static_cast<double>(sim.now());
    });
    sim.run(1000);
    EXPECT_TRUE(sim.finishedIdle());
    const std::vector<Cycle> expected{10, 20, 30};
    EXPECT_EQ(sim.sampler().times(), expected);
    EXPECT_EQ(seen, expected);
}

TEST(Sampler, MirrorsSamplesAsTraceCounters)
{
    std::ostringstream os;
    {
        TraceSink sink(os);
        TraceManager tm;
        tm.enable(&sink, kAllTraceCats, 1);
        IntervalSampler s;
        s.setTrace(&tm);
        s.setInterval(5);
        s.addProbe("q", []() { return 2.0; });
        s.maybeSample(5);
        EXPECT_EQ(sink.eventCount(), 1u);
    }
    const JsonValue doc = parseJson(os.str());
    const JsonValue &ev = doc.at("traceEvents").items[0];
    EXPECT_EQ(ev.at("ph").text, "C");
    EXPECT_EQ(ev.at("name").text, "q");
    EXPECT_EQ(ev.at("cat").text, "sim");
    EXPECT_DOUBLE_EQ(ev.at("args").at("value").number, 2.0);
}

// ---------------------------------------------------------------------
// Logging cycle prefix

TEST(Logging, SimulatorInstallsAndRestoresCycleSource)
{
    const Cycle *before = logCycleSource();
    {
        Simulator sim;
        EXPECT_NE(logCycleSource(), nullptr);
        EXPECT_NE(logCycleSource(), before);
        {
            Simulator inner;
            EXPECT_NE(logCycleSource(), nullptr);
        }
        // Inner simulator restored the outer one's source.
        EXPECT_NE(logCycleSource(), nullptr);
        sim.events().schedule(12, []() {});
        sim.run(100);
        EXPECT_EQ(*logCycleSource(), sim.now());
    }
    EXPECT_EQ(logCycleSource(), before);
}

// ---------------------------------------------------------------------
// Observability options: command-line flags and SMARCO_* variables

/** One option as a flag, its environment variable and a value. */
struct OptionCase {
    const char *flag;
    const char *env;
    const char *value;
};

const OptionCase kOptionCases[] = {
    {"--stats-json", "SMARCO_STATS_JSON", "run.json"},
    {"--trace", "SMARCO_TRACE", "run.trace"},
    {"--trace-categories", "SMARCO_TRACE_CATEGORIES", "core,noc"},
    {"--sample-interval", "SMARCO_SAMPLE_INTERVAL", "500"},
    {"--sample-out", "SMARCO_SAMPLE_OUT", "run.csv"},
    {"--no-fast-forward", "SMARCO_NO_FAST_FORWARD", "1"},
    {"--faults", "SMARCO_FAULTS", "faults.json"},
    {"--fault-seed", "SMARCO_FAULT_SEED", "42"},
};

std::string
flagArg(const OptionCase &c)
{
    // --no-fast-forward is a switch; every other flag takes =value.
    if (std::string(c.flag) == "--no-fast-forward")
        return c.flag;
    return std::string(c.flag) + "=" + c.value;
}

auto
fieldsOf(const ObsOptions &o)
{
    return std::make_tuple(o.statsJsonPath, o.tracePath,
                           o.traceCategories, o.sampleInterval,
                           o.samplePath, o.noFastForward, o.faultsPath,
                           o.faultSeed);
}

/**
 * Runs each test on default options with no SMARCO_* variable set,
 * and restores both afterwards: the options are process-global.
 */
class ObsOptionsTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        saved_ = obsOptions();
        for (const OptionCase &c : kOptionCases) {
            if (const char *v = std::getenv(c.env))
                savedEnv_[c.env] = v;
            unsetenv(c.env);
        }
        obsOptions() = ObsOptions{};
    }

    void TearDown() override
    {
        for (const OptionCase &c : kOptionCases)
            unsetenv(c.env);
        for (const auto &[name, value] : savedEnv_)
            setenv(name.c_str(), value.c_str(), 1);
        obsOptions() = saved_;
    }

  private:
    ObsOptions saved_;
    std::map<std::string, std::string> savedEnv_;
};

/** Parse `args` as the command line of a binary whose own arguments
 *  are `usage`. */
std::vector<std::string>
parse(std::vector<const char *> args, const std::string &usage = "")
{
    args.insert(args.begin(), "binary");
    return parseCommandLine(static_cast<int>(args.size()), args.data(),
                            usage);
}

using Args = std::vector<std::string>;

TEST_F(ObsOptionsTest, FlagAndVariableSetTheSameField)
{
    for (const OptionCase &c : kOptionCases) {
        const std::string flag = flagArg(c);
        EXPECT_EQ(parse({flag.c_str()}), Args{}) << c.flag;
        const auto from_flag = fieldsOf(obsOptions());

        setenv(c.env, c.value, 1);
        EXPECT_EQ(parse({}), Args{});
        unsetenv(c.env);
        const auto from_env = fieldsOf(obsOptions());

        EXPECT_EQ(from_flag, from_env) << c.flag << " vs " << c.env;
        EXPECT_NE(from_flag, fieldsOf(ObsOptions{})) << c.flag;
    }
}

TEST_F(ObsOptionsTest, CommandLineWinsOverEnvironment)
{
    setenv("SMARCO_SAMPLE_INTERVAL", "100", 1);
    setenv("SMARCO_TRACE", "env.trace", 1);
    setenv("SMARCO_NO_FAST_FORWARD", "0", 1);
    EXPECT_EQ(parse({"--sample-interval=200", "--no-fast-forward", "7"},
                    "[count]"),
              Args{"7"});
    EXPECT_EQ(obsOptions().sampleInterval, 200u);
    EXPECT_TRUE(obsOptions().noFastForward);
    // An option absent from the command line keeps the variable's.
    EXPECT_EQ(obsOptions().tracePath, "env.trace");
}

TEST_F(ObsOptionsTest, OwnArgumentsAreTheOnesTheUsageNames)
{
    EXPECT_EQ(parse({"--quick"}, "[--quick]"), Args{"--quick"});
    EXPECT_EQ(parse({}, "[--quick]"), Args{});
    EXPECT_EQ(countArg(parse({"16"}, "[num_tasks]"), 256), 16u);
    EXPECT_EQ(countArg(parse({}, "[num_tasks]"), 256), 256u);
}

TEST_F(ObsOptionsTest, AnythingElseExitsNamingTheArgument)
{
    const auto usage = ::testing::ExitedWithCode(2);
    // Arguments that are not options, once ignored, are rejected.
    EXPECT_EXIT(parse({"--not-an-option=1"}), usage,
                "unknown option '--not-an-option=1'");
    EXPECT_EXIT(parse({"--trace-categoriesx=core"}), usage,
                "unknown option '--trace-categoriesx=core'");
    EXPECT_EXIT(parse({"--stats_json=x"}), usage,
                "unknown option '--stats_json=x'");
    EXPECT_EXIT(parse({"--quick"}), usage, "unknown option '--quick'");
    EXPECT_EXIT(parse({"unrelated"}), usage,
                "unexpected argument 'unrelated'");
    EXPECT_EXIT(parse({"1", "2"}, "[count]"), usage,
                "unexpected argument '2'");
    // A switch takes no value, and every other flag needs one.
    EXPECT_EXIT(parse({"--no-fast-forward=1"}), usage,
                "malformed option '--no-fast-forward=1'");
    EXPECT_EXIT(parse({"--stats-json"}), usage,
                "malformed option '--stats-json'");
    // Numbers parse in full; trace categories must all be known.
    for (const char *bad :
         {"--sample-interval=abc", "--sample-interval=12x",
          "--sample-interval=", "--fault-seed=-1",
          "--trace-categories=core,bogus"})
        EXPECT_EXIT(parse({bad}), usage,
                    std::string("malformed option '") + bad + "'");
    EXPECT_EXIT(countArg(parse({"abc"}, "[clients]"), 400), usage,
                "not a positive count 'abc'");
    EXPECT_EXIT(countArg(parse({"0"}, "[clients]"), 400), usage,
                "not a positive count '0'");
    // The usage line lists the binary's own arguments and the flags.
    EXPECT_EXIT(parse({"x"}), usage,
                "usage: binary \\[--stats-json=...\\].* "
                "\\[--no-fast-forward\\]");
    // A malformed variable is an error too, naming the variable.
    setenv("SMARCO_FAULT_SEED", "seven", 1);
    EXPECT_EXIT(parse({}), ::testing::ExitedWithCode(1),
                "SMARCO_FAULT_SEED=seven");
}

} // namespace
} // namespace smarco
