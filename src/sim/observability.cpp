#include "sim/observability.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <utility>

#include "sim/logging.hpp"
#include "sim/trace.hpp"

namespace smarco {

namespace {

/**
 * One observability option: its command-line flag, its environment
 * variable, and how a value sets it (false when it is malformed). A
 * switch flag takes no "=value" and applies as the value "1".
 */
struct ObsOption {
    const char *flag;
    const char *env;
    bool isSwitch;
    bool (*apply)(ObsOptions &o, const char *value);
};

/** Parse all of `v` as a decimal number. */
bool
toU64(const char *v, std::uint64_t &out)
{
    const char *end = v + std::strlen(v);
    const auto [last, ec] = std::from_chars(v, end, out);
    return ec == std::errc() && last == end;
}

template <std::string ObsOptions::*Field>
bool
setText(ObsOptions &o, const char *v)
{
    o.*Field = v;
    return true;
}

template <std::uint64_t ObsOptions::*Field>
bool
setNumber(ObsOptions &o, const char *v)
{
    return toU64(v, o.*Field);
}

const ObsOption kObsOptions[] = {
    {"--stats-json", "SMARCO_STATS_JSON", false,
     setText<&ObsOptions::statsJsonPath>},
    {"--trace", "SMARCO_TRACE", false, setText<&ObsOptions::tracePath>},
    {"--trace-categories", "SMARCO_TRACE_CATEGORIES", false,
     [](ObsOptions &o, const char *v) {
         const auto mask = parseTraceCategories(v);
         if (mask)
             o.traceCategories = *mask;
         return mask.has_value();
     }},
    {"--sample-interval", "SMARCO_SAMPLE_INTERVAL", false,
     setNumber<&ObsOptions::sampleInterval>},
    {"--sample-out", "SMARCO_SAMPLE_OUT", false,
     setText<&ObsOptions::samplePath>},
    {"--no-fast-forward", "SMARCO_NO_FAST_FORWARD", true,
     [](ObsOptions &o, const char *v) {
         o.noFastForward = *v != '\0' && *v != '0';
         return true;
     }},
    {"--faults", "SMARCO_FAULTS", false, setText<&ObsOptions::faultsPath>},
    {"--fault-seed", "SMARCO_FAULT_SEED", false,
     setNumber<&ObsOptions::faultSeed>},
};

ObsOptions
optionsFromEnvironment()
{
    ObsOptions o;
    for (const ObsOption &opt : kObsOptions) {
        const char *v = std::getenv(opt.env);
        if (v && !opt.apply(o, v))
            fatal("malformed value in %s=%s", opt.env, v);
    }
    return o;
}

/** "usage: <binary> <own arguments> [--flag=...]...", set by
 *  parseCommandLine() for its errors and countArg()'s. */
std::string gUsageLine;

[[noreturn]] void
usageError(const char *why, const std::string &arg)
{
    std::fprintf(stderr, "%s '%s'\n%s\n", why, arg.c_str(),
                 gUsageLine.c_str());
    std::exit(2);
}

} // namespace

ObsOptions &
obsOptions()
{
    static ObsOptions opts = optionsFromEnvironment();
    return opts;
}

std::vector<std::string>
parseCommandLine(int argc, const char *const *argv,
                 const std::string &usage)
{
    gUsageLine = std::string("usage: ") + argv[0];
    if (!usage.empty())
        gUsageLine += " " + usage;
    for (const ObsOption &opt : kObsOptions)
        gUsageLine += std::string(" [") + opt.flag +
                      (opt.isSwitch ? "]" : "=...]");
    std::size_t positionals = 0;
    for (std::size_t p = usage.find('['); p != std::string::npos;
         p = usage.find('[', p + 1))
        positionals += usage.compare(p, 2, "[-") != 0;

    ObsOptions o = optionsFromEnvironment();
    std::vector<std::string> rest;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (!arg.starts_with("--")) {
            if (positionals-- == 0)
                usageError("unexpected argument", arg);
            rest.push_back(arg);
            continue;
        }
        const std::string name = arg.substr(0, arg.find('='));
        const auto opt = std::find_if(
            std::begin(kObsOptions), std::end(kObsOptions),
            [&](const ObsOption &c) { return name == c.flag; });
        if (opt == std::end(kObsOptions)) {
            if (usage.find("[" + arg + "]") == std::string::npos)
                usageError("unknown option", arg);
            rest.push_back(arg);
        } else if (opt->isSwitch != (name == arg) ||
                   !opt->apply(o, opt->isSwitch
                                      ? "1"
                                      : arg.c_str() + name.size() + 1)) {
            usageError("malformed option", arg);
        }
    }
    obsOptions() = o;
    return rest;
}

std::uint64_t
countArg(const std::vector<std::string> &args, std::uint64_t fallback)
{
    std::uint64_t n = fallback;
    if (!args.empty() && (!toU64(args[0].c_str(), n) || n == 0))
        usageError("not a positive count", args[0]);
    return n;
}

namespace {

/** Write `runs` to `path` as {"runs":[...]}, one object a line. */
void
writeRuns(const std::string &path, const char *what,
          const std::map<std::uint32_t, std::string> &runs)
{
    std::ofstream f(path);
    if (!f) {
        warn("cannot open %s file '%s'", what, path.c_str());
        return;
    }
    f << "{\"runs\":[\n";
    const char *sep = "";
    for (const auto &[id, obj] : runs) {
        f << sep << obj;
        sep = ",\n";
    }
    f << "\n]}\n";
}

/** What detail::obs*() collect; written out by the destructor. */
struct Session {
    std::uint32_t nextRun = 0;
    std::ofstream traceFile;
    std::unique_ptr<TraceSink> sink;
    /** run id -> serialised {"run":..} object. */
    std::map<std::uint32_t, std::string> stats;
    std::map<std::uint32_t, std::string> sampleCsv;
    std::map<std::uint32_t, std::string> sampleJson;
    std::string sampleHeader;

    Session() = default;
    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;
    ~Session()
    {
        // Trace: destroying the sink writes the JSON footer.
        sink.reset();
        traceFile.close();

        const ObsOptions &o = obsOptions();
        if (o.statsWanted() && !stats.empty())
            writeRuns(o.statsJsonPath, "stats", stats);
        if (sampleCsv.empty())
            return;
        const std::string path =
            o.samplePath.empty() ? "samples.csv" : o.samplePath;
        if (path.ends_with(".json")) {
            writeRuns(path, "sample", sampleJson);
            return;
        }
        std::ofstream f(path);
        if (!f) {
            warn("cannot open sample file '%s'", path.c_str());
            return;
        }
        f << sampleHeader << '\n';
        for (const auto &[id, rows] : sampleCsv)
            f << rows;
    }
};

Session &
session()
{
    static Session s;
    return s;
}

} // namespace

namespace detail {

std::uint32_t
obsBeginRun()
{
    return ++session().nextRun;
}

TraceSink *
obsTraceSink()
{
    Session &s = session();
    const std::string &path = obsOptions().tracePath;
    if (s.sink || path.empty())
        return s.sink.get();
    s.traceFile.open(path);
    if (!s.traceFile) {
        warn("cannot open trace file '%s'; tracing disabled",
             path.c_str());
        obsOptions().tracePath.clear();
        return nullptr;
    }
    s.sink = std::make_unique<TraceSink>(s.traceFile);
    return s.sink.get();
}

void
obsRecordStats(std::uint32_t run_id, std::string json_object)
{
    session().stats[run_id] = std::move(json_object);
}

void
obsRecordSamples(std::uint32_t run_id, std::string header,
                 std::string csv, std::string json_object)
{
    Session &s = session();
    s.sampleHeader = std::move(header);
    s.sampleCsv[run_id] = std::move(csv);
    s.sampleJson[run_id] = std::move(json_object);
}

} // namespace detail

} // namespace smarco
