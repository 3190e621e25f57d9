#include "sim/observability.hpp"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <utility>

#include "sim/logging.hpp"
#include "sim/trace.hpp"

namespace smarco {

ObsOptions &
obsOptions()
{
    static ObsOptions opts;
    return opts;
}

namespace {

/**
 * One observability option: its command-line flag, its environment
 * variable, and how a value sets it. A switch flag takes no "=value"
 * and applies as the value "1".
 */
struct ObsOption {
    const char *flag;
    const char *env;
    bool isSwitch;
    void (*apply)(ObsOptions &o, const char *value);
};

std::uint64_t
toU64(const char *v)
{
    return std::strtoull(v, nullptr, 10);
}

const ObsOption kObsOptions[] = {
    {"--stats-json", "SMARCO_STATS_JSON", false,
     [](ObsOptions &o, const char *v) { o.statsJsonPath = v; }},
    {"--trace", "SMARCO_TRACE", false,
     [](ObsOptions &o, const char *v) { o.tracePath = v; }},
    {"--trace-categories", "SMARCO_TRACE_CATEGORIES", false,
     [](ObsOptions &o, const char *v) {
         o.traceCategories = parseTraceCategories(v);
     }},
    {"--sample-interval", "SMARCO_SAMPLE_INTERVAL", false,
     [](ObsOptions &o, const char *v) { o.sampleInterval = toU64(v); }},
    {"--sample-out", "SMARCO_SAMPLE_OUT", false,
     [](ObsOptions &o, const char *v) { o.samplePath = v; }},
    {"--no-fast-forward", "SMARCO_NO_FAST_FORWARD", true,
     [](ObsOptions &o, const char *v) {
         o.noFastForward = *v != '\0' && *v != '0';
     }},
    {"--faults", "SMARCO_FAULTS", false,
     [](ObsOptions &o, const char *v) { o.faultsPath = v; }},
    {"--fault-seed", "SMARCO_FAULT_SEED", false,
     [](ObsOptions &o, const char *v) { o.faultSeed = toU64(v); }},
};

} // namespace

bool
parseObsFlag(const std::string &arg)
{
    for (const ObsOption &opt : kObsOptions) {
        const std::size_t n = std::strlen(opt.flag);
        if (arg.compare(0, n, opt.flag) != 0)
            continue;
        if (opt.isSwitch && arg.size() == n) {
            opt.apply(obsOptions(), "1");
            return true;
        }
        if (!opt.isSwitch && arg.size() > n && arg[n] == '=') {
            opt.apply(obsOptions(), arg.c_str() + n + 1);
            return true;
        }
    }
    return false;
}

void
obsInitFromEnv()
{
    for (const ObsOption &opt : kObsOptions) {
        if (const char *v = std::getenv(opt.env))
            opt.apply(obsOptions(), v);
    }
}

void
obsInit(int argc, const char *const *argv)
{
    obsInitFromEnv();
    for (int i = 1; i < argc; ++i)
        parseObsFlag(argv[i]);
}

namespace {

#if defined(__GLIBC__)
/**
 * glibc runs .init_array entries with (argc, argv, envp), so the
 * flags are picked up before main without touching any binary's
 * argument handling.
 */
__attribute__((constructor)) void
obsPreMain(int argc, char **argv, char ** /*envp*/)
{
    obsInit(argc, argv);
}
#else
__attribute__((constructor)) void
obsPreMain()
{
    obsInitFromEnv();
}
#endif

} // namespace

namespace detail {

struct ObsSession::Impl {
    std::uint32_t nextRun = 0;
    std::ofstream traceFile;
    std::unique_ptr<TraceSink> sink;
    /** run id -> serialised {"run":..} object for the stats file. */
    std::map<std::uint32_t, std::string> stats;
    /** run id -> (csv body rows, json run object). */
    std::map<std::uint32_t, std::pair<std::string, std::string>> samples;
    std::string sampleHeader;
    bool finalised = false;
};

ObsSession &
ObsSession::instance()
{
    static ObsSession session;
    return session;
}

ObsSession::Impl *
ObsSession::impl()
{
    if (!impl_)
        impl_ = new Impl;
    return impl_;
}

ObsSession::~ObsSession()
{
    finalise();
    delete impl_;
    impl_ = nullptr;
}

std::uint32_t
ObsSession::beginRun()
{
    return ++impl()->nextRun;
}

TraceSink *
ObsSession::traceSink()
{
    Impl *im = impl();
    if (im->sink)
        return im->sink.get();
    const std::string &path = obsOptions().tracePath;
    if (path.empty() || im->finalised)
        return nullptr;
    im->traceFile.open(path);
    if (!im->traceFile) {
        warn("cannot open trace file '%s'; tracing disabled",
             path.c_str());
        obsOptions().tracePath.clear();
        return nullptr;
    }
    im->sink = std::make_unique<TraceSink>(im->traceFile);
    return im->sink.get();
}

void
ObsSession::recordStats(std::uint32_t run_id, std::string json_object)
{
    impl()->stats[run_id] = std::move(json_object);
}

void
ObsSession::recordSamples(std::uint32_t run_id, std::string csv,
                          std::string json_payload)
{
    impl()->samples[run_id] = {std::move(csv), std::move(json_payload)};
}

void
ObsSession::setSampleHeader(std::string header)
{
    impl()->sampleHeader = std::move(header);
}

void
ObsSession::finalise()
{
    Impl *im = impl();
    if (im->finalised)
        return;
    im->finalised = true;

    // Trace: destroying the sink writes the JSON footer.
    im->sink.reset();
    if (im->traceFile.is_open())
        im->traceFile.close();

    const ObsOptions &o = obsOptions();
    if (o.statsWanted() && !im->stats.empty()) {
        std::ofstream f(o.statsJsonPath);
        if (!f) {
            warn("cannot open stats file '%s'", o.statsJsonPath.c_str());
        } else {
            f << "{\"runs\":[\n";
            bool first = true;
            for (const auto &[id, obj] : im->stats) {
                f << (first ? "" : ",\n") << obj;
                first = false;
            }
            f << "\n]}\n";
        }
    }

    if (!im->samples.empty()) {
        std::string path = o.samplePath;
        if (path.empty())
            path = "samples.csv";
        const bool as_json =
            path.size() >= 5 &&
            path.compare(path.size() - 5, 5, ".json") == 0;
        std::ofstream f(path);
        if (!f) {
            warn("cannot open sample file '%s'", path.c_str());
        } else if (as_json) {
            f << "{\"runs\":[\n";
            bool first = true;
            for (const auto &[id, payload] : im->samples) {
                f << (first ? "" : ",\n") << payload.second;
                first = false;
            }
            f << "\n]}\n";
        } else {
            f << im->sampleHeader << '\n';
            for (const auto &[id, payload] : im->samples)
                f << payload.first;
        }
    }
}

} // namespace detail

} // namespace smarco
