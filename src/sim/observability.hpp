/**
 * @file
 * Process-level observability wiring.
 *
 * Every binary linking the simulator gains a shared set of
 * machine-readable output channels, configured from the command line
 * or the environment — no per-binary plumbing required (an ELF
 * .init_array hook scans argv before main on glibc; the environment
 * works everywhere):
 *
 *   --stats-json=PATH        SMARCO_STATS_JSON        JSON stat dump
 *   --trace=PATH             SMARCO_TRACE             Chrome trace
 *   --trace-categories=LIST  SMARCO_TRACE_CATEGORIES  e.g. core,noc
 *   --sample-interval=N      SMARCO_SAMPLE_INTERVAL   cycles
 *   --sample-out=PATH        SMARCO_SAMPLE_OUT        .csv or .json
 *   --no-fast-forward        SMARCO_NO_FAST_FORWARD   tick every cycle
 *   --faults=PATH            SMARCO_FAULTS            campaign JSON
 *   --fault-seed=N           SMARCO_FAULT_SEED        campaign seed
 *
 * Each Simulator constructed while an output is configured becomes
 * one "run": its stats land as one object in the stats JSON, its
 * trace events under its own pid, its samples tagged with its run id.
 * Files are finalised when the process exits.
 */
#pragma once

#include <cstdint>
#include <string>

#include "sim/types.hpp"

namespace smarco {

class Simulator;
class TraceSink;

/** Parsed observability options (process-global). */
struct ObsOptions {
    std::string statsJsonPath;
    std::string tracePath;
    std::uint32_t traceCategories = 0xffffffffu; ///< kAllTraceCats
    Cycle sampleInterval = 0;
    std::string samplePath; ///< default: derived "<binary>.samples.csv"
    /** Disable the quiescence fast-forward kernel (escape hatch /
     *  slow reference mode for the golden-stats harness). */
    bool noFastForward = false;
    /** Fault campaign JSON spec; empty = no faults (see src/fault/). */
    std::string faultsPath;
    /** Seed for the campaign's named "fault.*" RNG streams. */
    std::uint64_t faultSeed = 1;

    bool faultsWanted() const { return !faultsPath.empty(); }
    bool statsWanted() const { return !statsJsonPath.empty(); }
    bool traceWanted() const { return !tracePath.empty(); }
    bool samplingWanted() const { return sampleInterval > 0; }
    bool anyWanted() const
    { return statsWanted() || traceWanted() || samplingWanted(); }
};

/** Mutable global options (normally filled before main). */
ObsOptions &obsOptions();

/**
 * Try to consume one --flag=value argument.
 * @return true when the argument was an observability flag.
 */
bool parseObsFlag(const std::string &arg);

/** Read SMARCO_* environment overrides into the global options. */
void obsInitFromEnv();

/**
 * Read the environment, then the flags in argv[1..argc), so the
 * command line wins. Runs before main on glibc.
 */
void obsInit(int argc, const char *const *argv);

namespace detail {

/**
 * Process-wide collector behind the Simulator integration: assigns
 * run ids, owns the trace sink, buffers per-run stat/sample payloads
 * and writes all configured files at process exit.
 */
class ObsSession
{
  public:
    static ObsSession &instance();

    /** Register a new simulator run; returns its run id (1-based). */
    std::uint32_t beginRun();

    /** Trace sink for the configured trace file (null when off). */
    TraceSink *traceSink();

    /**
     * Record (or replace) the stats payload of a run — the body of
     * one JSON object, already serialised.
     */
    void recordStats(std::uint32_t run_id, std::string json_object);

    /** Record (or replace) the sample dump of a run. */
    void recordSamples(std::uint32_t run_id, std::string csv,
                       std::string json_payload);

    /** Header row of the sample CSV (latest run wins). */
    void setSampleHeader(std::string header);

    /** Write every configured file (idempotent; also runs at exit). */
    void finalise();

  private:
    ObsSession() = default;
    ~ObsSession();

    struct Impl;
    Impl *impl();
    Impl *impl_ = nullptr;
};

} // namespace detail

} // namespace smarco
