/**
 * @file
 * Process-level observability wiring.
 *
 * Every binary linking the simulator gains a shared set of
 * machine-readable output channels, configured from the environment
 * or, in a binary whose main() hands its argv to parseCommandLine(),
 * from the command line as well (the command line wins):
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
#include <vector>

#include "sim/types.hpp"

namespace smarco {

class TraceSink;

/** Parsed observability options (process-global). */
struct ObsOptions {
    std::string statsJsonPath;
    std::string tracePath;
    std::uint32_t traceCategories = 0xffffffffu; ///< kAllTraceCats
    Cycle sampleInterval = 0;
    std::string samplePath; ///< default: "samples.csv"
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

/** Process-global options, read from the environment on first use. */
ObsOptions &obsOptions();

/**
 * Set the options from the environment, then from the flags in
 * argv[1..argc), and return the other arguments in order. `usage`
 * names the binary's own arguments: each "[--switch]" in it is a
 * switch it accepts, each other "[word]" one optional positional.
 * Exits 2 with a usage line naming the argument on an unknown --flag,
 * a surplus positional, a malformed number or an unknown trace
 * category.
 */
std::vector<std::string> parseCommandLine(int argc,
                                          const char *const *argv,
                                          const std::string &usage);

/**
 * The positional of `args` as a count, `fallback` when absent. Exits
 * 2 unless it parses in full and is > 0.
 */
std::uint64_t countArg(const std::vector<std::string> &args,
                       std::uint64_t fallback);

namespace detail {

// The process-wide collector behind the Simulator integration: it
// numbers the runs, owns the trace sink, buffers each run's stats and
// samples, and writes every configured file when the process exits.

/** Register a new simulator run; returns its run id (1-based). */
std::uint32_t obsBeginRun();

/** Trace sink for the configured trace file (null when off). */
TraceSink *obsTraceSink();

/** Record (or replace) a run's stats: one serialised JSON object. */
void obsRecordStats(std::uint32_t run_id, std::string json_object);

/** Record (or replace) a run's samples: CSV rows under `header` (the
 *  latest run's header wins) and one serialised JSON object. */
void obsRecordSamples(std::uint32_t run_id, std::string header,
                      std::string csv, std::string json_object);

} // namespace detail

} // namespace smarco
