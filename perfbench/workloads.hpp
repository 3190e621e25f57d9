/**
 * @file
 * The benchmark's workloads. Each one generates its input from a
 * seed, builds a chip, submits the input, runs the simulation to
 * completion and reads the results back through StatRegistry. All
 * calls go through the simulator's public API.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace perfbench {

/** One host-time span (Chrome-trace "complete" event). */
struct Span {
    std::string name;
    std::string cat;
    double startUs = 0.0;
    double durUs = 0.0;
};

/**
 * In-memory span log. Spans are recorded around each benchmark call
 * into a layer and written out once, at exit. A disabled log times
 * the calls but records nothing, so an untraced repetition carries
 * none of the tracing cost.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled);

    /** Microseconds since the log was created. */
    double nowUs() const;

    /** Run fn, record it as a span; returns its duration in s. */
    template <typename Fn>
    double
    time(const std::string &name, const std::string &cat, Fn &&fn)
    {
        const double start = nowUs();
        fn();
        const double dur = nowUs() - start;
        if (enabled_)
            spans_.push_back(Span{name, cat, start, dur});
        return dur * 1e-6;
    }

    /** Write every span as Chrome-trace JSON (Perfetto-readable). */
    bool writeChromeTrace(const std::string &path,
                          const std::string &label) const;

  private:
    bool enabled_;
    std::int64_t originNs_;
    std::vector<Span> spans_;
};

/** Everything one repetition of a workload measured. */
struct RunResult {
    // --- host side (seconds; set-up times are medians of several) ------
    double genS = 0.0;
    double buildS = 0.0;
    double submitS = 0.0;
    /** Input generation + chip construction + submission and arming. */
    double setupS = 0.0;
    /** The simulation: every slice of it, back to back. */
    double runS = 0.0;
    /** Host seconds of each fixed slice of simulated time. */
    std::vector<double> sliceS;

    // --- simulated side -------------------------------------------------
    smarco::Cycle cycles = 0;
    std::uint64_t opsCommitted = 0;
    /** Tasks or requests offered to the chip. */
    std::uint64_t offered = 0;
    /** Completed within deadline (or completed, if no deadline). */
    std::uint64_t goodput = 0;
    /** Shed + expired + abandoned + unresolved. */
    std::uint64_t failed = 0;
    /** Due arrival (release) to completion, cycles, completed only. */
    double e2eP50 = 0.0;
    double e2eP99 = 0.0;
    std::uint64_t e2eSamples = 0;
    /** FNV-1a 64 of the full stats JSON dump. */
    std::uint64_t digest = 0;
    /** Call counts the layer replay costs are scaled by. */
    double ringDeliveries = 0.0;
    double memAccesses = 0.0;

    /** Per-layer metrics by name: counters read from StatRegistry,
     *  host timings and, for traced runs, replay costs. */
    std::map<std::string, double> layers;
    /** Output checks that failed, one line each (empty = correct). */
    std::vector<std::string> checkFailures;
};

/** Names of the workloads, in documentation order. */
const std::vector<std::string> &workloadNames();

/**
 * Run one repetition of a named workload. When traced, the layer
 * replays run after the simulation and go into the span log too.
 * Unknown names call smarco::fatal().
 */
RunResult runWorkload(const std::string &name, std::uint64_t seed,
                      SpanLog &spans, bool traced);

} // namespace perfbench
