/**
 * @file
 * Interval time-series sampler.
 *
 * The Simulator owns one IntervalSampler and calls maybeSample() each
 * cycle of the run loop (an inline no-op until an interval is set and
 * a probe registered). Components register named probes — callables
 * returning one double — and the sampler snapshots every probe at
 * exact interval boundaries, building a time series that dumps as CSV
 * or JSON. Probes may carry internal state to report rates (e.g. IPC
 * over the last interval) rather than cumulative counters.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace smarco {

class TraceManager;

class IntervalSampler
{
  public:
    using Probe = std::function<double()>;

    /** Sample every n cycles; 0 disables. Resets the boundary clock. */
    void setInterval(Cycle n);
    Cycle interval() const { return interval_; }

    /** Register a named probe (columns appear in insertion order). */
    void addProbe(std::string name, Probe probe);

    /** True once sampling can actually happen. */
    bool active() const { return interval_ > 0 && !probes_.empty(); }

    /** Also mirror each sample as trace counter events (may be null). */
    void setTrace(TraceManager *trace) { trace_ = trace; }

    /** Per-cycle hook: snapshots when now crosses a boundary. */
    void maybeSample(Cycle now)
    {
        if (interval_ == 0 || now < nextAt_ || probes_.empty())
            return;
        sampleAt(now);
    }

    /** Force a snapshot at the given cycle (advances the boundary). */
    void sampleAt(Cycle now);

    /** Next boundary cycle a clock skip must not jump across. */
    Cycle nextBoundary() const { return nextAt_; }

    const std::vector<Cycle> &times() const { return times_; }
    const std::vector<std::vector<double>> &rows() const
    { return rows_; }
    std::vector<std::string> probeNames() const;

    /** One header row ("cycle,probe1,...") plus one row per sample. */
    void dumpCsv(std::ostream &os) const;
    /** {"interval":N,"probes":[...],"samples":[[cycle,v...],...]} */
    void dumpJson(std::ostream &os) const;

  private:
    struct NamedProbe {
        std::string name;
        Probe fn;
    };

    Cycle interval_ = 0;
    Cycle nextAt_ = 0;
    std::vector<NamedProbe> probes_;
    std::vector<Cycle> times_;
    std::vector<std::vector<double>> rows_;
    TraceManager *trace_ = nullptr;
};

} // namespace smarco
