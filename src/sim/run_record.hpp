/**
 * @file
 * One run's counts, filled alike by the SmarCo chip and the
 * conventional baseline, and the rates derived from them.
 */
#pragma once

#include <cstdint>

#include "sim/types.hpp"

namespace smarco {

/** The counts both chips report for a run. The rates compared across
 *  chips are derived here only, so both compute them the same way. */
struct RunRecord {
    /** Span the rates divide by. SmarCo's is the clock when the
     *  simulator drains; the baseline's is the count of its own ticks
     *  while it has live threads. */
    Cycle cycles = 0;
    /** Finish cycle of the last completed task. Only bench_resilience
     *  divides by this span: its faulted runs append recovery and
     *  watchdog events past the useful work. */
    Cycle lastTaskFinish = 0;
    std::uint64_t tasksCompleted = 0;
    std::uint64_t opsCommitted = 0;
    std::uint64_t deadlineMisses = 0;
    std::uint64_t dramRequests = 0;
    /** Issue slots offered, summed over cores. The chips count them
     *  differently: a SmarCo core only while it holds a live context
     *  (TcgCore::tick and skipTicks return early otherwise), the
     *  baseline every core on each tick while any thread lives. */
    std::uint64_t slotsOffered = 0;
    std::uint64_t slotsUsed = 0; ///< slots that committed a micro-op

    /** Ops per cycle, whole chip. */
    double aggregateIpc() const
    {
        return cycles > 0 ? static_cast<double>(opsCommitted) /
                                static_cast<double>(cycles)
                          : 0.0;
    }

    /** Task throughput. */
    double tasksPerMCycle() const
    {
        return cycles > 0 ? 1e6 * static_cast<double>(tasksCompleted) /
                                static_cast<double>(cycles)
                          : 0.0;
    }

    /** Used over offered issue slots: the power models' activity. */
    double slotUtilisation() const
    {
        return slotsOffered > 0 ? static_cast<double>(slotsUsed) /
                                      static_cast<double>(slotsOffered)
                                : 0.0;
    }
};

} // namespace smarco
