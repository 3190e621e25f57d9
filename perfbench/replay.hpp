/**
 * @file
 * Layer replays for the traced run: each one calls a single layer's
 * public functions in isolation, on that layer's own configuration,
 * and reports host nanoseconds per call. Multiplied by the call
 * counts of a real run, they estimate each layer's share of the
 * simulation's host time.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "mem/mact.hpp"
#include "noc/ring.hpp"
#include "workloads/task.hpp"

namespace perfbench {

/** Host nanoseconds per call of each replayed layer (0 = not run). */
struct ReplayCosts {
    double nsPerOp = 0.0;     ///< workloads::ProfileStream::next
    double nsPerPacket = 0.0; ///< noc::Ring::inject + tick, per packet
    double nsPerAccess = 0.0; ///< mem::Cache/Mact/DramController
    double nsPerEvent = 0.0;  ///< EventQueue::schedule + fire
};

/** Micro-op generation over the workload's own tasks (profiles and
 *  per-task seeds). */
double replayProfileStream(
    const std::vector<smarco::workloads::TaskSpec> &tasks);

/** Ring traffic on a ring built with the chip's RingParams. */
double replayRing(const smarco::noc::RingParams &params);

/**
 * One memory access per step: an L1 lookup, a MACT collect (when a
 * MACT configuration is given) and a DRAM request.
 */
double replayMemory(const smarco::mem::CacheParams &cache,
                    const smarco::mem::MactParams *mact,
                    const smarco::mem::DramParams &dram);

/** Event-queue schedule + fire. */
double replayEventQueue();

} // namespace perfbench
