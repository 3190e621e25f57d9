/**
 * @file
 * Open-loop request generator for the overload experiments.
 *
 * Datacenter serving (the paper's CDN/RNC motivation) is open-loop:
 * clients keep sending whether or not the chip keeps up, so offered
 * load can exceed capacity. makePoissonRequests turns a rate into a
 * deterministic Poisson arrival sequence; each request carries a
 * deadline relative to its own arrival.
 *
 * Determinism contract: all arrivals are pre-generated here, before
 * the run starts, from the named "overload.arrivals" stream — the
 * same recipe the fault campaign uses — so the same seed gives the
 * same request sequence in the per-cycle and fast-forward kernels,
 * and arming an overload run never perturbs workload or scheduler
 * draws.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "sim/types.hpp"
#include "workloads/task.hpp"

namespace smarco::workloads {

/** Knobs of the open-loop generator. */
struct RequestGenParams {
    /** Number of requests to generate. */
    std::uint64_t count = 256;
    /** First arrival is drawn at or after this cycle. */
    Cycle start = 0;
    /** Mean arrivals per 1000 cycles (Poisson rate). */
    double ratePerKCycle = 1.0;
    /** Deadline of each request relative to its arrival; kNoCycle
     *  makes the stream best-effort. */
    Cycle relativeDeadline = kNoCycle;
    /** Fraction of requests carrying the deadline; the rest are
     *  best-effort (sheds first in degraded mode). */
    double deadlineFraction = 1.0;
    /** Mark deadline-carrying requests realtime (RNC-style). */
    bool realtime = false;
    /** +/- fractional jitter on the profile's opsPerTask. */
    double opsJitter = 0.15;
    /** Override per-request work (0 keeps the profile's value). */
    std::uint64_t opsOverride = 0;
    std::uint64_t seed = 1;
    /** Task ids are assigned from here (streams must not collide). */
    std::uint64_t firstId = 0;
};

/**
 * Deterministic Poisson arrivals: exponential inter-arrival gaps at
 * params.ratePerKCycle, each request released at its arrival cycle
 * with deadline = arrival + relativeDeadline.
 */
std::vector<TaskSpec> makePoissonRequests(const BenchProfile &profile,
                                          const RequestGenParams &params);

} // namespace smarco::workloads
