/**
 * @file
 * Overload-control and fault-recovery knobs of the schedulers. The
 * header is light (no scheduler or core model) so that fault
 * campaign specs can carry the recovery knobs.
 *
 * Admission control bounds the per-sub-ring queues, sheds requests
 * whose deadline is already infeasible given the queue depth, and —
 * under a hysteresis-driven degraded mode — sheds best-effort traffic
 * before deadline traffic. Every shed task resolves to the observer
 * it names (workloads::RequestObserver), so the runtime can retry it
 * with bounded backoff; nothing is ever dropped silently.
 */
#pragma once

#include <cstdint>

#include "sim/types.hpp"

namespace smarco::sched {

/** Admission-control knobs of the main scheduler. */
struct AdmissionParams {
    /** Max load (queued + in-flight tasks) per sub-ring scheduler.
     *  Must not exceed the sub-scheduler chain capacity. */
    std::uint32_t subQueueCap = 64;
    /** Estimated extra sojourn cycles contributed by each task
     *  already queued on the target sub-ring (0 disables the
     *  queue-depth term of the feasibility test). */
    Cycle queuedCost = 0;
    /** Enter degraded mode when total load / total capacity rises
     *  to this fraction... */
    double degradedEnter = 0.85;
    /** ...and leave it only once load falls back below this one
     *  (hysteresis: the gap stops threshold flapping). */
    double degradedExit = 0.55;
};

/**
 * Heartbeat/timeout recovery knobs (see src/fault/). The scheduler
 * samples the committed-op counter of every in-flight task each
 * heartbeat; a task whose counter is frozen for hangTimeout cycles is
 * killed and re-dispatched with bounded exponential backoff. The
 * timeout must comfortably exceed the longest legitimate memory stall
 * (including injected DRAM stall windows) — a false positive only
 * costs a re-run, but each one wastes the work done so far.
 */
struct RecoveryParams {
    Cycle heartbeatInterval = 10'000;
    Cycle hangTimeout = 60'000;
    /** Re-dispatch backoff: boundedBackoff(base, attempt - 1, max). */
    Cycle backoffBase = 500;
    Cycle backoffMax = 32'000;
    /** Failed attempts after which the task is abandoned. */
    std::uint32_t maxAttempts = 8;
};

/** Bounded exponential backoff, min(base << min(n, 20), max), that
 *  saturates at max where the shift would overflow a Cycle. */
constexpr Cycle
boundedBackoff(Cycle base, std::uint32_t n, Cycle max)
{
    const std::uint32_t shift = n < 20 ? n : 20;
    return base > (max >> shift) ? max : base << shift;
}

} // namespace smarco::sched
