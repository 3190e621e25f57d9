/**
 * @file
 * Overload-control knobs of the schedulers.
 *
 * Admission control bounds the per-sub-ring queues, sheds requests
 * whose deadline is already infeasible given the queue depth, and —
 * under a hysteresis-driven degraded mode — sheds best-effort traffic
 * before deadline traffic. Every shed task resolves through the hook
 * it carries (workloads::RequestHook), so the runtime can retry it
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

} // namespace smarco::sched
