/**
 * @file
 * Software task model: the unit of work the schedulers dispatch onto
 * hardware thread contexts.
 */
#pragma once

#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "sim/types.hpp"
#include "workloads/profile.hpp"

namespace smarco::workloads {

struct TaskSpec;

/** Why a request was refused, dropped or given up by the chip. */
enum class ShedReason : std::uint8_t {
    /** Target admission queue (sub-ring or shared bag) at capacity. */
    QueueFull,
    /** Deadline unreachable given current queue depth (laxity). */
    Infeasible,
    /** Best-effort task refused while in degraded mode. */
    Degraded,
    /** Deadline passed while queued; dropped before dispatch. */
    Expired,
    /** Killed by a fault and given up: recovery is off or out of
     *  attempts. */
    Abandoned,
};

/** Lower-case name of a shed reason ("queueFull", ...). */
const char *shedReasonName(ShedReason reason);

/** Terminal outcome of one submitted request. */
struct RequestResult {
    bool completed = false;
    /** Finish cycle (completed), else the shed or abandon cycle. */
    Cycle when = 0;
    CoreId core = 0;
    /** Valid only when !completed. */
    ShedReason reason = ShedReason::QueueFull;
};

/**
 * Observer of a request's terminal outcome. The task names it
 * (TaskSpec::observer) through every queue, hand-off packet and
 * re-dispatch, and whichever component resolves the request calls
 * resolved(), once: on completion, when admission control or load
 * shedding rejects it, or when fault recovery abandons it. The
 * observer must outlive every task that names it.
 */
class RequestObserver
{
  public:
    virtual void resolved(const TaskSpec &task,
                          const RequestResult &res) = 0;

  protected:
    ~RequestObserver() = default;
};

/**
 * One schedulable task: a bounded instruction stream drawn from a
 * benchmark profile, optionally with a hard deadline (RNC-style).
 */
struct TaskSpec {
    TaskId id = 0;
    const BenchProfile *profile = nullptr;
    /** Micro-ops the task executes before completing. */
    std::uint64_t numOps = 0;
    /** Bytes staged into SPM before the task starts (DMA). */
    std::uint64_t inputBytes = 0;
    /** Cycle at which the task becomes available for dispatch. */
    Cycle release = 0;
    /** Absolute deadline; kNoCycle when the task is best-effort. */
    Cycle deadline = kNoCycle;
    /** Superior real-time priority (uses MACT bypass / direct path). */
    bool realtime = false;
    /** Fault recovery: times this task was killed and requeued; a
     *  retry's release is its last failure plus the backoff for it. */
    std::uint32_t failures = 0;
    /** Per-task RNG seed so task bodies are independent streams. */
    std::uint64_t seed = 0;
    /** Outcome observer (null = none). */
    RequestObserver *observer = nullptr;

    bool hasDeadline() const { return deadline != kNoCycle; }
    /** True when the task has no deadline, or could still meet it if
     *  it started at start and ran ~1 op/cycle. */
    bool canFinishBy(Cycle start) const
    { return !hasDeadline() || start + numOps <= deadline; }

    /**
     * Laxity at cycle now after ops_done of the task's ops: time left
     * to the deadline minus the ops left, at ~1 op/cycle. +infinity
     * without a deadline, so best-effort tasks rank last. The one
     * urgency measure of the paper's hardware scheduler: the chain
     * table pops queued tasks by it (Section 3.7) and LaxityAware
     * issue ranks running ones (Section 3.1).
     */
    double laxity(Cycle now, std::uint64_t ops_done = 0) const
    {
        if (!hasDeadline())
            return std::numeric_limits<double>::infinity();
        const double ops_left = numOps > ops_done
            ? static_cast<double>(numOps - ops_done)
            : 0.0;
        const double time_left = deadline > now
            ? static_cast<double>(deadline - now)
            : 0.0;
        return time_left - ops_left;
    }
};

static_assert(std::is_trivially_copyable_v<TaskSpec>);

/**
 * Deterministic code base address of the task's kernel in a synthetic
 * PC space: base plus a 64 KiB-aligned offset hashed from the profile
 * name, so tasks of one kernel share instruction lines. The task must
 * carry a profile.
 */
Addr kernelCodeBase(const TaskSpec &task, Addr base);

/** Resolve a request: tell its observer, if it names one. */
inline void
resolve(const TaskSpec &task, const RequestResult &res)
{
    if (task.observer)
        task.observer->resolved(task, res);
}

/** Knobs for makeTaskSet. */
struct TaskSetParams {
    std::uint64_t count = 256;
    /** +/- fractional jitter applied to the profile's opsPerTask. */
    double opsJitter = 0.15;
    Cycle deadline = kNoCycle;
    bool realtime = false;
    /** Release spread: tasks release uniformly in [0, releaseSpan]. */
    Cycle releaseSpan = 0;
    std::uint64_t seed = 1;
};

/**
 * Build a homogeneous task set from one benchmark profile, with
 * deterministic per-task length jitter and release times.
 */
std::vector<TaskSpec> makeTaskSet(const BenchProfile &profile,
                                  const TaskSetParams &params);

} // namespace smarco::workloads
