#include "workloads/task.hpp"

#include <algorithm>

#include "sim/logging.hpp"
#include "sim/random.hpp"

namespace smarco::workloads {

const char *
shedReasonName(ShedReason reason)
{
    switch (reason) {
      case ShedReason::QueueFull:  return "queueFull";
      case ShedReason::Infeasible: return "infeasible";
      case ShedReason::Degraded:   return "degraded";
      case ShedReason::Expired:    return "expired";
      case ShedReason::Abandoned:  return "abandoned";
    }
    return "?";
}

Addr
kernelCodeBase(const TaskSpec &task, Addr base)
{
    return base + ((rngStreamId(task.profile->name) & 0xffff) << 16);
}

std::vector<TaskSpec>
makeTaskSet(const BenchProfile &profile, const TaskSetParams &params)
{
    if (params.count == 0)
        panic("makeTaskSet: empty task set requested");
    if (params.opsJitter < 0.0 || params.opsJitter >= 1.0)
        panic("makeTaskSet: opsJitter %f out of [0,1)", params.opsJitter);

    Rng rng(params.seed, 0x7a5c);
    std::vector<TaskSpec> tasks;
    tasks.reserve(params.count);
    for (std::uint64_t i = 0; i < params.count; ++i) {
        // Built in place: copying a fresh task stalls on store forwarding.
        TaskSpec &t = tasks.emplace_back();
        t.id = i;
        t.profile = &profile;
        const double jitter =
            1.0 + params.opsJitter * (2.0 * rng.nextDouble() - 1.0);
        t.numOps = std::max<std::uint64_t>(
            static_cast<std::uint64_t>(
                static_cast<double>(profile.opsPerTask) * jitter),
            16);
        t.inputBytes = profile.taskInputBytes;
        t.release = params.releaseSpan == 0
            ? 0
            : rng.nextBelow(params.releaseSpan + 1);
        t.deadline = params.deadline;
        t.realtime = params.realtime;
        t.seed = params.seed * 0x10001 + i;
    }
    return tasks;
}

} // namespace smarco::workloads
