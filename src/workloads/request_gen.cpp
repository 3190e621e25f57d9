#include "workloads/request_gen.hpp"

#include <algorithm>
#include <cmath>

#include "sim/logging.hpp"
#include "sim/random.hpp"

namespace smarco::workloads {

std::vector<TaskSpec>
makePoissonRequests(const BenchProfile &profile,
                    const RequestGenParams &params)
{
    if (params.count == 0)
        panic("makePoissonRequests: empty request set");
    if (params.ratePerKCycle <= 0.0)
        panic("makePoissonRequests: rate %f must be positive",
              params.ratePerKCycle);
    if (params.opsJitter < 0.0 || params.opsJitter >= 1.0)
        panic("makePoissonRequests: opsJitter %f out of [0,1)",
              params.opsJitter);

    Rng rng = namedRng(params.seed, "overload.arrivals");
    const double mean_gap = 1000.0 / params.ratePerKCycle;
    const std::uint64_t base_ops =
        params.opsOverride ? params.opsOverride : profile.opsPerTask;
    std::vector<TaskSpec> requests;
    requests.reserve(params.count);
    Cycle arrival = params.start;
    for (std::uint64_t i = 0; i < params.count; ++i) {
        // Exponential inter-arrival gap, at least one cycle so two
        // requests never alias to the same submission instant.
        const double u = rng.nextDouble();
        const Cycle gap = std::max<Cycle>(
            1, static_cast<Cycle>(-mean_gap *
                                  std::log(1.0 - u)));
        arrival += gap;
        // Built in place: copying a task just written field by field
        // stalls on store forwarding.
        TaskSpec &t = requests.emplace_back();
        t.id = params.firstId + i;
        t.profile = &profile;
        const double jitter =
            1.0 + params.opsJitter * (2.0 * rng.nextDouble() - 1.0);
        t.numOps = std::max<std::uint64_t>(
            static_cast<std::uint64_t>(
                static_cast<double>(base_ops) * jitter),
            16);
        t.inputBytes = profile.taskInputBytes;
        t.release = arrival;
        const bool slo = params.relativeDeadline != kNoCycle &&
                         rng.chance(params.deadlineFraction);
        if (slo) {
            t.deadline = arrival + params.relativeDeadline;
            t.realtime = params.realtime;
        }
        t.seed = params.seed * 0x10001 + t.id;
    }
    return requests;
}

} // namespace smarco::workloads
