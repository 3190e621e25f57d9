/**
 * @file
 * Fig. 22 — performance and energy-efficiency of the full 256-core
 * SmarCo over the Xeon E7-8890V4 baseline on the six HTC benchmarks
 * (all expressed as MapReduce-style task streams).
 *
 * Performance is task throughput in real time:
 *   speedup = (tasks/cycle_smarco x 1.5 GHz) /
 *             (tasks/cycle_xeon   x 2.2 GHz)
 * Energy efficiency divides each side by its operating power
 * (analytical SmarCo model at its measured activity; 165 W TDP curve
 * for the Xeon at its measured utilisation).
 */
#include "bench_util.hpp"

#include "power/power_model.hpp"

using namespace smarco;
using namespace smarco::bench;

int
main()
{
    banner("Fig. 22", "SmarCo (256 cores, 2048 threads) vs Xeon "
                      "E7-8890V4 (24 cores, 48 threads)");

    const auto cfg = chip::ChipConfig::simulated256();
    baseline::BaselineParams xeon;

    std::printf("%-12s %10s %10s %9s %9s %9s %10s\n", "bench",
                "SmarCo", "Xeon", "speedup", "SmarCoW", "XeonW",
                "energyEff");
    std::printf("%-12s %10s %10s %9s %9s %9s %10s\n", "",
                "(t/Mcy)", "(t/Mcy)", "", "", "", "");

    std::vector<double> speedups, effs;
    for (const auto &prof : workloads::htcProfiles()) {
        // Steady-state throughput: enough tasks to fill all 2048
        // SmarCo thread contexts and to amortise the Xeon's one-time
        // pthread creation, at the profile's native task size.
        const auto sm = runSmarco(cfg, prof, 3072, 0, 57);
        const auto xe = runBaseline(xeon, prof, 3072, 48, 0, 57,
                                    /*max_cycles=*/2'000'000'000);

        const double sm_rate =
            sm.metrics.tasksPerMCycle * cfg.freqGHz;
        const double xe_rate =
            xe.tasksPerMCycle * xeon.freqGHz;
        const double speedup = sm_rate / xe_rate;

        const double sm_watts =
            power::smarcoPower(cfg, power::TechNode::nm32(),
                               0.3 + 0.7 * sm.utilisation)
                .totalPowerW();
        const double xe_watts = power::xeonPowerW(xe.cpuUtilisation);
        const double eff = speedup * xe_watts / sm_watts;

        speedups.push_back(speedup);
        effs.push_back(eff);
        std::printf("%-12s %10.1f %10.1f %8.2fx %9.1f %9.1f %9.2fx\n",
                    prof.name.c_str(), sm.metrics.tasksPerMCycle,
                    xe.tasksPerMCycle, speedup, sm_watts, xe_watts,
                    eff);
    }

    std::printf("\nmean speedup          = %.2fx   (paper: 10.11x, "
                "range 4.86x..18.57x)\n", geomean(speedups));
    std::printf("mean energy efficiency = %.2fx   (paper: 6.95x, "
                "range 3.34x..12.77x)\n", geomean(effs));

    note("");
    note("paper shape: every benchmark favours SmarCo; the small-");
    note("granularity, memory-bound kernels (KMP, RNC) gain the most,");
    note("the compute-heavy K-means / low-memory search the least.");
    return 0;
}
