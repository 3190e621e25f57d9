/**
 * @file
 * Fig. 26 — energy efficiency of the taped-out TSMC 40 nm prototype
 * (256 threads at most) over the Xeon E7-8890V4. Same methodology as
 * Fig. 22 but with the prototype configuration and the 40 nm power
 * model.
 */
#include "bench_util.hpp"

#include "power/power_model.hpp"

using namespace smarco;
using namespace smarco::bench;

int
main()
{
    banner("Fig. 26", "prototype (TSMC 40 nm, 32 cores / 256 threads) "
                      "energy efficiency vs Xeon E7-8890V4");

    const auto cfg = chip::ChipConfig::prototype40nm();
    baseline::BaselineParams xeon;

    std::printf("%-12s %10s %10s %9s %9s %9s %10s\n", "bench",
                "proto", "Xeon", "speedup", "protoW", "XeonW",
                "energyEff");
    std::printf("%-12s %10s %10s %9s %9s %9s %10s\n", "",
                "(t/Mcy)", "(t/Mcy)", "", "", "", "");

    std::vector<double> effs;
    for (const auto &prof : workloads::htcProfiles()) {
        const auto sm = runSmarco(cfg, prof, 768, 0, 63);
        const auto xe = runBaseline(xeon, prof, 768, 48, 0, 63,
                                    /*max_cycles=*/2'000'000'000);

        const double sm_rate =
            sm.metrics.tasksPerMCycle * cfg.freqGHz;
        const double xe_rate = xe.tasksPerMCycle * xeon.freqGHz;
        const double speedup = sm_rate / xe_rate;

        const double sm_watts =
            power::smarcoPower(cfg, power::TechNode::nm40(),
                               0.3 + 0.7 * sm.utilisation)
                .totalPowerW();
        const double xe_watts = power::xeonPowerW(xe.cpuUtilisation);
        const double eff = speedup * xe_watts / sm_watts;
        effs.push_back(eff);

        std::printf("%-12s %10.1f %10.1f %8.2fx %9.1f %9.1f %9.2fx\n",
                    prof.name.c_str(), sm.metrics.tasksPerMCycle,
                    xe.tasksPerMCycle, speedup, sm_watts, xe_watts,
                    eff);
    }

    std::printf("\nmean energy efficiency = %.2fx   "
                "(paper: 3.85x, range 2.05x..6.84x)\n", geomean(effs));

    note("");
    note("paper shape: the small prototype loses raw speed (8x fewer");
    note("threads than the simulated chip) but still beats the Xeon on");
    note("energy efficiency on every benchmark (Section 4.4).");
    return 0;
}
