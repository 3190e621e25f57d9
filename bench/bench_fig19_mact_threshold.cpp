/**
 * @file
 * Fig. 19 — execution speedup versus the MACT time threshold
 * (4..64 cycles), normalised to the 8-cycle threshold as in the
 * paper. Full-chip runs on a reduced SmarCo slice.
 */
#include "bench_util.hpp"

using namespace smarco;
using namespace smarco::bench;

int
main(int argc, char **argv)
{
    parseArgs(argc, argv);
    banner("Fig. 19", "speedup vs MACT time threshold "
                      "(normalised to 8 cycles)");

    const Cycle thresholds[] = {4, 8, 16, 32, 64};
    std::printf("%-12s", "bench");
    for (Cycle th : thresholds)
        std::printf("   th=%-3llu", static_cast<unsigned long long>(th));
    std::printf("\n");

    for (const auto &prof : workloads::htcProfiles()) {
        std::vector<double> cycles(std::size(thresholds), 0.0);
        // Average over three seeds: the optimum is shallow, so a
        // single run's placement noise would mask the ordering.
        for (std::uint64_t seed : {23ull, 101ull, 907ull}) {
            std::size_t i = 0;
            for (Cycle th : thresholds) {
                auto cfg = chip::ChipConfig::scaled(4, 8);
                cfg.mact.threshold = th;
                const auto run = runSmarco(cfg, prof, 96, 10000, seed);
                cycles[i++] += static_cast<double>(run.cycles);
            }
        }
        const double base = cycles[1]; // normalise to 8 cycles
        std::printf("%-12s", prof.name.c_str());
        for (double c : cycles)
            std::printf("   %6.3f", base / c);
        std::printf("\n");
    }

    note("");
    note("paper shape: a 16-cycle threshold is the best point for most");
    note("benchmarks (Section 4.2.3); shorter thresholds forfeit");
    note("merging, longer ones delay the collected requests.");
    return 0;
}
