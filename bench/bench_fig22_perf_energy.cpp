/**
 * @file
 * Fig. 22 — performance and energy-efficiency of the full 256-core
 * SmarCo over the Xeon E7-8890V4 baseline on the six HTC benchmarks
 * (all expressed as MapReduce-style task streams). compareWithXeon()
 * (bench_util.hpp) defines the speedup and the energy efficiency.
 */
#include "bench_util.hpp"

using namespace smarco;
using namespace smarco::bench;

int
main(int argc, char **argv)
{
    parseArgs(argc, argv);
    banner("Fig. 22", "SmarCo (256 cores, 2048 threads) vs Xeon "
                      "E7-8890V4 (24 cores, 48 threads)");

    // Steady-state throughput: enough tasks to fill all 2048 SmarCo
    // thread contexts and to amortise the Xeon's one-time pthread
    // creation, at the profile's native task size.
    const auto cmp =
        compareWithXeon(chip::ChipConfig::simulated256(),
                        power::TechNode::nm32(), 3072, 57, "SmarCo");

    std::printf("\nmean speedup          = %.2fx   (paper: 10.11x, "
                "range 4.86x..18.57x)\n", geomean(cmp.speedups));
    std::printf("mean energy efficiency = %.2fx   (paper: 6.95x, "
                "range 3.34x..12.77x)\n", geomean(cmp.efficiencies));

    note("");
    note("paper shape: every benchmark favours SmarCo; the small-");
    note("granularity, memory-bound kernels (KMP, RNC) gain the most,");
    note("the compute-heavy K-means / low-memory search the least.");
    return 0;
}
