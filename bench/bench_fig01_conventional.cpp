/**
 * @file
 * Fig. 1 — HTC applications on a conventional high-performance
 * processor (Xeon-like baseline):
 *  (a) idle ratio of logical resources vs thread count,
 *  (b) instruction starvation vs thread count,
 *  (c) L1/L2/LLC miss ratios,
 *  (d) L1/L2/LLC average access latencies.
 */
#include "bench_util.hpp"

using namespace smarco;
using namespace smarco::bench;

int
main(int argc, char **argv)
{
    parseArgs(argc, argv);
    banner("Fig. 1", "HTC kernels on the conventional (Xeon-like) chip");

    // Three basic HTC algorithms, as in the paper's motivation
    // study. Figs. 1a/1b sweep the number of threads multiplexed on
    // ONE pipeline ("thread number in pipeline"), so the sweep runs
    // on a single-core configuration.
    const char *kernels[] = {"wordcount", "kmp", "search"};
    const std::uint32_t thread_counts[] = {1, 2, 4, 8, 16, 32};

    std::printf("\n(a) idle ratio / (b) instruction starvation vs "
                "threads in one pipeline\n");
    std::printf("%-10s", "bench");
    for (auto t : thread_counts)
        std::printf("   T=%-4u", t);
    std::printf("\n");

    baseline::BaselineParams one_core;
    one_core.numCores = 1;
    // One core's slice of the chip-level memory bandwidth.
    one_core.dram.channels = 1;
    one_core.dram.bytesPerCycle = 9.66;
    for (const char *k : kernels) {
        const auto &prof = workloads::htcProfile(k);
        std::vector<baseline::BaselineMetrics> runs;
        for (auto t : thread_counts)
            runs.push_back(runBaseline(one_core, prof,
                                       /*count=*/4ull * t + 16,
                                       t, /*ops=*/12000, /*seed=*/5));

        std::printf("%-10s", (std::string(k) + " idle").c_str());
        for (const auto &m : runs)
            std::printf("   %6.3f", 1.0 - m.slotUtilisation());
        std::printf("\n");
        std::printf("%-10s", "  starve");
        for (const auto &m : runs)
            std::printf("   %6.3f", m.starvationRatio);
        std::printf("\n");
    }

    std::printf("\n(c) cache miss ratio / (d) average access latency "
                "(48 threads)\n");
    std::printf("%-10s %8s %8s %8s %10s %10s %10s\n", "bench",
                "L1 miss", "L2 miss", "LLC miss", "L1 lat", "L2 lat",
                "LLC lat");
    for (const char *k : kernels) {
        const auto &prof = workloads::htcProfile(k);
        const auto m = runBaseline({}, prof, 192, 48, 12000, 7);
        std::printf("%-10s %8.3f %8.3f %8.3f %10.1f %10.1f %10.1f\n",
                    k, m.l1MissRatio, m.l2MissRatio, m.llcMissRatio,
                    m.l1AvgLatency, m.l2AvgLatency, m.llcAvgLatency);
    }

    note("");
    note("paper shape: idle ratio and starvation grow with the thread");
    note("count; multi-level caches show high miss ratios and rising");
    note("access latency on HTC workloads (Section 1, Fig. 1).");
    return 0;
}
