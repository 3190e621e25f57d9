/**
 * @file
 * Fig. 23 — scalability on KMP: performance (task throughput in real
 * time) versus the number of threads for SmarCo and the Xeon
 * baseline. SmarCo's thread count is the number of concurrently
 * resident tasks; the Xeon's is the software worker count.
 */
#include "bench_util.hpp"

using namespace smarco;
using namespace smarco::bench;

namespace {

/** Gops/s of one run: committed ops over its span at freq_ghz. */
double
gops(const RunRecord &run, double freq_ghz)
{
    const double secs =
        static_cast<double>(run.cycles) / (freq_ghz * 1e9);
    return secs > 0.0
        ? static_cast<double>(run.opsCommitted) / secs / 1e9
        : 0.0;
}

/**
 * Gops/s of the Xeon baseline with T software threads over a fixed
 * pool of work, so serial pthread creation and scheduling overhead
 * show up exactly where the thread count makes them significant.
 */
double
xeonPerf(std::uint32_t threads, const workloads::BenchProfile &prof)
{
    baseline::BaselineParams params;
    return gops(runBaseline(params, prof, /*count=*/4096, threads, 8000,
                            61, /*max_cycles=*/2'000'000'000),
                params.freqGHz);
}

/** Gops/s of SmarCo with exactly T resident task threads. */
double
smarcoPerf(std::uint32_t threads, const workloads::BenchProfile &prof)
{
    const auto cfg = chip::ChipConfig::simulated256();
    // T long-running tasks: thread count stays at T for the whole
    // measurement window.
    const std::uint64_t ops = std::max<std::uint64_t>(
        6000, 1'500'000 / std::max(threads, 1u));
    return gops(runSmarco(cfg, prof, threads, ops, 61), cfg.freqGHz);
}

} // namespace

int
main(int argc, char **argv)
{
    parseArgs(argc, argv);
    banner("Fig. 23", "scalability on KMP: performance vs thread "
                      "count");

    const auto &prof = workloads::htcProfile("kmp");
    const std::uint32_t threads[] = {1,   2,   4,    8,   16,  32,
                                     64,  128, 256, 512, 1024, 2048};

    std::printf("%8s %14s %14s\n", "threads", "Xeon (Gops/s)",
                "SmarCo (Gops/s)");
    for (std::uint32_t t : threads) {
        const double xe = xeonPerf(std::min(t, 2048u), prof);
        const double sm = smarcoPerf(t, prof);
        std::printf("%8u %14.2f %14.2f%s\n", t, xe, sm,
                    sm > xe ? "   <- SmarCo ahead" : "");
    }

    note("");
    note("paper shape: the Xeon peaks around 32-64 threads and then");
    note("degrades under thread-creation/scheduling overhead; SmarCo");
    note("starts far lower but keeps scaling and crosses over past 64");
    note("threads (Section 4.2.6, Fig. 23).");
    return 0;
}
