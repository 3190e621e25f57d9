/**
 * @file
 * Kernel micro-bench: simulated-cycles-per-wall-second with the
 * quiescence-aware fast-forward kernel on versus forced
 * tick-every-cycle mode.
 *
 * The workload is deliberately idle-heavy (Fig. 21 flavour): one full
 * sub-ring receives a sparse trickle of RNC tasks spread over a long
 * release span, so the chip spends most simulated cycles with every
 * component quiescent but the scheduler's chain table non-empty. The
 * forced kernel must tick through every gap; the fast-forward kernel
 * jumps straight to each release.
 *
 * kernel.* scalars are registered in each run's StatRegistry and
 * refreshed with a zero-length re-run after timing, so `--stats-json`
 * exports carry the measured throughput alongside the chip stats.
 *
 * Exits non-zero when fast-forward fails to reach a 1.5x speedup on
 * this workload, so the harness can gate on kernel regressions.
 */
#include <chrono>

#include "bench_util.hpp"
#include "sim/stats.hpp"

using namespace smarco;
using namespace smarco::bench;

namespace {

struct KernelRun {
    Cycle simCycles = 0;
    double wallSec = 0.0;
    double cyclesPerSec = 0.0;
    Cycle skipped = 0;
    std::uint64_t jumps = 0;
    std::uint64_t tasks = 0;
};

KernelRun
measure(bool fast_forward)
{
    Simulator sim;
    sim.setFastForward(fast_forward);
    chip::SmarcoChip chip(sim, chip::ChipConfig::scaled(1, 16));

    Scalar cps(sim.stats(), "kernel.cyclesPerSec",
               "simulated cycles per wall-clock second");
    Scalar skipped(sim.stats(), "kernel.cyclesSkipped",
                   "cycles the kernel fast-forwarded over");
    Scalar jumps(sim.stats(), "kernel.fastForwards",
                 "number of multi-cycle clock jumps");
    Scalar mode(sim.stats(), "kernel.fastForward",
                "1 when fast-forward was enabled for this run");

    workloads::TaskSetParams tp;
    tp.count = 48;
    tp.seed = 29;
    tp.releaseSpan = 5'000'000; // sparse arrivals: long idle gaps
    // submitTo() lands the whole set in the sub-scheduler's chain
    // table up front (paper's pre-loaded chain-table regime), so the
    // scheduler stays busy() across every release gap and only the
    // quiescence kernel can skip the waiting cycles. chip.submit()
    // would defer injection through the event queue and let the
    // legacy whole-chip idle jump hide the difference.
    for (const auto &t : workloads::makeTaskSet(
             workloads::htcProfile("rnc"), tp))
        chip.submitTo(0, t);

    auto campaign = fault::armFaultsFromCli(sim, chip);
    const auto t0 = std::chrono::steady_clock::now();
    const Cycle end = chip.runUntilDone(50'000'000);
    const auto t1 = std::chrono::steady_clock::now();

    KernelRun r;
    r.simCycles = end;
    r.wallSec = std::chrono::duration<double>(t1 - t0).count();
    if (r.wallSec <= 0.0)
        r.wallSec = 1e-9;
    r.cyclesPerSec = static_cast<double>(end) / r.wallSec;
    r.skipped = sim.cyclesSkipped();
    r.jumps = sim.fastForwards();
    r.tasks = chip.metrics().tasksCompleted;

    mode.set(fast_forward ? 1.0 : 0.0);
    cps.set(r.cyclesPerSec);
    skipped.set(static_cast<double>(r.skipped));
    jumps.set(static_cast<double>(r.jumps));
    sim.run(0); // zero-length re-run refreshes the stats snapshot
    return r;
}

} // namespace

int
main()
{
    banner("KERNEL", "fast-forward vs tick-every-cycle throughput");
    note("idle-heavy workload: 48 rnc tasks over a 5M-cycle release "
         "span, 1 sub-ring x 16 cores");

    const KernelRun forced = measure(false);
    const KernelRun ff = measure(true);

    std::printf("\n  %-14s %14s %10s %14s %12s %8s\n", "mode",
                "sim cycles", "wall s", "cycles/s", "skipped",
                "jumps");
    const auto row = [](const char *name, const KernelRun &r) {
        std::printf("  %-14s %14llu %10.3f %14.3e %12llu %8llu\n",
                    name,
                    static_cast<unsigned long long>(r.simCycles),
                    r.wallSec, r.cyclesPerSec,
                    static_cast<unsigned long long>(r.skipped),
                    static_cast<unsigned long long>(r.jumps));
    };
    row("forced", forced);
    row("fast-forward", ff);

    if (ff.simCycles != forced.simCycles ||
        ff.tasks != forced.tasks) {
        std::printf("\n  FAIL: modes disagree on the simulation "
                    "itself (cycles %llu vs %llu, tasks %llu vs "
                    "%llu)\n",
                    static_cast<unsigned long long>(ff.simCycles),
                    static_cast<unsigned long long>(forced.simCycles),
                    static_cast<unsigned long long>(ff.tasks),
                    static_cast<unsigned long long>(forced.tasks));
        return 1;
    }

    const double speedup = forced.wallSec / ff.wallSec;
    std::printf("\n  speedup: %.2fx (%llu of %llu cycles skipped)\n",
                speedup,
                static_cast<unsigned long long>(ff.skipped),
                static_cast<unsigned long long>(ff.simCycles));
    if (speedup < 1.5) {
        std::printf("  FAIL: expected >= 1.5x on this idle-heavy "
                    "workload\n");
        return 1;
    }
    std::printf("  PASS\n");
    return 0;
}
