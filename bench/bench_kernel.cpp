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
 * A second workload runs the conventional baseline chip: a small
 * closed HTC batch whose last, long task drains alone, so most
 * workers park on the empty bag for the tail of the run and the chip
 * sleeps between the cycles in which a thread can act.
 *
 * Exits non-zero when fast-forward fails to reach a 1.5x speedup on
 * the SmarCo workload, or when the baseline run's stats dump differs
 * between the two kernel modes.
 */
#include <algorithm>
#include <chrono>
#include <sstream>
#include <string>

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

/** One baseline-chip run: its timing and its stats dump. */
struct BaselineRun {
    KernelRun timing;
    std::string stats;
};

BaselineRun
measureBaseline(bool fast_forward)
{
    Simulator sim;
    sim.setFastForward(fast_forward);
    baseline::BaselineParams bp;
    bp.numCores = 4;
    bp.llc = mem::CacheParams{"llc", 4 * 1024 * 1024, 16, 64, 38};
    baseline::BaselineChip chip(sim, bp);

    workloads::TaskSetParams tp;
    tp.count = 16;
    tp.seed = 29;
    auto tasks =
        workloads::makeTaskSet(workloads::htcProfile("search"), tp);
    // Popped last and 20x longer: it runs alone for most of the run.
    tasks.back().numOps *= 20;
    chip.spawnWorkers(8, std::move(tasks));

    const auto t0 = std::chrono::steady_clock::now();
    const Cycle end = sim.run(400'000'000);
    const auto t1 = std::chrono::steady_clock::now();

    BaselineRun r;
    r.timing.simCycles = end;
    r.timing.wallSec = std::max(
        std::chrono::duration<double>(t1 - t0).count(), 1e-9);
    r.timing.cyclesPerSec = static_cast<double>(end) / r.timing.wallSec;
    r.timing.skipped = sim.cyclesSkipped();
    r.timing.jumps = sim.fastForwards();
    r.timing.tasks = chip.tasksCompleted();
    std::ostringstream os;
    sim.stats().dumpJson(os);
    r.stats = os.str();
    return r;
}

/** Print one timing row of the results table. */
void
printRow(const char *name, const KernelRun &r)
{
    std::printf("  %-14s %14llu %10.3f %14.3e %12llu %8llu\n", name,
                static_cast<unsigned long long>(r.simCycles), r.wallSec,
                r.cyclesPerSec,
                static_cast<unsigned long long>(r.skipped),
                static_cast<unsigned long long>(r.jumps));
}

void
printHeader()
{
    std::printf("\n  %-14s %14s %10s %14s %12s %8s\n", "mode",
                "sim cycles", "wall s", "cycles/s", "skipped",
                "jumps");
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

    printHeader();
    printRow("forced", forced);
    printRow("fast-forward", ff);

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
    int failures = 0;
    if (speedup < 1.5) {
        std::printf("  FAIL: expected >= 1.5x on this idle-heavy "
                    "workload\n");
        ++failures;
    }

    std::printf("\n");
    note("baseline chip: 16 search tasks on 8 workers, 4 cores x 2 "
         "SMT; the last task is 20x longer and drains alone");
    const BaselineRun base_forced = measureBaseline(false);
    const BaselineRun base_ff = measureBaseline(true);
    printHeader();
    printRow("forced", base_forced.timing);
    printRow("fast-forward", base_ff.timing);
    const KernelRun &bf = base_ff.timing;
    std::printf("\n  speedup: %.2fx (%llu of %llu cycles skipped, "
                "%.1f%%)\n",
                base_forced.timing.wallSec / bf.wallSec,
                static_cast<unsigned long long>(bf.skipped),
                static_cast<unsigned long long>(bf.simCycles),
                100.0 * static_cast<double>(bf.skipped) /
                    static_cast<double>(bf.simCycles));
    if (base_ff.stats != base_forced.stats) {
        std::printf("  FAIL: baseline stats differ between the kernel "
                    "modes\n");
        ++failures;
    }

    if (failures == 0)
        std::printf("  PASS\n");
    return failures == 0 ? 0 : 1;
}
