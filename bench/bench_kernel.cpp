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
 * A second workload runs the conventional baseline chip: a small
 * closed HTC batch whose last, long task drains alone, so most
 * workers park on the empty bag for the tail of the run and the chip
 * sleeps between the cycles in which a thread can act.
 *
 * Wall-clock throughput is host-side and only printed; `--stats-json`
 * exports carry the simulated state alone, so each workload's stats
 * dump must be identical in the two kernel modes. The component ticks
 * each kernel ran (Simulator::ticksRun) are printed beside the wall
 * ratio as its deterministic companion.
 *
 * Exits non-zero when the modes disagree on the SmarCo simulation
 * (cycles, tasks or stats dump), when fast-forward fails to reach a
 * 1.5x speedup on it, when the baseline run's stats dump differs
 * between the two kernel modes, or when on either workload the
 * fast-forward kernel does not tick fewer components than the forced
 * one.
 */
#include <algorithm>
#include <chrono>
#include <sstream>
#include <string>

#include "bench_util.hpp"

using namespace smarco;
using namespace smarco::bench;

namespace {

/** One timed run: its kernel counters and its stats dump. */
struct KernelRun {
    Cycle simCycles = 0;
    double wallSec = 0.0;
    Cycle skipped = 0;
    std::uint64_t jumps = 0;
    std::uint64_t ticks = 0;
    std::uint64_t tasks = 0;
    std::string stats;
};

/** Time run(), which returns the cycle the run stopped at, then read
 *  sim's kernel counters and stats dump. */
template <class RunFn>
KernelRun
timeRun(Simulator &sim, RunFn run)
{
    const auto t0 = std::chrono::steady_clock::now();
    const Cycle end = run();
    const auto t1 = std::chrono::steady_clock::now();

    KernelRun r;
    r.simCycles = end;
    r.wallSec = std::max(
        std::chrono::duration<double>(t1 - t0).count(), 1e-9);
    r.skipped = sim.cyclesSkipped();
    r.jumps = sim.fastForwards();
    r.ticks = sim.ticksRun();
    std::ostringstream os;
    sim.stats().dumpJson(os);
    r.stats = os.str();
    return r;
}

KernelRun
measure(bool fast_forward)
{
    Simulator sim;
    sim.setFastForward(fast_forward);
    chip::SmarcoChip chip(sim, chip::ChipConfig::scaled(1, 16));

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
    KernelRun r = timeRun(
        sim, [&chip] { return chip.runUntilDone(50'000'000); });
    r.tasks = chip.metrics().tasksCompleted;
    return r;
}

KernelRun
measureBaseline(bool fast_forward)
{
    Simulator sim;
    sim.setFastForward(fast_forward);
    baseline::BaselineChip chip(sim, smallBaseline());

    workloads::TaskSetParams tp;
    tp.count = 16;
    tp.seed = 29;
    auto tasks =
        workloads::makeTaskSet(workloads::htcProfile("search"), tp);
    // Popped last and 20x longer: it runs alone for most of the run.
    tasks.back().numOps *= 20;
    chip.spawnWorkers(8, std::move(tasks));

    auto campaign = fault::armFaultsFromCli(sim, chip);
    KernelRun r =
        timeRun(sim, [&sim] { return sim.run(400'000'000); });
    r.tasks = chip.metrics().tasksCompleted;
    return r;
}

/** Print one timing row of the results table. */
void
printRow(const char *name, const KernelRun &r)
{
    std::printf("  %-14s %14llu %10.3f %14.3e %12llu %8llu %12llu\n",
                name, static_cast<unsigned long long>(r.simCycles),
                r.wallSec, static_cast<double>(r.simCycles) / r.wallSec,
                static_cast<unsigned long long>(r.skipped),
                static_cast<unsigned long long>(r.jumps),
                static_cast<unsigned long long>(r.ticks));
}

void
printHeader()
{
    std::printf("\n  %-14s %14s %10s %14s %12s %8s %12s\n", "mode",
                "sim cycles", "wall s", "cycles/s", "skipped", "jumps",
                "ticks");
}

/** Print the wall and tick ratios and check that fast-forward ran
 *  fewer component ticks. */
void
compare(Checks &checks, const char *what, const KernelRun &forced,
        const KernelRun &ff)
{
    std::printf("\n  speedup: %.2fx (%llu of %llu cycles skipped, "
                "%.1f%%); ticks %llu of %llu forced (%.3f)\n",
                forced.wallSec / ff.wallSec,
                static_cast<unsigned long long>(ff.skipped),
                static_cast<unsigned long long>(ff.simCycles),
                100.0 * static_cast<double>(ff.skipped) /
                    static_cast<double>(ff.simCycles),
                static_cast<unsigned long long>(ff.ticks),
                static_cast<unsigned long long>(forced.ticks),
                static_cast<double>(ff.ticks) /
                    static_cast<double>(forced.ticks));
    checks.check(strprintf("%s: fast-forward ticks fewer components",
                           what),
                 ff.ticks < forced.ticks,
                 strprintf("%llu vs %llu",
                           static_cast<unsigned long long>(ff.ticks),
                           static_cast<unsigned long long>(forced.ticks)));
}

} // namespace

int
main(int argc, char **argv)
{
    parseArgs(argc, argv);
    banner("KERNEL", "fast-forward vs tick-every-cycle throughput");
    note("idle-heavy workload: 48 rnc tasks over a 5M-cycle release "
         "span, 1 sub-ring x 16 cores");

    const KernelRun forced = measure(false);
    const KernelRun ff = measure(true);

    printHeader();
    printRow("forced", forced);
    printRow("fast-forward", ff);

    Checks checks;
    compare(checks, "SmarCo", forced, ff);
    const double speedup = forced.wallSec / ff.wallSec;
    checks.check("modes agree on the simulation",
                 ff.simCycles == forced.simCycles &&
                     ff.tasks == forced.tasks,
                 strprintf("cycles %llu vs %llu, tasks %llu vs %llu",
                           static_cast<unsigned long long>(ff.simCycles),
                           static_cast<unsigned long long>(
                               forced.simCycles),
                           static_cast<unsigned long long>(ff.tasks),
                           static_cast<unsigned long long>(
                               forced.tasks)));
    checks.check("SmarCo stats identical in both kernel modes",
                 ff.stats == forced.stats);
    checks.check("fast-forward >= 1.5x on this idle-heavy workload",
                 speedup >= 1.5, strprintf("%.2fx", speedup));

    std::printf("\n");
    note("baseline chip: 16 search tasks on 8 workers, 4 cores x 2 "
         "SMT; the last task is 20x longer and drains alone");
    const KernelRun base_forced = measureBaseline(false);
    const KernelRun base_ff = measureBaseline(true);
    printHeader();
    printRow("forced", base_forced);
    printRow("fast-forward", base_ff);
    compare(checks, "baseline", base_forced, base_ff);
    checks.check("baseline stats identical in both kernel modes",
                 base_ff.stats == base_forced.stats);
    return checks.exitCode();
}
