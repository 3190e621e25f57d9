/**
 * @file
 * Resilience sweep — throughput and RNC deadline-miss-rate
 * degradation versus fault rate, SmarCo versus the conventional
 * baseline. Not a paper figure: the paper asserts datacenter-class
 * fault tolerance qualitatively (Section 6); this harness quantifies
 * how the reproduced chip degrades when faults are injected.
 *
 * Each sweep point multiplies a fixed base fault mix by rateScale.
 * Candidate fault arrivals are generated once at the ceiling rate and
 * thinned per point (src/fault/), so the accepted sets nest across
 * the sweep: a higher point replays every fault of a lower one plus
 * new ones, and throughput should be monotone non-increasing instead
 * of re-rolled noise. A run that wedges is killed by the campaign
 * watchdog, so completing the sweep at all demonstrates graceful
 * degradation.
 *
 * Usage: bench_resilience [--quick]
 */
#include <algorithm>

#include "bench_util.hpp"
#include "sched/sub_scheduler.hpp"

using namespace smarco;
using namespace smarco::bench;

namespace {

/** Base fault mix at rateScale 1, per million cycles. */
fault::FaultSpec
baseSpec(double scale, double ceiling)
{
    fault::FaultSpec spec;
    spec.coreHangRate = 4.0;
    spec.coreKillRate = 4.0;
    spec.nocDegradeRate = 2.0;
    spec.nocDupRate = 2.0;
    spec.dramStallRate = 3.0;
    spec.mactLossRate = 2.0;
    spec.rateScale = scale;
    spec.rateScaleCeiling = ceiling;
    // The drop probability is continuous rather than scheduled, so it
    // scales directly with the sweep point.
    spec.nocDropProb = std::min(0.0005 * scale, 0.1);
    // A bounded fault storm: at the top sweep points the per-task
    // kill interval drops below the task runtime, so completion
    // during the storm is statistically impossible — the chip rides
    // it out and drains the re-dispatched tasks once it ends.
    spec.horizon = 2'000'000;
    spec.watchdogInterval = 250'000;
    // Detect hangs well inside the watchdog window.
    spec.recovery.heartbeatInterval = 5'000;
    spec.recovery.hangTimeout = 40'000;
    spec.dramStallDuration = 8'000;
    // The top sweep points kill tasks repeatedly; give re-dispatch
    // enough attempts that the workload drains instead of abandoning.
    spec.recovery.maxAttempts = 64;
    return spec;
}

struct Point {
    double scale = 0.0;
    std::uint64_t completed = 0;
    std::uint64_t expected = 0;
    double throughput = 0.0; ///< tasks per Mcycle of useful work
    double missRate = 0.0;   ///< RNC deadline misses / RNC tasks
    std::uint64_t injected = 0;
};

/** A point's completions, expected tasks, throughput over the span
 *  up to the last task exit, and the faults the campaign injected. */
Point
sweepPoint(double scale, std::uint64_t completed, std::uint64_t expected,
           Cycle last_finish, const fault::FaultCampaign *campaign)
{
    Point p;
    p.scale = scale;
    p.completed = completed;
    p.expected = expected;
    p.throughput = last_finish > 0
                       ? static_cast<double>(completed) * 1e6 /
                             static_cast<double>(last_finish)
                       : 0.0;
    p.injected = campaign ? campaign->injected() : 0;
    return p;
}

struct SmarcoSetup {
    std::uint64_t searchCount;
    std::uint64_t rncCount;
    Cycle rncDeadline; ///< kNoCycle during calibration
};

/** One SmarCo run of the mixed search + RNC set at one sweep point.
 *  When rnc_last_finish is given, reports the latest RNC exit (used
 *  by the clean calibration run to fix the deadline). */
Point
runSmarcoPoint(const SmarcoSetup &setup, double scale, double ceiling,
               Cycle *rnc_last_finish = nullptr)
{
    Simulator sim;
    const auto cfg = chip::ChipConfig::scaled(2, 4);
    chip::SmarcoChip chip(sim, cfg);

    workloads::TaskSetParams sp;
    sp.count = setup.searchCount;
    sp.seed = 17;
    sp.releaseSpan = 100'000;
    auto tasks =
        workloads::makeTaskSet(workloads::htcProfile("search"), sp);

    workloads::TaskSetParams rp;
    rp.count = setup.rncCount;
    rp.seed = 43;
    rp.deadline = setup.rncDeadline;
    rp.realtime = setup.rncDeadline != kNoCycle;
    auto rnc =
        workloads::makeTaskSet(workloads::htcProfile("rnc"), rp);
    for (auto &t : rnc) {
        // makeTaskSet numbers each set from 0. The scheduler takes
        // ids as labels; the renumbering only tells RNC exits apart
        // from search ones.
        t.id += setup.searchCount;
        tasks.push_back(t);
    }
    chip.submit(tasks);

    std::unique_ptr<fault::FaultCampaign> campaign;
    if (scale > 0.0) {
        campaign = std::make_unique<fault::FaultCampaign>(
            sim, baseSpec(scale, ceiling), 23);
        campaign->arm(chip);
    }
    chip.runUntilDone(400'000'000);

    const auto m = chip.metrics();
    Point p = sweepPoint(scale, m.tasksCompleted,
                         setup.searchCount + setup.rncCount,
                         m.lastTaskFinish, campaign.get());
    p.missRate = setup.rncCount > 0
                     ? static_cast<double>(m.deadlineMisses) /
                           static_cast<double>(setup.rncCount)
                     : 0.0;
    if (rnc_last_finish) {
        *rnc_last_finish = 0;
        for (std::uint32_t r = 0; r < cfg.noc.numSubRings; ++r)
            for (const auto &e : chip.subScheduler(r).exits())
                if (e.taskId >= setup.searchCount)
                    *rnc_last_finish =
                        std::max(*rnc_last_finish, e.finish);
    }
    return p;
}

/** One baseline run (core + DRAM faults only: no ring, no MACT). */
Point
runBaselinePoint(std::uint64_t count, double scale, double ceiling)
{
    Simulator sim;
    baseline::BaselineChip chip(sim, smallBaseline());
    workloads::TaskSetParams tp;
    tp.count = count;
    tp.seed = 17;
    chip.spawnWorkers(8, workloads::makeTaskSet(
                             workloads::htcProfile("search"), tp));
    std::unique_ptr<fault::FaultCampaign> campaign;
    if (scale > 0.0) {
        campaign = std::make_unique<fault::FaultCampaign>(
            sim, baseSpec(scale, ceiling), 23);
        campaign->arm(chip);
    }
    sim.run(800'000'000);
    const auto m = chip.metrics();
    return sweepPoint(scale, m.tasksCompleted, count, m.lastTaskFinish,
                      campaign.get());
}

void
printPoints(const char *name, const std::vector<Point> &points,
            bool rnc)
{
    std::printf("\n%s\n", name);
    std::printf("  %8s %10s %12s %10s %10s\n", "scale", "faults",
                "tasks/Mcyc", rnc ? "missRate" : "-", "completed");
    for (const Point &p : points)
        std::printf("  %8.0f %10llu %12.3f %10.3f %6llu/%llu\n",
                    p.scale,
                    static_cast<unsigned long long>(p.injected),
                    p.throughput, rnc ? p.missRate : 0.0,
                    static_cast<unsigned long long>(p.completed),
                    static_cast<unsigned long long>(p.expected));
}

/** Check one chip's sweep: throughput is monotone non-increasing
 *  within tolerance (thinning nests the fault sets, but recovery
 *  reshuffles schedules slightly), and every point completes. */
void
checkSweep(Checks &checks, const char *chip,
           const std::vector<Point> &points)
{
    bool monotone = true;
    for (std::size_t i = 1; i < points.size(); ++i)
        if (points[i].throughput > points[i - 1].throughput * 1.02)
            monotone = false;
    bool graceful = true;
    for (const Point &p : points)
        if (p.completed != p.expected || p.throughput <= 0.0)
            graceful = false;
    checks.check(strprintf("%s throughput monotone non-increasing",
                           chip),
                 monotone);
    checks.check(strprintf("%s graceful degradation (all complete)",
                           chip),
                 graceful);
}

} // namespace

int
main(int argc, char **argv)
{
    const bool quick = parseArgs(argc, argv, "[--quick]");

    banner("Resilience",
           "throughput & deadline-miss degradation vs fault rate");

    std::vector<double> scales =
        quick ? std::vector<double>{0.0, 4.0, 64.0}
              : std::vector<double>{0.0, 1.0, 4.0, 16.0, 64.0};
    const double ceiling = 64.0;

    SmarcoSetup setup;
    setup.searchCount = quick ? 16 : 32;
    setup.rncCount = quick ? 8 : 16;
    setup.rncDeadline = kNoCycle;

    // Calibrate the RNC deadline off the clean run: 20% slack over
    // the latest clean finish, so misses measure fault impact, not a
    // deadline the clean chip already can't hold.
    Cycle clean_rnc_finish = 0;
    runSmarcoPoint(setup, 0.0, ceiling, &clean_rnc_finish);
    setup.rncDeadline = clean_rnc_finish + clean_rnc_finish / 5;
    std::printf("  RNC deadline calibrated to %llu cycles\n",
                static_cast<unsigned long long>(setup.rncDeadline));

    std::vector<Point> smarco;
    for (double s : scales)
        smarco.push_back(runSmarcoPoint(setup, s, ceiling));
    printPoints("SmarCo (search + RNC mix)", smarco, true);

    std::vector<Point> base;
    for (double s : scales)
        base.push_back(runBaselinePoint(quick ? 8 : 16, s, ceiling));
    printPoints("baseline 4-core / 8-thread (search)", base, false);

    std::printf("\nchecks:\n");
    Checks checks;
    checkSweep(checks, "smarco", smarco);
    checkSweep(checks, "baseline", base);

    note("");
    note("expected shape: throughput falls and the RNC miss rate");
    note("rises as the fault mix scales up; every point completes");
    note("(recovery re-dispatches killed/hung tasks) -- a wedged run");
    note("would be aborted by the campaign watchdog instead.");
    return checks.exitCode();
}
