/**
 * @file
 * Fig. 21 — exit time of each RNC task thread in one sub-ring
 * (128 threads): software Deadline Scheduler versus the hardware
 * laxity-aware scheduler. The paper's y-axis is the per-thread exit
 * cycle; we print the sorted exit-time series plus summary rows.
 */
#include <algorithm>

#include "bench_util.hpp"

using namespace smarco;
using namespace smarco::bench;

namespace {

struct ExitSeries {
    std::vector<Cycle> exits;
    std::uint64_t misses = 0;
};

ExitSeries
runSubRing(sched::SchedPolicy policy, Cycle deadline)
{
    Simulator sim;
    auto cfg = chip::ChipConfig::scaled(1, 16); // one full sub-ring
    cfg.subSched.policy = policy;
    cfg.core.issuePolicy =
        policy == sched::SchedPolicy::HardwareLaxity
            ? core::IssuePolicy::LaxityAware
            : core::IssuePolicy::RoundRobin;
    // The hardware scheduler tracks laxity per cycle; gate leaders
    // tightly so same-deadline tasks converge (Section 3.7).
    cfg.core.laxityGate = 500;
    chip::SmarcoChip chip(sim, cfg);

    const auto &prof = workloads::htcProfile("rnc");
    workloads::TaskSetParams tp;
    tp.count = 128; // 16 cores x 8 thread contexts
    tp.seed = 41;
    tp.opsJitter = 0.05; // RNC streams are near-uniform
    tp.deadline = deadline;
    tp.realtime = true;
    for (auto &t : workloads::makeTaskSet(prof, tp)) {
        t.numOps = 24000;
        chip.submitTo(0, t);
    }
    auto campaign = fault::armFaultsFromCli(sim, chip);
    chip.runUntilDone(200'000'000);

    ExitSeries series;
    for (const auto &e : chip.subScheduler(0).exits()) {
        series.exits.push_back(e.finish);
        series.misses += e.metDeadline ? 0 : 1;
    }
    std::sort(series.exits.begin(), series.exits.end());
    return series;
}

void
printSeries(const char *name, const ExitSeries &s, Cycle deadline)
{
    std::printf("\n%s (deadline = %llu cycles, %llu misses)\n", name,
                static_cast<unsigned long long>(deadline),
                static_cast<unsigned long long>(s.misses));
    std::printf("  exit cycles (sorted, every 8th of 128 threads):\n   ");
    for (std::size_t i = 0; i < s.exits.size(); i += 8)
        std::printf(" %7llu",
                    static_cast<unsigned long long>(s.exits[i]));
    std::printf("\n    min=%llu  max=%llu  spread=%llu\n",
                static_cast<unsigned long long>(s.exits.front()),
                static_cast<unsigned long long>(s.exits.back()),
                static_cast<unsigned long long>(
                    s.exits.back() - s.exits.front()));
}

} // namespace

int
main(int argc, char **argv)
{
    parseArgs(argc, argv);
    banner("Fig. 21", "exit time of 128 RNC task threads in one "
                      "sub-ring");

    // Calibrate the deadline from a dry run so some software-
    // scheduled threads land past it (as in the paper's 340k setup).
    const auto probe =
        runSubRing(sched::SchedPolicy::HardwareLaxity, kNoCycle);
    const Cycle deadline =
        probe.exits[probe.exits.size() * 9 / 10] + 2000;

    const auto sw =
        runSubRing(sched::SchedPolicy::SoftwareDeadline, deadline);
    const auto hw =
        runSubRing(sched::SchedPolicy::HardwareLaxity, deadline);

    printSeries("software Deadline Scheduler", sw, deadline);
    printSeries("hardware laxity-aware scheduler", hw, deadline);

    std::printf("\nspread: software=%llu  hardware=%llu  "
                "(hardware/software = %.2f)\n",
                static_cast<unsigned long long>(
                    sw.exits.back() - sw.exits.front()),
                static_cast<unsigned long long>(
                    hw.exits.back() - hw.exits.front()),
                static_cast<double>(hw.exits.back() - hw.exits.front()) /
                    static_cast<double>(
                        sw.exits.back() - sw.exits.front()));
    std::printf("deadline misses: software=%llu  hardware=%llu\n",
                static_cast<unsigned long long>(sw.misses),
                static_cast<unsigned long long>(hw.misses));

    note("");
    note("paper shape: the software scheduler spreads exits widely");
    note("around the deadline (320k..354k vs 340k); the hardware");
    note("scheduler compresses the spread (334k..342k) -- its earliest");
    note("exit is LATER but the overall success rate improves (4.2.4).");
    return 0;
}
