/**
 * @file
 * Cross-module integration and property tests: paper-shape claims on
 * reduced configurations, parameterised sweeps over benchmarks, and
 * SmarCo-vs-baseline sanity.
 */
#include <gtest/gtest.h>

#include "baseline/baseline_chip.hpp"
#include "chip/chip_config.hpp"
#include "chip/smarco_chip.hpp"
#include "workloads/profile.hpp"
#include "workloads/profile_stream.hpp"
#include "workloads/task.hpp"

using namespace smarco;

namespace {

/** Run a scaled SmarCo chip on one benchmark, return metrics. */
chip::ChipMetrics
runSmarco(const workloads::BenchProfile &prof, std::uint64_t tasks,
          chip::ChipConfig cfg, std::uint64_t seed = 17)
{
    Simulator sim;
    chip::SmarcoChip c(sim, cfg);
    workloads::TaskSetParams tp;
    tp.count = tasks;
    tp.seed = seed;
    c.submit(workloads::makeTaskSet(prof, tp));
    c.runUntilDone(100'000'000);
    return c.metrics();
}

} // namespace

// ---------------------------------------------------------------------
// Parameterised per-benchmark properties.
class PerBenchmark : public ::testing::TestWithParam<const char *>
{
};

INSTANTIATE_TEST_SUITE_P(AllHtc, PerBenchmark,
                         ::testing::Values("wordcount", "terasort",
                                           "search", "kmeans", "kmp",
                                           "rnc"));

TEST_P(PerBenchmark, ChipDrainsTaskSet)
{
    const auto &prof = workloads::htcProfile(GetParam());
    const auto m = runSmarco(prof, 16, chip::ChipConfig::scaled(2, 4));
    EXPECT_EQ(m.tasksCompleted, 16u);
    EXPECT_GT(m.aggregateIpc(), 0.1);
}

TEST_P(PerBenchmark, BaselineDrainsTaskSet)
{
    Simulator sim;
    baseline::BaselineChip chip(sim, {});
    workloads::TaskSetParams tp;
    tp.count = 16;
    tp.seed = 23;
    chip.spawnWorkers(
        8, workloads::makeTaskSet(workloads::htcProfile(GetParam()),
                                  tp));
    sim.run(500'000'000);
    EXPECT_EQ(chip.metrics().tasksCompleted, 16u);
}

TEST_P(PerBenchmark, InPairBeatsNoSwitchOnThroughput)
{
    const auto &prof = workloads::htcProfile(GetParam());
    auto cfg = chip::ChipConfig::scaled(1, 4);
    cfg.core.scheme = core::ThreadScheme::InPair;
    const auto paired = runSmarco(prof, 24, cfg);
    cfg.core.scheme = core::ThreadScheme::NoSwitch;
    const auto noswitch = runSmarco(prof, 24, cfg);
    EXPECT_EQ(paired.tasksCompleted, noswitch.tasksCompleted);
    // Latency hiding must not make things slower.
    EXPECT_LE(paired.cycles, noswitch.cycles + noswitch.cycles / 20);
}

TEST_P(PerBenchmark, DeterministicEndCycle)
{
    const auto &prof = workloads::htcProfile(GetParam());
    const auto a = runSmarco(prof, 8, chip::ChipConfig::scaled(2, 4));
    const auto b = runSmarco(prof, 8, chip::ChipConfig::scaled(2, 4));
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.opsCommitted, b.opsCommitted);
    EXPECT_EQ(a.dramRequests, b.dramRequests);
}

// ---------------------------------------------------------------------
// Paper-shape properties on reduced configurations.

TEST(PaperShape, IpcGrowsNearLinearlyUpToFourThreads)
{
    // Fig. 17 on one core: IPC(4) ~ 4x IPC(1), IPC(8) > IPC(4).
    const auto &prof = workloads::htcProfile("wordcount");
    const auto ipc_at = [&](std::uint32_t threads) {
        Simulator sim;
        auto cfg = chip::ChipConfig::scaled(1, 4);
        cfg.core.numThreads = threads;
        cfg.core.maxRunning = std::min<std::uint32_t>(threads, 4);
        chip::SmarcoChip c(sim, cfg);
        for (std::uint32_t t = 0; t < threads; ++t) {
            workloads::TaskSpec ts;
            ts.id = t;
            ts.profile = &prof;
            ts.numOps = 30000;
            ts.seed = t + 1;
            c.core(0).attachTask(
                ts,
                std::make_unique<workloads::ProfileStream>(
                    prof, c.layoutFor(ts, 0), ts.numOps, ts.seed),
                core::kNoTicket);
        }
        c.runUntilDone(20'000'000);
        return c.core(0).ipc();
    };
    const double ipc1 = ipc_at(1);
    const double ipc4 = ipc_at(4);
    const double ipc8 = ipc_at(8);
    EXPECT_GT(ipc4 / ipc1, 3.0);
    EXPECT_LT(ipc4 / ipc1, 4.5);
    EXPECT_GT(ipc8, ipc4 * 1.05);
    EXPECT_LT(ipc8, ipc4 * 1.9);
}

TEST(PaperShape, HighDensitySlicingImprovesThroughput)
{
    // Fig. 18: on a saturated ring, finer slices deliver more small
    // packets per unit time. Closed-loop injection with KMP's access
    // granularity distribution.
    const auto &prof = workloads::htcProfile("kmp");
    const auto throughput_at = [&](std::uint32_t slice) {
        Simulator sim;
        noc::RingParams rp;
        rp.numStops = 17;
        rp.fixedBytesPerDir = 8;
        rp.flexBytes = 16;
        rp.sliceBytes = slice;
        noc::Ring ring(sim, rp, "ring");
        Rng rng(42);
        DiscreteDist gran(prof.granularityWeights);
        std::uint64_t delivered = 0;
        for (std::uint32_t s = 0; s < rp.numStops; ++s)
            ring.setHandler(s, [&](noc::Packet &&) { ++delivered; });
        // Closed loop: keep the injection queues topped up.
        for (int cycle = 0; cycle < 3000; ++cycle) {
            for (std::uint32_t s = 0; s < rp.numStops; ++s) {
                noc::Packet p;
                p.payloadBytes = workloads::kGranularitySizes[
                    gran.sample(rng)] + 4; // payload + header flit
                ring.inject(s, (s + 3) % rp.numStops, std::move(p));
            }
            sim.run(1);
        }
        return static_cast<double>(delivered) / 3000.0;
    };
    const double t2 = throughput_at(2);
    const double t8 = throughput_at(8);
    const double t16 = throughput_at(16);
    EXPECT_GT(t2, t16 * 1.3); // fine slices win clearly
    EXPECT_GE(t2, t8);        // still improving below 8 bytes
}

TEST(PaperShape, MactImprovesKmpButNotKmeans)
{
    // Fig. 20: KMP (tiny, bursty, discrete accesses) gains the most
    // from the MACT; K-means gains the least because its scattered
    // float accesses rarely share a line, so collection mostly adds
    // waiting latency.
    const auto run_with = [&](const char *bench, bool mact) {
        auto cfg = chip::ChipConfig::scaled(2, 4);
        cfg.mact.enabled = mact;
        return runSmarco(workloads::htcProfile(bench), 24, cfg);
    };
    const auto kmp_on = run_with("kmp", true);
    const auto kmp_off = run_with("kmp", false);
    // Fewer DRAM requests with the table on.
    EXPECT_LT(kmp_on.dramRequests, kmp_off.dramRequests);
    const double kmp_speedup = static_cast<double>(kmp_off.cycles) /
                               static_cast<double>(kmp_on.cycles);

    const auto km_on = run_with("kmeans", true);
    const auto km_off = run_with("kmeans", false);
    const double km_speedup = static_cast<double>(km_off.cycles) /
                              static_cast<double>(km_on.cycles);
    // The benefit ordering of Fig. 20 must hold.
    EXPECT_GT(kmp_speedup, km_speedup);
    // And K-means must be close to break-even (paper: < 1.0).
    EXPECT_LT(km_speedup, 1.1);
}

TEST(PaperShape, HardwareSchedulerTightensExitSpread)
{
    // Fig. 21 on a reduced sub-ring: the laxity-aware hardware
    // scheduler compresses the exit-time spread of same-deadline
    // tasks relative to the software deadline scheduler.
    const auto spread_with = [&](sched::SchedPolicy policy) {
        Simulator sim;
        auto cfg = chip::ChipConfig::scaled(1, 8);
        cfg.subSched.policy = policy;
        cfg.core.issuePolicy =
            policy == sched::SchedPolicy::HardwareLaxity
                ? core::IssuePolicy::LaxityAware
                : core::IssuePolicy::RoundRobin;
        chip::SmarcoChip c(sim, cfg);
        const auto &prof = workloads::htcProfile("rnc");
        workloads::TaskSetParams tp;
        tp.count = 64; // 8 cores x 8 contexts
        tp.seed = 77;
        // RNC streams are near-uniform; the spread under test is the
        // scheduler's, not the workload's (Fig. 21).
        tp.opsJitter = 0.03;
        tp.deadline = 2'000'000;
        tp.realtime = true;
        for (auto &t : workloads::makeTaskSet(prof, tp))
            c.submitTo(0, t);
        c.runUntilDone(50'000'000);
        const auto &exits = c.subScheduler(0).exits();
        Cycle lo = kNoCycle, hi = 0;
        for (const auto &e : exits) {
            lo = std::min(lo, e.finish);
            hi = std::max(hi, e.finish);
        }
        EXPECT_EQ(exits.size(), 64u);
        return hi - lo;
    };
    const Cycle hw = spread_with(sched::SchedPolicy::HardwareLaxity);
    const Cycle sw = spread_with(sched::SchedPolicy::SoftwareDeadline);
    EXPECT_LT(hw, sw);
}

TEST(PaperShape, SmarcoBeatsBaselineOnThroughputPerCycle)
{
    // Fig. 22 direction on reduced configs: per-cycle task
    // throughput of a 32-core SmarCo slice exceeds the 24-core
    // baseline on small-granularity HTC work.
    const auto &prof = workloads::htcProfile("kmp");
    const auto sm = runSmarco(prof, 128,
                              chip::ChipConfig::scaled(2, 16));
    Simulator sim;
    baseline::BaselineChip base(sim, {});
    workloads::TaskSetParams tp;
    tp.count = 128;
    tp.seed = 17;
    base.spawnWorkers(48, workloads::makeTaskSet(prof, tp));
    sim.run(500'000'000);
    const auto bm = base.metrics();
    EXPECT_EQ(sm.tasksCompleted, bm.tasksCompleted);
    EXPECT_GT(sm.tasksPerMCycle(), bm.tasksPerMCycle());
}

TEST(PaperShape, SharedInstrSegmentAblation)
{
    // Section 3.1.2: disabling the shared instruction segment raises
    // instruction starvation on multithreaded cores.
    const auto starvation_with = [&](bool shared) {
        Simulator sim;
        auto cfg = chip::ChipConfig::scaled(1, 4);
        cfg.core.sharedInstrSegment = shared;
        chip::SmarcoChip c(sim, cfg);
        workloads::TaskSetParams tp;
        tp.count = 32;
        tp.seed = 31;
        c.submit(workloads::makeTaskSet(
            workloads::htcProfile("search"), tp));
        c.runUntilDone(100'000'000);
        double starve = 0.0;
        for (CoreId id = 0; id < c.numCores(); ++id)
            starve += c.core(id).starvationRatio();
        return starve;
    };
    EXPECT_LT(starvation_with(true), starvation_with(false));
}
