/**
 * @file
 * Tests of the conventional-CMP (Xeon-like) baseline model.
 */
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "baseline/baseline_chip.hpp"
#include "workloads/profile.hpp"
#include "workloads/task.hpp"

using namespace smarco;
using namespace smarco::baseline;

namespace {

std::vector<workloads::TaskSpec>
taskSet(const char *profile, std::uint64_t count, std::uint64_t seed)
{
    workloads::TaskSetParams tp;
    tp.count = count;
    tp.seed = seed;
    return workloads::makeTaskSet(workloads::htcProfile(profile), tp);
}

} // namespace

TEST(Baseline, CompletesAllTasks)
{
    Simulator sim;
    BaselineChip chip(sim, {});
    chip.spawnWorkers(8, taskSet("wordcount", 32, 1));
    sim.run(200'000'000);
    EXPECT_EQ(chip.metrics().tasksCompleted, 32u);
    EXPECT_TRUE(sim.finishedIdle());
}

TEST(Baseline, DrainedBatchCyclesEqualSimulatorEndClock)
{
    // The baseline counts its own ticks while it has live threads;
    // SmarCo's cycles is the simulator's clock when it drains. For a
    // closed batch spawned at cycle 0 the two spans must agree, so
    // cross-chip rates divide by the same span.
    struct Case {
        const char *profile;
        unsigned threads;
        std::uint64_t tasks;
        bool fastForward;
    };
    const Case cases[] = {{"wordcount", 8, 32, true},
                          {"kmp", 48, 48, true},
                          {"search", 64, 64, true},
                          {"kmp", 8, 24, false}};
    for (const Case &c : cases) {
        Simulator sim;
        sim.setFastForward(c.fastForward);
        BaselineChip chip(sim, {});
        chip.spawnWorkers(c.threads, taskSet(c.profile, c.tasks, 3));
        const Cycle end = sim.run(500'000'000);
        ASSERT_TRUE(sim.finishedIdle());
        EXPECT_EQ(chip.metrics().tasksCompleted, c.tasks);
        EXPECT_EQ(chip.metrics().cycles, end)
            << c.profile << ", " << c.threads << " threads";
    }
}

TEST(BaselineDeathTest, TaskWithoutProfilePanics)
{
    // Same contract as the SmarCo chip's stream factory: a task must
    // name the profile its micro-op stream is generated from.
    const auto run = [] {
        Simulator sim;
        BaselineChip chip(sim, {});
        workloads::TaskSpec t;
        t.id = 7;
        t.numOps = 100;
        chip.spawnWorkers(1, {t});
        sim.run(10'000'000);
    };
    EXPECT_DEATH(run(), "task 7 has no profile");
}

TEST(Baseline, DeterministicAcrossRuns)
{
    Cycle end[2];
    for (int i = 0; i < 2; ++i) {
        Simulator sim;
        BaselineChip chip(sim, {});
        chip.spawnWorkers(8, taskSet("kmp", 24, 7));
        end[i] = sim.run(200'000'000);
    }
    EXPECT_EQ(end[0], end[1]);
}

TEST(Baseline, MoreThreadsFasterUpToHardwareLimit)
{
    Cycle t1, t16;
    {
        Simulator sim;
        BaselineChip chip(sim, {});
        chip.spawnWorkers(1, taskSet("search", 48, 2));
        t1 = sim.run(500'000'000);
    }
    {
        Simulator sim;
        BaselineChip chip(sim, {});
        chip.spawnWorkers(16, taskSet("search", 48, 2));
        t16 = sim.run(500'000'000);
    }
    EXPECT_LT(t16, t1);
}

TEST(Baseline, OversubscriptionCostsContextSwitches)
{
    Simulator sim;
    BaselineParams params;
    BaselineChip chip(sim, params);
    // 96 threads on 48 hardware contexts: slots rotate.
    chip.spawnWorkers(96, taskSet("wordcount", 192, 3));
    sim.run(500'000'000);
    EXPECT_EQ(chip.metrics().tasksCompleted, 192u);
    const Stat &switches = sim.stats().get("base.switches");
    EXPECT_GT(switches.value(), 0.0);
}

TEST(Baseline, ThreadCreationSerialises)
{
    // With tiny tasks, run time is dominated by serial creation:
    // ~numThreads x threadCreateCost.
    Simulator sim;
    BaselineParams params;
    BaselineChip chip(sim, params);
    auto tasks = taskSet("search", 64, 4);
    for (auto &t : tasks)
        t.numOps = 64;
    chip.spawnWorkers(64, tasks);
    const Cycle end = sim.run(500'000'000);
    EXPECT_GE(end, 64u * params.threadCreateCost);
}

TEST(Baseline, SecondSpawnRunsAsFastAsTheFirst)
{
    // A retired pool must leave its SMT slots empty: a second batch
    // on the same chip then starts at once instead of queueing behind
    // the finished threads until the next OS time slice.
    Simulator sim;
    BaselineParams params;
    params.numCores = 2;
    params.smtPerCore = 2;
    BaselineChip chip(sim, params);
    chip.spawnWorkers(4, taskSet("search", 4, 5));
    const Cycle first = sim.run(500'000'000);
    ASSERT_TRUE(sim.finishedIdle());
    chip.spawnWorkers(4, taskSet("search", 4, 5));
    const Cycle second = sim.run(500'000'000) - first;
    ASSERT_TRUE(sim.finishedIdle());
    EXPECT_EQ(chip.metrics().tasksCompleted, 8u);
    EXPECT_LE(static_cast<double>(second),
              1.1 * static_cast<double>(first));
}

TEST(Baseline, IdleRatioHighForMemoryBoundWork)
{
    Simulator sim;
    BaselineChip chip(sim, {});
    chip.spawnWorkers(48, taskSet("kmp", 96, 5));
    sim.run(500'000'000);
    const auto m = chip.metrics();
    // Fig. 1a: conventional cores idle most issue slots on HTC work.
    EXPECT_GT(1.0 - m.slotUtilisation(), 0.5);
    EXPECT_LT(1.0 - m.slotUtilisation(), 1.0);
}

TEST(Baseline, CacheMissRatiosAreMeasured)
{
    Simulator sim;
    BaselineChip chip(sim, {});
    chip.spawnWorkers(24, taskSet("terasort", 48, 6));
    sim.run(500'000'000);
    const auto m = chip.metrics();
    EXPECT_GT(m.l1MissRatio, 0.0);
    EXPECT_LT(m.l1MissRatio, 1.0);
    EXPECT_GT(m.l2MissRatio, 0.0);
    EXPECT_GT(m.llcMissRatio, 0.0);
    EXPECT_GT(m.l1AvgLatency, 0.0);
    EXPECT_GT(m.l2AvgLatency, m.l1AvgLatency);
    EXPECT_GT(m.llcAvgLatency, m.l2AvgLatency);
}

TEST(Baseline, BranchMissRatioTracksProfile)
{
    Simulator sim;
    BaselineChip chip(sim, {});
    chip.spawnWorkers(8, taskSet("kmp", 16, 7));
    sim.run(500'000'000);
    const auto m = chip.metrics();
    EXPECT_NEAR(m.branchMissRatio,
                workloads::htcProfile("kmp").branchMissRate, 0.02);
}

TEST(Baseline, PersistentWorkersServeInjectedTasks)
{
    Simulator sim;
    BaselineChip chip(sim, {});
    chip.spawnWorkers(4, {}, /*persistent=*/true);
    // Inject tasks at two points in time.
    auto tasks = taskSet("wordcount", 4, 8);
    sim.events().schedule(200'000, [&] {
        for (const auto &t : tasks)
            chip.submitRequest(t);
    });
    sim.run(5'000'000);
    EXPECT_EQ(chip.metrics().tasksCompleted, 4u);
}

TEST(Baseline, UtilisationLowWhenWorkIsSparse)
{
    // CDN-like situation: a trickle of tasks on idle-spinning
    // workers keeps CPU utilisation low.
    Simulator sim;
    BaselineChip chip(sim, {});
    chip.spawnWorkers(8, {}, /*persistent=*/true);
    auto tasks = taskSet("wordcount", 8, 9);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        const auto t = tasks[i];
        sim.events().schedule(300'000 + i * 400'000,
                              [&chip, t] { chip.submitRequest(t); });
    }
    sim.run(4'000'000);
    const auto m = chip.metrics();
    EXPECT_LT(m.slotUtilisation(), 0.2);
    EXPECT_GT(chip.metrics().tasksCompleted, 0u);
}

TEST(Baseline, DramNamesOnlyChannelsBandwidthAndLatency)
{
    // 85 GB/s over four channels at ~82 ns; every other controller
    // field keeps its default.
    const mem::DramParams d = BaselineParams{}.dram;
    const mem::DramParams def{};
    EXPECT_EQ(d.channels, 4u);
    EXPECT_DOUBLE_EQ(d.bytesPerCycle, 9.66);
    EXPECT_EQ(d.accessLatency, 180u);
    EXPECT_EQ(d.requestOverhead, def.requestOverhead);
    EXPECT_EQ(d.writeDrainThreshold, def.writeDrainThreshold);
    EXPECT_EQ(d.demandStreakLimit, def.demandStreakLimit);
    EXPECT_EQ(d.interleaveBytes, def.interleaveBytes);
}

TEST(Baseline, IdlePersistentPoolSleepsBetweenPolls)
{
    // A persistent pool with an empty bag is not busy, but held work
    // keeps the run going. The chip sleeps between its parked
    // workers' empty-bag polls, and the kernel replays the skipped
    // ticks' counters; both kernel modes dump the same stats.
    struct Outcome {
        std::string stats;
        Cycle activeCycles;
        std::uint64_t skipped;
    };
    const auto run = [](bool fast_forward) {
        Simulator sim;
        sim.setFastForward(fast_forward);
        BaselineChip chip(sim, {});
        chip.spawnWorkers(4, {}, /*persistent=*/true);
        sim.holdWork();
        EXPECT_EQ(sim.run(1'000'000), 1'000'000u);
        std::ostringstream os;
        sim.stats().dumpJson(os);
        return Outcome{os.str(), chip.metrics().cycles,
                       sim.cyclesSkipped()};
    };
    const Outcome ff = run(true);
    const Outcome forced = run(false);
    EXPECT_EQ(ff.stats, forced.stats);
    EXPECT_EQ(ff.activeCycles, 1'000'000u);
    EXPECT_GE(ff.skipped, 900'000u);
    EXPECT_EQ(forced.skipped, 0u);
}

TEST(Baseline, DueSlotPassedOverForBudgetStaysAwake)
{
    // One core, two SMT slots, search tasks: ILP 3.0 times the 1.5
    // OoO boost reaches the 4-wide issue width, so slot 0 can spend
    // the core's whole budget while slot 1 is due. The passed-over
    // slot's wake must stay in its core's hint, or the kernel skips a
    // tick in which it acts (and panics on it).
    const auto run = [](bool fast_forward) {
        Simulator sim;
        sim.setFastForward(fast_forward);
        BaselineParams params;
        params.numCores = 1;
        params.smtPerCore = 2;
        BaselineChip chip(sim, params);
        chip.spawnWorkers(2, taskSet("search", 6, 11));
        sim.run(200'000'000);
        EXPECT_EQ(chip.metrics().tasksCompleted, 6u);
        EXPECT_TRUE(sim.finishedIdle());
        std::ostringstream os;
        sim.stats().dumpJson(os);
        return os.str();
    };
    EXPECT_EQ(run(true), run(false));
}
