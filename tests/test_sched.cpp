/**
 * @file
 * Unit tests of the chain tables and schedulers (Section 3.7).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <vector>

#include "sim/logging.hpp"
#include "sched/chain_table.hpp"
#include "sched/main_scheduler.hpp"
#include "sched/sub_scheduler.hpp"
#include "workloads/profile.hpp"

using namespace smarco;
using namespace smarco::sched;

namespace {

/**
 * Profile of the trace-driven test tasks: the profile defaults (ILP
 * 2.0, a 6 KiB instruction loop), every stream load a demand miss.
 */
const workloads::BenchProfile &
traceProfile()
{
    static const workloads::BenchProfile profile = [] {
        workloads::BenchProfile p;
        p.name = "task";
        p.streamLoadBlocking = 1.0;
        return p;
    }();
    return profile;
}

workloads::TaskSpec
task(TaskId id, Cycle deadline = kNoCycle, bool realtime = false,
     std::uint64_t ops = 1000)
{
    workloads::TaskSpec t;
    t.id = id;
    t.profile = &traceProfile();
    t.numOps = ops;
    t.deadline = deadline;
    t.realtime = realtime;
    return t;
}

} // namespace

TEST(Laxity, DeadlineMinusRemaining)
{
    const auto t = task(1, 5000, false, 1000);
    EXPECT_DOUBLE_EQ(t.laxity(0), 4000.0);
    EXPECT_DOUBLE_EQ(t.laxity(1000), 3000.0);
    EXPECT_DOUBLE_EQ(t.laxity(6000), -1000.0);
    // A running task's retired ops no longer count against it; ops
    // past numOps leave nothing to run.
    EXPECT_DOUBLE_EQ(t.laxity(1000, 400), 3400.0);
    EXPECT_DOUBLE_EQ(t.laxity(1000, 1000), 4000.0);
    EXPECT_DOUBLE_EQ(t.laxity(1000, 1500), 4000.0);
}

TEST(Laxity, NoDeadlineIsInfinite)
{
    EXPECT_TRUE(std::isinf(task(1).laxity(0)));
    EXPECT_TRUE(std::isinf(task(1).laxity(0, 500)));
}

TEST(ChainTable, FifoWithoutLaxity)
{
    TaskChainTable table(16);
    EXPECT_TRUE(table.insert(task(1)));
    EXPECT_TRUE(table.insert(task(2)));
    EXPECT_TRUE(table.insert(task(3)));
    EXPECT_EQ(table.size(), 3u);
    EXPECT_EQ(table.popNext(0)->id, 1u);
    EXPECT_EQ(table.popNext(0)->id, 2u);
    EXPECT_EQ(table.popNext(0)->id, 3u);
    EXPECT_FALSE(table.popNext(0).has_value());
}

TEST(ChainTable, LeastLaxityFirst)
{
    TaskChainTable table(16);
    table.insert(task(1, 9000, false, 1000)); // laxity 8000
    table.insert(task(2, 3000, false, 1000)); // laxity 2000
    table.insert(task(3, 5000, false, 1000)); // laxity 4000
    EXPECT_EQ(table.popNext(0)->id, 2u);
    EXPECT_EQ(table.popNext(0)->id, 3u);
    EXPECT_EQ(table.popNext(0)->id, 1u);
}

TEST(ChainTable, HighPriorityChainFirst)
{
    TaskChainTable table(16);
    table.insert(task(1, 100, false, 10));      // very urgent, normal
    table.insert(task(2, 90000, true, 10));     // relaxed, realtime
    // The high-priority chain is always served first.
    EXPECT_EQ(table.popNext(0)->id, 2u);
    EXPECT_EQ(table.popNext(0)->id, 1u);
}

TEST(ChainTable, CapacityExhaustion)
{
    TaskChainTable table(4);
    for (TaskId i = 0; i < 4; ++i)
        EXPECT_TRUE(table.insert(task(i)));
    EXPECT_FALSE(table.insert(task(99)));
    // Freeing one entry re-enables insertion (null chain recycling).
    table.popNext(0);
    EXPECT_TRUE(table.insert(task(100)));
}

TEST(ChainTable, ReachesCapacityAfterChurn)
{
    // Entries are built on first use, so churn leaves some entries
    // freed and one never built; the table must still hold exactly
    // its capacity, in the same pop order.
    TaskChainTable table(8);
    EXPECT_EQ(table.capacity(), 8u);
    TaskId next = 0;
    for (int round = 0; round < 5; ++round) { // peaks at 7 queued
        for (int k = 0; k < 3; ++k)
            ASSERT_TRUE(table.insert(task(next++)));
        for (int k = 0; k < 2; ++k)
            ASSERT_TRUE(table.popNext(0).has_value());
    }
    while (table.popNext(0).has_value()) {
    }
    ASSERT_TRUE(table.empty());

    // Four tasks without deadlines, four with, interleaved.
    const Cycle deadlines[] = {9000, 3000, 5000, 7000};
    for (TaskId i = 0; i < 4; ++i) {
        ASSERT_TRUE(table.insert(task(100 + i)));
        ASSERT_TRUE(table.insert(task(200 + i, deadlines[i])));
    }
    EXPECT_EQ(table.size(), 8u);
    EXPECT_FALSE(table.insert(task(999)));
    EXPECT_EQ(table.capacity(), 8u);
    // Least laxity first, then the deadline-free tasks in FIFO order.
    for (const TaskId want : {201, 202, 203, 200, 100, 101, 102, 103})
        EXPECT_EQ(table.popNext(0)->id, want);
    EXPECT_TRUE(table.empty());
}

TEST(ChainTable, InterleavedInsertPopKeepsIntegrity)
{
    TaskChainTable table(8);
    std::uint64_t inserted = 0, popped = 0;
    for (int round = 0; round < 100; ++round) {
        inserted += table.insert(task(round, 1000 + round * 10)) ? 1 : 0;
        if (round % 2 == 1) {
            auto t = table.popNext(round);
            ASSERT_TRUE(t.has_value());
            ++popped;
        }
    }
    while (table.popNext(0).has_value())
        ++popped;
    // Every successfully inserted task comes back out exactly once.
    EXPECT_EQ(popped, inserted);
    EXPECT_TRUE(table.empty());
    // And freed entries are recycled through the null chain.
    for (TaskId i = 0; i < 8; ++i)
        EXPECT_TRUE(table.insert(task(i)));
    EXPECT_FALSE(table.insert(task(9)));
}

namespace {

/** Stream factory: a task's numOps ALU ops, then a halt. */
isa::StreamPtr
aluTrace(const workloads::TaskSpec &t, CoreId)
{
    std::vector<isa::MicroOp> ops(t.numOps);
    isa::MicroOp halt;
    halt.kind = isa::OpKind::Halt;
    ops.push_back(halt);
    return std::make_unique<isa::TraceStream>(ops);
}

/** Staging function of cores with no input to stage: the ticket goes
 *  straight back to sub. */
SubScheduler::StageFn
stageNow(const std::unique_ptr<SubScheduler> &sub)
{
    return [&sub](CoreId, const workloads::TaskSpec &,
                  std::uint32_t ticket) { sub->staged(ticket); };
}

/** Fake core farm for scheduler tests (through real TcgCores). */
struct SchedEnv {
    Simulator sim;

    /** Completes every request of cores at once. */
    struct NullPort : core::MemPort {
        explicit NullPort(
            std::vector<std::unique_ptr<core::TcgCore>> &cores)
            : cores(cores) {}

        void
        request(CoreId core, ThreadId thread, const isa::MicroOp &,
                mem::AccessClass access) override
        {
            if (access == mem::AccessClass::Load)
                cores[core]->loadDone(thread);
            else
                cores[core]->storeDone();
        }
        void writeback(CoreId, Addr) override {}

        std::vector<std::unique_ptr<core::TcgCore>> &cores;
    };

    std::vector<std::unique_ptr<core::TcgCore>> cores;
    NullPort port{cores};

    SubScheduler &
    make(SchedPolicy policy, std::uint32_t num_cores = 2)
    {
        SubSchedulerParams sp;
        sp.policy = policy;
        sub = std::make_unique<SubScheduler>(sim, sp, 0, aluTrace,
                                             stageNow(sub), "sched");
        for (std::uint32_t i = 0; i < num_cores; ++i) {
            core::CoreParams cp;
            cores.push_back(std::make_unique<core::TcgCore>(
                sim, cp, i, port, strprintf("core%u", i)));
            sub->addCore(cores.back().get());
        }
        return *sub;
    }

    std::unique_ptr<SubScheduler> sub;
};

struct SchedFixture : ::testing::Test, SchedEnv {
};

} // namespace

TEST_F(SchedFixture, HardwareSchedulerDrainsQueue)
{
    auto &s = make(SchedPolicy::HardwareLaxity);
    for (TaskId i = 0; i < 40; ++i)
        s.submit(task(i, kNoCycle, false, 500));
    sim.run(1000000);
    EXPECT_EQ(s.tasksCompleted(), 40u);
    EXPECT_EQ(s.pendingTasks(), 0u);
    EXPECT_EQ(s.deadlineMisses(), 0u);
}

TEST_F(SchedFixture, SoftwareSchedulerDrainsQueue)
{
    auto &s = make(SchedPolicy::SoftwareDeadline);
    for (TaskId i = 0; i < 40; ++i)
        s.submit(task(i, kNoCycle, false, 500));
    sim.run(5000000);
    EXPECT_EQ(s.tasksCompleted(), 40u);
}

TEST_F(SchedFixture, ExitRecordsCarryDeadlineVerdict)
{
    auto &s = make(SchedPolicy::HardwareLaxity);
    s.submit(task(0, 2, false, 50000)); // impossible deadline
    s.submit(task(1, kNoCycle, false, 100));
    sim.run(1000000);
    ASSERT_EQ(s.exits().size(), 2u);
    EXPECT_EQ(s.deadlineMisses(), 1u);
    bool saw_missed = false;
    for (const auto &e : s.exits()) {
        if (e.taskId == 0) {
            EXPECT_FALSE(e.metDeadline);
            saw_missed = true;
        }
    }
    EXPECT_TRUE(saw_missed);
}

TEST_F(SchedFixture, HardwareDispatchFasterThanSoftware)
{
    // Dispatch latency of the first task: HW decides in a few
    // cycles, SW waits for its next quantum.
    Cycle hw_done, sw_done;
    {
        auto &s = make(SchedPolicy::HardwareLaxity);
        s.submit(task(0, kNoCycle, false, 100));
        sim.run(1000000);
        hw_done = s.exits().front().finish;
    }
    SchedEnv other;
    {
        auto &s = other.make(SchedPolicy::SoftwareDeadline);
        // Miss the cycle-0 quantum on purpose.
        other.sim.run(10);
        s.submit(task(0, kNoCycle, false, 100));
        other.sim.run(1000000);
        sw_done = s.exits().front().finish;
    }
    EXPECT_LT(hw_done, sw_done);
}

TEST_F(SchedFixture, ReleaseTimeRespected)
{
    auto &s = make(SchedPolicy::HardwareLaxity);
    auto t = task(0, kNoCycle, false, 10);
    t.release = 500;
    s.submit(t);
    sim.run(1000000);
    ASSERT_EQ(s.exits().size(), 1u);
    EXPECT_GE(s.exits().front().finish, 500u);
}

TEST_F(SchedFixture, LoadCountsQueuedAndInFlight)
{
    auto &s = make(SchedPolicy::HardwareLaxity, 1);
    for (TaskId i = 0; i < 20; ++i)
        s.submit(task(i, kNoCycle, false, 2000));
    EXPECT_EQ(s.load(), 20u);
    sim.run(50);
    EXPECT_GT(s.load(), 0u);
    sim.run(1000000);
    EXPECT_EQ(s.load(), 0u);
}

TEST_F(SchedFixture, SoftwareQuantumOverCommitRequeuesAndDrains)
{
    // 3 cores x 8 contexts and 40 long tasks. A quantum's 24 dispatch
    // events take 24 x 120 cycles, past the next 2000-cycle boundary,
    // which counts the contexts of the events not yet run as free and
    // pops that many more tasks. The last of these dispatches find
    // every context taken and requeue their tasks; each task still
    // runs once.
    auto &s = make(SchedPolicy::SoftwareDeadline, 3);
    for (TaskId i = 0; i < 40; ++i)
        s.submit(task(i, kNoCycle, false, 20000));
    sim.run(50'000'000);
    std::vector<TaskId> ids;
    for (const auto &e : s.exits())
        ids.push_back(e.taskId);
    std::sort(ids.begin(), ids.end());
    std::vector<TaskId> all(40);
    std::iota(all.begin(), all.end(), TaskId{0});
    EXPECT_EQ(ids, all);
    EXPECT_EQ(sim.stats().get("sched.dispatched").value(), 40.0);
    EXPECT_EQ(sim.stats().get("sched.submitted").value(), 40.0);
    EXPECT_EQ(s.load(), 0u);
}

TEST(Backoff, SaturatesInsteadOfWrapping)
{
    // The shift is capped at 20, and a shift past a Cycle's width
    // saturates at max instead of wrapping to zero.
    EXPECT_EQ(boundedBackoff(500, 0, 32'000), 500u);
    EXPECT_EQ(boundedBackoff(500, 6, 32'000), 32'000u);
    EXPECT_EQ(boundedBackoff(2'000, 4, 64'000), 32'000u);
    EXPECT_EQ(boundedBackoff(1, 40, kNoCycle), Cycle{1} << 20);
    EXPECT_EQ(boundedBackoff(Cycle{1} << 53, 11, 32'000), 32'000u);
    EXPECT_EQ(boundedBackoff(Cycle{1} << 53, 11, kNoCycle), kNoCycle);
}

TEST_F(SchedFixture, RecoveryBackoffSaturatesAtItsMax)
{
    // backoffBase 2^53 is inside its spec range. Shifted by 11 for
    // the twelfth retry it would wrap to 0 and redispatch at once;
    // every retry must wait backoffMax instead.
    auto &s = make(SchedPolicy::HardwareLaxity, 1);
    RecoveryParams rp;
    rp.heartbeatInterval = 1'000'000;
    rp.hangTimeout = 1'000'000;
    rp.backoffBase = Cycle{1} << 53;
    rp.backoffMax = 10'000;
    rp.maxAttempts = 64;
    s.enableRecovery(rp);
    s.submit(task(0, kNoCycle, false, 100'000));
    Rng rng(1, 1);
    for (int kill = 1; kill <= 12; ++kill) {
        for (int i = 0; i < 100 && cores[0]->liveContexts() == 0; ++i)
            sim.run(200);
        ASSERT_EQ(cores[0]->liveContexts(), 1u) << "kill " << kill;
        ASSERT_TRUE(cores[0]->injectThreadFault(core::ThreadFault::Kill,
                                                rng, sim.now()));
        sim.run(9'000);
        EXPECT_EQ(cores[0]->liveContexts(), 0u)
            << "retry " << kill << " redispatched before backoffMax";
        EXPECT_EQ(s.pendingTasks(), 1u) << "retry " << kill;
    }
}

namespace {

/** Recovery with a short heartbeat: a hang is caught in ~10k cycles. */
RecoveryParams
quickRecovery()
{
    RecoveryParams rp;
    rp.heartbeatInterval = 1'000;
    rp.hangTimeout = 5'000;
    return rp;
}

} // namespace

TEST_F(SchedFixture, NamesakesOnTwoCoresAreWatchedApart)
{
    // A task id is a label: two live tasks may share one. The first
    // lands on core 0, its namesake on core 1, and the one on core 0
    // hangs. The heartbeat must watch each on its own core, kill the
    // hung one only, and the run must drain.
    auto &s = make(SchedPolicy::HardwareLaxity, 2);
    s.enableRecovery(quickRecovery());
    s.submit(task(7, kNoCycle, false, 200'000));
    s.submit(task(7, kNoCycle, false, 200'000));
    sim.run(100);
    ASSERT_EQ(cores[0]->liveContexts(), 1u);
    ASSERT_EQ(cores[1]->liveContexts(), 1u);
    Rng rng(1, 0);
    ASSERT_TRUE(cores[0]->injectThreadFault(core::ThreadFault::Hang, rng,
                                            sim.now()));
    sim.run(10'000'000);
    EXPECT_TRUE(sim.finishedIdle());
    EXPECT_EQ(s.load(), 0u);
    EXPECT_EQ(s.tasksCompleted(), 2u);
    EXPECT_EQ(sim.stats().get("sched.hangKills").value(), 1.0);
    EXPECT_EQ(sim.stats().get("sched.redispatches").value(), 1.0);
    EXPECT_EQ(sim.stats().get("core0.tasksKilled").value(), 1.0);
    EXPECT_EQ(sim.stats().get("core1.tasksKilled").value(), 0.0);
}

TEST_F(SchedFixture, HeartbeatKillsTheHungNamesakeOnOneCore)
{
    // Two tasks with one id share a core. The second to hold the id
    // hangs: the heartbeat must read its progress, not its healthy
    // namesake's, and kill it, not the healthy one.
    auto &s = make(SchedPolicy::HardwareLaxity, 1);
    s.enableRecovery(quickRecovery());
    s.submit(task(7, kNoCycle, false, 100'000));
    s.submit(task(7, kNoCycle, false, 100'000));
    sim.run(100);
    ASSERT_EQ(cores[0]->liveContexts(), 2u);
    // This seed picks the second of the two candidate contexts.
    Rng rng(2, 0);
    ASSERT_TRUE(cores[0]->injectThreadFault(core::ThreadFault::Hang, rng,
                                            sim.now()));
    const std::uint64_t first = cores[0]->taskProgress(0);
    const std::uint64_t second = cores[0]->taskProgress(1);
    sim.run(1'000);
    ASSERT_GT(cores[0]->taskProgress(0), first); // healthy
    ASSERT_EQ(cores[0]->taskProgress(1), second); // hung
    sim.run(10'000'000);
    EXPECT_TRUE(sim.finishedIdle());
    EXPECT_EQ(s.load(), 0u);
    EXPECT_EQ(s.tasksCompleted(), 2u);
    EXPECT_EQ(sim.stats().get("sched.hangKills").value(), 1.0);
    EXPECT_EQ(sim.stats().get("sched.redispatches").value(), 1.0);
    EXPECT_EQ(sim.stats().get("core0.tasksFinished").value(), 2.0);
    EXPECT_EQ(sim.stats().get("core0.tasksKilled").value(), 1.0);
}

TEST_F(SchedFixture, DroppedRetryLeavesNoRecoveryStateForItsId)
{
    // A deadline task is killed, and its retry, released after the
    // backoff, can no longer meet the deadline: it is early-dropped.
    // A fresh task with the same id is a first dispatch, not a
    // redispatch of the dropped one.
    auto &s = make(SchedPolicy::HardwareLaxity, 1);
    RecoveryParams rp = quickRecovery();
    rp.backoffBase = 25'000;
    s.enableRecovery(rp);
    s.enableShedding();
    s.submit(task(7, 30'000, false, 10'000));
    sim.run(1'000);
    Rng rng(1, 0);
    ASSERT_TRUE(cores[0]->injectThreadFault(core::ThreadFault::Kill, rng,
                                            sim.now()));
    sim.run(40'000);
    EXPECT_EQ(sim.stats().get("sched.tasksExpired").value(), 1.0);
    EXPECT_EQ(s.load(), 0u);

    s.submit(task(7, kNoCycle, false, 1'000));
    sim.run(1'000'000);
    EXPECT_EQ(s.tasksCompleted(), 1u);
    EXPECT_EQ(sim.stats().get("sched.redispatches").value(), 0.0);
    EXPECT_EQ(sim.stats().getAs<Histogram>("sched.redispatchDelay").count(),
              0u);
}

TEST(MainScheduler, BalancesAcrossSubRings)
{
    Simulator sim;
    std::vector<std::unique_ptr<core::TcgCore>> cores;
    SchedEnv::NullPort port{cores};
    std::vector<std::unique_ptr<SubScheduler>> subs(4);
    SubSchedulerParams sp;
    for (std::uint32_t g = 0; g < 4; ++g) {
        subs[g] = std::make_unique<SubScheduler>(
            sim, sp, g, aluTrace, stageNow(subs[g]), strprintf("s%u", g));
        core::CoreParams cp;
        cores.push_back(std::make_unique<core::TcgCore>(
            sim, cp, g, port, strprintf("c%u", g)));
        subs[g]->addCore(cores.back().get());
    }
    MainScheduler main(
        sim, {},
        [&subs](std::uint32_t g, const workloads::TaskSpec &t) {
            subs[g]->submit(t);
        },
        "main");
    for (auto &s : subs)
        main.addSubScheduler(s.get());

    for (TaskId i = 0; i < 64; ++i)
        main.submit(task(i, kNoCycle, false, 3000));
    sim.run(5000000);

    std::uint64_t total = 0;
    for (auto &s : subs) {
        // Every sub-ring got a meaningful share.
        EXPECT_GT(s->tasksCompleted(), 8u);
        total += s->tasksCompleted();
    }
    EXPECT_EQ(total, 64u);
    EXPECT_EQ(sim.stats().get("main.routed").value(), 64.0);
}

TEST(MainScheduler, FutureReleaseKeepsSimulatorBusyUntilRouted)
{
    // A task held for a future release is in-flight work: nothing
    // else is busy across the gap, yet anyBusy() must stay true until
    // the release routes it (the fault campaign's "workload still
    // running" predicate depends on it), in both kernel modes.
    for (const bool fast_forward : {true, false}) {
        SCOPED_TRACE(fast_forward ? "fast-forward" : "per-cycle");
        SchedEnv env;
        env.sim.setFastForward(fast_forward);
        SubScheduler &sub = env.make(SchedPolicy::HardwareLaxity, 1);
        MainScheduler main(
            env.sim, {},
            [&sub](std::uint32_t, const workloads::TaskSpec &t) {
                sub.submit(t);
            },
            "main");
        main.addSubScheduler(&sub);
        auto t = task(0, kNoCycle, false, 100);
        t.release = 5000;
        main.submit(t);
        EXPECT_TRUE(env.sim.anyBusy());

        std::vector<Cycle> probed;
        for (const Cycle c : {Cycle{1}, Cycle{100}, Cycle{2500},
                              Cycle{4999}})
            env.sim.events().schedule(c, [&, c] {
                EXPECT_TRUE(env.sim.anyBusy()) << "cycle " << c;
                EXPECT_EQ(env.sim.stats().get("main.routed").value(), 0.0)
                    << "cycle " << c;
                probed.push_back(c);
            });
        env.sim.run(1'000'000);

        EXPECT_EQ(probed.size(), 4u);
        EXPECT_TRUE(env.sim.finishedIdle());
        EXPECT_FALSE(env.sim.anyBusy());
        EXPECT_EQ(env.sim.stats().get("main.routed").value(), 1.0);
        ASSERT_EQ(sub.exits().size(), 1u);
        EXPECT_GE(sub.exits().front().finish, 5000u);
    }
}
