/**
 * @file
 * Integration tests of the assembled SmarCo chip: configs, the memory
 * request paths (SPM remote, heap fills, stream + MACT, direct path),
 * DMA staging, and metrics.
 */
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>

#include "sim/logging.hpp"
#include "chip/chip_config.hpp"
#include "chip/smarco_chip.hpp"
#include "workloads/profile.hpp"
#include "workloads/profile_stream.hpp"
#include "workloads/task.hpp"

using namespace smarco;
using namespace smarco::chip;

TEST(ChipConfig, PresetsValidate)
{
    EXPECT_EQ(ChipConfig::simulated256().numCores(), 256u);
    EXPECT_EQ(ChipConfig::simulated256().numThreadsTotal(), 2048u);
    EXPECT_EQ(ChipConfig::prototype40nm().numThreadsTotal(), 256u);
    EXPECT_EQ(ChipConfig::scaled(2, 4).numCores(), 8u);
}

TEST(ChipDeathTest, DramChannelsMustSpaceEvenlyAmongGateways)
{
    // Each DRAM channel is a memory-controller stop on the main ring,
    // spaced equally among the sub-ring gateways.
    auto cfg = ChipConfig::scaled(4, 4);
    cfg.dram.channels = 3;
    EXPECT_DEATH(
        {
            Simulator sim;
            SmarcoChip chip(sim, cfg);
        },
        "3 MCs cannot be equally spaced among 4 gateways");
}

TEST(ChipDeathTest, TaskWithoutProfilePanicsBeforeStaging)
{
    // A task must name the profile its layout and micro-op stream
    // come from. The chip checks when it lays the task out, before
    // its input is DMA-staged, so no DRAM traffic moves for it.
    const auto run = [] {
        Simulator sim;
        SmarcoChip chip(sim, ChipConfig::scaled(1, 4));
        workloads::TaskSpec t;
        t.id = 7;
        t.numOps = 100;
        t.inputBytes = 4096;
        chip.submit({t});
        std::function<void()> watch = [&] {
            if (sim.stats().total("chip.dma", ".bytes") > 0.0)
                panic("DMA staged for a task with no profile");
            sim.events().schedule(sim.now() + 1, watch);
        };
        sim.events().schedule(0, watch);
        chip.runUntilDone(10'000'000);
    };
    EXPECT_DEATH(run(), "task 7 has no profile");
}

TEST(Chip, KillOfHandAttachedTaskReachesNoScheduler)
{
    // A harness that attaches a task to a core by hand, as Fig. 17's
    // does, gives it no ticket: its exit is reported to no
    // sub-scheduler, which never dispatched it. So a kill neither
    // counts an abandonment nor leaves the scheduler busy, and the
    // run drains.
    Simulator sim;
    SmarcoChip chip(sim, ChipConfig::scaled(1, 4));
    const auto &prof = workloads::htcProfile("wordcount");
    workloads::TaskSpec ts;
    ts.id = 0;
    ts.profile = &prof;
    ts.numOps = 40000;
    ts.seed = 11;
    ASSERT_TRUE(chip.core(0).attachTask(
        ts,
        std::make_unique<workloads::ProfileStream>(
            prof, chip.layoutFor(ts, 0), ts.numOps, ts.seed),
        core::kNoTicket));
    Rng rng(1, 0);
    sim.events().schedule(1000, [&] {
        // The task is the core's one live context: the victim.
        EXPECT_TRUE(chip.core(0).injectThreadFault(core::ThreadFault::Kill,
                                                   rng, sim.now()));
    });
    chip.runUntilDone(2'000'000);
    EXPECT_TRUE(sim.finishedIdle());
    EXPECT_EQ(sim.stats().get("chip.sched00.tasksAbandoned").value(), 0.0);
    EXPECT_EQ(chip.subScheduler(0).load(), 0u);
    EXPECT_EQ(sim.stats().get("chip.core000.tasksKilled").value(), 1.0);
}

namespace {

struct ChipFixture : ::testing::Test {
    Simulator sim;
    ChipConfig cfg = ChipConfig::scaled(2, 4);

    std::unique_ptr<SmarcoChip>
    make()
    {
        return std::make_unique<SmarcoChip>(sim, cfg);
    }

    workloads::TaskSpec
    taskOf(const char *profile, std::uint64_t ops, TaskId id = 0)
    {
        workloads::TaskSpec t;
        t.id = id;
        t.profile = &workloads::htcProfile(profile);
        t.numOps = ops;
        t.seed = 11 + id;
        return t;
    }
};

} // namespace

TEST_F(ChipFixture, RunsTaskSetToCompletion)
{
    auto chip = make();
    workloads::TaskSetParams tp;
    tp.count = 24;
    tp.seed = 5;
    chip->submit(workloads::makeTaskSet(
        workloads::htcProfile("wordcount"), tp));
    chip->runUntilDone(10'000'000);
    const auto m = chip->metrics();
    EXPECT_EQ(m.tasksCompleted, 24u);
    EXPECT_GT(m.opsCommitted, 24u * 10000);
    EXPECT_GT(m.aggregateIpc(), 0.0);
    EXPECT_GT(m.dramRequests, 0u);
}

TEST_F(ChipFixture, DeterministicAcrossRuns)
{
    Cycle end1, end2;
    std::uint64_t ops1, ops2;
    {
        Simulator s1;
        SmarcoChip c1(s1, cfg);
        workloads::TaskSetParams tp;
        tp.count = 16;
        tp.seed = 9;
        c1.submit(workloads::makeTaskSet(
            workloads::htcProfile("kmp"), tp));
        end1 = c1.runUntilDone(10'000'000);
        ops1 = c1.metrics().opsCommitted;
    }
    {
        Simulator s2;
        SmarcoChip c2(s2, cfg);
        workloads::TaskSetParams tp;
        tp.count = 16;
        tp.seed = 9;
        c2.submit(workloads::makeTaskSet(
            workloads::htcProfile("kmp"), tp));
        end2 = c2.runUntilDone(10'000'000);
        ops2 = c2.metrics().opsCommitted;
    }
    EXPECT_EQ(end1, end2);
    EXPECT_EQ(ops1, ops2);
}

TEST_F(ChipFixture, MactCollectsStreamTraffic)
{
    cfg.mact.enabled = true;
    auto chip = make();
    workloads::TaskSetParams tp;
    tp.count = 16;
    tp.seed = 2;
    chip->submit(workloads::makeTaskSet(
        workloads::htcProfile("kmp"), tp));
    chip->runUntilDone(10'000'000);
    const StatRegistry &st = chip->sim().stats();
    const double collected = st.total("chip.mact", ".collected");
    const double batches = st.total("chip.mact", ".batches");
    EXPECT_GT(collected, 100.0);
    EXPECT_GT(batches, 0.0);
    EXPECT_LT(batches, collected); // merging happened
}

TEST_F(ChipFixture, MactOffIncreasesDramRequests)
{
    std::uint64_t with_mact, without_mact;
    std::uint64_t tasks_a, tasks_b;
    {
        Simulator s;
        ChipConfig c = cfg;
        c.mact.enabled = true;
        SmarcoChip chip(s, c);
        workloads::TaskSetParams tp;
        tp.count = 16;
        tp.seed = 4;
        chip.submit(workloads::makeTaskSet(
            workloads::htcProfile("kmp"), tp));
        chip.runUntilDone(10'000'000);
        with_mact = chip.metrics().dramRequests;
        tasks_a = chip.metrics().tasksCompleted;
    }
    {
        Simulator s;
        ChipConfig c = cfg;
        c.mact.enabled = false;
        SmarcoChip chip(s, c);
        workloads::TaskSetParams tp;
        tp.count = 16;
        tp.seed = 4;
        chip.submit(workloads::makeTaskSet(
            workloads::htcProfile("kmp"), tp));
        chip.runUntilDone(10'000'000);
        without_mact = chip.metrics().dramRequests;
        tasks_b = chip.metrics().tasksCompleted;
    }
    EXPECT_EQ(tasks_a, tasks_b);
    // Fig. 20: MACT shrinks the number of memory access requests.
    EXPECT_LT(with_mact, without_mact);
}

TEST_F(ChipFixture, RealtimeTrafficUsesDirectPath)
{
    auto chip = make();
    workloads::TaskSetParams tp;
    tp.count = 16;
    tp.seed = 8;
    tp.realtime = true;
    chip->submit(workloads::makeTaskSet(
        workloads::htcProfile("rnc"), tp));
    chip->runUntilDone(10'000'000);
    const Stat &direct = sim.stats().get("chip.priorityDirect");
    EXPECT_GT(direct.value(), 0.0);
}

TEST_F(ChipFixture, DmaStagingMovesTaskInput)
{
    auto chip = make();
    workloads::TaskSetParams tp;
    tp.count = 8;
    tp.seed = 3;
    chip->submit(workloads::makeTaskSet(
        workloads::htcProfile("terasort"), tp));
    chip->runUntilDone(10'000'000);
    double staged = 0.0;
    for (CoreId c = 0; c < chip->numCores(); ++c) {
        if (auto *s = sim.stats().find(strprintf("chip.dma%03u.bytes", c)))
            staged += s->value();
    }
    EXPECT_GT(staged, 8.0 * 1024); // at least the inputs moved
}

TEST_F(ChipFixture, StagingOffStillCompletes)
{
    // A task without input starts with no DMA staging.
    auto chip = make();
    workloads::TaskSetParams tp;
    tp.count = 8;
    tp.seed = 3;
    auto tasks = workloads::makeTaskSet(
        workloads::htcProfile("terasort"), tp);
    for (auto &t : tasks)
        t.inputBytes = 0;
    chip->submit(tasks);
    chip->runUntilDone(10'000'000);
    EXPECT_EQ(chip->metrics().tasksCompleted, 8u);
    for (CoreId c = 0; c < chip->numCores(); ++c) {
        if (auto *s = sim.stats().find(strprintf("chip.dma%03u.bytes", c))) {
            EXPECT_EQ(s->value(), 0.0);
        }
    }
}

TEST_F(ChipFixture, LayoutRegionsDisjointAcrossCores)
{
    auto chip = make();
    const auto t = taskOf("wordcount", 1000);
    const auto l0 = chip->layoutFor(t, 0);
    const auto l1 = chip->layoutFor(t, 1);
    EXPECT_NE(l0.spmLocalBase, l1.spmLocalBase);
    EXPECT_NE(l0.heapBase, l1.heapBase);
    EXPECT_NE(l0.streamBase, l1.streamBase);
    // Remote SPM of core 0 is a neighbour's window in the same ring.
    EXPECT_EQ(l0.spmRemoteBase, l1.spmLocalBase);
    // Heap regions do not overlap.
    EXPECT_GE(l1.heapBase, l0.heapBase + l0.heapSize);
}

TEST_F(ChipFixture, SubmitToTargetsSpecificSubRing)
{
    auto chip = make();
    for (TaskId i = 0; i < 6; ++i)
        chip->submitTo(1, taskOf("search", 2000, i));
    chip->runUntilDone(10'000'000);
    EXPECT_EQ(chip->subScheduler(1).tasksCompleted(), 6u);
    EXPECT_EQ(chip->subScheduler(0).tasksCompleted(), 0u);
}

TEST_F(ChipFixture, SubmitRequestObserverHearsCompletion)
{
    struct Finish : workloads::RequestObserver {
        bool fired = false;
        Cycle when = 0;
        void resolved(const workloads::TaskSpec &,
                      const workloads::RequestResult &res) override
        {
            fired = res.completed;
            when = res.when;
        }
    } finish;
    auto chip = make();
    auto task = taskOf("kmeans", 3000);
    task.observer = &finish;
    chip->submitRequest(task);
    chip->runUntilDone(10'000'000);
    EXPECT_TRUE(finish.fired);
    EXPECT_GT(finish.when, 0u);
}

namespace {

/** Arm count duplicated and count dropped link crossings on every
 *  ring (arming duplicates also turns on ring dedup). */
void
armRingFaults(SmarcoChip &chip, std::uint32_t count)
{
    noc::Network &net = chip.network();
    net.mainRing().armDuplicate(count);
    net.mainRing().armDrop(count);
    for (std::uint32_t r = 0; r < net.params().numSubRings; ++r) {
        net.subRing(r).armDuplicate(count);
        net.subRing(r).armDrop(count);
    }
}

/** The run went idle with nothing left on any ring and every MACT
 *  drained. A lost store completion keeps its core busy (its store
 *  buffer never empties), so such a run does not finish idle. */
void
expectDrained(SmarcoChip &chip)
{
    EXPECT_TRUE(chip.sim().finishedIdle());
    EXPECT_EQ(chip.network().totalInFlight(), 0u);
    for (std::uint32_t g = 0; g < chip.config().noc.numSubRings; ++g)
        EXPECT_EQ(chip.mact(g).occupancy(), 0u) << "mact " << g;
    const StatRegistry &st = chip.sim().stats();
    EXPECT_GT(st.total("chip.noc.", ".dupsSuppressed"), 0.0);
    EXPECT_GT(st.total("chip.noc.", ".retransmits"), 0.0);
}

} // namespace

TEST_F(ChipFixture, MemPortCompletesEveryRequestExactlyOnce)
{
    // Requests ride packets and MACT batches as data, so exactly-once
    // completion rests on ring dedup: a duplicated packet that got
    // through would complete its request twice. A second load
    // completion times one load more than stalled (or panics on a
    // context that is not stalled); a second store completion panics
    // once the store buffer is empty, a second DMA chunk at once.
    auto chip = make();
    armRingFaults(*chip, 24);
    workloads::TaskSetParams tp;
    tp.count = 6;
    tp.seed = 13;
    // kmp's small stream accesses merge in the MACT, rnc's real-time
    // reads take the direct path, and every task stages its input by
    // DMA; all of them touch a neighbour's SPM.
    std::vector<workloads::TaskSpec> tasks;
    for (const char *name : {"kmp", "rnc", "terasort"}) {
        tp.realtime = std::string(name) == "rnc";
        for (auto &t : workloads::makeTaskSet(workloads::htcProfile(name),
                                              tp)) {
            t.id = tasks.size();
            t.numOps = 4000;
            tasks.push_back(t);
        }
    }
    chip->submit(tasks);
    chip->runUntilDone(10'000'000);

    EXPECT_EQ(chip->metrics().tasksCompleted, tasks.size());
    expectDrained(*chip);
    const StatRegistry &st = sim.stats();
    // Every blocking load stalls its context once and is timed once.
    const double stalls = st.total("chip.core", ".stallsMem");
    EXPECT_GT(stalls, 0.0);
    EXPECT_EQ(st.getAs<Average>("chip.memLatency").count(), stalls);

    // The run took every route a request can take.
    const double collected = st.total("chip.mact", ".collected");
    const double bypassed = st.total("chip.mact", ".bypassed");
    const double direct = st.get("chip.priorityDirect").value();
    EXPECT_GT(collected, st.total("chip.mact", ".batches")); // merges
    EXPECT_GT(bypassed, 0.0);
    EXPECT_GT(direct, 0.0);
    EXPECT_GT(st.total("chip.dma", ".chunks"), 0.0);
    // A core's request that neither met a MACT nor took the direct
    // path went to a remote SPM; writebacks meet the MACT too.
    const double remote = st.get("chip.memRequests").value() +
        st.total("chip.core", ".dcache.writebacks") - collected -
        bypassed - direct;
    EXPECT_GT(remote, 0.0);
}

TEST_F(ChipFixture, WritebacksReachDramExactlyOnce)
{
    auto chip = make();
    armRingFaults(*chip, 8);
    const std::uint32_t n = 32;
    for (std::uint32_t i = 0; i < n; ++i)
        chip->writeback(i % cfg.numCores(),
                        mem::MemoryMap::dramBase + 0x10000 + 64 * i);
    chip->runUntilDone(1'000'000);

    EXPECT_EQ(chip->dram().requestsServed(), n);
    EXPECT_EQ(chip->dram().totalBytes(), 64.0 * n);
    expectDrained(*chip);
}

TEST_F(ChipFixture, MetricsConsistency)
{
    for (bool fast_forward : {true, false}) {
        SCOPED_TRACE(fast_forward ? "fast-forward" : "tick every cycle");
        Simulator s;
        s.setFastForward(fast_forward);
        SmarcoChip chip(s, cfg);
        workloads::TaskSetParams tp;
        tp.count = 12;
        tp.seed = 6;
        chip.submit(workloads::makeTaskSet(
            workloads::htcProfile("rnc"), tp));
        chip.runUntilDone(10'000'000);
        const auto m = chip.metrics();
        EXPECT_EQ(m.tasksCompleted, 12u);
        EXPECT_GT(m.cycles, 0u);
        EXPECT_NEAR(m.aggregateIpc(),
                    static_cast<double>(m.opsCommitted) / m.cycles, 1e-9);
        EXPECT_GE(m.nocUtilisation, 0.0);
        EXPECT_LE(m.nocUtilisation, 1.0);
        EXPECT_GT(m.avgMemLatency, 0.0);
        // The chip's slot sums are the per-core stats' totals.
        EXPECT_GT(m.slotsUsed, 0u);
        EXPECT_EQ(static_cast<double>(m.slotsUsed),
                  s.stats().total("chip.core", ".slotsUsed"));
        EXPECT_EQ(static_cast<double>(m.slotsOffered),
                  s.stats().total("chip.core", ".slotsOffered"));
    }
}
