/**
 * @file
 * Golden-stats harness locking down the quiescence-aware kernel.
 *
 * Two layers of protection:
 *  1. Mode equivalence — every covered config is run once with
 *     fast-forward enabled and once in forced tick-every-cycle mode;
 *     the StatRegistry JSON dumps must be byte-identical. A skipped
 *     cycle that would have mutated any stat shows up here.
 *  2. Checked-in snapshots — the fast-forward dump of one SmarCo and
 *     one baseline config is compared against golden JSON files under
 *     tests/golden/. Regeneration is a deliberate act:
 *
 *         ./tests/test_golden_stats --update-golden
 *     or  SMARCO_UPDATE_GOLDEN=1 ctest -L golden
 *
 *     rewrites the snapshots in the source tree; review the diff
 *     before committing. On a mismatch the actual dump is written
 *     to the build tree and the failure names the tools/stats_diff.py
 *     command that lists the stats that moved.
 *
 * This file carries its own main() (not gtest_main) so it can accept
 * the --update-golden flag.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/baseline_chip.hpp"
#include "chip/chip_config.hpp"
#include "chip/smarco_chip.hpp"
#include "core/mem_port.hpp"
#include "core/tcg_core.hpp"
#include "fault/fault_campaign.hpp"
#include "isa/instr_stream.hpp"
#include "noc/ring.hpp"
#include "runtime/overload.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "workloads/cdn.hpp"
#include "workloads/profile.hpp"
#include "workloads/request_gen.hpp"
#include "workloads/task.hpp"

using namespace smarco;

namespace {

bool update_golden = false;

std::string
goldenPath(const char *file)
{
    return std::string(SMARCO_GOLDEN_DIR) + "/" + file;
}

std::string
dumpStats(Simulator &sim)
{
    std::ostringstream os;
    sim.stats().dumpJson(os);
    return os.str();
}

/** The covered SmarCo config: 1 sub-ring x 4 cores, mixed release
 *  times so the run has real idle gaps for fast-forward to skip. */
std::string
smarcoRun(bool fast_forward)
{
    Simulator sim;
    sim.setFastForward(fast_forward);
    chip::SmarcoChip chip(sim, chip::ChipConfig::scaled(1, 4));
    workloads::TaskSetParams tp;
    tp.count = 12;
    tp.seed = 42;
    tp.releaseSpan = 100'000;
    chip.submit(workloads::makeTaskSet(
        workloads::htcProfile("wordcount"), tp));
    chip.runUntilDone(100'000'000);
    return dumpStats(sim);
}

/** The covered baseline chip: 4 cores, shrunken LLC for speed. */
baseline::BaselineParams
smallBaseline()
{
    baseline::BaselineParams bp;
    bp.numCores = 4;
    bp.llc = mem::CacheParams{"llc", 4 * 1024 * 1024, 16, 64, 38};
    return bp;
}

/** Sees a baseline run's simulator after it finishes. */
using SimInspect = std::function<void(Simulator &)>;

/**
 * The covered baseline config: a closed batch on smallBaseline().
 * sampled adds an interval sampler whose probes read the counters a
 * sleeping chip replays, and appends the samples to the dump.
 */
std::string
baselineRun(bool fast_forward, bool sampled = false,
            const SimInspect &inspect = {})
{
    Simulator sim;
    sim.setFastForward(fast_forward);
    baseline::BaselineChip chip(sim, smallBaseline());
    if (sampled) {
        sim.sampler().setInterval(7'919);
        for (const char *name :
             {"base.cycles", "base.slotsOffered", "base.committed"}) {
            const Stat &stat = sim.stats().get(name);
            sim.sampler().addProbe(name,
                                   [&stat] { return stat.value(); });
        }
    }
    workloads::TaskSetParams tp;
    tp.count = 12;
    tp.seed = 42;
    chip.spawnWorkers(8, workloads::makeTaskSet(
                             workloads::htcProfile("search"), tp));
    sim.run(200'000'000);
    if (inspect)
        inspect(sim);
    if (!sampled)
        return dumpStats(sim);
    std::ostringstream os;
    os << dumpStats(sim) << '\n';
    sim.sampler().dumpCsv(os);
    return os.str();
}

/** First spawn cycle of baselineOversubscribedRun. */
constexpr Cycle kOversubscribedSpawn = 50'000;

/**
 * Baseline wake path, oversubscribed slots: 20 software threads on 4 cores x 2 SMT
 * with a short quantum, so slots hold several threads and context
 * switches happen. The workers are spawned in two batches from
 * events: 8 after an idle start, while no thread is live, and 12
 * more while the first batch is still being created, so a spawn
 * lands on a sleeping chip that has slept across a rotation.
 */
std::string
baselineOversubscribedRun(bool fast_forward,
                          const SimInspect &inspect = {})
{
    Simulator sim;
    sim.setFastForward(fast_forward);
    baseline::BaselineParams bp = smallBaseline();
    bp.schedQuantum = 20'000;
    baseline::BaselineChip chip(sim, bp);
    workloads::TaskSetParams tp;
    tp.count = 24;
    tp.seed = 42;
    auto first = workloads::makeTaskSet(
        workloads::htcProfile("search"), tp);
    tp.count = 16;
    tp.seed = 43;
    auto second = workloads::makeTaskSet(
        workloads::htcProfile("wordcount"), tp);
    sim.events().schedule(kOversubscribedSpawn,
                          [&] { chip.spawnWorkers(8, first); });
    sim.events().schedule(kOversubscribedSpawn + 25'000,
                          [&] { chip.spawnWorkers(12, second); });
    sim.run(200'000'000);
    if (inspect)
        inspect(sim);
    return dumpStats(sim);
}

/**
 * Baseline wake path, faults: the hang + kill + DRAM-stall campaign of
 * FaultRecovery.BaselineWorkerKillsStillDrainTheBag with the OS
 * watchdog on. The campaign is armed from an event while every
 * worker is still being created and the chip sleeps, at a cycle off
 * the watchdog interval's grid.
 */
std::string
baselineFaultedRun(bool fast_forward, const SimInspect &inspect = {})
{
    Simulator sim;
    sim.setFastForward(fast_forward);
    baseline::BaselineChip chip(sim, smallBaseline());
    workloads::TaskSetParams tp;
    tp.count = 16;
    tp.seed = 3;
    chip.spawnWorkers(8, workloads::makeTaskSet(
                             workloads::htcProfile("wordcount"), tp));
    fault::FaultSpec spec;
    spec.coreKillRate = 10.0;
    spec.coreHangRate = 10.0;
    spec.dramStallRate = 10.0;
    spec.horizon = 20'000'000;
    spec.recovery.heartbeatInterval = 5'000;
    spec.recovery.hangTimeout = 30'000;
    fault::FaultCampaign campaign(sim, spec, 3);
    sim.events().schedule(12'345,
                          [&] { campaign.arm(chip); });
    sim.run(400'000'000);
    if (inspect)
        inspect(sim);
    return dumpStats(sim);
}

/**
 * Baseline wake path, open loop: a persistent pool behind admission (a
 * bounded bag plus early drop of requests that can no longer meet
 * their deadline), fed open-loop through runtime::OverloadDriver: a
 * burst above capacity, then a sparse trickle during which the
 * workers park on the empty bag and poll every 500 cycles, and the
 * kernel jumps over the gaps in which nothing is in flight.
 */
std::string
baselineOpenLoopRun(bool fast_forward, const SimInspect &inspect = {})
{
    const auto profile = workloads::CdnWorkload().chunkProfile(300);

    Simulator sim;
    sim.setFastForward(fast_forward);
    baseline::BaselineChip chip(sim, smallBaseline());
    chip.enableAdmission(6);
    chip.spawnWorkers(4, {}, /*persistent=*/true);

    runtime::OverloadParams op;
    op.seed = 42;
    runtime::OverloadDriver driver(chip, op);
    workloads::RequestGenParams gp;
    gp.count = 40;
    gp.start = 150'000;
    gp.ratePerKCycle = 0.5;
    gp.relativeDeadline = 60'000;
    gp.opsOverride = 4'000;
    gp.seed = 42;
    driver.drive(makePoissonRequests(profile, gp));
    gp.count = 8;
    gp.start = 600'000;
    gp.ratePerKCycle = 0.01;
    gp.firstId = 40;
    driver.drive(makePoissonRequests(profile, gp));
    sim.run(200'000'000);
    if (inspect)
        inspect(sim);
    return dumpStats(sim);
}

/**
 * Baseline wake path, calendar edges. Each baseline core sleeps until
 * the earliest readyAt of its SMT slots' front threads, and the kernel
 * files that wake in its calendar of one-cycle buckets when it lies
 * fewer than Simulator::kWakeWindow cycles ahead, else on its far
 * heap. This run sets the branch penalty, the DTLB walk, the task pop
 * and the context switch to `latency`, so the sweep below lands the
 * wakes a core's tick files on the window's last bucket, just past
 * its end, one further and past twice its length. A hang + kill
 * campaign with the OS watchdog restarts workers (a far wake of
 * threadCreateCost), and DRAM completions wake stalled threads'
 * cores between ticks. The pool is either a closed batch of 12
 * threads on 8 slots, which context-switch, or a persistent pool of
 * 6 workers fed one task every 9,001 cycles, which park on the empty
 * bag between them. Every run must drain.
 */
std::string
baselineWindowEdgeRun(bool fast_forward, bool persistent, Cycle latency)
{
    Simulator sim;
    sim.setFastForward(fast_forward);
    baseline::BaselineParams bp = smallBaseline();
    bp.branchPenalty = latency;
    bp.tlbWalkLatency = latency;
    bp.taskPopCost = latency;
    bp.contextSwitchCost = latency;
    bp.schedQuantum = 20'000;
    baseline::BaselineChip chip(sim, bp);
    workloads::BenchProfile profile = workloads::htcProfile("search");
    profile.opsPerTask = 3'000;
    workloads::TaskSetParams tp;
    tp.count = 16;
    tp.seed = 7;
    const auto tasks = workloads::makeTaskSet(profile, tp);
    if (persistent) {
        chip.spawnWorkers(6, {}, /*persistent=*/true);
        for (std::size_t i = 0; i < tasks.size(); ++i)
            sim.events().schedule(
                100'000 + i * 9'001,
                [&chip, &task = tasks[i]] { chip.submitRequest(task); });
    } else {
        chip.spawnWorkers(12, tasks);
    }
    fault::FaultSpec spec;
    spec.coreKillRate = 20.0;
    spec.coreHangRate = 20.0;
    spec.horizon = 2'000'000;
    spec.recovery.heartbeatInterval = 3'000;
    spec.recovery.hangTimeout = 9'000;
    fault::FaultCampaign campaign(sim, spec, 11);
    campaign.arm(chip);
    sim.run(400'000'000);
    EXPECT_TRUE(sim.finishedIdle());
    EXPECT_EQ(sim.stats().get("base.tasksDone").value(),
              static_cast<double>(tasks.size()));
    EXPECT_GT(sim.stats().get("base.workerKills").value() +
                  sim.stats().get("base.workerHangs").value(),
              0.0);
    return dumpStats(sim);
}

/**
 * The oversubscribed, faulted and open-loop wake paths as one JSON
 * object. A core's visit to a thread that cannot act is a no-op, so
 * the mode comparisons above catch a missing wake; this snapshot
 * catches a change both modes make alike.
 */
std::string
baselineWakePathsRun()
{
    return "{\n\"oversubscribed\":" + baselineOversubscribedRun(true) +
           ",\n\"faulted\":" + baselineFaultedRun(true) +
           ",\n\"open_loop\":" + baselineOpenLoopRun(true) + "\n}\n";
}

/**
 * The covered overload config: the CDN chunk workload offered
 * open-loop at ~3x capacity through the admission + SLO-retry path,
 * locking down the whole overload-control layer (request generator,
 * shed decisions, backoff draws, lifecycle stats).
 */
std::string
cdnOverloadRun(bool fast_forward)
{
    const auto profile = workloads::CdnWorkload().chunkProfile(300);

    Simulator sim;
    sim.setFastForward(fast_forward);
    chip::SmarcoChip chip(sim, chip::ChipConfig::scaled(1, 4));
    sched::AdmissionParams ap;
    ap.subQueueCap = 8;
    ap.queuedCost = 5'000;
    chip.enableOverloadControl(ap);

    runtime::OverloadParams op;
    op.seed = 42;
    runtime::OverloadDriver driver(chip, op);
    workloads::RequestGenParams gp;
    gp.count = 40;
    gp.ratePerKCycle = 0.4;
    gp.relativeDeadline = 300'000;
    gp.realtime = true;
    gp.opsOverride = 4'000;
    gp.seed = 42;
    driver.drive(makePoissonRequests(profile, gp));
    chip.runUntilDone(200'000'000);
    return dumpStats(sim);
}

/**
 * The covered faulted many-ring config: 2 sub-rings x 4 cores, so
 * memory traffic crosses the gateways onto the main ring, running an
 * HTC mix with DMA input staging and realtime tasks that issue
 * priority accesses, under a campaign that loses MACT entries and
 * duplicates and drops ring packets. This locks down every path a
 * memory request, MACT batch or task hand-off can take through the
 * NoC, including entry-loss re-emission and ring dedup/retransmit.
 * inspect (optional) sees the registry after the run.
 */
std::string
faultedHtcRun(bool fast_forward,
              const std::function<void(const StatRegistry &)> &inspect =
                  {})
{
    Simulator sim;
    sim.setFastForward(fast_forward);
    chip::SmarcoChip chip(sim, chip::ChipConfig::scaled(2, 4));
    workloads::TaskSetParams tp;
    tp.count = 8;
    tp.seed = 42;
    tp.releaseSpan = 40'000;
    chip.submit(workloads::makeTaskSet(
        workloads::htcProfile("wordcount"), tp));
    tp.seed = 43;
    chip.submit(workloads::makeTaskSet(
        workloads::htcProfile("kmeans"), tp));
    tp.seed = 44;
    tp.realtime = true;
    chip.submit(workloads::makeTaskSet(
        workloads::htcProfile("rnc"), tp));

    fault::FaultSpec spec;
    spec.mactLossRate = 400.0;
    spec.nocDupRate = 200.0;
    spec.nocDropProb = 0.002;
    spec.horizon = 1'000'000;
    fault::FaultCampaign campaign(sim, spec, 7);
    campaign.arm(chip);
    chip.runUntilDone(100'000'000);
    if (inspect)
        inspect(sim.stats());
    return dumpStats(sim);
}

/**
 * The covered thread-scheme config: one 1 sub-ring x 4 core chip per
 * core scheme and issue policy pair (InPair/RoundRobin,
 * CoarseGrained/LaxityAware, NoSwitch/RoundRobin). Each runs more
 * tasks than run slots, with deadlines, under a campaign that hangs
 * and kills thread contexts, so friend switches, laxity preemption,
 * the pairing-select tax, hang recovery and kills of stalled and
 * running contexts all happen. inspect (optional) sees each run's
 * registry. Returns the three dumps as one JSON object.
 */
std::string
threadSchemeRun(
    bool fast_forward,
    const std::function<void(const char *, const StatRegistry &)>
        &inspect = {})
{
    struct Variant {
        const char *name;
        core::ThreadScheme scheme;
        core::IssuePolicy policy;
    };
    static constexpr Variant kVariants[] = {
        {"inpair_roundrobin", core::ThreadScheme::InPair,
         core::IssuePolicy::RoundRobin},
        {"coarse_laxity", core::ThreadScheme::CoarseGrained,
         core::IssuePolicy::LaxityAware},
        {"noswitch_roundrobin", core::ThreadScheme::NoSwitch,
         core::IssuePolicy::RoundRobin},
    };
    std::ostringstream os;
    os << "{";
    for (const Variant &v : kVariants) {
        Simulator sim;
        sim.setFastForward(fast_forward);
        auto cfg = chip::ChipConfig::scaled(1, 4);
        cfg.core.scheme = v.scheme;
        cfg.core.issuePolicy = v.policy;
        chip::SmarcoChip chip(sim, cfg);
        workloads::TaskSetParams tp;
        tp.count = 24;
        tp.seed = 42;
        tp.releaseSpan = 20'000;
        tp.deadline = 150'000;
        chip.submit(workloads::makeTaskSet(
            workloads::htcProfile("wordcount"), tp));
        tp.count = 16;
        tp.seed = 43;
        tp.deadline = 90'000;
        tp.realtime = true;
        chip.submit(workloads::makeTaskSet(
            workloads::htcProfile("kmeans"), tp));

        fault::FaultSpec spec;
        spec.coreHangRate = 40.0;
        spec.coreKillRate = 60.0;
        spec.horizon = 400'000;
        spec.recovery.heartbeatInterval = 2'000;
        spec.recovery.hangTimeout = 20'000;
        fault::FaultCampaign campaign(sim, spec, 5);
        campaign.arm(chip);
        chip.runUntilDone(100'000'000);
        if (inspect)
            inspect(v.name, sim.stats());
        os << (&v == kVariants ? "\n\"" : ",\n\"") << v.name
           << "\":" << dumpStats(sim);
    }
    os << "\n}\n";
    return os.str();
}

/**
 * SmarCo readyAt sleeps. A TCG core whose run-slot holders all wait
 * on their readyAt (a mispredicted branch, an I-cache refill, a
 * friend switch, a multi-cycle op) sleeps until the earliest one, and
 * skipTicks() replays each skipped cycle's counts, round-robin step,
 * pairing-select draw and holders' ILP draws. This run sets the
 * branch, I-cache refill and both switch penalties to `penalty`, so
 * the sweep below files the cores' wakes on both sides of the wake
 * calendar's end (Simulator::kWakeWindow, 64 cycles). A 1 sub-ring x
 * 4 core chip gets more tasks than run slots, so the pairing tax
 * draws, under a hang + kill campaign: a core whose unhung contexts
 * wait on memory sleeps until the recovery kill of its hung holder.
 * `narrow` makes the cores one issue wide with one store-buffer slot,
 * so a tax draw can take a cycle's whole budget and contexts wait on
 * the store buffer. Every task must finish.
 */
std::string
readyAtWaitRun(bool fast_forward, core::ThreadScheme scheme,
               core::IssuePolicy policy, Cycle penalty, bool narrow)
{
    Simulator sim;
    sim.setFastForward(fast_forward);
    auto cfg = chip::ChipConfig::scaled(1, 4);
    cfg.core.scheme = scheme;
    cfg.core.issuePolicy = policy;
    cfg.core.branchPenalty = penalty;
    cfg.core.icacheMissPenalty = penalty;
    cfg.core.pairSwitchPenalty = penalty;
    cfg.core.coarseSwitchPenalty = penalty;
    if (narrow) {
        cfg.core.issueWidth = 1;
        cfg.core.storeBufferSlots = 1;
    }
    chip::SmarcoChip chip(sim, cfg);
    workloads::TaskSetParams tp;
    tp.count = 20;
    tp.seed = 17;
    tp.releaseSpan = 5'000;
    tp.deadline = 200'000;
    // Tasks point at their profile: it must outlive the run.
    workloads::BenchProfile profiles[] = {workloads::htcProfile("wordcount"),
                                          workloads::htcProfile("kmeans")};
    for (workloads::BenchProfile &profile : profiles) {
        profile.opsPerTask = 2'000;
        chip.submit(workloads::makeTaskSet(profile, tp));
        ++tp.seed;
    }
    fault::FaultSpec spec;
    spec.coreHangRate = 40.0;
    spec.coreKillRate = 20.0;
    spec.horizon = 200'000;
    spec.recovery.heartbeatInterval = 1'000;
    spec.recovery.hangTimeout = 4'000;
    fault::FaultCampaign campaign(sim, spec, 13);
    campaign.arm(chip);
    chip.runUntilDone(100'000'000);
    EXPECT_EQ(sim.stats().total("chip.core", ".tasksFinished"), 40.0);
    EXPECT_GT(sim.stats().total("chip.core", ".threadHangs"), 0.0);
    return dumpStats(sim);
}

/**
 * SmarCo readyAt sleeps, a Ready slot holder. Under NoSwitch a run
 * slot belongs to its first context while that one is live, so a task
 * attached there while the friend runs holds the slot as a Ready
 * context that the next tick promotes. Here one NoSwitch core with a
 * single run slot attaches the next task from its exit handler, inside
 * the tick in which a task halts, so the core ends that tick with a
 * Ready holder and its hint must not sleep past it. Every task waits
 * out mispredicted branches and multi-cycle ops of `penalty` cycles,
 * with the friend context live behind it, and no memory op leaves the
 * core.
 */
std::string
readyHolderRun(bool fast_forward, Cycle penalty)
{
    struct NoMemory : core::MemPort {
        void
        request(CoreId, ThreadId, const isa::MicroOp &,
                mem::AccessClass) override
        { ADD_FAILURE() << "unexpected memory request"; }
        void writeback(CoreId, Addr) override {}
    };
    constexpr std::uint32_t kTasks = 12;
    Simulator sim;
    sim.setFastForward(fast_forward);
    core::CoreParams params;
    params.scheme = core::ThreadScheme::NoSwitch;
    params.maxRunning = 1;
    params.numThreads = 2;
    params.branchPenalty = penalty;
    params.icacheMissPenalty = penalty;
    NoMemory port;
    core::TcgCore tcg(sim, params, 0, port, "core");
    std::vector<isa::MicroOp> ops;
    for (int k = 0; k < 3; ++k) {
        ops.insert(ops.end(), 9, isa::MicroOp{});
        ops.push_back({.kind = isa::OpKind::Branch, .mispredict = true});
        ops.push_back({.kind = isa::OpKind::Mul,
                       .execLatency = static_cast<std::uint8_t>(penalty)});
    }
    workloads::TaskSpec task;
    task.profile = &workloads::htcProfile("wordcount");
    task.numOps = ops.size();
    std::uint32_t attached = 0;
    const auto attach = [&] {
        task.id = attached;
        ASSERT_TRUE(tcg.attachTask(
            task, std::make_unique<isa::TraceStream>(ops), attached++));
    };
    tcg.setExitHandler([&](std::uint32_t, Cycle, bool) {
        if (attached < kTasks)
            attach();
    });
    attach();
    attach();
    sim.run(1'000'000);
    EXPECT_TRUE(sim.finishedIdle());
    EXPECT_EQ(sim.stats().get("core.tasksFinished").value(), kTasks);
    return dumpStats(sim);
}

/**
 * The covered standalone-ring config: seeded traffic on three rings
 * in one simulator.
 *  - "big": 72 stops, so a per-stop bitset spans two 64-bit words;
 *    sliced links, an odd number of flex units, tiny queues (full
 *    inject queues and through-queue backpressure), a seeded
 *    dropProb and armed duplicates.
 *  - "sub": shaped like a sub-ring (17 stops, default widths and
 *    queues) with armed drops and overlapping degrade windows.
 *  - "conv": conventional wide links with no flex pool; its
 *    handlers only record deliveries.
 * On big and sub, some stops answer a request from the eject handler,
 * as a remote-SPM access does: sub from the ejecting stop, big from
 * the stop half-way round, which may hold no packet yet.
 * Traffic comes in bursts from a hot stop (rejects, backpressure) and
 * leaves an idle gap for fast-forward. Every accepted packet must be
 * delivered exactly once and the rings must drain. inspect (optional)
 * sees the registry after the run. Returns the stats dump and the
 * delivery (ring, cycle, stop, id) sequence as JSON.
 */
std::string
ringTrafficRun(bool fast_forward,
               const std::function<void(const StatRegistry &)> &inspect =
                   {})
{
    Simulator sim;
    sim.setFastForward(fast_forward);

    noc::RingParams big;
    big.name = "big";
    big.numStops = 72;
    big.fixedBytesPerDir = 8;
    big.flexBytes = 24;
    big.sliceBytes = 2;
    big.stopQueueCap = 4;
    big.injectQueueCap = 6;
    noc::RingParams sub;
    sub.name = "sub";
    noc::RingParams conv;
    conv.name = "conv";
    conv.numStops = 9;
    conv.fixedBytesPerDir = 16;
    conv.flexBytes = 0;
    conv.sliceBytes = 0;
    conv.stopQueueCap = 3;
    conv.injectQueueCap = 4;

    std::vector<std::unique_ptr<noc::Ring>> rings;
    for (const noc::RingParams &p : {big, sub, conv})
        rings.push_back(
            std::make_unique<noc::Ring>(sim, p, "ring." + p.name));

    Rng fault_rng = namedRng(42, "fault.ring.golden");
    noc::RingFaultParams rf;
    rf.dropProb = 0.01;
    rf.rng = &fault_rng;
    rings[0]->setFaults(rf);
    rings[0]->armDuplicate(40);
    rings[1]->armDrop(12);

    std::ostringstream deliveries;
    std::map<std::uint64_t, int> seen;
    std::set<std::uint64_t> accepted;
    std::uint64_t next_id = 0;
    auto record = [&](std::size_t r, std::uint32_t stop,
                      std::uint64_t id) {
        deliveries << (seen.empty() ? "\n" : ",\n") << "[\""
                   << rings[r]->params().name << "\"," << sim.now()
                   << "," << stop << "," << id << "]";
        ++seen[id];
    };
    auto send = [&](std::size_t r, std::uint32_t src, std::uint32_t dst,
                    std::uint32_t bytes, bool priority,
                    noc::PacketKind kind) {
        noc::Packet p;
        p.id = ++next_id;
        p.src.index = src;
        p.kind = kind;
        p.priority = priority;
        p.payloadBytes = bytes;
        p.created = sim.now();
        if (rings[r]->inject(src, dst, std::move(p)))
            accepted.insert(next_id);
    };

    for (std::uint32_t s = 0; s < conv.numStops; ++s)
        rings[2]->setHandler(s, [&record, s](noc::Packet &&p) {
            record(2, s, p.id);
        });
    for (std::size_t r = 0; r < 2; ++r) {
        for (std::uint32_t s = 0; s < rings[r]->params().numStops; ++s) {
            rings[r]->setHandler(s, [&, r, s](noc::Packet &&p) {
                record(r, s, p.id);
                const std::uint32_t n = rings[r]->params().numStops;
                const std::uint32_t from = r == 1 ? s : (s + n / 2) % n;
                if (p.kind == noc::PacketKind::SpmRemoteReq &&
                    s % (r == 1 ? 3 : 4) == 0 && from != p.src.index)
                    send(r, from, p.src.index, 16, false,
                         noc::PacketKind::SpmRemoteResp);
            });
        }
    }

    // Overlapping windows on one link multiply; a window on the last
    // stop of the big ring sits in the second bitset word.
    sim.events().schedule(150, [&] {
        rings[1]->degradeLink(3, 0, 0.5, 700);
        rings[1]->degradeLink(3, 0, 0.25, 400);
        rings[0]->degradeLink(70, 1, 0.1, 900);
        rings[2]->degradeLink(4, 0, 0.5, 500);
    });

    static constexpr std::uint32_t kSizes[] = {1, 2, 3, 8, 16, 24, 64};
    Rng rng(42, 0x7269);
    std::function<void()> step = [&] {
        const Cycle c = sim.now();
        const bool burst = c % 400 < 40;
        for (std::size_t r = 0; r < rings.size(); ++r) {
            const std::uint32_t n = rings[r]->params().numStops;
            const std::uint32_t hot = static_cast<std::uint32_t>(
                (c / 400 * 7 + r) % n);
            const std::uint64_t count = rng.nextBelow(burst ? 5 : 2);
            for (std::uint64_t k = 0; k < count; ++k) {
                const std::uint32_t src = burst
                    ? hot
                    : static_cast<std::uint32_t>(rng.nextBelow(n));
                const std::uint32_t dst = static_cast<std::uint32_t>(
                    (src + 1 + rng.nextBelow(n - 1)) % n);
                const std::uint32_t bytes =
                    kSizes[rng.nextBelow(std::size(kSizes))];
                const bool priority = rng.chance(0.1);
                send(r, src, dst, bytes, priority,
                     rng.chance(0.5) ? noc::PacketKind::SpmRemoteReq
                                     : noc::PacketKind::Control);
            }
        }
        // Cycles 1300-1599 inject nothing, so the rings drain and
        // the kernel can fast-forward.
        const Cycle next = c + 1 == 1300 ? 1600 : c + 1;
        if (next < 2400)
            sim.events().schedule(next, step);
    };
    sim.events().schedule(0, step);
    sim.run(1'000'000);

    EXPECT_FALSE(accepted.empty());
    EXPECT_EQ(seen.size(), accepted.size());
    for (const auto &[id, times] : seen) {
        EXPECT_EQ(times, 1) << "packet " << id;
        EXPECT_EQ(accepted.count(id), 1u) << "packet " << id;
    }
    for (const auto &ring : rings)
        EXPECT_EQ(ring->inFlight(), 0u) << ring->params().name;
    if (inspect)
        inspect(sim.stats());

    std::ostringstream os;
    os << "{\"stats\":" << dumpStats(sim) << ",\n\"deliveries\":["
       << deliveries.str() << "\n]}\n";
    return os.str();
}

void
expectIdentical(const std::string &a, const std::string &b,
                const char *what)
{
    if (a == b) {
        SUCCEED();
        return;
    }
    std::size_t i = 0;
    while (i < a.size() && i < b.size() && a[i] == b[i])
        ++i;
    const std::size_t from = i > 40 ? i - 40 : 0;
    FAIL() << what << " diverges at byte " << i << ":\n  A: ..."
           << a.substr(from, 100) << "\n  B: ..."
           << b.substr(from, 100);
}

void
checkGolden(const std::string &actual, const char *file)
{
    const std::string path = goldenPath(file);
    if (update_golden) {
        std::ofstream out(path, std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << actual;
        GTEST_SKIP() << "golden snapshot regenerated: " << path;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << "missing golden file " << path
        << " — regenerate with --update-golden";
    std::ostringstream buf;
    buf << in.rdbuf();
    if (buf.str() == actual)
        return;
    const std::string actual_path =
        std::string(SMARCO_ACTUAL_DIR) + "/actual_" + file;
    std::ofstream(actual_path, std::ios::trunc) << actual;
    expectIdentical(buf.str(), actual, file);
    ADD_FAILURE() << "list the stats that moved with\n  python3 "
                  << SMARCO_SOURCE_DIR << "/tools/stats_diff.py " << path
                  << ' ' << actual_path
                  << "\nand regenerate with --update-golden if intended";
}

} // namespace

TEST(GoldenStats, FastForwardMatchesForcedModeSmarco)
{
    expectIdentical(smarcoRun(true), smarcoRun(false),
                    "smarco fast-forward vs forced dump");
}

TEST(GoldenStats, FastForwardMatchesForcedModeBaseline)
{
    expectIdentical(baselineRun(true), baselineRun(false),
                    "baseline fast-forward vs forced dump");
}

TEST(GoldenStats, BaselineWakeRunsExerciseEveryWakePath)
{
    // Checked on the tick-every-cycle kernel, the reference the
    // fast-forward dumps are compared against.
    const auto stat = [](Simulator &sim, const char *name) {
        return sim.stats().get(name).value();
    };
    baselineOversubscribedRun(false, [&](Simulator &sim) {
        EXPECT_GT(stat(sim, "base.switches"), 0.0);
        EXPECT_EQ(stat(sim, "base.tasksDone"), 40.0);
        // No tick before the first spawn counts as active.
        EXPECT_LE(stat(sim, "base.cycles"),
                  static_cast<double>(sim.now() - kOversubscribedSpawn));
    });
    baselineFaultedRun(false, [&](Simulator &sim) {
        EXPECT_GT(stat(sim, "base.workerHangs"), 0.0);
        EXPECT_GT(stat(sim, "base.workerKills"), 0.0);
        EXPECT_GT(stat(sim, "base.recoveries"), 0.0);
        EXPECT_GT(stat(sim, "base.dram.faultStalls"), 0.0);
        EXPECT_EQ(stat(sim, "base.tasksDone"), 16.0);
    });
    baselineOpenLoopRun(false, [&](Simulator &sim) {
        EXPECT_GT(stat(sim, "base.shedQueueFull"), 0.0);
        EXPECT_GT(stat(sim, "base.tasksExpired"), 0.0);
        EXPECT_GT(stat(sim, "runtime.overload.retries"), 0.0);
        EXPECT_GT(stat(sim, "runtime.overload.completed"), 0.0);
        // The persistent pool lives from cycle 0 on, so every tick
        // that ran counts as active and every cycle the kernel's idle
        // jump skipped does not.
        EXPECT_GT(sim.cyclesSkipped(), 0u);
        EXPECT_EQ(stat(sim, "base.cycles"),
                  static_cast<double>(sim.now() - sim.cyclesSkipped()));
    });
    baselineRun(false, /*sampled=*/true, [](Simulator &sim) {
        EXPECT_GT(sim.sampler().times().size(), 10u);
    });
}

TEST(GoldenStats, FastForwardMatchesForcedModeBaselineOversubscribed)
{
    expectIdentical(baselineOversubscribedRun(true),
                    baselineOversubscribedRun(false),
                    "oversubscribed baseline fast-forward vs forced dump");
}

TEST(GoldenStats, FastForwardMatchesForcedModeBaselineFaulted)
{
    expectIdentical(baselineFaultedRun(true), baselineFaultedRun(false),
                    "faulted baseline fast-forward vs forced dump");
}

TEST(GoldenStats, FastForwardMatchesForcedModeBaselineOpenLoop)
{
    expectIdentical(baselineOpenLoopRun(true), baselineOpenLoopRun(false),
                    "open-loop baseline fast-forward vs forced dump");
}

TEST(GoldenStats, FastForwardMatchesForcedModeBaselineSampled)
{
    expectIdentical(baselineRun(true, /*sampled=*/true),
                    baselineRun(false, /*sampled=*/true),
                    "sampled baseline fast-forward vs forced dump");
}

TEST(GoldenStats, FastForwardMatchesForcedModeBaselineWindowEdges)
{
    constexpr Cycle kWindow = Simulator::kWakeWindow;
    for (const bool persistent : {false, true}) {
        for (const Cycle latency :
             {kWindow - 1, kWindow, kWindow + 1, 2 * kWindow + 1}) {
            SCOPED_TRACE(testing::Message()
                         << (persistent ? "persistent" : "oversubscribed")
                         << " pool, latency " << latency);
            expectIdentical(
                baselineWindowEdgeRun(true, persistent, latency),
                baselineWindowEdgeRun(false, persistent, latency),
                "window-edge baseline fast-forward vs forced dump");
        }
    }
}

TEST(GoldenStats, BaselineWakePathsSnapshotMatchesGolden)
{
    checkGolden(baselineWakePathsRun(), "baseline_4core_wake_paths.json");
}

TEST(GoldenStats, SmarcoSnapshotMatchesGolden)
{
    checkGolden(smarcoRun(true), "smarco_scaled_1x4_wordcount.json");
}

TEST(GoldenStats, BaselineSnapshotMatchesGolden)
{
    checkGolden(baselineRun(true), "baseline_4core_search.json");
}

TEST(GoldenStats, FastForwardMatchesForcedModeCdnOverload)
{
    expectIdentical(cdnOverloadRun(true), cdnOverloadRun(false),
                    "CDN overload fast-forward vs forced dump");
}

TEST(GoldenStats, CdnOverloadSnapshotMatchesGolden)
{
    checkGolden(cdnOverloadRun(true),
                "smarco_scaled_1x4_cdn_overload.json");
}

TEST(GoldenStats, FaultedRunExercisesEveryMemoryPath)
{
    faultedHtcRun(true, [](const StatRegistry &st) {
        EXPECT_GT(st.get("chip.noc.gatewayCrossings").value(), 0.0);
        EXPECT_GT(st.total("chip.mact", ".collected"), 0.0);
        EXPECT_GT(st.get("chip.priorityDirect").value(), 0.0);
        EXPECT_GT(st.total("chip.dma", ".bytes"), 0.0);
        EXPECT_GT(st.total("chip.mact", ".entriesLost"), 0.0);
        EXPECT_GT(st.total("chip.noc.", ".dupsSuppressed"), 0.0);
        EXPECT_GT(st.total("chip.noc.", ".retransmits"), 0.0);
        EXPECT_EQ(st.total("chip.core", ".tasksFinished"), 24.0);
    });
}

TEST(GoldenStats, FastForwardMatchesForcedModeFaultedHtc)
{
    expectIdentical(faultedHtcRun(true), faultedHtcRun(false),
                    "faulted HTC fast-forward vs forced dump");
}

TEST(GoldenStats, FaultedHtcSnapshotMatchesGolden)
{
    checkGolden(faultedHtcRun(true),
                "smarco_scaled_2x4_faulted_htc.json");
}

TEST(GoldenStats, ThreadSchemeRunsExerciseEveryContextPath)
{
    threadSchemeRun(true, [](const char *name, const StatRegistry &st) {
        SCOPED_TRACE(name);
        EXPECT_GT(st.total("chip.core", ".threadHangs"), 0.0);
        EXPECT_GT(st.total("chip.core", ".tasksKilled"), 0.0);
        EXPECT_GT(st.total("chip.core", ".stallsMem"), 0.0);
        EXPECT_EQ(st.total("chip.core", ".tasksFinished"), 40.0);
        if (std::string(name) != "noswitch_roundrobin") {
            EXPECT_GT(st.total("chip.core", ".pairSwitches"), 0.0);
        }
    });
}

TEST(GoldenStats, FastForwardMatchesForcedModeThreadSchemes)
{
    expectIdentical(threadSchemeRun(true), threadSchemeRun(false),
                    "thread-scheme fast-forward vs forced dump");
}

TEST(GoldenStats, ThreadSchemeSnapshotMatchesGolden)
{
    checkGolden(threadSchemeRun(true),
                "smarco_scaled_1x4_thread_schemes.json");
}

TEST(GoldenStats, FastForwardMatchesForcedModeReadyAtWaits)
{
    using core::IssuePolicy;
    using core::ThreadScheme;
    for (const ThreadScheme scheme :
         {ThreadScheme::InPair, ThreadScheme::CoarseGrained,
          ThreadScheme::NoSwitch}) {
        for (const Cycle penalty : {1, 2, 63, 64, 65, 129}) {
            for (const bool narrow : {false, true}) {
                SCOPED_TRACE(testing::Message()
                             << "scheme " << static_cast<int>(scheme)
                             << ", penalty " << penalty
                             << (narrow ? ", narrow" : ""));
                expectIdentical(
                    readyAtWaitRun(true, scheme, IssuePolicy::RoundRobin,
                                   penalty, narrow),
                    readyAtWaitRun(false, scheme, IssuePolicy::RoundRobin,
                                   penalty, narrow),
                    "readyAt-wait fast-forward vs forced dump");
            }
        }
    }
    for (const Cycle penalty : {2, 65}) {
        SCOPED_TRACE(testing::Message() << "Ready holder, penalty "
                                        << penalty);
        expectIdentical(readyHolderRun(true, penalty),
                        readyHolderRun(false, penalty),
                        "Ready-holder fast-forward vs forced dump");
    }
    // A LaxityAware core stays on the per-cycle path while it has a
    // runnable context and sleeps only while all wait on memory.
    expectIdentical(
        readyAtWaitRun(true, ThreadScheme::CoarseGrained,
                       IssuePolicy::LaxityAware, 65, false),
        readyAtWaitRun(false, ThreadScheme::CoarseGrained,
                       IssuePolicy::LaxityAware, 65, false),
        "laxity-aware readyAt-wait fast-forward vs forced dump");
}

TEST(GoldenStats, RingTrafficExercisesEveryRingPath)
{
    ringTrafficRun(true, [](const StatRegistry &st) {
        EXPECT_GT(st.get("ring.big.injectRejects").value(), 0.0);
        EXPECT_GT(st.get("ring.conv.injectRejects").value(), 0.0);
        EXPECT_GT(st.get("ring.big.faultDrops").value(), 12.0);
        EXPECT_GT(st.get("ring.big.dupsSuppressed").value(), 0.0);
        EXPECT_EQ(st.get("ring.sub.retransmits").value(), 12.0);
        EXPECT_EQ(st.total("ring.", ".linkDegrades"), 4.0);
    });
}

TEST(GoldenStats, FastForwardMatchesForcedModeRings)
{
    expectIdentical(ringTrafficRun(true), ringTrafficRun(false),
                    "ring traffic fast-forward vs forced dump");
}

TEST(GoldenStats, RingTrafficSnapshotMatchesGolden)
{
    checkGolden(ringTrafficRun(true), "rings_seeded_traffic.json");
}

TEST(GoldenStats, UnsampledStatsSerializeExplicitZeros)
{
    // Stats that are registered but never sampled must still appear
    // in the dump with explicit zero values — absent keys would make
    // golden diffs depend on which paths a workload happened to hit.
    StatRegistry reg;
    Scalar s(reg, "idle.counter", "never incremented");
    Average a(reg, "idle.average", "never sampled");
    Histogram h(reg, "idle.hist", "never sampled", 0.0, 10.0, 2);
    std::ostringstream os;
    reg.dumpJson(os);
    const std::string expected =
        "{\n"
        "\"idle.average\":{\"kind\":\"average\",\"value\":0,"
        "\"desc\":\"never sampled\",\"sum\":0,\"count\":0},\n"
        "\"idle.counter\":{\"kind\":\"scalar\",\"value\":0,"
        "\"desc\":\"never incremented\"},\n"
        "\"idle.hist\":{\"kind\":\"histogram\",\"value\":0,"
        "\"desc\":\"never sampled\",\"count\":0,\"stddev\":0,"
        "\"min\":0,\"max\":0,\"lo\":0,\"hi\":10,\"bucketWidth\":5,\"p50\":0,\"p95\":0,\"p99\":0,"
        "\"buckets\":[0,0]}\n"
        "}";
    EXPECT_EQ(os.str(), expected);
}

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--update-golden")
            update_golden = true;
    if (const char *v = std::getenv("SMARCO_UPDATE_GOLDEN"))
        update_golden = *v != '\0' && *v != '0';
    return RUN_ALL_TESTS();
}
