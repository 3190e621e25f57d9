/**
 * @file
 * Unit tests of the TCG core: pipeline issue, in-pair thread
 * switching, shared instruction segment, store buffer, and the
 * thread-scheme ablations.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/tcg_core.hpp"
#include "isa/instr_stream.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "workloads/profile.hpp"
#include "workloads/profile_stream.hpp"

using namespace smarco;
using namespace smarco::core;
using isa::MemClass;
using isa::MicroOp;
using isa::OpKind;

namespace {

/** MemPort completing every request of its one core (set after the
 *  core is built) after a fixed latency. */
struct FixedLatencyPort : MemPort {
    explicit FixedLatencyPort(Simulator &sim, Cycle latency)
        : sim(sim), latency(latency) {}

    void
    request(CoreId, ThreadId thread, const MicroOp &,
            mem::AccessClass access) override
    {
        ++requests;
        sim.events().schedule(sim.now() + latency, [this, thread, access] {
            if (access == mem::AccessClass::Load)
                core->loadDone(thread);
            else
                core->storeDone();
        });
    }

    void
    writeback(CoreId, Addr) override
    {
        ++writebacks;
    }

    Simulator &sim;
    Cycle latency;
    TcgCore *core = nullptr;
    int requests = 0;
    int writebacks = 0;
};

MicroOp
aluOp()
{
    return MicroOp{};
}

MicroOp
memOp(OpKind kind, MemClass cls, Addr addr, std::uint8_t size = 4)
{
    MicroOp op;
    op.kind = kind;
    op.memClass = cls;
    op.addr = addr;
    op.size = size;
    return op;
}

MicroOp
haltOp()
{
    MicroOp op;
    op.kind = OpKind::Halt;
    return op;
}

/**
 * Profile of the trace-driven tasks that need no benchmark: the
 * profile defaults (ILP 2.0, a 6 KiB instruction loop), every stream
 * load a demand miss.
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
task(std::uint64_t ops = 100)
{
    workloads::TaskSpec t;
    t.id = 1;
    t.profile = &workloads::htcProfile("wordcount");
    t.numOps = ops;
    t.seed = 3;
    return t;
}

/** One task exit a core reported to its exit handler. */
struct Exit {
    std::uint32_t ticket;
    Cycle when;
    bool finished;
};

struct CoreFixture : ::testing::Test {
    Simulator sim;
    CoreParams params;
    std::unique_ptr<FixedLatencyPort> port;
    std::unique_ptr<TcgCore> core;
    std::vector<Exit> exits;

    TcgCore &
    make(Cycle mem_latency = 50)
    {
        port = std::make_unique<FixedLatencyPort>(sim, mem_latency);
        core = std::make_unique<TcgCore>(sim, params, 0, *port, "core");
        port->core = core.get();
        core->setExitHandler(
            [this](std::uint32_t ticket, Cycle when, bool finished) {
                exits.push_back(Exit{ticket, when, finished});
            });
        return *core;
    }

    /** Finish cycle of ticket's task; kNoCycle until it finishes. */
    Cycle
    finishOf(std::uint32_t ticket) const
    {
        for (const Exit &e : exits)
            if (e.ticket == ticket && e.finished)
                return e.when;
        return kNoCycle;
    }
};

} // namespace

TEST_F(CoreFixture, RunsAluTraceToCompletion)
{
    auto &c = make();
    std::vector<MicroOp> ops(200, aluOp());
    ops.push_back(haltOp());
    ASSERT_TRUE(c.attachTask(task(),
        std::make_unique<isa::TraceStream>(ops), 0));
    sim.run(10000);
    EXPECT_NE(finishOf(0), kNoCycle);
    EXPECT_EQ(c.committedOps(), 200u);
    EXPECT_FALSE(c.busy());
}

TEST_F(CoreFixture, AttachFailsWhenAllContextsBusy)
{
    auto &c = make();
    for (std::uint32_t i = 0; i < params.numThreads; ++i) {
        std::vector<MicroOp> ops(1000, aluOp());
        EXPECT_TRUE(c.attachTask(task(),
            std::make_unique<isa::TraceStream>(ops), kNoTicket));
    }
    std::vector<MicroOp> ops(10, aluOp());
    EXPECT_FALSE(c.attachTask(task(),
        std::make_unique<isa::TraceStream>(ops), kNoTicket));
    EXPECT_EQ(c.freeContexts(), 0u);
}

TEST_F(CoreFixture, SpmLocalAccessDoesNotLeaveCore)
{
    auto &c = make();
    std::vector<MicroOp> ops;
    for (int i = 0; i < 50; ++i)
        ops.push_back(memOp(OpKind::Load, MemClass::SpmLocal,
                            0x1000'0000 + i * 8));
    ops.push_back(haltOp());
    c.attachTask(task(), std::make_unique<isa::TraceStream>(ops),
                 kNoTicket);
    sim.run(1000);
    EXPECT_EQ(port->requests, 0);
    EXPECT_EQ(sim.stats().get("core.spm.reads").value(), 50.0);
}

TEST_F(CoreFixture, HeapMissBlocksUntilFill)
{
    auto &c = make(80);
    std::vector<MicroOp> ops;
    ops.push_back(memOp(OpKind::Load, MemClass::Heap, 0x8000'0000));
    ops.push_back(aluOp());
    ops.push_back(haltOp());
    c.attachTask(task(), std::make_unique<isa::TraceStream>(ops), 0);
    sim.run(10000);
    ASSERT_NE(finishOf(0), kNoCycle);
    EXPECT_EQ(port->requests, 1);
    EXPECT_GE(finishOf(0), 80u); // waited for the fill
}

TEST_F(CoreFixture, HeapHitAfterFillIsFast)
{
    auto &c = make(80);
    std::vector<MicroOp> ops;
    ops.push_back(memOp(OpKind::Load, MemClass::Heap, 0x8000'0000));
    // Same line again: must hit, no second request.
    ops.push_back(memOp(OpKind::Load, MemClass::Heap, 0x8000'0008));
    ops.push_back(haltOp());
    c.attachTask(task(), std::make_unique<isa::TraceStream>(ops),
                 kNoTicket);
    sim.run(10000);
    EXPECT_EQ(port->requests, 1);
}

TEST_F(CoreFixture, StoresAreNonBlockingThroughStoreBuffer)
{
    auto &c = make(100);
    std::vector<MicroOp> ops;
    // A couple of stream stores then lots of ALU work.
    ops.push_back(memOp(OpKind::Store, MemClass::Stream, 0x9000'0000));
    ops.push_back(memOp(OpKind::Store, MemClass::Stream, 0x9000'0100));
    for (int i = 0; i < 100; ++i)
        ops.push_back(aluOp());
    ops.push_back(haltOp());
    c.attachTask(task(), std::make_unique<isa::TraceStream>(ops), 0);
    sim.run(10000);
    ASSERT_NE(finishOf(0), kNoCycle);
    // Task completed well before 2x the memory latency: stores
    // overlapped with the ALU work.
    EXPECT_LT(finishOf(0), 200u);
    EXPECT_EQ(port->requests, 2);
}

TEST_F(CoreFixture, StoreBufferFullStallsThread)
{
    params.storeBufferSlots = 2;
    auto &c = make(500);
    std::vector<MicroOp> ops;
    for (int i = 0; i < 6; ++i)
        ops.push_back(memOp(OpKind::Store, MemClass::Stream,
                            0x9000'0000 + i * 256));
    ops.push_back(haltOp());
    c.attachTask(task(), std::make_unique<isa::TraceStream>(ops), 0);
    sim.run(100000);
    ASSERT_NE(finishOf(0), kNoCycle);
    // 6 stores with only 2 slots at 500-cycle latency: the thread
    // must have waited for at least two full drain rounds.
    EXPECT_GE(finishOf(0), 1000u);
}

TEST_F(CoreFixture, InPairThreadsHideMemoryLatency)
{
    // Two threads of pure blocking loads; with in-pair switching the
    // total time approaches one thread's latency chain because each
    // hides the other's stalls.
    const auto run_with = [&](ThreadScheme scheme,
                              std::uint32_t threads) {
        Simulator s;
        CoreParams p;
        p.scheme = scheme;
        p.numThreads = threads;
        p.maxRunning = threads <= 4 ? threads : 4;
        FixedLatencyPort prt(s, 60);
        TcgCore c(s, p, 0, prt, "c");
        prt.core = &c;
        for (std::uint32_t t = 0; t < threads; ++t) {
            std::vector<MicroOp> ops;
            for (int i = 0; i < 40; ++i) {
                ops.push_back(memOp(OpKind::Load, MemClass::Stream,
                                    0x9000'0000 + i * 64));
                ops.push_back(aluOp());
            }
            ops.push_back(haltOp());
            workloads::TaskSpec ts;
            ts.id = t;
            ts.profile = &traceProfile(); // stream loads all block
            ts.numOps = ops.size();
            c.attachTask(ts, std::make_unique<isa::TraceStream>(ops),
                         kNoTicket);
        }
        s.run(1000000);
        return s.now();
    };

    const Cycle paired = run_with(ThreadScheme::InPair, 2);
    const Cycle unpaired = run_with(ThreadScheme::NoSwitch, 2);
    // NoSwitch leaves the second context idle... both threads have
    // their own slot at maxRunning=2, so compare 5 vs 8 contexts:
    const Cycle paired8 = run_with(ThreadScheme::InPair, 8);
    const Cycle noswitch8 = run_with(ThreadScheme::NoSwitch, 8);
    EXPECT_LT(paired8, noswitch8);
    (void)paired;
    (void)unpaired;
}

TEST_F(CoreFixture, PairPromotionOnStall)
{
    // With 8 threads (4 pairs), when a running thread stalls its
    // friend runs; the pairSwitches stat must advance.
    params.numThreads = 8;
    params.maxRunning = 4;
    auto &c = make(60);
    for (int t = 0; t < 8; ++t) {
        std::vector<MicroOp> ops;
        for (int i = 0; i < 20; ++i)
            ops.push_back(memOp(OpKind::Load, MemClass::Stream,
                                0x9000'0000 + i * 64));
        ops.push_back(haltOp());
        workloads::TaskSpec ts;
        ts.id = t;
        ts.profile = &traceProfile();
        ts.numOps = ops.size();
        c.attachTask(ts, std::make_unique<isa::TraceStream>(ops),
                     kNoTicket);
    }
    sim.run(1000000);
    EXPECT_FALSE(c.busy());
    // The trace profile makes every stream load a demand miss.
    EXPECT_EQ(port->requests, 8 * 20);
    const Stat &switches = sim.stats().get("core.pairSwitches");
    EXPECT_GT(switches.value(), 0.0);
}

TEST_F(CoreFixture, MispredictFlushCostsCycles)
{
    auto &c = make();
    std::vector<MicroOp> ops;
    for (int i = 0; i < 50; ++i) {
        MicroOp b;
        b.kind = OpKind::Branch;
        b.mispredict = true;
        ops.push_back(b);
    }
    ops.push_back(haltOp());
    c.attachTask(task(), std::make_unique<isa::TraceStream>(ops), 0);
    sim.run(100000);
    // Each mispredict costs ~branchPenalty cycles.
    ASSERT_NE(finishOf(0), kNoCycle);
    EXPECT_GE(finishOf(0), 50u * params.branchPenalty);
}

TEST_F(CoreFixture, IpcImprovesWithThreads)
{
    const auto ipc_with = [&](std::uint32_t threads) {
        Simulator s;
        CoreParams p;
        p.numThreads = threads;
        p.maxRunning = std::min<std::uint32_t>(threads, 4);
        FixedLatencyPort prt(s, 60);
        TcgCore c(s, p, 0, prt, "c");
        prt.core = &c;
        const auto &prof = workloads::htcProfile("wordcount");
        for (std::uint32_t t = 0; t < threads; ++t) {
            workloads::TaskSpec ts;
            ts.id = t;
            ts.profile = &prof;
            ts.numOps = 10000;
            ts.seed = 7 + t;
            workloads::AddressLayout l;
            l.spmLocalBase = 0x1000'0000;
            l.heapBase = 0x8000'0000;
            l.streamBase = 0x9000'0000;
            c.attachTask(ts, std::make_unique<workloads::ProfileStream>(
                             prof, l, ts.numOps, ts.seed),
                         kNoTicket);
        }
        s.run(10000000);
        return c.ipc();
    };
    const double ipc1 = ipc_with(1);
    const double ipc4 = ipc_with(4);
    const double ipc8 = ipc_with(8);
    EXPECT_GT(ipc4, ipc1 * 2.5); // near-linear up to 4 (Fig. 17)
    EXPECT_GT(ipc8, ipc4);       // pairing keeps helping
    EXPECT_LT(ipc8, ipc4 * 2.0); // but sub-linearly
}

TEST_F(CoreFixture, SharedInstrSegmentAvoidsStarvation)
{
    const auto starve_with = [&](bool shared) {
        Simulator s;
        CoreParams p;
        p.sharedInstrSegment = shared;
        FixedLatencyPort prt(s, 60);
        TcgCore c(s, p, 0, prt, "c");
        prt.core = &c;
        const auto &prof = workloads::htcProfile("search"); // 12KB code
        for (std::uint32_t t = 0; t < 8; ++t) {
            workloads::TaskSpec ts;
            ts.id = t;
            ts.profile = &prof;
            ts.numOps = 5000;
            ts.seed = t;
            workloads::AddressLayout l;
            l.spmLocalBase = 0x1000'0000;
            l.heapBase = 0x8000'0000;
            l.streamBase = 0x9000'0000;
            c.attachTask(ts, std::make_unique<workloads::ProfileStream>(
                             prof, l, ts.numOps, ts.seed),
                         kNoTicket);
        }
        s.run(10000000);
        return c.starvationRatio();
    };
    // 8 threads x 12 KB private copies (96 KB) thrash the 16 KB
    // I-cache; one shared segment fits.
    EXPECT_LT(starve_with(true), starve_with(false));
}

TEST_F(CoreFixture, LaxityAwareIssueFavoursUrgentTask)
{
    params.issuePolicy = IssuePolicy::LaxityAware;
    auto &c = make(60);
    // Four identical tasks competing for 4 issue slots; only one has
    // a tight deadline, so under laxity-aware arbitration it issues
    // first each cycle and finishes earliest.
    for (std::uint32_t t = 0; t < 4; ++t) {
        std::vector<MicroOp> ops;
        for (int i = 0; i < 3000; ++i)
            ops.push_back(aluOp());
        ops.push_back(haltOp());
        workloads::TaskSpec ts;
        ts.id = t;
        ts.profile = &traceProfile();
        ts.numOps = ops.size();
        ts.deadline = t == 0 ? 4000 : kNoCycle;
        c.attachTask(ts, std::make_unique<isa::TraceStream>(ops), t);
    }
    sim.run(100000);
    const Cycle urgent_finish = finishOf(0);
    const Cycle lax_finish[3] = {finishOf(1), finishOf(2), finishOf(3)};
    EXPECT_NE(urgent_finish, kNoCycle);
    for (Cycle f : lax_finish)
        EXPECT_NE(f, kNoCycle);
    // With issue width 4 and per-thread ILP 2, the urgent task plus
    // at most one other run at full speed; the remaining two must
    // finish strictly later than the urgent one.
    EXPECT_LT(urgent_finish, lax_finish[1]);
    EXPECT_LT(urgent_finish, lax_finish[2]);
}

TEST_F(CoreFixture, LaxityAwareIssueKeepsEqualDeadlineTasksInStep)
{
    // Four ALU tasks of one length and deadline on four run slots; at
    // ILP 2 and issue width 4, two issue a cycle. Laxity counts each
    // task's retired ops, so whichever pair lags issues next and all
    // four finish together (Fig. 21's narrow exit spread). Laxity
    // that ignored progress would keep one pair ahead until it ends.
    params.issuePolicy = IssuePolicy::LaxityAware;
    auto &c = make();
    for (std::uint32_t t = 0; t < 4; ++t) {
        std::vector<MicroOp> ops(3000, aluOp());
        ops.push_back(haltOp());
        workloads::TaskSpec ts;
        ts.id = t;
        ts.profile = &traceProfile();
        ts.numOps = ops.size();
        ts.deadline = 20000;
        c.attachTask(ts, std::make_unique<isa::TraceStream>(ops), t);
    }
    sim.run(100000);
    std::vector<Cycle> finish;
    for (const Exit &e : exits)
        finish.push_back(e.when);
    ASSERT_EQ(finish.size(), 4u);
    const auto [first, last] =
        std::minmax_element(finish.begin(), finish.end());
    EXPECT_LT(*last - *first, 50u);
}

TEST_F(CoreFixture, KillFaultsReachEveryContextOfTheWidestCore)
{
    // The widest legal core: 16 run slots, 32 contexts. A Kill fault
    // draws its victim among every live context, stalled or not; a
    // stalled victim is freed when its memory response arrives.
    params.maxRunning = 16;
    params.numThreads = 32;
    auto &c = make(50);
    for (std::uint32_t i = 0; i < 32; ++i) {
        std::vector<MicroOp> ops{
            memOp(OpKind::Load, MemClass::Heap, 0x100000 + i * 4096)};
        ops.insert(ops.end(), 200, aluOp());
        ops.push_back(haltOp());
        workloads::TaskSpec t = task();
        t.id = i;
        ASSERT_TRUE(c.attachTask(t,
                                 std::make_unique<isa::TraceStream>(ops),
                                 i));
    }
    // Let the running half issue its load misses and stall.
    sim.run(3);
    EXPECT_EQ(c.liveContexts(), 32u);
    Rng rng(5, 0);
    for (int k = 0; k < 32; ++k)
        ASSERT_TRUE(c.injectThreadFault(ThreadFault::Kill, rng, sim.now()));
    EXPECT_FALSE(c.injectThreadFault(ThreadFault::Kill, rng, sim.now()));
    EXPECT_LT(exits.size(), 32u); // stalled victims still pending
    EXPECT_TRUE(c.busy()); // they stay live until their responses
    sim.run(1000);
    EXPECT_EQ(exits.size(), 32u);
    for (const Exit &e : exits)
        EXPECT_FALSE(e.finished) << "ticket " << e.ticket;
    EXPECT_EQ(c.liveContexts(), 0u);
    EXPECT_FALSE(c.busy());
}

TEST_F(CoreFixture, ExitHandlerHearsEachTicketOnce)
{
    // Every exit of a ticketed task, finished or killed (running or
    // stalled), reaches the one exit handler once with its ticket. A
    // task attached by hand with kNoTicket is reported to no one,
    // killed or not; only a thread fault reaches it, so the two
    // hand-attached tasks are alone on the core when one is killed.
    auto &c = make(50);
    const auto attach = [&](TaskId id, std::uint32_t ticket) {
        std::vector<MicroOp> ops{
            memOp(OpKind::Load, MemClass::Heap, 0x100000 + id * 4096)};
        ops.insert(ops.end(), 100, aluOp());
        ops.push_back(haltOp());
        workloads::TaskSpec t = task();
        t.id = id;
        ASSERT_TRUE(c.attachTask(
            t, std::make_unique<isa::TraceStream>(ops), ticket));
    };
    attach(4, kNoTicket);
    attach(5, kNoTicket);
    Rng rng(3, 0);
    EXPECT_TRUE(c.injectThreadFault(ThreadFault::Kill, rng, sim.now()));
    attach(1, 10);
    attach(2, 11);
    attach(3, 12);
    EXPECT_TRUE(c.killTask(11, sim.now()));
    sim.run(3); // task 3 issues its load miss and stalls
    EXPECT_TRUE(c.killTask(12, sim.now()));
    EXPECT_FALSE(c.killTask(12, sim.now())); // already dying
    sim.run(10000);

    std::vector<std::pair<std::uint32_t, bool>> got;
    for (const Exit &e : exits)
        got.emplace_back(e.ticket, e.finished);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, (std::vector<std::pair<std::uint32_t, bool>>{
                       {10, true}, {11, false}, {12, false}}));
    EXPECT_EQ(c.liveContexts(), 0u);
    EXPECT_EQ(sim.stats().get("core.tasksFinished").value(), 2.0);
    EXPECT_EQ(sim.stats().get("core.tasksKilled").value(), 3.0);
}

TEST(CoreKernelModes, StalledCoreStatsMatchForcedModeAtEverySliceEnd)
{
    // Six tasks on four run slots (eight contexts) behind a slow
    // port: each burst of work opens with a load miss, so every live
    // context soon waits on memory while the pairing-select tax is
    // still drawn (six live > four slots). During the run, a component
    // ticked before the core kills a stalled context and one ticked
    // after it attaches a task while every context is stalled. The
    // full stats dump must match the tick-every-cycle kernel at the
    // end of every run() slice, under both issue policies.
    struct Stimulus : Ticking {
        void
        tick(Cycle now) override
        {
            if (now == at)
                act();
        }
        bool busy() const override { return false; }
        Cycle nextActiveCycle(Cycle now) const override
        { return at > now ? at : kNoCycle; }
        Cycle at = 0;
        std::function<void()> act;
    };
    const auto slices = [](bool fast_forward, IssuePolicy policy) {
        Simulator sim;
        sim.setFastForward(fast_forward);
        CoreParams p;
        p.numThreads = 8;
        p.maxRunning = 4;
        p.issuePolicy = policy;
        FixedLatencyPort port(sim, 300);
        Stimulus before;
        sim.addTicking(&before);
        TcgCore c(sim, p, 0, port, "core");
        port.core = &c;
        Stimulus after;
        sim.addTicking(&after);
        // Each task's ticket is its id.
        std::vector<std::uint32_t> failed;
        std::vector<std::pair<std::uint32_t, Cycle>> finished;
        c.setExitHandler([&](std::uint32_t ticket, Cycle when, bool done) {
            if (done)
                finished.emplace_back(ticket, when);
            else
                failed.push_back(ticket);
        });
        const auto attach = [&](TaskId id) {
            std::vector<MicroOp> ops;
            for (int k = 0; k < 6; ++k) {
                ops.push_back(memOp(OpKind::Load, MemClass::Heap,
                                    0x200000 + id * 0x10000 + k * 64));
                ops.insert(ops.end(), 60 + 10 * id, aluOp());
            }
            ops.push_back(haltOp());
            workloads::TaskSpec ts;
            ts.id = id;
            ts.profile = &traceProfile();
            ts.numOps = ops.size();
            ts.deadline = 2000 + 150 * id;
            return c.attachTask(
                ts, std::make_unique<isa::TraceStream>(ops),
                static_cast<std::uint32_t>(id));
        };
        for (TaskId id = 0; id < 6; ++id)
            EXPECT_TRUE(attach(id));
        // Every context is stalled on its first load by cycle 40 and
        // still is at 100 (the killed one too, until its response).
        before.at = 40;
        before.act = [&] { EXPECT_TRUE(c.killTask(2, sim.now())); };
        after.at = 100;
        after.act = [&] { EXPECT_TRUE(attach(6)); };

        std::vector<std::string> dumps;
        for (const Cycle n : {70, 1, 150, 777, 100'000}) {
            const Cycle end = sim.run(n);
            std::ostringstream ss;
            ss << "end " << end << ' ';
            sim.stats().dumpJson(ss);
            dumps.push_back(ss.str());
        }
        EXPECT_EQ(failed, std::vector<std::uint32_t>{2});
        EXPECT_EQ(finished.size(), 6u);
        EXPECT_FALSE(c.busy());
        std::ostringstream tail;
        for (const auto &[id, f] : finished)
            tail << id << '@' << f << ' ';
        dumps.push_back(tail.str());
        return dumps;
    };
    for (const IssuePolicy policy :
         {IssuePolicy::RoundRobin, IssuePolicy::LaxityAware}) {
        const auto ff = slices(true, policy);
        const auto forced = slices(false, policy);
        ASSERT_EQ(ff.size(), forced.size());
        for (std::size_t k = 0; k < ff.size(); ++k)
            EXPECT_EQ(ff[k], forced[k])
                << "slice " << k << " policy "
                << static_cast<int>(policy);
    }
}

TEST(CoreDeathTest, TaskWithoutProfilePanics)
{
    // The profile supplies the task's ILP, instruction footprint and
    // stream-load blocking rate, so the core refuses a task without
    // one at attach time, as both chips do.
    const auto attach = [] {
        Simulator sim;
        FixedLatencyPort port(sim, 50);
        TcgCore c(sim, CoreParams{}, 0, port, "core");
        std::vector<MicroOp> ops(10, aluOp());
        ops.push_back(haltOp());
        workloads::TaskSpec t;
        t.id = 7;
        t.numOps = ops.size();
        c.attachTask(t, std::make_unique<isa::TraceStream>(ops),
                     kNoTicket);
        sim.run(1000);
    };
    EXPECT_DEATH(attach(), "task 7 has no profile");
}

TEST(CoreDeathTest, CompletionWithNothingOutstandingPanics)
{
    // The port completes each request exactly once: a store
    // completion with an empty store buffer, or a load completion for
    // a context that is not stalled, is a model fault.
    const auto complete = [](bool store) {
        Simulator sim;
        FixedLatencyPort port(sim, 50);
        TcgCore c(sim, CoreParams{}, 0, port, "core");
        if (store)
            c.storeDone();
        else
            c.loadDone(0);
    };
    EXPECT_DEATH(complete(true),
                 "core 0: store completion with an empty store buffer");
    EXPECT_DEATH(complete(false), "core 0: waking context 0 in state 0");
}
