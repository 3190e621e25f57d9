/**
 * @file
 * Thread Core Group (TCG) core model (Section 3.1).
 *
 * A TCG core is a 4-wide-issue, 8-stage, in-order superscalar
 * pipeline hosting 8 hardware thread contexts of which at most 4 run
 * simultaneously. Threads are organised as in-pair (friend) threads:
 * contexts i and i+4 share one run slot; when the running thread
 * stalls on an SPM/D-cache miss its friend starts immediately,
 * hiding memory latency even when both threads behave identically
 * (Section 3.1.1). Parallel threads of the same kernel share one
 * instruction segment prefetched into the SPM (Section 3.1.2).
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/mem_port.hpp"
#include "isa/instr_stream.hpp"
#include "mem/cache.hpp"
#include "mem/spm.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "workloads/task.hpp"

namespace smarco::core {

/** Multithreading scheme, for the Fig. 17 ablation. */
enum class ThreadScheme {
    InPair,        ///< friend-thread switch on miss, 1-cycle bubble
    CoarseGrained, ///< conventional switch-on-event, 8-cycle penalty
    NoSwitch       ///< extra contexts stay idle (no latency hiding)
};

/** Issue arbitration among run slots (Fig. 21 scheduler hook). */
enum class IssuePolicy {
    RoundRobin,  ///< rotate fairly across run slots
    LaxityAware  ///< least-laxity task issues first
};

/** Static configuration of one TCG core. */
struct CoreParams {
    std::uint32_t issueWidth = 4;
    std::uint32_t numThreads = 8;  ///< living contexts
    std::uint32_t maxRunning = 4;  ///< run slots
    ThreadScheme scheme = ThreadScheme::InPair;
    IssuePolicy issuePolicy = IssuePolicy::RoundRobin;
    Cycle pairSwitchPenalty = 1;
    Cycle coarseSwitchPenalty = 8;
    /** Issue-bandwidth tax of arbitrating 8 live contexts instead of
     *  4 (probability of losing one issue slot per cycle while the
     *  pairing scheduler is active). */
    double pairingSelectTax = 0.10;
    /** LaxityAware only: a slot whose task leads the core's most
     *  urgent task by more than this many cycles of laxity is paused
     *  so lagging same-deadline tasks catch up (Fig. 21). */
    Cycle laxityGate = 2000;
    Cycle branchPenalty = 6;  ///< ~8-stage pipeline depth - 2
    Cycle icacheMissPenalty = 6; ///< refill from prefetched SPM segment
    std::uint32_t storeBufferSlots = 8;
    bool sharedInstrSegment = true;
    mem::CacheParams icache{"icache", 16 * 1024, 4, 64, 1};
    mem::CacheParams dcache{"dcache", 16 * 1024, 4, 64, 2};
    mem::SpmParams spm{};
};

/** Ticket of a task attached by hand: its exit is reported to no one. */
inline constexpr std::uint32_t kNoTicket = ~std::uint32_t{0};

/** Invoked once for each ticketed task that leaves the core: finished,
 *  or killed (fault injection / hang recovery). */
using ExitHandler =
    std::function<void(std::uint32_t ticket, Cycle when, bool finished)>;

/** Thread-context fault kinds (see src/fault/). */
enum class ThreadFault : std::uint8_t {
    Hang, ///< context freezes, occupying its slot until killed
    Kill  ///< context dies immediately; its task is reported failed
};

/**
 * The TCG core. The chip constructs one per NoC core stop, wires its
 * MemPort, and attaches tasks to free contexts (usually through the
 * sub-ring scheduler).
 */
class TcgCore : public Ticking
{
  public:
    TcgCore(Simulator &sim, CoreParams params, CoreId id,
            MemPort &port, const std::string &stat_prefix);

    /**
     * Attach a task to a free context. The task's profile supplies
     * its ILP, instruction footprint and stream-load blocking rate;
     * a task without one panics. Its exit, finished or killed, goes
     * with ticket to the exit handler; a task attached with kNoTicket
     * is reported to no one.
     * @return false when every context is occupied.
     */
    bool attachTask(const workloads::TaskSpec &task,
                    isa::StreamPtr stream, std::uint32_t ticket);

    /** Contexts currently free for dispatch. */
    std::uint32_t freeContexts() const
    { return params_.numThreads - live_; }
    /** Contexts currently hosting live tasks. */
    std::uint32_t liveContexts() const { return live_; }

    void tick(Cycle now) override;
    bool busy() const override;
    /**
     * The first cycle a run slot's holder can issue in: the smallest
     * readyAt over the contexts activeOf() would pick (hung ones
     * excluded, as they never issue), or now + 1 when one is Ready
     * and waiting to be promoted. A core with no such context sleeps
     * until a wake: an idle one until a task attaches, one whose live
     * contexts all wait on memory or are hung until a response or a
     * kill. A LaxityAware core with a runnable context stays on the
     * per-cycle path, since its laxity gate moves with now.
     */
    Cycle nextActiveCycle(Cycle now) const override;
    /**
     * Replay the ticks skipped while asleep, each a tick in which no
     * holder can issue: one active cycle, issueWidth offered slots,
     * one round-robin step, with more live contexts than run slots
     * one pairing-select draw on the core's RNG, and one ilpCap()
     * draw for each unhung holder unless that draw took the only
     * issue slot. Panics when a holder could have issued in one.
     */
    void skipTicks(Cycle from, Cycle n) override;

    CoreId id() const { return id_; }
    const CoreParams &params() const { return params_; }
    mem::Spm &spm() { return spm_; }

    /** Committed micro-ops so far. */
    std::uint64_t committedOps() const
    { return static_cast<std::uint64_t>(committed_.value()); }
    /** Issue slots offered while a context was live, and used. */
    std::uint64_t slotsOffered() const
    { return static_cast<std::uint64_t>(slotsOffered_.value()); }
    std::uint64_t slotsUsed() const
    { return static_cast<std::uint64_t>(slotsUsed_.value()); }
    /** IPC over the core's ticked lifetime. */
    double ipc() const;
    /** Fraction of cycles lost to instruction starvation. */
    double starvationRatio() const;

    /** taskProgress() result when the task is not on this core. */
    static constexpr std::uint64_t kNoTask = ~std::uint64_t{0};

    /** Install the exit handler (the owning sub-scheduler). */
    void setExitHandler(ExitHandler handler)
    { exitHandler_ = std::move(handler); }

    /**
     * Inject a thread fault on a pseudo-randomly chosen victim
     * context (Hang: a Running/Ready context freezes; Kill: any live
     * context dies). @return false when no eligible victim exists.
     */
    bool injectThreadFault(ThreadFault kind, Rng &rng, Cycle now);

    /**
     * Kill the context hosting ticket's task (recovery path). A
     * stalled context is freed when its outstanding memory response
     * arrives; the exit handler fires at that point.
     * @return false when the task is not on this core.
     */
    bool killTask(std::uint32_t ticket, Cycle now);

    /**
     * Committed ops of ticket's task, or kNoTask when it is not
     * hosted here (or killed) — the scheduler's heartbeat reads this
     * to detect frozen (hung) tasks.
     */
    std::uint64_t taskProgress(std::uint32_t ticket) const;

    /** The port's completions: a blocking load wakes its stalled
     *  context, a posted store frees its store-buffer slot. Each
     *  panics when it has nothing outstanding to complete. storeDone
     *  needs no wake: a context that waits on a full store buffer
     *  keeps its op pending with readyAt <= now, so its core never
     *  sleeps while the slot is outstanding, and a sleeping core's
     *  replay reads no store-buffer state. */
    void loadDone(ThreadId ctx_idx);
    void storeDone();

  private:
    enum class State : std::uint8_t {
        Idle,    ///< no task attached
        Ready,   ///< has work, waiting for its run slot
        Running, ///< owns its run slot
        Stalled  ///< waiting for a memory response
    };

    struct Context {
        State state = State::Idle;
        workloads::TaskSpec task;
        isa::StreamPtr stream;
        std::uint32_t ticket = kNoTicket;
        std::uint64_t opsDone = 0;
        Cycle readyAt = 0;      ///< earliest next issue cycle
        Cycle taskStart = 0;
        Addr pcBase = 0;
        std::uint64_t fetchOff = 0;
        isa::MicroOp pending{};
        bool hasPending = false;
        /** Cycle of the context's last instruction fetch: one fetch
         *  group per context per cycle. */
        Cycle fetchedAt = kNoCycle;
        /** Fault model: frozen in place, occupying its slot. */
        bool hung = false;
        /** Kill deferred until the outstanding response arrives. */
        bool killed = false;
        Rng rng{0, 0};
    };

    /** Friend context index of ctx (its pair partner). */
    std::uint32_t friendOf(std::uint32_t ctx) const;
    /** No context holds the run slot (holderOf). */
    static constexpr std::uint32_t kNoHolder = ~std::uint32_t{0};
    /** Index of the context that holds a run slot: the Running one,
     *  or a Ready one that activeOf() promotes; kNoHolder if none. */
    std::uint32_t holderOf(std::uint32_t slot) const;
    /** Context currently eligible to issue for a run slot, promoting
     *  a Ready holder to Running. */
    Context *activeOf(std::uint32_t slot);
    /** Out-of-line trace emission keeps the issue path small. */
    [[gnu::cold, gnu::noinline]]
    void traceStall(const char *reason, std::uint32_t ctx_idx,
                    Cycle now);
    [[gnu::cold, gnu::noinline]]
    void traceTaskDone(const Context &ctx, std::uint32_t ctx_idx,
                       Cycle now);
    void stallThread(std::uint32_t ctx_idx, Cycle now);
    /** Give a vacated run slot to the context's Ready friend. */
    void handOffSlot(std::uint32_t ctx_idx);
    void finishTask(std::uint32_t ctx_idx, Cycle now);
    /** Free a context without completing its task (kill path). */
    void killContext(std::uint32_t ctx_idx, Cycle now);
    /** Free a context and report its task's exit. */
    void exitContext(std::uint32_t ctx_idx, Cycle now, bool finished);
    /** Per-thread issue limit this cycle from the task's ILP. */
    std::uint32_t ilpCap(Context &ctx) const;
    /** Model instruction fetch; false on I-starvation this cycle. */
    bool fetchOk(Context &ctx, Cycle now);
    /** Retire the context's pending op. */
    void commitOp(Context &ctx);
    /** Commit a load that stalls the context until its response
     *  wakes it; @return false (the thread stops issuing). */
    bool issueBlockingLoad(std::uint32_t ctx_idx, Context &ctx,
                           const isa::MicroOp &op, Cycle now);
    /** Commit a store posted through the store buffer; @return false,
     *  leaving the op pending, when the buffer is full. */
    bool issuePostedStore(std::uint32_t ctx_idx, Context &ctx,
                          const isa::MicroOp &op);
    /**
     * Execute one micro-op for the context.
     * @return true when the thread can keep issuing this cycle.
     */
    bool executeOp(std::uint32_t ctx_idx, Context &ctx,
                   const isa::MicroOp &op, Cycle now);

    Simulator &sim_;
    CoreParams params_;
    CoreId id_;
    MemPort &port_;
    mem::Cache icache_;
    mem::Cache dcache_;
    mem::Spm spm_;
    std::vector<Context> contexts_;
    /** Contexts not Idle: attachTask counts up, exitContext counts
     *  down. */
    std::uint32_t live_ = 0;
    /**
     * Contexts Running or Ready (hung ones included). Attach and wake
     * count up; stall, finish and killing a Running or Ready context
     * count down (a deferred kill frees a Stalled context). While it
     * is 0 every live context waits on memory and the core sleeps
     * until a wake (nextActiveCycle's fast path). A core with
     * runnable contexts sleeps too while no slot holder's readyAt has
     * come. Either way a tick would only do bookkeeping: the
     * active-cycle and offered-slot counts, the round-robin rotation,
     * the pairing-select draw and the holders' ILP draws, which
     * skipTicks() replays for the skipped cycles; forced mode ticks
     * the core instead.
     */
    std::uint32_t runnable_ = 0;
    std::uint32_t storeBufferUsed_ = 0;
    std::uint32_t rrSlot_ = 0;
    Rng rng_;
    ExitHandler exitHandler_;

    Scalar committed_;
    Scalar cyclesActive_;
    Scalar slotsOffered_;
    Scalar slotsUsed_;
    Scalar starveCycles_;
    Scalar pairSwitches_;
    Scalar stallsMem_;
    Scalar tasksFinished_;
    Scalar tasksKilled_;
    Scalar threadHangs_;
};

} // namespace smarco::core
