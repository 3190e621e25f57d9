/**
 * @file
 * Cycle-driven simulation driver.
 *
 * The paper's evaluation platform is a PDES simulator; we substitute a
 * deterministic single-threaded kernel (see DESIGN.md) that combines a
 * fast per-cycle tick path for always-active structures (pipelines,
 * ring stops) with an event queue for sparse timed actions.
 */
#pragma once

#include <functional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/sampler.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"
#include "sim/types.hpp"

namespace smarco {

class Simulator;

/**
 * Interface for components evaluated once per simulated cycle.
 * Ticking objects are evaluated in registration order, which is part
 * of the deterministic contract of the simulator.
 */
class Ticking
{
  public:
    virtual ~Ticking() = default;

    /** Advance the component by one cycle. */
    virtual void tick(Cycle now) = 0;

    /**
     * Whether the component still has in-flight work. When every
     * ticking object is quiescent and the event queue is empty the
     * simulator stops early.
     */
    virtual bool busy() const { return true; }

    /**
     * Quiescence hint: the earliest future cycle at which tick() might
     * do something, assuming no external stimulus arrives in between.
     * Contract: every tick() between now and the returned cycle must
     * be a provable no-op (no state change, no stats, no RNG draws),
     * so the fast-forward kernel may skip it. Return now + 1 (the
     * default) to stay on the per-cycle path, a future cycle for a
     * known timer (deadline, quantum boundary), or kNoCycle to sleep
     * until an external Simulator::wake(). A component whose state is
     * changed from outside tick() (inject/submit/attach/...) must
     * wake() itself there; spurious wakes are harmless by the no-op
     * contract.
     *
     * Amendment: a component may also skip ticks whose only effects
     * are its own counters, its rotation state and draws on its own
     * RNGs (e.g. a TCG core whose live contexts all wait on memory,
     * or the baseline chip between the cycles in which a slot's front
     * thread, an OS time slice or its watchdog can act). It may do so
     * only if settle(now) applies exactly those effects for every
     * skipped cycle before now, and it must settle before any change
     * to its state made from outside tick(). Cycles the kernel's idle
     * jump skips are not ticked in either mode, so settle() must not
     * replay them. Forced mode still ticks every component every
     * cycle, so it proves the skips byte-identical.
     */
    virtual Cycle nextActiveCycle(Cycle now) const { return now + 1; }

    /**
     * Catch up on the bookkeeping of every tick skipped before cycle
     * now (see nextActiveCycle). The kernel settles every component
     * before run() returns and before an interval sample; components
     * settle themselves in tick() and before outside state changes,
     * using Simulator::tickPassed() to tell whether this cycle's tick
     * already counts as done. A no-op by default.
     */
    virtual void settle(Cycle) {}

  private:
    friend class Simulator;
    /** Registration slot in the owning simulator's active set. */
    std::uint32_t simIndex_ = 0;
    Simulator *simOwner_ = nullptr;
};

/**
 * Simulation kernel: owns the clock, the event queue, and the list of
 * ticking components. One Simulator models one chip-under-test.
 */
class Simulator
{
  public:
    /**
     * Hooks into the process-level observability options: when a
     * stats/trace/sample output is configured the simulator becomes
     * one numbered "run" in those files, and the logging layer
     * prefixes messages with this simulator's cycle while it lives.
     */
    Simulator();
    ~Simulator();

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Register a component for per-cycle evaluation. */
    void addTicking(Ticking *component);

    /** Current simulated cycle. */
    Cycle now() const { return now_; }

    /** Timed-callback queue shared by all components. */
    EventQueue &events() { return events_; }

    /** Statistics registry shared by all components. */
    StatRegistry &stats() { return stats_; }

    /** Trace event emitter (disabled unless a trace file is set). */
    TraceManager &trace() { return trace_; }

    /** Interval time-series sampler driven by the run loop. */
    IntervalSampler &sampler() { return sampler_; }

    /** Run id in the process-wide observability outputs (0 = none). */
    std::uint32_t obsRunId() const { return runId_; }

    /**
     * Run until max_cycles elapse, stop is requested, or the system
     * goes idle (no busy component, empty event queue).
     * @return the cycle at which the run stopped.
     */
    Cycle run(Cycle max_cycles);

    /** Ask the kernel to stop at the end of the current cycle. */
    void requestStop() { stopRequested_ = true; }

    /** True when the last run() ended because everything went idle. */
    bool finishedIdle() const { return finishedIdle_; }

    /**
     * True when work is held (holdWork) or any registered component
     * reports in-flight work. The run loop's idle check uses it, and
     * external controllers (e.g. the fault campaign's watchdog and
     * dispatcher) use it to tell "workload still running" apart from
     * "only my own pending events keep the queue non-empty".
     */
    bool anyBusy() const
    {
        if (heldWork_ > 0)
            return true;
        for (const Ticking *t : ticking_)
            if (t->busy())
                return true;
        return false;
    }

    /**
     * Count one unit of outstanding work that lives only in a future
     * event (e.g. a task held for its release cycle), so the system
     * stays busy until the matching releaseWork(). Lets event-driven
     * components count as busy without ticking.
     */
    void holdWork() { ++heldWork_; }
    void releaseWork();

    /**
     * Return a sleeping component to the active set (idempotent; a
     * no-op for components registered to another simulator). Called
     * by components from their stimulus entry points.
     */
    void wake(Ticking *component)
    {
        if (component && component->simOwner_ == this)
            active_[component->simIndex_ / 64] |=
                std::uint64_t{1} << (component->simIndex_ % 64);
    }

    /**
     * Whether the component's tick for the current cycle has already
     * run in tick-every-cycle order: false while events run, true
     * during the tick pass for components of a lower registration
     * index than the one ticking, and true after the tick pass. A
     * tick cursor, kept in both kernel modes; a component settles to
     * now() + (tickPassed ? 1 : 0) before an outside state change.
     */
    bool tickPassed(const Ticking *component) const
    {
        return component->simOwner_ == this &&
               component->simIndex_ < tickCursor_;
    }

    /**
     * Enable/disable quiescence-aware fast-forwarding (default on,
     * unless --no-fast-forward / SMARCO_NO_FAST_FORWARD is set). When
     * off, every registered component is ticked every cycle — the
     * slow reference mode the golden-stats harness compares against.
     */
    void setFastForward(bool on) { fastForward_ = on; }
    /** Whether quiescence fast-forwarding is on (see setFastForward). */
    bool fastForward() const { return fastForward_; }

    /** Cycles skipped by quiescence fast-forwards (kernel metric;
     *  deliberately not a registered Stat so both kernel modes dump
     *  identical stats JSON). */
    std::uint64_t cyclesSkipped() const { return cyclesSkipped_; }
    /** Number of multi-cycle jumps the kernel performed. */
    std::uint64_t fastForwards() const { return fastForwards_; }

  private:
    /** Record this run's stats/samples in the process outputs. */
    void snapshotObservability();

    /**
     * Jump the clock forward to target (at least one cycle), clamped
     * to the next sampling boundary so interval probes still fire at
     * exact cycles across a skip.
     */
    void advanceTo(Cycle target);

    /** Settle every component's skipped ticks before cycle now. */
    void settleAll(Cycle now);

    Cycle now_ = 0;
    bool stopRequested_ = false;
    bool finishedIdle_ = false;
    bool fastForward_ = true;
    std::vector<Ticking *> ticking_;
    /**
     * Active set, 64 components a word: bit i is set when ticking_[i]
     * must be ticked. The tick pass walks set bits in ascending index
     * order and re-reads the word after each tick, so a component
     * woken mid-cycle by a lower index is ticked this cycle and one
     * woken by a higher index next cycle — the tick-every-cycle
     * order. Only the hint pass clears bits.
     */
    std::vector<std::uint64_t> active_;
    /** (wake cycle, registration index); entries may be stale — a
     *  popped entry merely re-activates the component, and spurious
     *  ticks are no-ops by the Ticking contract. */
    std::priority_queue<std::pair<Cycle, std::uint32_t>,
                        std::vector<std::pair<Cycle, std::uint32_t>>,
                        std::greater<>>
        wakeHeap_;
    /** Registration index of the component ticking now; 0 while
     *  events run, ticking_.size() after the tick pass (tickPassed). */
    std::uint32_t tickCursor_ = 0;
    /** Outstanding holdWork() units not yet released. */
    std::uint64_t heldWork_ = 0;
    std::uint64_t cyclesSkipped_ = 0;
    std::uint64_t fastForwards_ = 0;
    EventQueue events_;
    StatRegistry stats_;
    TraceManager trace_;
    IntervalSampler sampler_;
    std::uint32_t runId_ = 0;
    const Cycle *prevLogCycle_ = nullptr;
};

} // namespace smarco
