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

#include "sim/bit_calendar.hpp"
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
 *
 * The kernel may skip a component's ticks (see nextActiveCycle) and
 * accounts for every skipped one: skipTicks() replays it before the
 * component's next tick, before an interval sample, when run()
 * returns and when the component is woken. Hence the one rule for a
 * component whose state is changed from outside its tick()
 * (inject/submit/attach/a memory response/...): call
 * Simulator::wake(this) before the change.
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
     * do more than skipTicks() replays, assuming no outside change in
     * between. Return now + 1 (the default) to stay on the per-cycle
     * path, a future cycle for a known timer (deadline, quantum
     * boundary, a pipeline wait such as a TCG core's readyAt), or
     * kNoCycle to sleep until a Simulator::wake(). A wake fewer than
     * Simulator::kWakeWindow cycles ahead is filed in the kernel's
     * BitCalendar, O(1) to file and fire; a farther one in its far
     * tier, a heap push and pop. Spurious wakes are
     * harmless: a tick the hint allowed to skip does exactly what
     * skipTicks() does for it. Forced mode ticks every component every
     * cycle, so it proves the skips byte-identical.
     */
    virtual Cycle nextActiveCycle(Cycle now) const { return now + 1; }

    /**
     * Apply the effects of the n skipped ticks of cycles from to
     * from + n - 1: nothing by default (skipped ticks are no-ops), or
     * only the component's own counters, rotation state and draws on
     * its own RNGs (e.g. a TCG core whose live contexts all wait on
     * memory). Cycles the kernel's idle jump passes over are ticked
     * in neither kernel mode and never reach this hook.
     */
    virtual void skipTicks(Cycle /*from*/, Cycle /*n*/) {}

  private:
    friend class Simulator;
    /** Registration slot in the owning simulator's active set. */
    std::uint32_t simIndex_ = 0;
    Simulator *simOwner_ = nullptr;
    /** First cycle neither ticked nor replayed by skipTicks(). */
    Cycle nextTick_ = 0;
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

    /**
     * Run until max_cycles elapse or the system goes idle (no busy
     * component, empty event queue).
     * @return the cycle at which the run stopped.
     */
    Cycle run(Cycle max_cycles);

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
     * Account for the component's skipped ticks up to this cycle, or
     * through it when its tick for this cycle has already run, and
     * return it to the active set (idempotent; a no-op for components
     * registered to another simulator). Components call it before
     * every change to their state made from outside tick().
     */
    void wake(Ticking *component)
    {
        if (!component || component->simOwner_ != this)
            return;
        catchUp(*component, now_ + (tickPassed(component) ? 1 : 0));
        activate(component->simIndex_);
    }

    /**
     * Enable/disable quiescence-aware fast-forwarding (default on,
     * unless --no-fast-forward / SMARCO_NO_FAST_FORWARD is set). When
     * off, every registered component is ticked every cycle — the
     * slow reference mode the golden-stats harness compares against.
     * No component can read the mode, so that reference stays
     * independent of the hints it checks.
     */
    void setFastForward(bool on) { fastForward_ = on; }

    /** Cycles skipped by quiescence fast-forwards (kernel metric;
     *  deliberately not a registered Stat so both kernel modes dump
     *  identical stats JSON). */
    std::uint64_t cyclesSkipped() const { return cyclesSkipped_; }
    /** Number of multi-cycle jumps the kernel performed. */
    std::uint64_t fastForwards() const { return fastForwards_; }
    /** Component ticks run, replays excluded (kernel metric, kept out
     *  of the registry like cyclesSkipped): every registered component
     *  each cycle in forced mode, the active set's in fast-forward. */
    std::uint64_t ticksRun() const { return ticksRun_; }

    /**
     * Timed wakes fewer than this many cycles ahead are filed in the
     * wake calendar, one bucket per cycle; farther ones on the heap.
     */
    static constexpr Cycle kWakeWindow = 64;

  private:
    /** Record this run's stats/samples in the process outputs. */
    void snapshotObservability();

    /**
     * Jump the clock forward to target (at least one cycle), clamped
     * to the next sampling boundary so interval probes still fire at
     * exact cycles across a skip.
     */
    void advanceTo(Cycle target);

    /** File registration index i to be re-activated at cycle at
     *  (at > now_ + 1). */
    void fileWake(Cycle at, std::uint32_t i)
    {
        if (at - now_ >= kWakeWindow)
            wakeHeap_.emplace(at, i);
        else
            wakeCalendar_.file(i, at);
    }

    /** Set the active bit of registration index i. */
    void activate(std::uint32_t i)
    { active_[i / 64] |= std::uint64_t{1} << (i % 64); }

    /**
     * Whether the component's tick for the current cycle has already
     * run in tick-every-cycle order: false while events run, true
     * during the tick pass for components of a lower registration
     * index than the one ticking, and true after the tick pass. Kept
     * in both kernel modes.
     */
    bool tickPassed(const Ticking *component) const
    { return component->simIndex_ < tickCursor_; }

    /** Replay the component's skipped ticks before cycle upTo. */
    static void catchUp(Ticking &component, Cycle upTo)
    {
        const Cycle from = component.nextTick_;
        if (from >= upTo)
            return;
        component.nextTick_ = upTo;
        component.skipTicks(from, upTo - from);
    }

    /** catchUp() every component to upTo. */
    void catchUpAll(Cycle upTo);

    /** Catch the component up and tick it for cycle now_. */
    void tickOne(Ticking &component)
    {
        catchUp(component, now_);
        component.nextTick_ = now_ + 1;
        component.tick(now_);
    }

    Cycle now_ = 0;
    bool finishedIdle_ = false;
    bool fastForward_ = true;
    std::vector<Ticking *> ticking_;
    /**
     * Active set, 64 components a word: bit i is set when ticking_[i]
     * must be ticked. The tick pass walks set bits in ascending index
     * order and re-reads the word after each tick, so a component
     * woken mid-cycle by a lower index is ticked this cycle and one
     * woken by a higher index next cycle — the tick-every-cycle
     * order. Only a component's own tick clears its bit.
     */
    std::vector<std::uint64_t> active_;
    /**
     * Timed wakes, filed by the tick pass from a component's hint.
     * Entries may be stale: a fired entry merely re-activates the
     * component, and a spurious tick is harmless by the Ticking
     * contract. A wake fewer than kWakeWindow cycles ahead is filed
     * in wakeCalendar_ under its registration index; every filed cycle
     * then lies in now_ + 1 .. now_ + kWakeWindow - 1 during the tick
     * pass, so within one window. Farther wakes go to wakeHeap_ as
     * (wake cycle, registration index). Both fire at the start of the
     * first loop iteration at or past their cycle, an idle jump's
     * target included, and stay out of the event queue, so a pending
     * wake never keeps an idle run from ending.
     */
    BitCalendar<kWakeWindow> wakeCalendar_;
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
    std::uint64_t ticksRun_ = 0;
    EventQueue events_;
    StatRegistry stats_;
    TraceManager trace_;
    IntervalSampler sampler_;
    std::uint32_t runId_ = 0;
    const Cycle *prevLogCycle_ = nullptr;
};

} // namespace smarco
