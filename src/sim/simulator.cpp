#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

#include "sim/json_writer.hpp"
#include "sim/logging.hpp"
#include "sim/observability.hpp"

namespace smarco {

Simulator::Simulator()
{
    const ObsOptions &opts = obsOptions();
    fastForward_ = !opts.noFastForward;
    if (opts.anyWanted()) {
        runId_ = detail::obsBeginRun();
        if (opts.traceWanted()) {
            if (TraceSink *sink = detail::obsTraceSink()) {
                trace_.enable(sink, opts.traceCategories, runId_);
                trace_.labelRun(strprintf("run %u", runId_));
            }
        }
        if (opts.samplingWanted())
            sampler_.setInterval(opts.sampleInterval);
    }
    sampler_.setTrace(&trace_);
    prevLogCycle_ = logCycleSource();
    setLogCycleSource(&now_);
}

Simulator::~Simulator()
{
    if (logCycleSource() == &now_)
        setLogCycleSource(prevLogCycle_);
}

void
Simulator::addTicking(Ticking *component)
{
    if (!component)
        panic("Simulator::addTicking: null component");
    if (component->simOwner_)
        panic("Simulator::addTicking: component registered twice");
    component->simOwner_ = this;
    component->simIndex_ =
        static_cast<std::uint32_t>(ticking_.size());
    ticking_.push_back(component);
    component->nextTick_ = now_;
    if (component->simIndex_ % 64 == 0) {
        active_.push_back(0);
        wakeCalendar_.grow();
    }
    activate(component->simIndex_);
}

void
Simulator::releaseWork()
{
    if (heldWork_ == 0)
        panic("Simulator::releaseWork: no work held");
    --heldWork_;
}

void
Simulator::advanceTo(Cycle target)
{
    if (target < now_ + 1)
        target = now_ + 1;
    if (sampler_.active()) {
        // Interval probes must fire at exact boundaries: land on the
        // boundary cycle and let the run loop sample it normally.
        const Cycle boundary = sampler_.nextBoundary();
        if (boundary > now_ && boundary < target)
            target = boundary;
    }
    if (target > now_ + 1) {
        ++fastForwards_;
        cyclesSkipped_ += target - now_ - 1;
    }
    now_ = target;
}

void
Simulator::catchUpAll(Cycle upTo)
{
    for (Ticking *t : ticking_)
        catchUp(*t, upTo);
}

Cycle
Simulator::run(Cycle max_cycles)
{
    finishedIdle_ = false;
    const Cycle start = now_;
    const Cycle end = now_ + max_cycles;
    const bool sampling = sampler_.active();
    const std::size_t words = active_.size();
    std::uint64_t ticks = 0; // added to ticksRun_ on return

    // Components stimulated between runs (direct submit/attach/spawn
    // calls) wake themselves (the Ticking rule), so a component left
    // asleep by the last run stays asleep until its hint or a wake.
    while (now_ < end) {
        tickCursor_ = 0;
        // Re-activate every component whose timed wake has come.
        if (wakeCalendar_.first() <= now_)
            wakeCalendar_.drainThrough(now_, active_.data());
        while (!wakeHeap_.empty() && wakeHeap_.top().first <= now_) {
            activate(wakeHeap_.top().second);
            wakeHeap_.pop();
        }
        events_.runUntil(now_);

        if (fastForward_) {
            // Tick the active set only, and retire a component right
            // after its tick when its hint lets it sleep (wake()
            // re-arms it). Re-reading the word after each tick picks
            // up a component woken mid-cycle by an earlier-indexed
            // one, matching the tick-every-cycle order.
            for (std::size_t w = 0; w < words; ++w) {
                std::uint64_t bits = active_[w];
                while (bits != 0) {
                    const int b = std::countr_zero(bits);
                    tickCursor_ = static_cast<std::uint32_t>(w * 64 + b);
                    Ticking &t = *ticking_[tickCursor_];
                    tickOne(t);
                    ++ticks;
                    const Cycle next = t.nextActiveCycle(now_);
                    if (next > now_ + 1) {
                        active_[w] &= ~(std::uint64_t{1} << b);
                        if (next != kNoCycle)
                            fileWake(next, tickCursor_);
                    }
                    bits = b == 63
                        ? 0
                        : active_[w] & (~std::uint64_t{0} << (b + 1));
                }
            }
            tickCursor_ = static_cast<std::uint32_t>(ticking_.size());
        } else {
            for (tickCursor_ = 0; tickCursor_ < ticking_.size();
                 ++tickCursor_)
                tickOne(*ticking_[tickCursor_]);
            ticks += ticking_.size();
        }
        if (sampling && now_ >= sampler_.nextBoundary()) {
            // Probes read stats: bring sleeping components up to date,
            // this cycle's tick included.
            catchUpAll(now_ + 1);
            sampler_.maybeSample(now_);
        }

        // Idle detection: when nothing is in flight, fast-forward to
        // the next event or finish. Identical in both kernel modes.
        if (!anyBusy()) {
            const Cycle next = events_.nextEventCycle();
            if (next == kNoCycle) {
                ++now_;
                finishedIdle_ = true;
                break;
            }
            // Jump the clock to just before the next event fires.
            // Neither kernel mode ticks the cycles in between, so each
            // component is accounted through this cycle and then
            // moved past them.
            catchUpAll(now_ + 1);
            advanceTo(next);
            for (Ticking *t : ticking_)
                t->nextTick_ = now_;
            continue;
        }

        if (fastForward_) {
            // Quiescence fast-forward: with every ticking component
            // asleep, no state can change until the earliest wake-up
            // or event, so skipTicks() replays the skipped cycles.
            if (std::all_of(active_.begin(), active_.end(),
                            [](std::uint64_t w) { return w == 0; })) {
                Cycle target =
                    std::min(events_.nextEventCycle(), wakeCalendar_.first());
                if (!wakeHeap_.empty() &&
                    wakeHeap_.top().first < target)
                    target = wakeHeap_.top().first;
                // Nothing scheduled at all: the system is frozen
                // (busy but stuck) — run out the clock like the
                // per-cycle mode would.
                if (target > end)
                    target = end;
                advanceTo(target);
                continue;
            }
        }
        ++now_;
    }

    // No tick of cycle now_ has run yet; callers between runs see the
    // stats of every cycle before it.
    tickCursor_ = 0;
    ticksRun_ += ticks;
    catchUpAll(now_);
    trace_.complete(TraceCat::Sim, "run", start, now_);
    if (runId_ != 0)
        snapshotObservability();
    return now_;
}

void
Simulator::snapshotObservability()
{
    if (obsOptions().statsWanted()) {
        std::ostringstream ss;
        ss << "{\"run\":" << runId_ << ",\"cycles\":" << now_
           << ",\"stats\":";
        stats_.dumpJson(ss);
        ss << '}';
        detail::obsRecordStats(runId_, ss.str());
    }

    if (sampler_.active() && !sampler_.times().empty()) {
        std::string header = "run,cycle";
        for (const auto &name : sampler_.probeNames())
            header += ',' + name;

        std::string body;
        const auto &times = sampler_.times();
        const auto &rows = sampler_.rows();
        for (std::size_t i = 0; i < times.size(); ++i) {
            body += std::to_string(runId_) + ',' +
                    std::to_string(times[i]);
            for (double v : rows[i])
                body += ',' + json::num(v);
            body += '\n';
        }

        std::ostringstream js;
        js << "{\"run\":" << runId_ << ',';
        std::ostringstream inner;
        sampler_.dumpJson(inner);
        js << inner.str().substr(1);
        detail::obsRecordSamples(runId_, std::move(header),
                                 std::move(body), js.str());
    }
}

} // namespace smarco
