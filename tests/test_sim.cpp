/**
 * @file
 * Unit tests of the simulation kernel: event queue ordering, the
 * cycle-driven loop, idle fast-forward, statistics, and the
 * deterministic RNG / distributions.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/logging.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "workloads/profile.hpp"

using namespace smarco;

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.runUntil(25);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    q.runUntil(30);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SameCycleFifoOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    q.runUntil(5);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsScheduledDuringProcessingFire)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1, [&] {
        ++fired;
        q.schedule(1, [&] { ++fired; }); // same-cycle chain
    });
    const std::size_t n = q.runUntil(1);
    EXPECT_EQ(n, 2u);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, NextEventCycleReportsHead)
{
    EventQueue q;
    EXPECT_EQ(q.nextEventCycle(), kNoCycle);
    q.schedule(42, [] {});
    EXPECT_EQ(q.nextEventCycle(), 42u);
}

namespace {

/** Ticking object that counts its ticks and goes idle after n. */
struct CountTicker : Ticking {
    explicit CountTicker(int n) : remaining(n) {}
    void
    tick(Cycle) override
    {
        if (remaining > 0)
            --remaining;
    }
    bool busy() const override { return remaining > 0; }
    int remaining;
};

} // namespace

TEST(Simulator, RunsTickingObjectsEachCycle)
{
    Simulator sim;
    CountTicker t(10);
    sim.addTicking(&t);
    sim.run(100);
    EXPECT_EQ(t.remaining, 0);
    EXPECT_TRUE(sim.finishedIdle());
}

TEST(Simulator, StopsAtMaxCycles)
{
    Simulator sim;
    CountTicker t(1000);
    sim.addTicking(&t);
    const Cycle end = sim.run(50);
    EXPECT_EQ(end, 50u);
    EXPECT_FALSE(sim.finishedIdle());
}

TEST(Simulator, IdleFastForwardsToNextEvent)
{
    Simulator sim;
    CountTicker t(1);
    sim.addTicking(&t);
    bool fired = false;
    sim.events().schedule(10000, [&] { fired = true; });
    sim.run(20000);
    EXPECT_TRUE(fired);
    EXPECT_TRUE(sim.finishedIdle());
    // The kernel must not have burned 20000 tick iterations; the
    // clock jumped. (Indirect check: now() is just past the event.)
    EXPECT_GE(sim.now(), 10000u);
    EXPECT_LE(sim.now(), 10002u);
}

TEST(Simulator, RequestStopEndsRun)
{
    Simulator sim;
    CountTicker t(1000000);
    sim.addTicking(&t);
    sim.events().schedule(7, [&] { sim.requestStop(); });
    const Cycle end = sim.run(1000000);
    EXPECT_LE(end, 8u);
}

namespace {

/**
 * Acts once every `period` cycles and sleeps in between via the
 * nextActiveCycle hint; ticks outside the boundary are no-ops.
 */
struct PeriodicTicker : Ticking {
    PeriodicTicker(Cycle period, int n) : period(period), actsLeft(n) {}
    void
    tick(Cycle now) override
    {
        ++ticks;
        if (actsLeft > 0 && now > 0 && now % period == 0) {
            --actsLeft;
            ++acts;
        }
    }
    bool busy() const override { return actsLeft > 0; }
    Cycle
    nextActiveCycle(Cycle now) const override
    {
        if (actsLeft == 0)
            return kNoCycle;
        return (now / period + 1) * period;
    }
    Cycle period;
    int actsLeft;
    std::uint64_t ticks = 0;
    int acts = 0;
};

/** Sleeps until an external wake(); then consumes one token per tick. */
struct WakeableTicker : Ticking {
    void
    tick(Cycle) override
    {
        ++ticks;
        if (tokens > 0)
            --tokens;
    }
    bool busy() const override { return tokens > 0; }
    Cycle
    nextActiveCycle(Cycle now) const override
    { return tokens > 0 ? now + 1 : kNoCycle; }
    int tokens = 0;
    std::uint64_t ticks = 0;
};

} // namespace

TEST(FastForward, SkipsQuiescentCyclesOnTimerHints)
{
    Simulator sim;
    PeriodicTicker t(100, 9);
    sim.addTicking(&t);
    const Cycle end = sim.run(100000);
    EXPECT_EQ(t.acts, 9);
    EXPECT_TRUE(sim.finishedIdle());
    EXPECT_EQ(end, 901u); // one idle cycle past the last act at 900
    // The kernel must have executed only the boundary cycles (plus
    // cycle 0 and the final idle check), not all 900.
    EXPECT_LE(t.ticks, 12u);
    EXPECT_GT(sim.cyclesSkipped(), 800u);
    EXPECT_GE(sim.fastForwards(), 9u);
}

TEST(FastForward, DisabledModeTicksEveryCycle)
{
    Simulator sim;
    sim.setFastForward(false);
    PeriodicTicker t(100, 9);
    sim.addTicking(&t);
    const Cycle end = sim.run(100000);
    EXPECT_EQ(t.acts, 9);
    EXPECT_EQ(end, 901u); // same simulated timeline as fast-forward
    EXPECT_EQ(t.ticks, 901u);
    EXPECT_EQ(sim.cyclesSkipped(), 0u);
}

TEST(FastForward, WakeReactivatesSleepingComponent)
{
    Simulator sim;
    WakeableTicker t;
    sim.addTicking(&t);
    sim.events().schedule(5000, [&] {
        t.tokens = 3;
        sim.wake(&t);
    });
    const Cycle end = sim.run(100000);
    EXPECT_EQ(t.tokens, 0);
    EXPECT_TRUE(sim.finishedIdle());
    // Woken at 5000, drains 3 tokens, idles one cycle later.
    EXPECT_EQ(end, 5003u);
    // One arming tick at cycle 0, then only the post-wake cycles.
    EXPECT_LE(t.ticks, 5u);
}

TEST(FastForward, WakeOnForeignSimulatorIsIgnored)
{
    Simulator a, b;
    WakeableTicker t;
    a.addTicking(&t);
    b.wake(&t); // not registered with b: must be a safe no-op
    a.wake(&t);
    SUCCEED();
}

TEST(FastForward, SamplerBoundariesSurviveSkips)
{
    Simulator sim;
    PeriodicTicker t(1000, 2);
    sim.addTicking(&t);
    sim.sampler().setInterval(300);
    sim.sampler().addProbe("now", [&] {
        return static_cast<double>(sim.now());
    });
    sim.run(100000);
    // Acts at 1000 and 2000; interval probes must still fire at every
    // exact 300-cycle boundary crossed, never mid-skip.
    const std::vector<Cycle> expected{300, 600, 900, 1200, 1500, 1800};
    EXPECT_EQ(sim.sampler().times(), expected);
}

TEST(FastForward, FrozenBusySystemRunsOutTheClock)
{
    // busy() stays true but every component is asleep with no wakeup
    // scheduled: both kernel modes must run to max_cycles.
    struct Stuck : Ticking {
        void tick(Cycle) override { ++ticks; }
        bool busy() const override { return true; }
        Cycle nextActiveCycle(Cycle) const override { return kNoCycle; }
        std::uint64_t ticks = 0;
    };
    Simulator sim;
    Stuck t;
    sim.addTicking(&t);
    const Cycle end = sim.run(5000);
    EXPECT_EQ(end, 5000u);
    EXPECT_FALSE(sim.finishedIdle());
    EXPECT_LE(t.ticks, 2u);
}

TEST(FastForward, HeldWorkKeepsTimersFiringAcrossEventGaps)
{
    // A never-busy component with a 100-cycle timer (like the
    // software scheduler's quantum). Work held until an event at 1000
    // keeps the system busy, so the kernel honours every timer in the
    // gap instead of jumping straight to the event; unheld, the gap is
    // skipped. Both kernel modes see the same timeline.
    struct Quantum : Ticking {
        void
        tick(Cycle now) override
        {
            if (now >= next) {
                fired.push_back(now);
                next = now + 100;
            }
        }
        bool busy() const override { return false; }
        Cycle nextActiveCycle(Cycle) const override { return next; }
        Cycle next = 0;
        std::vector<Cycle> fired;
    };
    auto firedWith = [](bool fast_forward, bool hold) {
        Simulator sim;
        sim.setFastForward(fast_forward);
        Quantum q;
        sim.addTicking(&q);
        if (hold)
            sim.holdWork();
        EXPECT_EQ(sim.anyBusy(), hold);
        sim.events().schedule(1000, [&sim, hold] {
            if (hold)
                sim.releaseWork();
        });
        sim.run(100'000);
        EXPECT_TRUE(sim.finishedIdle());
        EXPECT_FALSE(sim.anyBusy());
        return q.fired;
    };
    std::vector<Cycle> every_quantum;
    for (Cycle c = 0; c <= 1000; c += 100)
        every_quantum.push_back(c);
    EXPECT_EQ(firedWith(true, true), every_quantum);
    EXPECT_EQ(firedWith(false, true), every_quantum);
    EXPECT_EQ(firedWith(true, false), (std::vector<Cycle>{0, 1000}));
    EXPECT_EQ(firedWith(false, false), (std::vector<Cycle>{0, 1000}));
}

TEST(FastForward, WakeChainsAcrossActiveSetWordsKeepTickOrder)
{
    // 130 sleeping components span three 64-bit words of the active
    // set. Each passes a token to its neighbour from inside its tick
    // and wakes it. A component woken by a lower index is ticked in
    // the same cycle, one woken by a higher index in the next, so a
    // forward chain crosses all 130 in one cycle and a backward chain
    // advances one index per cycle. Forced mode sees the same
    // timeline.
    struct Link : Ticking {
        void
        tick(Cycle now) override
        {
            if (!token)
                return;
            token = false;
            acted = now;
            if (next) {
                next->token = true;
                sim->wake(next);
            }
        }
        bool busy() const override { return token; }
        Cycle nextActiveCycle(Cycle now) const override
        { return token ? now + 1 : kNoCycle; }
        Simulator *sim = nullptr;
        Link *next = nullptr;
        bool token = false;
        Cycle acted = kNoCycle;
    };
    constexpr std::size_t kLinks = 130;
    struct Outcome {
        std::vector<Cycle> acted;
        Cycle end;
    };
    auto chain = [](bool forward, bool fast_forward) {
        Simulator sim;
        sim.setFastForward(fast_forward);
        std::vector<Link> links(kLinks);
        for (std::size_t k = 0; k < kLinks; ++k) {
            links[k].sim = &sim;
            sim.addTicking(&links[k]);
            if (forward && k + 1 < kLinks)
                links[k].next = &links[k + 1];
            if (!forward && k > 0)
                links[k].next = &links[k - 1];
        }
        Link &head = forward ? links.front() : links.back();
        sim.events().schedule(10, [&] {
            head.token = true;
            sim.wake(&head);
        });
        Outcome out;
        out.end = sim.run(100'000);
        EXPECT_TRUE(sim.finishedIdle());
        for (const Link &l : links)
            out.acted.push_back(l.acted);
        return out;
    };

    const Outcome fwd = chain(true, true);
    EXPECT_EQ(fwd.acted, std::vector<Cycle>(kLinks, 10));
    EXPECT_EQ(fwd.end, 11u);

    const Outcome bwd = chain(false, true);
    for (std::size_t k = 0; k < kLinks; ++k)
        EXPECT_EQ(bwd.acted[k], 10 + (kLinks - 1 - k)) << "link " << k;
    EXPECT_EQ(bwd.end, 10 + kLinks);

    for (const bool forward : {true, false}) {
        const Outcome forced = chain(forward, false);
        const Outcome &ff = forward ? fwd : bwd;
        EXPECT_EQ(forced.acted, ff.acted);
        EXPECT_EQ(forced.end, ff.end);
    }
}

TEST(FastForward, WakeAccountsUpToTheTickCursor)
{
    // wake() replays a component's skipped ticks up to this cycle, or
    // through it when the component's tick for this cycle has already
    // run in tick-every-cycle order. Three sleepers record the first
    // cycle they have accounted for (ticked or replayed). An event
    // wakes all three before the tick pass of cycle 3, the middle one
    // wakes them during its tick of cycle 7 and a sampler probe after
    // the tick pass of cycle 10. Both kernel modes keep the same
    // cursor; only fast-forward has ticks to replay.
    struct Sleeper : Ticking {
        void
        tick(Cycle now) override
        {
            if (now == 7 && wakeAll)
                during = wakeAll();
            accounted = now + 1;
        }
        void skipTicks(Cycle from, Cycle n) override
        { accounted = from + n; }
        Cycle nextActiveCycle(Cycle now) const override
        { return wakeAll && now < 7 ? 7 : kNoCycle; }
        Cycle accounted = 0;
        std::function<std::vector<Cycle>()> wakeAll;
        std::vector<Cycle> during;
    };
    for (const bool fast_forward : {true, false}) {
        Simulator sim;
        sim.setFastForward(fast_forward);
        Sleeper low, mid, high;
        for (Sleeper *s : {&low, &mid, &high})
            sim.addTicking(s);
        const auto wake_all = [&] {
            std::vector<Cycle> accounted;
            for (Sleeper *s : {&low, &mid, &high}) {
                sim.wake(s);
                accounted.push_back(s->accounted);
            }
            return accounted;
        };
        mid.wakeAll = wake_all;
        std::vector<Cycle> in_event, after_pass;
        sim.events().schedule(3, [&] { in_event = wake_all(); });
        sim.sampler().setInterval(5);
        sim.sampler().addProbe("cursor", [&] {
            if (sim.now() == 10)
                after_pass = wake_all();
            return 0.0;
        });
        EXPECT_EQ(sim.run(12), 12u);
        EXPECT_EQ(in_event, (std::vector<Cycle>{3, 3, 3}));
        EXPECT_EQ(mid.during, (std::vector<Cycle>{8, 7, 7}));
        EXPECT_EQ(after_pass, (std::vector<Cycle>{11, 11, 11}));
        // Between runs no tick of now() has run yet.
        EXPECT_EQ(wake_all(), (std::vector<Cycle>{12, 12, 12}));
        Simulator other;
        other.wake(&low);
        EXPECT_EQ(low.accounted, 12u);
        if (fast_forward) {
            EXPECT_GT(sim.cyclesSkipped(), 0u);
        }
    }
}

TEST(FastForward, ReplayedSkippedTicksMatchForcedMode)
{
    // A component that counts every tick but, while it waits, does
    // nothing else: it sleeps then and skipTicks() counts the skipped
    // ticks. It is poked into one cycle of work by an event (cycle
    // 10), by a lower-index component (20) and by a higher-index one
    // (30), across run() returns. It is never busy: held work keeps
    // the run going until an event releases it at 45, so the kernel
    // jumps idle to the event at 60 that holds work again and pokes
    // it. Forced mode ticks it every cycle; both see the same work
    // cycles and tick count at every return, and neither accounts
    // for the jumped cycles.
    struct Sleeper : Ticking {
        void
        skipTicks(Cycle from, Cycle n) override
        {
            counted += n;
            skips.emplace_back(from, n);
        }
        void
        tick(Cycle now) override
        {
            ++counted;
            if (waiting)
                return;
            worked.push_back(now);
            waiting = true;
        }
        bool busy() const override { return false; }
        Cycle nextActiveCycle(Cycle now) const override
        { return waiting ? kNoCycle : now + 1; }
        void
        poke()
        {
            sim->wake(this);
            waiting = false;
        }
        Simulator *sim = nullptr;
        bool waiting = true;
        std::uint64_t counted = 0;
        std::vector<Cycle> worked;
        std::vector<std::pair<Cycle, Cycle>> skips;
    };
    struct Poker : Ticking {
        void
        tick(Cycle now) override
        {
            if (now == at)
                target->poke();
        }
        bool busy() const override { return false; }
        Cycle nextActiveCycle(Cycle now) const override
        { return at > now ? at : kNoCycle; }
        Cycle at = 0;
        Sleeper *target = nullptr;
    };
    struct Outcome {
        std::vector<std::uint64_t> counted;
        std::vector<Cycle> ends;
        std::vector<Cycle> worked;
        std::vector<std::pair<Cycle, Cycle>> skips;
        std::uint64_t skipped;
    };
    const auto run = [](bool fast_forward) {
        Simulator sim;
        sim.setFastForward(fast_forward);
        Poker low, high;
        Sleeper sleeper;
        sleeper.sim = &sim;
        low.at = 20;
        high.at = 30;
        low.target = high.target = &sleeper;
        sim.addTicking(&low);
        sim.addTicking(&sleeper);
        sim.addTicking(&high);
        sim.holdWork();
        sim.events().schedule(10, [&] { sleeper.poke(); });
        sim.events().schedule(45, [&] { sim.releaseWork(); });
        sim.events().schedule(60, [&] {
            sim.holdWork();
            sleeper.poke();
        });
        Outcome out;
        for (const Cycle n : {15, 20, 1, 100}) {
            out.ends.push_back(sim.run(n));
            out.counted.push_back(sleeper.counted);
        }
        out.worked = sleeper.worked;
        out.skips = sleeper.skips;
        out.skipped = sim.cyclesSkipped();
        return out;
    };
    const Outcome ff = run(true);
    const Outcome forced = run(false);
    EXPECT_EQ(ff.worked, (std::vector<Cycle>{10, 20, 31, 60}));
    EXPECT_EQ(ff.ends, (std::vector<Cycle>{15, 35, 36, 136}));
    // Cycles 46 to 59 are jumped: ticked in neither mode.
    EXPECT_EQ(ff.counted, (std::vector<std::uint64_t>{15, 35, 36, 122}));
    EXPECT_GT(ff.skipped, 90u); // the sleeper really slept
    EXPECT_FALSE(ff.skips.empty());
    for (const auto &[from, n] : ff.skips)
        EXPECT_TRUE(from + n <= 46 || from >= 60)
            << "replayed [" << from << ", " << from + n << ")";
    EXPECT_EQ(forced.worked, ff.worked);
    EXPECT_EQ(forced.ends, ff.ends);
    EXPECT_EQ(forced.counted, ff.counted);
    EXPECT_TRUE(forced.skips.empty());
    EXPECT_EQ(forced.skipped, 14u); // the idle jump only
}

TEST(SimulatorDeath, ReleaseWithoutHoldPanics)
{
    EXPECT_DEATH(
        {
            Simulator sim;
            sim.releaseWork();
        },
        "no work held");
}

TEST(Stats, ScalarAccumulates)
{
    StatRegistry reg;
    Scalar s(reg, "a.counter", "test");
    ++s;
    s += 4.0;
    EXPECT_DOUBLE_EQ(s.value(), 5.0);
}

TEST(Stats, AverageComputesMean)
{
    StatRegistry reg;
    Average a(reg, "a.avg", "test");
    a.sample(2.0);
    a.sample(4.0);
    a.sample(6.0);
    EXPECT_DOUBLE_EQ(a.value(), 4.0);
    EXPECT_DOUBLE_EQ(a.count(), 3.0);
}

TEST(Stats, HistogramBucketsAndMoments)
{
    StatRegistry reg;
    Histogram h(reg, "a.hist", "test", 0.0, 100.0, 10);
    for (int i = 0; i < 100; ++i)
        h.sample(static_cast<double>(i));
    EXPECT_EQ(h.count(), 100u);
    EXPECT_NEAR(h.value(), 49.5, 1e-9);
    for (std::uint64_t b : h.buckets())
        EXPECT_EQ(b, 10u);
    EXPECT_DOUBLE_EQ(h.minSample(), 0.0);
    EXPECT_DOUBLE_EQ(h.maxSample(), 99.0);
    EXPECT_NEAR(h.stddev(), 29.0115, 0.01);
}

TEST(Stats, HistogramSaturatesEdgeBuckets)
{
    StatRegistry reg;
    Histogram h(reg, "a.hist2", "test", 0.0, 10.0, 5);
    h.sample(-100.0);
    h.sample(1000.0);
    EXPECT_EQ(h.buckets().front(), 1u);
    EXPECT_EQ(h.buckets().back(), 1u);
}

TEST(Stats, RegistryLookupAndPrefix)
{
    StatRegistry reg;
    Scalar a(reg, "core0.ipc", "");
    Scalar b(reg, "core0.stalls", "");
    Scalar c(reg, "core1.ipc", "");
    EXPECT_EQ(reg.find("core0.ipc"), &a);
    EXPECT_EQ(reg.find("missing"), nullptr);
    const auto prefixed = reg.findPrefix("core0.");
    ASSERT_EQ(prefixed.size(), 2u);
    EXPECT_EQ(prefixed[0], &a);
    EXPECT_EQ(prefixed[1], &b);
    (void)c;
}

TEST(Stats, DumpContainsAllStats)
{
    StatRegistry reg;
    Scalar a(reg, "x.one", "first");
    Average b(reg, "x.two", "second");
    a += 3;
    b.sample(7);
    std::ostringstream os;
    reg.dump(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("x.one"), std::string::npos);
    EXPECT_NE(out.find("x.two"), std::string::npos);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123, 7), b(123, 7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, StreamsDiffer)
{
    Rng a(123, 1), b(123, 2);
    bool any_diff = false;
    for (int i = 0; i < 16; ++i)
        any_diff |= a.next() != b.next();
    EXPECT_TRUE(any_diff);
}

TEST(Rng, NextBelowStaysInRange)
{
    Rng r(9);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.nextBelow(17), 17u);
}

TEST(Rng, NextRangeInclusiveBounds)
{
    Rng r(10);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = r.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(11);
    for (int i = 0; i < 1000; ++i) {
        const double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, ChanceExtremes)
{
    Rng r(12);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng r(13);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += r.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(DiscreteDist, MatchesWeights)
{
    DiscreteDist d({1.0, 3.0, 6.0});
    EXPECT_NEAR(d.probability(0), 0.1, 1e-12);
    EXPECT_NEAR(d.probability(1), 0.3, 1e-12);
    EXPECT_NEAR(d.probability(2), 0.6, 1e-12);

    Rng r(14);
    std::vector<int> counts(3, 0);
    const int n = 30000;
    for (int i = 0; i < n; ++i)
        ++counts[d.sample(r)];
    EXPECT_NEAR(counts[0] / double(n), 0.1, 0.01);
    EXPECT_NEAR(counts[1] / double(n), 0.3, 0.015);
    EXPECT_NEAR(counts[2] / double(n), 0.6, 0.015);
}

TEST(DiscreteDist, CountedDrawMatchesLowerBound)
{
    // sample() counts the CDF entries below u; lower_bound over the
    // same CDF must give every draw the same index. The reference CDF
    // repeats the constructor's arithmetic, so both see the same
    // doubles, and zero weights make runs of equal entries.
    std::vector<std::vector<double>> tables = {
        {0.0, 0.0, 3.0, 0.0, 1.5, 2.0, 0.0, 0.25, 0.0, 0.0}};
    for (const auto &p : workloads::htcProfiles())
        tables.push_back(p.granularityWeights);
    for (std::size_t k = 0; k < tables.size(); ++k) {
        const std::vector<double> &weights = tables[k];
        double total = 0.0;
        for (double w : weights)
            total += w;
        std::vector<double> cdf;
        double acc = 0.0;
        for (double w : weights) {
            acc += w / total;
            cdf.push_back(acc);
        }
        cdf.back() = 1.0;

        const DiscreteDist d(weights);
        Rng draws(21, k);
        Rng ref(21, k);
        for (int i = 0; i < 100'000; ++i) {
            const double u = ref.nextDouble();
            const auto want = static_cast<std::size_t>(
                std::lower_bound(cdf.begin(), cdf.end(), u) -
                cdf.begin());
            ASSERT_EQ(d.sample(draws), want)
                << "table " << k << ", draw " << i << ", u " << u;
        }
    }
}

TEST(ZipfDist, SkewsTowardLowRanks)
{
    ZipfDist z(1000, 1.0);
    Rng r(15);
    std::uint64_t low = 0, total = 20000;
    for (std::uint64_t i = 0; i < total; ++i)
        low += z.sample(r) < 10 ? 1 : 0;
    // With s=1.0 the top-10 ranks hold ~39% of the mass.
    EXPECT_GT(static_cast<double>(low) / total, 0.3);
}

TEST(ZipfDist, UniformWhenExponentZero)
{
    ZipfDist z(10, 0.0);
    Rng r(16);
    std::vector<int> counts(10, 0);
    for (int i = 0; i < 20000; ++i)
        ++counts[z.sample(r)];
    for (int c : counts)
        EXPECT_NEAR(c / 20000.0, 0.1, 0.02);
}

// The CDF of a 7.2 MB CDN-chunk heap (64-byte chunks, s = 0.35) and
// of a 1 MB baseline heap (s = 1.1), pinned draw for draw: how the
// table is built or stored may change, the samples may not.
TEST(ZipfDist, PinnedDrawsLargeCdnTable)
{
    ZipfDist z(112500, 0.35);
    Rng r(2024);
    const std::vector<std::size_t> want = {
        78141, 36665, 28561, 46132, 105874, 12101, 39723, 31742,
        95013, 41213, 4900, 29352, 84690, 85520, 76299, 14876};
    std::vector<std::size_t> got;
    for (std::size_t i = 0; i < want.size(); ++i)
        got.push_back(z.sample(r));
    EXPECT_EQ(got, want);
    EXPECT_EQ(z.size(), 112500u);
}

TEST(ZipfDist, PinnedDrawsSkewedBaselineTable)
{
    ZipfDist z(16384, 1.1);
    Rng r(2025);
    const std::vector<std::size_t> want = {
        0, 604, 0, 1, 542, 2, 9, 2, 46, 0, 280, 5161, 2402, 7, 540, 1};
    std::vector<std::size_t> got;
    for (std::size_t i = 0; i < want.size(); ++i)
        got.push_back(z.sample(r));
    EXPECT_EQ(got, want);
}

TEST(ZipfDist, SameKeyAndCopiesDrawIdentically)
{
    ZipfDist a(5000, 0.8);
    ZipfDist b(5000, 0.8);
    const ZipfDist c = a;
    Rng ra(17), rb(17), rc(17);
    for (int i = 0; i < 200; ++i) {
        const std::size_t x = a.sample(ra);
        // Building a table under another key between draws must not
        // disturb the ones already handed out.
        if (i % 50 == 0) {
            ZipfDist other(5000 + i, 1.0);
            Rng ro(i);
            EXPECT_LT(other.sample(ro), 5000u + i);
        }
        EXPECT_EQ(b.sample(rb), x);
        EXPECT_EQ(c.sample(rc), x);
    }
    EXPECT_EQ(b.size(), a.size());
    EXPECT_EQ(c.size(), a.size());
}

TEST(ZipfDist, SingletonSupportAlwaysRankZero)
{
    for (double s : {0.0, 0.35, 1.0, 3.0}) {
        ZipfDist z(1, s);
        Rng r(18);
        for (int i = 0; i < 100; ++i)
            EXPECT_EQ(z.sample(r), 0u);
    }
}

TEST(ZipfDistDeath, RejectsNonFiniteOrNegativeExponent)
{
    // Each used to build a degenerate table that returned rank 0 on
    // every draw.
    EXPECT_DEATH(ZipfDist(100, std::numeric_limits<double>::quiet_NaN()),
                 "exponent");
    EXPECT_DEATH(ZipfDist(100, std::numeric_limits<double>::infinity()),
                 "exponent");
    EXPECT_DEATH(ZipfDist(100, -0.5), "exponent");
}

TEST(ZipfDistDeath, EmptySupportPanics)
{
    EXPECT_DEATH(ZipfDist(0, 1.0), "empty support");
    EXPECT_DEATH(
        {
            const ZipfDist z;
            Rng r(19);
            z.sample(r);
        },
        "empty support");
}

TEST(Logging, StrprintfFormats)
{
    EXPECT_EQ(strprintf("x=%d y=%s", 5, "abc"), "x=5 y=abc");
    EXPECT_EQ(strprintf("%03u", 7u), "007");
}
