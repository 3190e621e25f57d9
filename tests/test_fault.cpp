/**
 * @file
 * Tests of the fault-injection & recovery subsystem (src/fault/):
 * named RNG streams, histogram percentiles, campaign spec parsing,
 * the inert-campaign stats contract, cross-kernel-mode
 * determinism of faulted runs, recovery end-to-end, the DRAM/MACT
 * fault models and the wedge watchdog.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/baseline_chip.hpp"
#include "chip/chip_config.hpp"
#include "chip/smarco_chip.hpp"
#include "fault/fault_campaign.hpp"
#include "fault/fault_spec.hpp"
#include "mem/dram.hpp"
#include "mem/mact.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "workloads/profile.hpp"
#include "workloads/task.hpp"

using namespace smarco;

namespace {

std::string
dumpStats(Simulator &sim)
{
    std::ostringstream os;
    sim.stats().dumpJson(os);
    return os.str();
}

/**
 * One SmarCo run of a seeded task set with an optional fault
 * campaign; returns the stats dump.
 */
std::string
smarcoRun(std::uint64_t seed, bool fast_forward,
          const fault::FaultSpec *spec, std::uint64_t fault_seed = 1,
          chip::ChipMetrics *out = nullptr)
{
    Simulator sim;
    sim.setFastForward(fast_forward);
    chip::SmarcoChip chip(sim, chip::ChipConfig::scaled(2, 4));
    workloads::TaskSetParams tp;
    tp.count = 24;
    tp.seed = seed;
    tp.releaseSpan = 50'000;
    chip.submit(workloads::makeTaskSet(
        workloads::htcProfile("wordcount"), tp));
    std::unique_ptr<fault::FaultCampaign> campaign;
    if (spec) {
        campaign = std::make_unique<fault::FaultCampaign>(
            sim, *spec, fault_seed);
        campaign->arm(chip);
    }
    chip.runUntilDone(100'000'000);
    if (out)
        *out = chip.metrics();
    return dumpStats(sim);
}

void
expectIdentical(const std::string &a, const std::string &b)
{
    if (a == b) {
        SUCCEED();
        return;
    }
    std::size_t i = 0;
    while (i < a.size() && i < b.size() && a[i] == b[i])
        ++i;
    const std::size_t from = i > 40 ? i - 40 : 0;
    FAIL() << "stat dumps diverge at byte " << i << ":\n  run A: ..."
           << a.substr(from, 80) << "\n  run B: ..."
           << b.substr(from, 80);
}

/** A chip stand-in: every injection hits or none does, and progress
 *  stays at a fixed count. */
struct FakeTarget final : fault::FaultTarget {
    bool hits = false;
    std::uint64_t work = 0;

    bool inject(fault::FaultKind, Rng &, Cycle,
                const fault::FaultSpec &) override
    { return hits; }
    void armContinuous(const fault::FaultSpec &, Rng &) override {}
    std::uint64_t progress() const override { return work; }
};

} // namespace

// ---------------------------------------------------------------------
// Named RNG streams (sim/random).

TEST(NamedStreams, SameSeedSameNameSameSequence)
{
    Rng a = namedRng(7, "fault.gap.coreKill");
    Rng b = namedRng(7, "fault.gap.coreKill");
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(NamedStreams, DifferentNamesDecorrelate)
{
    Rng a = namedRng(7, "fault.gap.coreKill");
    Rng b = namedRng(7, "fault.gap.dramStall");
    int same = 0;
    for (int i = 0; i < 16; ++i)
        same += a.next() == b.next();
    EXPECT_EQ(same, 0);
    EXPECT_NE(rngStreamId("fault.gap.coreKill"),
              rngStreamId("fault.gap.dramStall"));
}

TEST(NamedStreams, SeedChangesSequence)
{
    Rng a = namedRng(7, "fault.drop");
    Rng b = namedRng(8, "fault.drop");
    EXPECT_NE(a.next(), b.next());
}

TEST(NamedStreams, StreamIdIsStable)
{
    // The id is a pure function of the name: campaign replays depend
    // on it never changing between builds.
    EXPECT_EQ(rngStreamId("fault.drop"), rngStreamId("fault.drop"));
    EXPECT_NE(rngStreamId(""), rngStreamId("fault.drop"));
}

// ---------------------------------------------------------------------
// Histogram percentiles (sim/stats).

TEST(HistogramPercentiles, UniformSamplesInterpolate)
{
    StatRegistry reg;
    Histogram h(reg, "h", "test", 0.0, 100.0, 20);
    for (int v = 0; v < 100; ++v)
        h.sample(v + 0.5);
    EXPECT_NEAR(h.percentile(0.50), 50.0, 5.0);
    EXPECT_NEAR(h.percentile(0.95), 95.0, 5.0);
    EXPECT_NEAR(h.percentile(0.99), 99.0, 5.0);
    EXPECT_LE(h.percentile(0.0), h.percentile(0.5));
    EXPECT_LE(h.percentile(0.5), h.percentile(1.0));
}

TEST(HistogramPercentiles, ClampedToObservedRange)
{
    StatRegistry reg;
    Histogram h(reg, "h", "test", 0.0, 100.0, 10);
    h.sample(42.0);
    // A single sample: every quantile is that sample, not a bucket
    // edge.
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 42.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 42.0);
    // Saturating edge bucket must not report values never sampled.
    h.sample(1e9);
    EXPECT_LE(h.percentile(1.0), 1e9);
}

TEST(HistogramPercentiles, EmptyIsZeroAndJsonHasKeys)
{
    StatRegistry reg;
    Histogram h(reg, "h", "test", 0.0, 10.0, 4);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
    std::ostringstream os;
    h.printJson(os);
    EXPECT_NE(os.str().find("\"p50\""), std::string::npos);
    EXPECT_NE(os.str().find("\"p95\""), std::string::npos);
    EXPECT_NE(os.str().find("\"p99\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Campaign spec JSON.

TEST(FaultSpecJson, ParsesNestedSpec)
{
    const char *text = R"({
        "core": {"hangRate": 2.5, "killRate": 1},
        "noc": {"dropProb": 0.125, "nackDelay": 20,
                "maxRetransmits": 6, "degradeRate": 0.5,
                "degradeFactor": 0.25, "degradeDuration": 5000,
                "dupRate": 0.75},
        "dram": {"stallRate": 3, "stallDuration": 1234},
        "mact": {"lossRate": 0.5, "recoveryLatency": 99},
        "recovery": {"heartbeatInterval": 500, "hangTimeout": 9000,
                     "backoffBase": 100, "backoffMax": 800,
                     "maxAttempts": 3},
        "campaign": {"horizon": 123456, "watchdogInterval": 7777,
                     "rateScale": 2, "rateScaleCeiling": 8}
    })";
    fault::FaultSpec spec =
        fault::FaultSpec::fromJsonText(text, "test");
    EXPECT_DOUBLE_EQ(spec.coreHangRate, 2.5);
    EXPECT_DOUBLE_EQ(spec.coreKillRate, 1.0);
    EXPECT_DOUBLE_EQ(spec.nocDropProb, 0.125);
    EXPECT_EQ(spec.nocNackDelay, 20u);
    EXPECT_EQ(spec.nocMaxRetransmits, 6u);
    EXPECT_DOUBLE_EQ(spec.nocDegradeRate, 0.5);
    EXPECT_DOUBLE_EQ(spec.nocDegradeFactor, 0.25);
    EXPECT_EQ(spec.nocDegradeDuration, 5000u);
    EXPECT_DOUBLE_EQ(spec.nocDupRate, 0.75);
    EXPECT_DOUBLE_EQ(spec.dramStallRate, 3.0);
    EXPECT_EQ(spec.dramStallDuration, 1234u);
    EXPECT_DOUBLE_EQ(spec.mactLossRate, 0.5);
    EXPECT_EQ(spec.mactRecoveryLatency, 99u);
    EXPECT_EQ(spec.recovery.heartbeatInterval, 500u);
    EXPECT_EQ(spec.recovery.hangTimeout, 9000u);
    EXPECT_EQ(spec.recovery.backoffBase, 100u);
    EXPECT_EQ(spec.recovery.backoffMax, 800u);
    EXPECT_EQ(spec.recovery.maxAttempts, 3u);
    EXPECT_EQ(spec.horizon, 123456u);
    EXPECT_EQ(spec.watchdogInterval, 7777u);
    EXPECT_DOUBLE_EQ(spec.rateScale, 2.0);
    EXPECT_DOUBLE_EQ(spec.rateScaleCeiling, 8.0);
    EXPECT_TRUE(spec.anyFaults());
}

TEST(FaultSpecJson, DefaultsAreInert)
{
    fault::FaultSpec spec = fault::FaultSpec::fromJsonText("{}", "t");
    EXPECT_FALSE(spec.anyFaults());
}

TEST(FaultSpecJson, UnknownKeysAreIgnored)
{
    fault::FaultSpec spec = fault::FaultSpec::fromJsonText(
        R"({"core": {"hangRate": 1, "frobnicate": 3}, "quux": {}})",
        "t");
    EXPECT_DOUBLE_EQ(spec.coreHangRate, 1.0);
    EXPECT_TRUE(spec.anyFaults());
}

TEST(FaultSpecJsonDeath, MalformedTextIsFatal)
{
    EXPECT_EXIT(fault::FaultSpec::fromJsonText("{\"core\": [1]}", "t"),
                ::testing::ExitedWithCode(1), "fault spec t");
    EXPECT_EXIT(fault::FaultSpec::fromJsonText("not json", "t"),
                ::testing::ExitedWithCode(1), "fault spec t");
}

TEST(FaultSpecJsonDeath, TrailingContentIsFatal)
{
    // Trailing whitespace is fine; anything else after the top-level
    // object is reported at its offset.
    EXPECT_EQ(fault::FaultSpec::fromJsonText(
                  "{\"core\": {\"hangRate\": 1}}\n  ", "t")
                  .coreHangRate,
              1.0);
    EXPECT_EXIT(fault::FaultSpec::fromJsonText(
                    "{\"core\": {\"hangRate\": 1}} trailing junk", "t"),
                ::testing::ExitedWithCode(1),
                "fault spec t: trailing content at offset 26");
    EXPECT_EXIT(fault::FaultSpec::fromJsonText("{}{}", "t"),
                ::testing::ExitedWithCode(1),
                "trailing content at offset 2");
}

TEST(FaultSpecJsonDeath, OutOfRangeDropProbIsFatal)
{
    EXPECT_EXIT(fault::FaultSpec::fromJsonText(
                    R"({"noc": {"dropProb": 1.5}})", "t"),
                ::testing::ExitedWithCode(1), "dropProb");
}

// Every number must be finite and in its field's range, checked
// before any cast to the field's integer type.

TEST(FaultSpecJsonDeath, RateOutOfRangeIsFatal)
{
    EXPECT_EXIT(fault::FaultSpec::fromJsonText(
                    R"({"core": {"hangRate": -1}})", "t"),
                ::testing::ExitedWithCode(1), "core.hangRate -1 outside");
    EXPECT_EXIT(fault::FaultSpec::fromJsonText(
                    R"({"dram": {"stallRate": inf}})", "t"),
                ::testing::ExitedWithCode(1), "dram.stallRate inf outside");
    // A NaN scale would silently make the campaign inert.
    EXPECT_EXIT(fault::FaultSpec::fromJsonText(
                    R"({"campaign": {"rateScale": nan}})", "t"),
                ::testing::ExitedWithCode(1), "campaign.rateScale nan");
}

TEST(FaultSpecJsonDeath, ProbabilityOutOfRangeIsFatal)
{
    EXPECT_EXIT(fault::FaultSpec::fromJsonText(
                    R"({"noc": {"dropProb": nan}})", "t"),
                ::testing::ExitedWithCode(1), "noc.dropProb nan outside");
}

TEST(FaultSpecJsonDeath, FactorOutOfRangeIsFatal)
{
    EXPECT_EXIT(fault::FaultSpec::fromJsonText(
                    R"({"noc": {"degradeFactor": nan}})", "t"),
                ::testing::ExitedWithCode(1),
                "noc.degradeFactor nan outside");
    EXPECT_EXIT(fault::FaultSpec::fromJsonText(
                    R"({"noc": {"degradeFactor": 0}})", "t"),
                ::testing::ExitedWithCode(1),
                "noc.degradeFactor 0 outside");
}

TEST(FaultSpecJsonDeath, CyclesOutOfRangeIsFatal)
{
    EXPECT_EXIT(fault::FaultSpec::fromJsonText(
                    R"({"campaign": {"horizon": 1e30}})", "t"),
                ::testing::ExitedWithCode(1),
                "campaign.horizon 1e\\+30 outside");
    EXPECT_EXIT(fault::FaultSpec::fromJsonText(
                    R"({"noc": {"nackDelay": -5}})", "t"),
                ::testing::ExitedWithCode(1), "noc.nackDelay -5 outside");
}

TEST(FaultSpecJsonDeath, CountOutOfRangeIsFatal)
{
    EXPECT_EXIT(fault::FaultSpec::fromJsonText(
                    R"({"recovery": {"maxAttempts": -1}})", "t"),
                ::testing::ExitedWithCode(1),
                "recovery.maxAttempts -1 outside");
    EXPECT_EXIT(fault::FaultSpec::fromJsonText(
                    R"({"noc": {"maxRetransmits": 1e12}})", "t"),
                ::testing::ExitedWithCode(1),
                "noc.maxRetransmits 1e\\+12 outside");
}

TEST(FaultSpecJson, RangeEdgesAreAccepted)
{
    const fault::FaultSpec spec = fault::FaultSpec::fromJsonText(
        R"({"noc": {"dropProb": 0, "degradeFactor": 1,
                    "maxRetransmits": 4294967295},
            "campaign": {"horizon": 9007199254740992, "rateScale": 0}})",
        "t");
    EXPECT_EQ(spec.nocDropProb, 0.0);
    EXPECT_EQ(spec.nocDegradeFactor, 1.0);
    EXPECT_EQ(spec.nocMaxRetransmits, 4294967295u);
    EXPECT_EQ(spec.horizon, Cycle{1} << 53);
    EXPECT_EQ(spec.rateScale, 0.0);
}

TEST(FaultCampaignArm, TinyRateArmsWithNoArrival)
{
    // A rate of 1e-16 per million cycles puts the mean gap near 1e22
    // cycles, past any gap cap a cycle count can hold: the gap is
    // capped at the horizon, no fault lands before it, and nothing is
    // scheduled. A usual rate schedules its first arrival.
    for (const double rate : {1e-16, 1e3}) {
        Simulator sim;
        fault::FaultSpec spec;
        spec.coreHangRate = rate;
        spec.watchdogInterval = 0; // count only arrival events
        fault::FaultCampaign campaign(sim, spec, 1);
        FakeTarget target;
        campaign.arm(target);
        EXPECT_EQ(sim.events().size(), rate < 1.0 ? 0u : 1u)
            << "rate " << rate;
    }
}

// ---------------------------------------------------------------------
// Zero-fault byte-identity and cross-mode determinism.

TEST(FaultDeterminism, InertCampaignLeavesStatsByteIdentical)
{
    // An inert campaign adds its own "fault.*" entries, all zero, and
    // leaves every other byte of the dump as a campaign-free run has
    // it. The dump holds one "name":{...} entry per line.
    fault::FaultSpec inert; // all rates zero
    EXPECT_FALSE(inert.anyFaults());
    for (const bool fast_forward : {true, false}) {
        SCOPED_TRACE(fast_forward ? "fast-forward" : "per-cycle");
        std::istringstream in(smarcoRun(7, fast_forward, &inert));
        std::string rest = "{";
        std::size_t removed = 0;
        bool first = true;
        for (std::string line; std::getline(in, line);) {
            if (line == "{" || line == "}")
                continue;
            if (line.back() == ',')
                line.pop_back();
            if (line.rfind("\"fault.", 0) == 0) {
                ++removed;
                EXPECT_NE(line.find("\"value\":0,"), std::string::npos)
                    << line;
                continue;
            }
            rest += (first ? "\n" : ",\n") + line;
            first = false;
        }
        rest += "\n}";
        // injected, noVictim, six hits.* counters and the log.
        EXPECT_EQ(removed, 9u);
        expectIdentical(smarcoRun(7, fast_forward, nullptr), rest);
    }
}

TEST(FaultDeterminism, FaultedRunSameSeedSameStats)
{
    fault::FaultSpec spec;
    spec.coreKillRate = 4.0;
    spec.dramStallRate = 4.0;
    spec.nocDegradeRate = 2.0;
    spec.nocDropProb = 0.001;
    spec.horizon = 4'000'000;
    expectIdentical(smarcoRun(7, true, &spec, 3),
                    smarcoRun(7, true, &spec, 3));
}

TEST(FaultDeterminism, FaultedRunIdenticalAcrossKernelModes)
{
    fault::FaultSpec spec;
    spec.coreKillRate = 4.0;
    spec.coreHangRate = 2.0;
    spec.dramStallRate = 4.0;
    spec.horizon = 4'000'000;
    expectIdentical(smarcoRun(11, true, &spec, 5),
                    smarcoRun(11, false, &spec, 5));
}

TEST(FaultDeterminism, FaultSeedChangesInjectionTrajectory)
{
    fault::FaultSpec spec;
    spec.coreKillRate = 8.0;
    spec.horizon = 4'000'000;
    EXPECT_NE(smarcoRun(7, true, &spec, 1),
              smarcoRun(7, true, &spec, 2));
}

// ---------------------------------------------------------------------
// Recovery end-to-end: faulted runs finish all tasks.

TEST(FaultRecovery, KilledTasksAreRedispatchedAndComplete)
{
    fault::FaultSpec spec;
    spec.coreKillRate = 20.0;
    spec.horizon = 4'000'000;
    Simulator sim;
    chip::SmarcoChip chip(sim, chip::ChipConfig::scaled(2, 4));
    workloads::TaskSetParams tp;
    tp.count = 24;
    tp.seed = 7;
    tp.releaseSpan = 50'000;
    chip.submit(workloads::makeTaskSet(
        workloads::htcProfile("wordcount"), tp));
    fault::FaultCampaign campaign(sim, spec, 3);
    campaign.arm(chip);
    chip.runUntilDone(100'000'000);
    EXPECT_EQ(chip.metrics().tasksCompleted, 24u);
    if (campaign.injected() > 0) {
        EXPECT_GT(sim.stats().total("", ".redispatches"), 0.0);
    }
}

TEST(FaultRecovery, HungTasksAreDetectedAndComplete)
{
    fault::FaultSpec spec;
    spec.coreHangRate = 20.0;
    spec.horizon = 4'000'000;
    spec.recovery.heartbeatInterval = 2'000;
    spec.recovery.hangTimeout = 20'000;
    chip::ChipMetrics m;
    smarcoRun(7, true, &spec, 3, &m);
    EXPECT_EQ(m.tasksCompleted, 24u);
}

TEST(FaultRecovery, BaselineWorkerKillsStillDrainTheBag)
{
    Simulator sim;
    baseline::BaselineParams bp;
    bp.numCores = 4;
    bp.llc = mem::CacheParams{"llc", 4 * 1024 * 1024, 16, 64, 38};
    baseline::BaselineChip chip(sim, bp);
    workloads::TaskSetParams tp;
    tp.count = 16;
    tp.seed = 3;
    chip.spawnWorkers(8, workloads::makeTaskSet(
                             workloads::htcProfile("wordcount"), tp));
    fault::FaultSpec spec;
    spec.coreKillRate = 10.0;
    spec.coreHangRate = 10.0;
    spec.horizon = 20'000'000;
    spec.recovery.heartbeatInterval = 5'000;
    spec.recovery.hangTimeout = 30'000;
    fault::FaultCampaign campaign(sim, spec, 3);
    campaign.arm(chip);
    sim.run(400'000'000);
    EXPECT_EQ(chip.metrics().tasksCompleted, 16u);
    EXPECT_GT(campaign.injected(), 0u);
}

// ---------------------------------------------------------------------
// Component fault models.

TEST(DramFault, StalledChannelServesLate)
{
    mem::DramParams params;
    Cycle clean = 0, stalled = 0;
    for (int mode = 0; mode < 2; ++mode) {
        Simulator sim;
        mem::DramController dram(sim, params, "dram");
        if (mode == 1)
            dram.stallChannel(dram.channelOf(0x40), 500, 0);
        Cycle done = 0;
        dram.setSink([&](mem::DramJob &&) { done = sim.now(); });
        dram.serve(0x40, 64, 0, mem::MemRequest{});
        sim.run(5000);
        (mode == 0 ? clean : stalled) = done;
    }
    EXPECT_GT(clean, 0u);
    EXPECT_GE(stalled, 500u);
    EXPECT_GT(stalled, clean);
}

TEST(MactFault, LostEntryIsReemittedAfterRecoveryLatency)
{
    Simulator sim;
    mem::MactParams params;
    mem::Mact mact(sim, params, "mact");
    std::vector<mem::MactBatch> batches;
    std::vector<Cycle> arrived;
    mact.setSink([&](mem::MactBatch &&b) {
        batches.push_back(std::move(b));
        arrived.push_back(sim.now());
    });
    mem::MemRequest r;
    r.id = 1;
    r.addr = 0x1000;
    r.bytes = 4;
    ASSERT_TRUE(mact.collect(r, 0));
    ASSERT_EQ(mact.occupancy(), 1u);
    ASSERT_TRUE(mact.injectEntryLoss(0, 400, 0));
    EXPECT_EQ(mact.occupancy(), 0u);
    EXPECT_EQ(sim.stats().get("mact.entriesLost").value(), 1.0);
    sim.run(2000);
    ASSERT_EQ(batches.size(), 1u);
    EXPECT_GE(arrived[0], 400u);
    ASSERT_EQ(batches[0].requests.size(), 1u);
    EXPECT_EQ(batches[0].requests[0].id, 1u);
}

TEST(MactFault, LossOnEmptyTableMisses)
{
    Simulator sim;
    mem::MactParams params;
    mem::Mact mact(sim, params, "mact");
    mact.setSink([](mem::MactBatch &&) {});
    EXPECT_FALSE(mact.injectEntryLoss(0, 400, 0));
    EXPECT_EQ(sim.stats().get("mact.entriesLost").value(), 0.0);
}

// ---------------------------------------------------------------------
// Watchdog.

namespace {

/** A component that is forever busy and never makes progress. */
struct Wedge : Ticking {
    void tick(Cycle) override {}
    bool busy() const override { return true; }
};

} // namespace

TEST(WatchdogDeath, WedgedRunAbortsWithStatsDump)
{
    EXPECT_EXIT(
        {
            Simulator sim;
            Wedge wedge;
            sim.addTicking(&wedge);
            fault::FaultSpec spec;
            spec.dramStallRate = 1.0;
            spec.horizon = 1'000'000;
            spec.watchdogInterval = 1'000;
            fault::FaultCampaign campaign(sim, spec, 1);
            FakeTarget target;
            target.work = 42;
            campaign.arm(target);
            sim.run(10'000'000);
        },
        ::testing::ExitedWithCode(1), "watchdog");
}

namespace {

/**
 * Eight serial 30,000-cycle thread creations keep a baseline chip
 * busy to cycle 240,000, long after its two short tasks are done.
 * Arms a watchdog-only campaign (its one rate too small to land a
 * fault) and reports whether the run drained.
 */
bool
baselineCreationsDrain()
{
    Simulator sim;
    baseline::BaselineParams bp;
    bp.numCores = 4;
    bp.llc = mem::CacheParams{"llc", 4 * 1024 * 1024, 16, 64, 38};
    baseline::BaselineChip chip(sim, bp);
    workloads::TaskSetParams tp;
    tp.count = 2;
    tp.seed = 3;
    auto tasks =
        workloads::makeTaskSet(workloads::htcProfile("wordcount"), tp);
    for (auto &t : tasks)
        t.numOps = 2'000;
    chip.spawnWorkers(8, std::move(tasks));
    fault::FaultSpec spec;
    spec.dramStallRate = 1e-6;
    spec.watchdogInterval = 40'000;
    fault::FaultCampaign campaign(sim, spec, 1);
    campaign.arm(chip);
    sim.run(10'000'000);
    return chip.metrics().tasksCompleted == 2 && !sim.anyBusy() &&
           sim.now() >= 240'000;
}

} // namespace

TEST(WatchdogDeath, BaselineCreationsOutlastingTasksDrain)
{
    // Each creation is progress, so the watchdog lets the run drain.
    // Run in a child: an abort must fail the test, not end the binary.
    EXPECT_EXIT(std::exit(baselineCreationsDrain() ? 0 : 3),
                ::testing::ExitedWithCode(0), "");
}

// ---------------------------------------------------------------------
// Campaign bookkeeping.

TEST(Campaign, InjectionsAreCountedAndLogged)
{
    fault::FaultSpec spec;
    // High enough that arrivals land inside the ~200k-cycle run.
    spec.dramStallRate = 100.0;
    spec.horizon = 2'000'000;
    Simulator sim;
    chip::SmarcoChip chip(sim, chip::ChipConfig::scaled(2, 4));
    workloads::TaskSetParams tp;
    tp.count = 24;
    tp.seed = 7;
    tp.releaseSpan = 50'000;
    chip.submit(workloads::makeTaskSet(
        workloads::htcProfile("wordcount"), tp));
    fault::FaultCampaign campaign(sim, spec, 1);
    campaign.arm(chip);
    chip.runUntilDone(100'000'000);
    EXPECT_GT(campaign.injected(), 0u);
    EXPECT_EQ(campaign.log().records().size(), campaign.injected());
    const std::string dump = dumpStats(sim);
    EXPECT_NE(dump.find("\"fault.injected\""), std::string::npos);
    EXPECT_NE(dump.find("\"fault.log\""), std::string::npos);
    EXPECT_NE(dump.find("\"faultlog\""), std::string::npos);
}

TEST(Campaign, RateScaleThinningNestsAcceptedSets)
{
    // The sweep invariant: the faults injected at a lower rateScale
    // are a subset of those at a higher one (same seed, same
    // ceiling), which is what makes degradation curves monotone in
    // expectation rather than re-rolled noise.
    auto cyclesAt = [](double scale) {
        fault::FaultSpec spec;
        spec.dramStallRate = 10.0;
        spec.horizon = 2'000'000;
        spec.rateScale = scale;
        spec.rateScaleCeiling = 4.0;
        Simulator sim;
        Wedge wedge;
        sim.addTicking(&wedge);
        spec.watchdogInterval = 0; // no watchdog: wedge is the clock
        fault::FaultCampaign campaign(sim, spec, 9);
        FakeTarget target;
        target.hits = true;
        campaign.arm(target);
        sim.run(2'100'000);
        std::vector<Cycle> cycles;
        for (const auto &rec : campaign.log().records())
            cycles.push_back(rec.cycle);
        return cycles;
    };
    const std::vector<Cycle> low = cyclesAt(1.0);
    const std::vector<Cycle> high = cyclesAt(4.0);
    EXPECT_GT(low.size(), 0u);
    EXPECT_GT(high.size(), low.size());
    for (Cycle c : low)
        EXPECT_NE(std::find(high.begin(), high.end(), c), high.end())
            << "fault at cycle " << c
            << " vanished at the higher rate";
}
