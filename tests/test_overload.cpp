/**
 * @file
 * Tests of the end-to-end overload-control layer: the open-loop
 * request generator, scheduler admission + deadline-aware shedding,
 * the SLO-bounded retry driver, the baseline chip's bounded bag, and
 * the determinism contract (same seed, byte-identical stats in both
 * kernel modes; composition with fault injection stays monotone and
 * never trips the campaign watchdog).
 */
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/baseline_chip.hpp"
#include "chip/chip_config.hpp"
#include "chip/smarco_chip.hpp"
#include "fault/fault_campaign.hpp"
#include "fault/fault_spec.hpp"
#include "runtime/overload.hpp"
#include "sched/shed.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "workloads/cdn.hpp"
#include "workloads/profile.hpp"
#include "workloads/request_gen.hpp"

using namespace smarco;

namespace {

const workloads::BenchProfile &
prof()
{
    return workloads::htcProfile("wordcount");
}

workloads::TaskSpec
request(TaskId id, std::uint64_t ops, Cycle release = 0,
        Cycle deadline = kNoCycle)
{
    workloads::TaskSpec t;
    t.id = id;
    t.profile = &prof();
    t.numOps = ops;
    t.release = release;
    t.deadline = deadline;
    t.realtime = deadline != kNoCycle;
    return t;
}

} // namespace

// ------------------------------------------------- request generator

TEST(RequestGen, SameSeedSameStream)
{
    workloads::RequestGenParams gp;
    gp.count = 64;
    gp.ratePerKCycle = 2.0;
    gp.relativeDeadline = 10'000;
    gp.seed = 7;
    const auto a = makePoissonRequests(prof(), gp);
    const auto b = makePoissonRequests(prof(), gp);
    ASSERT_EQ(a.size(), 64u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_EQ(a[i].release, b[i].release);
        EXPECT_EQ(a[i].deadline, b[i].deadline);
        EXPECT_EQ(a[i].numOps, b[i].numOps);
    }
}

TEST(RequestGen, ArrivalsIncreaseAtRoughlyTheRate)
{
    workloads::RequestGenParams gp;
    gp.count = 512;
    gp.ratePerKCycle = 4.0; // mean gap 250 cycles
    gp.seed = 3;
    const auto reqs = makePoissonRequests(prof(), gp);
    Cycle prev = 0;
    double gap_sum = 0.0;
    for (const auto &r : reqs) {
        EXPECT_GT(r.release, prev);
        gap_sum += static_cast<double>(r.release - prev);
        prev = r.release;
    }
    const double mean_gap = gap_sum / 512.0;
    EXPECT_GT(mean_gap, 150.0);
    EXPECT_LT(mean_gap, 400.0);
}

TEST(RequestGen, DeadlineIsRelativeToArrival)
{
    workloads::RequestGenParams gp;
    gp.count = 32;
    gp.ratePerKCycle = 1.0;
    gp.relativeDeadline = 5'000;
    gp.realtime = true;
    gp.seed = 5;
    for (const auto &r : makePoissonRequests(prof(), gp)) {
        ASSERT_TRUE(r.hasDeadline());
        EXPECT_EQ(r.deadline, r.release + 5'000);
        EXPECT_TRUE(r.realtime);
    }
}

TEST(RequestGen, DeadlineFractionSplitsClasses)
{
    workloads::RequestGenParams gp;
    gp.count = 256;
    gp.ratePerKCycle = 1.0;
    gp.relativeDeadline = 5'000;
    gp.deadlineFraction = 0.5;
    gp.seed = 5;
    std::size_t with = 0;
    for (const auto &r : makePoissonRequests(prof(), gp))
        with += r.hasDeadline() ? 1 : 0;
    EXPECT_GT(with, 64u);
    EXPECT_LT(with, 192u);

    gp.deadlineFraction = 0.0;
    for (const auto &r : makePoissonRequests(prof(), gp)) {
        EXPECT_FALSE(r.hasDeadline());
        EXPECT_FALSE(r.realtime);
    }
}

TEST(RequestGenDeath, RejectsBadParams)
{
    workloads::RequestGenParams gp;
    gp.count = 0;
    EXPECT_DEATH(makePoissonRequests(prof(), gp), "empty");
    gp.count = 4;
    gp.ratePerKCycle = 0.0;
    EXPECT_DEATH(makePoissonRequests(prof(), gp), "positive");
}

// --------------------------------------------- admission & shedding

namespace {

struct Outcomes : workloads::RequestObserver {
    std::uint64_t completed = 0;
    std::uint64_t shed = 0;
    workloads::ShedReason lastReason = workloads::ShedReason::QueueFull;
    /** Sheds per reason, indexed by the enum value. */
    std::array<std::uint64_t, 4> byReason{};

    /** The task, observed by this record. */
    workloads::TaskSpec watch(workloads::TaskSpec task)
    {
        task.observer = this;
        return task;
    }

    void resolved(const workloads::TaskSpec &,
                  const workloads::RequestResult &res) override
    {
        if (res.completed) {
            ++completed;
        } else {
            ++shed;
            lastReason = res.reason;
            ++byReason[static_cast<std::size_t>(res.reason)];
        }
    }

    std::uint64_t shedFor(workloads::ShedReason reason) const
    { return byReason[static_cast<std::size_t>(reason)]; }
};

sched::AdmissionParams
admission(std::uint32_t cap, Cycle queued_cost = 0,
          double enter = 2.0, double exit = 0.5)
{
    sched::AdmissionParams ap;
    ap.subQueueCap = cap;
    ap.queuedCost = queued_cost;
    ap.degradedEnter = enter; // > 1 keeps degraded mode out of the way
    ap.degradedExit = exit;
    return ap;
}

} // namespace

TEST(Admission, FullQueueShedsInsteadOfFatal)
{
    Simulator sim;
    chip::SmarcoChip chip(sim, chip::ChipConfig::scaled(1, 4));
    chip.enableOverloadControl(admission(4));

    Outcomes out;
    const std::uint64_t total = 32;
    for (std::uint64_t i = 0; i < total; ++i)
        chip.submitRequest(out.watch(request(i, 50'000)));
    chip.runUntilDone(100'000'000);

    EXPECT_GT(out.shed, 0u);
    EXPECT_GT(out.completed, 0u);
    EXPECT_EQ(out.completed + out.shed, total);
    EXPECT_EQ(out.lastReason, workloads::ShedReason::QueueFull);
    EXPECT_EQ(chip.scheduler().tasksShed(), out.shed);
    EXPECT_EQ(sim.stats().get("chip.mainSched.admitted").value(),
              static_cast<double>(out.completed));
}

TEST(Admission, InfeasibleDeadlineShedsAtIngress)
{
    Simulator sim;
    chip::SmarcoChip chip(sim, chip::ChipConfig::scaled(1, 4));
    chip.enableOverloadControl(admission(16));

    Outcomes out;
    // 10k ops can never finish by cycle 100: laxity test rejects it
    // without wasting a queue slot.
    chip.submitRequest(out.watch(request(1, 10'000, 0, 100)));
    chip.runUntilDone(1'000'000);

    EXPECT_EQ(out.shed, 1u);
    EXPECT_EQ(out.completed, 0u);
    EXPECT_EQ(out.lastReason, workloads::ShedReason::Infeasible);
}

TEST(Admission, QueuedCostTightensFeasibility)
{
    // With queuedCost the feasibility test charges the backlog: a
    // deadline generous enough for an empty chip is rejected when 8
    // queued tasks are each expected to add 50k cycles of sojourn.
    Simulator sim;
    chip::SmarcoChip chip(sim, chip::ChipConfig::scaled(1, 4));
    chip.enableOverloadControl(admission(32, 50'000));

    Outcomes out;
    for (std::uint64_t i = 0; i < 8; ++i)
        chip.submitRequest(out.watch(request(i, 60'000)));
    chip.submitRequest(out.watch(request(99, 1'000, 0, 200'000)));
    chip.runUntilDone(100'000'000);

    EXPECT_EQ(out.shed, 1u);
    EXPECT_EQ(out.lastReason, workloads::ShedReason::Infeasible);
    EXPECT_EQ(out.completed, 8u);
}

TEST(Admission, QueuedRequestPastDeadlineIsDroppedEarly)
{
    Simulator sim;
    chip::SmarcoChip chip(sim, chip::ChipConfig::scaled(1, 4));
    chip.enableOverloadControl(admission(64));

    Outcomes fill, out;
    // 32 fillers with tight laxity grab every hardware context.
    for (std::uint64_t i = 0; i < 32; ++i)
        chip.submitRequest(fill.watch(request(i, 30'000, 0, 31'000)));
    // The victim passes admission (now + 1000 <= 3000) but every
    // context is held for ~30k cycles; by the first free slot its
    // deadline is history and the scheduler drops it at pop time.
    chip.submitRequest(out.watch(request(99, 1'000, 0, 3'000)));
    chip.runUntilDone(100'000'000);

    EXPECT_EQ(out.shed, 1u);
    EXPECT_EQ(out.lastReason, workloads::ShedReason::Expired);
    EXPECT_EQ(fill.completed, 32u);
    EXPECT_GT(sim.stats().get("chip.sched00.tasksExpired").value(), 0.0);
}

TEST(Admission, DegradedModeShedsBestEffortFirst)
{
    Simulator sim;
    chip::SmarcoChip chip(sim, chip::ChipConfig::scaled(1, 4));
    // Capacity is 8; degraded mode enters at load >= 2 and needs
    // load < 1 to leave (hysteresis).
    chip.enableOverloadControl(admission(8, 0, 0.25, 0.1));

    Outcomes out;
    for (std::uint64_t i = 0; i < 3; ++i)
        chip.submitRequest(
            out.watch(request(i, 100'000, 0, 10'000'000)));
    sim.run(2'000); // let the load build up

    Outcomes be, dl;
    chip.submitRequest(be.watch(request(10, 1'000)));
    chip.submitRequest(dl.watch(request(11, 1'000, 0, 10'000'000)));
    chip.runUntilDone(100'000'000);

    EXPECT_TRUE(chip.scheduler().degraded());
    EXPECT_EQ(be.shed, 1u);
    EXPECT_EQ(be.lastReason, workloads::ShedReason::Degraded);
    EXPECT_EQ(dl.completed, 1u); // deadline traffic rides through
    EXPECT_EQ(out.completed, 3u);

    // Hysteresis: once drained the next submission leaves degraded
    // mode and best-effort traffic is admitted again.
    Outcomes late;
    chip.submitRequest(late.watch(request(12, 1'000)));
    chip.runUntilDone(100'000'000);
    EXPECT_FALSE(chip.scheduler().degraded());
    EXPECT_EQ(late.completed, 1u);
}

TEST(AdmissionDeath, RejectsBadKnobs)
{
    Simulator sim;
    chip::SmarcoChip chip(sim, chip::ChipConfig::scaled(1, 4));
    EXPECT_DEATH(chip.enableOverloadControl(admission(0)), "cap");
    EXPECT_DEATH(chip.enableOverloadControl(admission(4, 0, 0.5, 0.9)),
                 "exit");
    sched::AdmissionParams over;
    over.subQueueCap = 100'000; // beyond the chain-table capacity
    EXPECT_DEATH(chip.enableOverloadControl(over), "capacity");
}

// ------------------------------------------------ SLO-bounded retry

TEST(Retry, ShedRequestsRetryAndComplete)
{
    Simulator sim;
    chip::SmarcoChip chip(sim, chip::ChipConfig::scaled(1, 4));
    chip.enableOverloadControl(admission(4));

    runtime::OverloadParams op;
    op.backoffBase = 1'000;
    op.maxRetries = 20;
    runtime::OverloadDriver driver(chip, op);

    std::vector<workloads::TaskSpec> reqs;
    for (std::uint64_t i = 0; i < 12; ++i)
        reqs.push_back(request(i, 20'000, 10 * i));
    driver.drive(reqs);
    chip.runUntilDone(100'000'000);

    EXPECT_EQ(driver.requests(), 12u);
    EXPECT_EQ(driver.completed(), 12u);
    EXPECT_EQ(driver.goodput(), 12u); // best-effort: any finish counts
    EXPECT_GT(driver.retries(), 0u);
    EXPECT_EQ(driver.expired(), 0u);
    EXPECT_EQ(driver.pending(), 0u);
    EXPECT_EQ(driver.latency().count(), 12u);
}

TEST(Retry, DeadlineCapsTheRetryBudget)
{
    Simulator sim;
    chip::SmarcoChip chip(sim, chip::ChipConfig::scaled(1, 4));
    chip.enableOverloadControl(admission(2));

    runtime::OverloadParams op;
    op.backoffBase = 2'000;
    op.maxRetries = 50;
    runtime::OverloadDriver driver(chip, op);

    std::vector<workloads::TaskSpec> reqs;
    for (std::uint64_t i = 0; i < 8; ++i)
        reqs.push_back(request(i, 20'000, 10 * i, 10 * i + 40'000));
    driver.drive(reqs);
    chip.runUntilDone(100'000'000);

    // A retry that cannot finish by the deadline is abandoned rather
    // than retried forever: every request resolves exactly once.
    EXPECT_EQ(driver.requests(), 8u);
    EXPECT_GT(driver.expired(), 0u);
    EXPECT_EQ(driver.completed() + driver.expired(), 8u);
    EXPECT_EQ(driver.completed(),
              driver.goodput() + driver.sloMisses());
    EXPECT_EQ(driver.pending(), 0u);
}

TEST(Retry, TerminalShedsAreNeverRetried)
{
    Simulator sim;
    chip::SmarcoChip chip(sim, chip::ChipConfig::scaled(1, 4));
    chip.enableOverloadControl(admission(16));

    runtime::OverloadDriver driver(chip, {});
    driver.drive({request(1, 10'000, 0, 100)}); // infeasible
    chip.runUntilDone(1'000'000);

    EXPECT_EQ(driver.expired(), 1u);
    EXPECT_EQ(driver.retries(), 0u);
    EXPECT_EQ(driver.completed(), 0u);
    EXPECT_EQ(driver.pending(), 0u);
}

// ------------------------------------------------- baseline parity

TEST(BaselineOverload, BoundedBagShedsAndRecords)
{
    Simulator sim;
    baseline::BaselineChip chip(sim, baseline::BaselineParams{});
    chip.enableAdmission(4);
    chip.spawnWorkers(2, {}, /*persistent=*/true);

    Outcomes out;
    for (std::uint64_t i = 0; i < 10; ++i)
        chip.submitRequest(out.watch(request(i, 5'000)));
    sim.run(1'000'000);

    EXPECT_EQ(out.completed, 4u);
    EXPECT_EQ(out.shed, 6u);
    EXPECT_EQ(out.shedFor(workloads::ShedReason::QueueFull), 6u);
    EXPECT_EQ(chip.tasksShed(), 6u);
    EXPECT_EQ(chip.metrics().tasksCompleted, 4u);
    const auto &lat = sim.stats().getAs<Histogram>("base.e2eLatency");
    EXPECT_EQ(lat.count(), 4u);
}

TEST(BaselineOverload, ExpiredTasksDropAtPopNotAfterService)
{
    Simulator sim;
    baseline::BaselineParams params;
    baseline::BaselineChip chip(sim, params);
    chip.enableAdmission(64);
    chip.spawnWorkers(1, {}, /*persistent=*/true);

    // The single worker is only ready after its spawn ramp; these
    // deadlines are already history by then, so the bag drops them
    // at pop time instead of burning service cycles.
    Outcomes out;
    chip.submitRequest(out.watch(request(1, 20'000)));
    for (std::uint64_t i = 2; i <= 5; ++i)
        chip.submitRequest(out.watch(
            request(i, 20'000, 0, params.threadCreateCost / 2)));
    sim.run(2'000'000);

    EXPECT_EQ(out.shed, 4u);
    EXPECT_EQ(out.shedFor(workloads::ShedReason::Expired), 4u);
    EXPECT_EQ(out.completed, 1u);
    EXPECT_EQ(chip.tasksExpired(), 4u);
    EXPECT_EQ(chip.metrics().tasksCompleted, 1u);
}

// ------------------------------------------ one request lifecycle

TEST(RequestLifecycle, RequestWithoutObserverRuns)
{
    // A null observer means no one hears the outcome: the task
    // completes and nothing is called at resolution.
    {
        Simulator sim;
        chip::SmarcoChip chip(sim, chip::ChipConfig::scaled(1, 4));
        chip.submitRequest(request(1, 5'000));
        chip.runUntilDone(10'000'000);
        EXPECT_TRUE(sim.finishedIdle());
        EXPECT_EQ(chip.metrics().tasksCompleted, 1u);
    }
    {
        Simulator sim;
        baseline::BaselineChip chip(sim, baseline::BaselineParams{});
        chip.submitRequest(request(1, 5'000));
        chip.spawnWorkers(1, {});
        sim.run(10'000'000);
        EXPECT_TRUE(sim.finishedIdle());
        EXPECT_EQ(chip.metrics().tasksCompleted, 1u);
    }
}

namespace {

/**
 * Sits between an OverloadDriver and a chip: observes every attempt,
 * counts per request id the submission attempts and the outcomes
 * they get, and forwards each outcome to the driver.
 */
struct OutcomeLedger : workloads::RequestObserver {
    struct Entry {
        std::uint32_t attempts = 0;
        std::uint32_t calls = 0;
        std::uint32_t completions = 0;
        /** Outcomes beyond one per attempt. */
        std::uint32_t repeats = 0;
    };
    std::map<TaskId, Entry> byId;
    /** Hears every outcome after the ledger; set once it exists. */
    workloads::RequestObserver *driver = nullptr;

    template <class Chip>
    runtime::OverloadDriver::SubmitFn
    wrap(Chip &chip)
    {
        return [this, &chip](const workloads::TaskSpec &task) {
            ++byId[task.id].attempts;
            auto t = task;
            t.observer = this;
            chip.submitRequest(t);
        };
    }

    void resolved(const workloads::TaskSpec &t,
                  const workloads::RequestResult &res) override
    {
        Entry &e = byId[t.id];
        // The driver retries only after an outcome, so an attempt's
        // second outcome is the one that overtakes the attempts.
        e.repeats += e.calls >= e.attempts ? 1 : 0;
        ++e.calls;
        e.completions += res.completed ? 1 : 0;
        driver->resolved(t, res);
    }

    /**
     * Check every request against its outcomes: each attempt is
     * resolved at most once, every call but a request's last leads
     * to a retry, and at most one call per request is terminal.
     * Returns the requests with a terminal call.
     */
    std::uint64_t checkResolvedOnce() const
    {
        std::uint64_t resolved = 0;
        for (const auto &[id, e] : byId) {
            EXPECT_EQ(e.repeats, 0u) << "request " << id;
            EXPECT_LE(e.completions, 1u) << "request " << id;
            // A shed either retries (one more attempt) or is
            // terminal; so terminal calls = calls - (attempts - 1).
            EXPECT_GE(e.calls + 1, e.attempts) << "request " << id;
            EXPECT_LE(e.calls, e.attempts) << "request " << id;
            resolved += e.calls == e.attempts ? 1 : 0;
        }
        return resolved;
    }
};

/** Thread kills and hangs (SmarCo contexts, baseline workers). */
fault::FaultSpec
killingFaults()
{
    fault::FaultSpec spec;
    spec.coreHangRate = 20.0;
    spec.coreKillRate = 40.0;
    spec.horizon = 600'000;
    spec.watchdogInterval = 100'000;
    spec.recovery.heartbeatInterval = 5'000;
    spec.recovery.hangTimeout = 20'000;
    spec.recovery.maxAttempts = 64;
    return spec;
}

std::vector<workloads::TaskSpec>
lifecycleStream(const workloads::BenchProfile &profile, Cycle deadline)
{
    workloads::RequestGenParams gp;
    gp.count = 64;
    gp.ratePerKCycle = 0.5;
    gp.relativeDeadline = deadline;
    gp.realtime = true;
    gp.opsOverride = 4'000;
    gp.seed = 31;
    return makePoissonRequests(profile, gp);
}

void
expectConserved(const runtime::OverloadDriver &driver,
                const OutcomeLedger &ledger)
{
    EXPECT_EQ(driver.requests(),
              driver.completed() + driver.expired() + driver.pending());
    EXPECT_EQ(driver.completed(),
              driver.goodput() + driver.sloMisses());
    std::uint64_t completions = 0;
    for (const auto &[id, e] : ledger.byId)
        completions += e.completions;
    EXPECT_EQ(completions, driver.completed());
    EXPECT_EQ(ledger.checkResolvedOnce(),
              driver.completed() + driver.expired());
}

} // namespace

TEST(RequestLifecycle, EachRequestResolvesExactlyOnceOnBothChips)
{
    const auto cdn_prof = workloads::CdnWorkload().chunkProfile(300);
    const fault::FaultSpec spec = killingFaults();
    runtime::OverloadParams op;
    op.backoffBase = 2'000;

    {
        Simulator sim;
        chip::SmarcoChip chip(sim, chip::ChipConfig::scaled(1, 4));
        chip.enableOverloadControl(admission(8, 5'000));
        OutcomeLedger ledger;
        runtime::OverloadDriver driver(sim, ledger.wrap(chip), op);
        ledger.driver = &driver;
        const auto reqs = lifecycleStream(cdn_prof, 150'000);
        driver.drive(reqs);
        fault::FaultCampaign campaign(sim, spec, 7);
        campaign.arm(chip);
        chip.runUntilDone(400'000'000);

        // Kill + re-dispatch is exercised; maxAttempts is high
        // enough that no task is abandoned.
        EXPECT_GT(sim.stats().get("chip.sched00.redispatches").value(),
                  0.0);
        EXPECT_EQ(sim.stats().get("chip.sched00.tasksAbandoned").value(),
                  0.0);
        EXPECT_GT(driver.retries(), 0u);
        EXPECT_EQ(driver.requests(), reqs.size());
        EXPECT_EQ(ledger.byId.size(), reqs.size());
        expectConserved(driver, ledger);
        EXPECT_EQ(driver.pending(), 0u);
    }
    {
        Simulator sim;
        baseline::BaselineParams params;
        baseline::BaselineChip chip(sim, params);
        chip.enableAdmission(16);
        chip.spawnWorkers(8, {}, /*persistent=*/true);
        OutcomeLedger ledger;
        runtime::OverloadDriver driver(sim, ledger.wrap(chip), op);
        ledger.driver = &driver;
        // The same arrivals, overlapping the workers' spawn ramp (the
        // campaign stops injecting once the chip goes idle), with a
        // deadline the slower baseline can mostly meet.
        const auto reqs = lifecycleStream(cdn_prof, 600'000);
        driver.drive(reqs);
        fault::FaultCampaign campaign(sim, spec, 7);
        campaign.arm(chip);
        sim.run(2'000'000);

        // bag_.push_front re-queue
        EXPECT_GT(sim.stats().get("base.workerKills").value(), 0.0);
        EXPECT_GT(driver.retries(), 0u);
        EXPECT_EQ(driver.requests(), reqs.size());
        expectConserved(driver, ledger);
        // The workers persist, but every request has resolved well
        // before the run stops.
        EXPECT_EQ(driver.pending(), 0u);
    }
}

TEST(RequestLifecycle, AbandonedTaskResolvesItsObserver)
{
    // With recovery, maxAttempts = 1 re-dispatches after the first
    // kill and abandons on the second; without it, the first kill
    // abandons the task.
    for (const bool recovery : {true, false}) {
        SCOPED_TRACE(recovery ? "recovery on" : "recovery off");
        Simulator sim;
        chip::SmarcoChip chip(sim, chip::ChipConfig::scaled(1, 4));
        chip.enableOverloadControl(admission(8));
        if (recovery) {
            sched::RecoveryParams rp;
            rp.maxAttempts = 1;
            chip.subScheduler(0).enableRecovery(rp);
        }

        struct Recorder : workloads::RequestObserver {
            std::vector<workloads::RequestResult> results;
            workloads::RequestObserver *driver = nullptr;
            void resolved(const workloads::TaskSpec &t,
                          const workloads::RequestResult &res) override
            {
                results.push_back(res);
                driver->resolved(t, res);
            }
        } recorder;
        const auto &results = recorder.results;
        runtime::OverloadDriver driver(
            sim,
            [&](const workloads::TaskSpec &task) {
                auto t = task;
                t.observer = &recorder;
                chip.submitRequest(t);
            },
            {});
        recorder.driver = &driver;
        const TaskId id = 7;
        driver.drive({request(id, 200'000)});

        // Kill the task wherever it runs (it is the chip's one live
        // context), every 10k cycles, until the sub-scheduler gives
        // it up.
        const Stat &abandoned =
            sim.stats().get("chip.sched00.tasksAbandoned");
        Rng rng(1, 0);
        std::function<void()> kill = [&]() {
            for (CoreId c = 0; c < chip.numCores(); ++c)
                chip.core(c).injectThreadFault(core::ThreadFault::Kill,
                                               rng, sim.now());
            if (abandoned.value() == 0.0)
                sim.events().schedule(sim.now() + 10'000, kill);
        };
        sim.events().schedule(10'000, kill);
        chip.runUntilDone(10'000'000);

        EXPECT_TRUE(sim.finishedIdle());
        EXPECT_EQ(sim.stats().get("chip.sched00.redispatches").value(),
                  recovery ? 1.0 : 0.0);
        EXPECT_EQ(abandoned.value(), 1.0);
        ASSERT_EQ(results.size(), 1u);
        EXPECT_FALSE(results[0].completed);
        EXPECT_EQ(results[0].reason, workloads::ShedReason::Abandoned);
        EXPECT_EQ(driver.expired(), 1u);
        EXPECT_EQ(driver.retries(), 0u);
        EXPECT_EQ(driver.shedEvents(), 0u);
        EXPECT_EQ(driver.pending(), 0u);
    }
}

TEST(RequestLifecycle, RedispatchedRequestIsTimedFromItsArrival)
{
    // Recovery re-queues a killed task with a later release; its
    // end-to-end latency still runs from the request's arrival.
    Simulator sim;
    chip::SmarcoChip chip(sim, chip::ChipConfig::scaled(1, 4));
    chip.enableOverloadControl(admission(8));
    chip.subScheduler(0).enableRecovery(sched::RecoveryParams{});

    runtime::OverloadDriver driver(chip, {});
    const TaskId id = 3;
    driver.drive({request(id, 50'000, 1'000)});
    // Kill the task wherever it runs: it is the chip's one live
    // context.
    Rng rng(1, 0);
    sim.events().schedule(20'000, [&]() {
        for (CoreId c = 0; c < chip.numCores(); ++c)
            chip.core(c).injectThreadFault(core::ThreadFault::Kill, rng,
                                           sim.now());
    });
    chip.runUntilDone(10'000'000);

    EXPECT_EQ(sim.stats().get("chip.sched00.redispatches").value(), 1.0);
    const auto &exits = chip.subScheduler(0).exits();
    ASSERT_EQ(exits.size(), 1u);
    EXPECT_EQ(driver.completed(), 1u);
    EXPECT_EQ(driver.latency().minSample(),
              static_cast<double>(exits[0].finish - 1'000));
}

TEST(RequestLifecycleDeath, DriverRejectsRepeatsAndDoubleResolution)
{
    // Two simulators: two drivers with one stat prefix collide.
    {
        Simulator sim;
        runtime::OverloadDriver driver(
            sim, [](const workloads::TaskSpec &) {}, {});
        EXPECT_DEATH(driver.drive({request(1, 1'000, 10),
                                   request(1, 1'000, 20)}),
                     "driven twice");
    }
    {
        Simulator sim;
        runtime::OverloadDriver driver(
            sim,
            [](const workloads::TaskSpec &task) {
                const workloads::TaskSpec copy = task;
                const workloads::RequestResult done{.completed = true};
                workloads::resolve(copy, done);
                workloads::resolve(copy, done);
            },
            {});
        EXPECT_DEATH(driver.drive({request(1, 1'000)}), "resolved twice");
    }
}

// --------------------------------------------------- determinism

namespace {

/**
 * A full mixed-class overload run; returns the stats JSON dump. The
 * default rate is ~11x the chip's capacity (real overload: sheds,
 * retries, expiries all exercised); pass a lower rate for runs that
 * must complete every request.
 */
std::string
overloadRun(bool fast_forward, std::uint64_t seed,
            const fault::FaultSpec *spec = nullptr, double rate = 1.5)
{
    // TaskSpec keeps a pointer to its profile; the profile must
    // outlive the whole run.
    const auto cdn_prof = workloads::CdnWorkload().chunkProfile(300);

    Simulator sim;
    sim.setFastForward(fast_forward);
    chip::SmarcoChip chip(sim, chip::ChipConfig::scaled(1, 4));
    chip.enableOverloadControl(admission(8, 5'000));

    runtime::OverloadParams op;
    op.backoffBase = 2'000;
    op.seed = seed;
    runtime::OverloadDriver deadline_class(chip, op,
                                           "runtime.overload.dl");
    op.seed = seed + 1;
    runtime::OverloadDriver best_effort(chip, op,
                                        "runtime.overload.be");

    workloads::RequestGenParams gp;
    gp.count = 48;
    gp.ratePerKCycle = rate;
    gp.relativeDeadline = 400'000;
    gp.realtime = true;
    gp.opsOverride = 4'000;
    gp.seed = seed;
    deadline_class.drive(makePoissonRequests(cdn_prof, gp));
    gp.count = 8;
    gp.ratePerKCycle = 0.25;
    gp.relativeDeadline = kNoCycle;
    gp.realtime = false;
    gp.seed = seed + 1;
    gp.firstId = 1'000'000;
    best_effort.drive(
        makePoissonRequests(workloads::htcProfile("wordcount"), gp));

    std::unique_ptr<fault::FaultCampaign> campaign;
    if (spec) {
        campaign =
            std::make_unique<fault::FaultCampaign>(sim, *spec, 23);
        campaign->arm(chip);
    }
    chip.runUntilDone(400'000'000);

    EXPECT_EQ(deadline_class.pending(), 0u);
    EXPECT_EQ(best_effort.pending(), 0u);

    std::ostringstream os;
    sim.stats().dumpJson(os);
    return os.str();
}

} // namespace

TEST(OverloadDeterminism, KernelModesAreByteIdentical)
{
    const std::string ff = overloadRun(true, 9);
    const std::string forced = overloadRun(false, 9);
    EXPECT_EQ(ff, forced)
        << "overload stats diverge between fast-forward and forced "
           "per-cycle kernels";
}

TEST(OverloadDeterminism, SameSeedSameStats)
{
    EXPECT_EQ(overloadRun(true, 9), overloadRun(true, 9));
}

TEST(OverloadDeterminism, SeedChangesTheRun)
{
    EXPECT_NE(overloadRun(true, 9), overloadRun(true, 10));
}

// ------------------------------------------- composition with faults

namespace {

fault::FaultSpec
moderateFaults()
{
    fault::FaultSpec spec;
    spec.coreHangRate = 2.0;
    spec.coreKillRate = 2.0;
    spec.dramStallRate = 1.0;
    spec.horizon = 300'000;
    spec.watchdogInterval = 100'000;
    spec.recovery.heartbeatInterval = 5'000;
    spec.recovery.hangTimeout = 20'000;
    spec.dramStallDuration = 4'000;
    spec.recovery.maxAttempts = 64;
    return spec;
}

std::uint64_t
goodputOf(const std::string &dump)
{
    // "runtime.overload.dl.goodput":{"kind":"scalar","value":N,...
    const auto key = dump.find("runtime.overload.dl.goodput");
    EXPECT_NE(key, std::string::npos);
    const auto v = dump.find("\"value\":", key);
    return std::strtoull(dump.c_str() + v + 8, nullptr, 10);
}

} // namespace

TEST(OverloadWithFaults, DegradesMonotonicallyAndNeverWedges)
{
    // The campaign watchdog aborts the process on a wedged run, so
    // merely finishing both runs proves liveness under overload +
    // faults. Run at half capacity so the clean run completes every
    // request — only then is "faults cannot raise goodput" a sound
    // monotonicity check (under heavy overload a fault-perturbed
    // schedule can luckily complete a different, larger subset).
    const double half_capacity = 0.07;
    const std::string clean =
        overloadRun(true, 13, nullptr, half_capacity);
    ASSERT_EQ(goodputOf(clean), 48u);

    const fault::FaultSpec spec = moderateFaults();
    const std::string faulted =
        overloadRun(true, 13, &spec, half_capacity);
    EXPECT_LE(goodputOf(faulted), goodputOf(clean));
}

TEST(OverloadWithFaults, FaultedRunIsStillDeterministic)
{
    const fault::FaultSpec spec = moderateFaults();
    EXPECT_EQ(overloadRun(true, 13, &spec),
              overloadRun(false, 13, &spec));
}
