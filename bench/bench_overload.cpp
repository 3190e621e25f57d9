/**
 * @file
 * Overload sweep — goodput and tail latency versus offered load,
 * SmarCo versus the conventional baseline, with end-to-end overload
 * control armed (admission + deadline-aware shedding on the chip,
 * SLO-bounded retries in the driver). Not a paper figure: the paper
 * motivates SmarCo with open-loop datacenter serving (CDN, RNC) but
 * only reports closed-loop throughput; this harness checks that the
 * reproduced chip degrades gracefully when offered load exceeds
 * capacity instead of collapsing.
 *
 * Each chip is first calibrated closed-loop to find its saturation
 * rate, then swept open-loop at 0.5x..4x that rate with a mixed
 * request stream (deadline CDN-chunk traffic plus a best-effort
 * slice). Both chips are served by the same runtime::OverloadDriver,
 * so goodput, retries and latency mean the same in both tables. The
 * harness asserts the overload-control contract:
 *
 *   1. goodput plateaus — the 4x point keeps >= 90% of the peak
 *      goodput rate seen anywhere in the sweep (no congestion
 *      collapse), and
 *   2. p99 end-to-end latency of completions stays bounded by a
 *      small multiple of the request deadline (shedding, not
 *      queueing, absorbs the excess).
 *
 * Exits non-zero when either check fails.
 *
 * Usage: bench_overload [--quick]
 */
#include <algorithm>

#include "bench_util.hpp"
#include "runtime/overload.hpp"
#include "workloads/cdn.hpp"
#include "workloads/request_gen.hpp"

using namespace smarco;
using namespace smarco::bench;

namespace {

/** Work per request: enough to queue, small enough to sweep fast. */
constexpr std::uint64_t kOpsPerRequest = 4000;
/** Request deadline, in units of the calibrated per-task interval. */
constexpr Cycle kDeadlineIntervals = 48;
/** Per-point arrival stream seed (same stream, different rates). */
constexpr std::uint64_t kArrivalSeed = 11;

struct SweepPoint {
    double mult = 0.0;
    std::uint64_t requests = 0;
    std::uint64_t goodput = 0;
    std::uint64_t shed = 0;
    std::uint64_t retries = 0;
    std::uint64_t expired = 0;
    /** Goodput per kilocycle over the serving window — from the
     *  first cycle to one deadline past the last arrival (the span
     *  in which a completion can still be goodput). Dividing by the
     *  whole run would dilute overloaded points with the idle
     *  backoff/drain tail after arrivals stop. */
    double goodputRate = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
};

void
printHeader(const char *chip_name, double cap_rate, Cycle deadline)
{
    std::printf("\n%s: capacity %.3f tasks/kcycle, deadline %llu "
                "cycles\n", chip_name, cap_rate,
                static_cast<unsigned long long>(deadline));
    std::printf("%6s %9s %8s %7s %8s %8s %10s %9s %9s %9s\n", "load",
                "requests", "goodput", "shed", "retries", "expired",
                "rate", "p50", "p95", "p99");
}

void
printPoint(const SweepPoint &p)
{
    std::printf("%5.1fx %9llu %8llu %7llu %8llu %8llu %10.3f %9.0f "
                "%9.0f %9.0f\n", p.mult,
                static_cast<unsigned long long>(p.requests),
                static_cast<unsigned long long>(p.goodput),
                static_cast<unsigned long long>(p.shed),
                static_cast<unsigned long long>(p.retries),
                static_cast<unsigned long long>(p.expired),
                p.goodputRate, p.p50, p.p95, p.p99);
}

/** Check the overload-control contract over one chip's sweep. */
void
checkSweep(Checks &checks, const char *chip_name,
           const std::vector<SweepPoint> &pts, Cycle deadline)
{
    double peak = 0.0;
    const SweepPoint *worst = &pts.front();
    for (const auto &p : pts) {
        peak = std::max(peak, p.goodputRate);
        if (p.p99 > worst->p99)
            worst = &p;
    }
    const auto &last = pts.back();
    checks.check(strprintf("%s goodput at %.1fx within 10%% of peak",
                           chip_name, last.mult),
                 last.goodputRate >= 0.9 * peak,
                 strprintf("%.3f vs peak %.3f tasks/kcycle",
                           last.goodputRate, peak));
    const double p99_bound = 3.0 * static_cast<double>(deadline);
    checks.check(strprintf("%s p99 <= 3x deadline at every point",
                           chip_name),
                 worst->p99 <= p99_bound,
                 strprintf("worst %.0f at %.1fx, bound %.0f cycles",
                           worst->p99, worst->mult, p99_bound));
}

/**
 * Mixed traffic: 90% of the offered rate is deadline chunk traffic,
 * 10% a best-effort slice (what degraded mode sheds first). Kept as
 * two separate streams so the deadline class gets its own latency
 * histogram — the best-effort tail has no SLO and would otherwise
 * drown the p99 check.
 */
std::vector<workloads::TaskSpec>
makeStream(const workloads::BenchProfile &profile, std::uint64_t count,
           double rate, Cycle deadline, Cycle start, bool best_effort)
{
    workloads::RequestGenParams gp;
    gp.count = best_effort ? std::max<std::uint64_t>(1, count / 10)
                           : count - count / 10;
    gp.start = start;
    gp.ratePerKCycle =
        std::max(1e-6, best_effort ? 0.1 * rate : 0.9 * rate);
    gp.relativeDeadline = best_effort ? kNoCycle : deadline;
    gp.realtime = !best_effort;
    gp.opsOverride = kOpsPerRequest;
    gp.seed = kArrivalSeed + (best_effort ? 1 : 0);
    gp.firstId = best_effort ? 1'000'000 : 0;
    return makePoissonRequests(profile, gp);
}

// ---------------------------------------------------------------- SmarCo

/** Closed-loop saturation rate of the SmarCo config (tasks/kcycle).
 *  Fault-free even under --faults: it scales the offered-load axis,
 *  which a campaign must not move. */
double
calibrateSmarco(const chip::ChipConfig &cfg,
                const workloads::BenchProfile &profile,
                std::uint64_t count)
{
    Simulator sim;
    chip::SmarcoChip chip(sim, cfg);
    workloads::TaskSetParams tp;
    tp.count = count;
    tp.seed = 5;
    auto tasks = workloads::makeTaskSet(profile, tp);
    for (auto &t : tasks)
        t.numOps = kOpsPerRequest;
    chip.submit(tasks);
    const Cycle end = chip.runUntilDone(200'000'000);
    return static_cast<double>(count) * 1000.0 /
           static_cast<double>(end);
}

/**
 * Serve one sweep point's mixed stream on chip through one
 * OverloadDriver per traffic class, and read the point from the two
 * drivers: both chips share one definition of goodput, SLO miss,
 * retry and end-to-end latency. Arrivals start at start; run(end)
 * runs the chip, where end closes the serving window.
 */
template <class Chip, class RunFn>
SweepPoint
servePoint(Chip &chip, const workloads::BenchProfile &profile,
           std::uint64_t count, double rate, double mult,
           Cycle deadline, Cycle interval, Cycle start, RunFn run)
{
    runtime::OverloadParams op;
    op.backoffBase = std::max<Cycle>(interval, 64);
    op.backoffMax = deadline;
    op.latencyHistMax = 8.0 * static_cast<double>(deadline);
    runtime::OverloadDriver deadline_class(chip, op,
                                           "runtime.overload.dl");
    op.seed = 2;
    runtime::OverloadDriver best_effort(chip, op,
                                        "runtime.overload.be");

    const auto dl_reqs =
        makeStream(profile, count, rate, deadline, start, false);
    const auto be_reqs =
        makeStream(profile, count, rate, deadline, start, true);
    Cycle last_arrival = 0;
    for (const auto &r : dl_reqs)
        last_arrival = std::max(last_arrival, r.release);
    for (const auto &r : be_reqs)
        last_arrival = std::max(last_arrival, r.release);
    deadline_class.drive(dl_reqs);
    best_effort.drive(be_reqs);
    auto campaign = fault::armFaultsFromCli(chip.sim(), chip);
    run(last_arrival + deadline);

    SweepPoint p;
    p.mult = mult;
    p.requests = deadline_class.requests() + best_effort.requests();
    p.goodput = deadline_class.goodput() + best_effort.goodput();
    p.shed = deadline_class.shedEvents() + best_effort.shedEvents();
    p.retries = deadline_class.retries() + best_effort.retries();
    p.expired = deadline_class.expired() + best_effort.expired();
    p.goodputRate = static_cast<double>(p.goodput) * 1000.0 /
                    static_cast<double>(last_arrival + deadline - start);
    // Tail-latency contract is on the deadline class; best-effort
    // completions have no SLO.
    p.p50 = deadline_class.latency().percentile(0.50);
    p.p95 = deadline_class.latency().percentile(0.95);
    p.p99 = deadline_class.latency().percentile(0.99);
    return p;
}

SweepPoint
runSmarcoPoint(const chip::ChipConfig &cfg,
               const workloads::BenchProfile &profile,
               std::uint64_t count, double rate, double mult,
               Cycle deadline, Cycle interval)
{
    Simulator sim;
    chip::SmarcoChip chip(sim, cfg);

    sched::AdmissionParams ap;
    ap.subQueueCap = 32;
    ap.queuedCost = interval;
    chip.enableOverloadControl(ap);

    return servePoint(chip, profile, count, rate, mult, deadline,
                      interval, 0, [&chip](Cycle) {
                          chip.runUntilDone(400'000'000);
                      });
}

// -------------------------------------------------------------- baseline

/** Closed-loop saturation rate of the baseline config, fault-free
 *  like calibrateSmarco's. */
double
calibrateBaseline(const baseline::BaselineParams &params,
                  const workloads::BenchProfile &profile,
                  std::uint32_t workers, std::uint64_t count)
{
    Simulator sim;
    baseline::BaselineChip chip(sim, params);
    workloads::TaskSetParams tp;
    tp.count = count;
    tp.seed = 5;
    auto tasks = workloads::makeTaskSet(profile, tp);
    for (auto &t : tasks)
        t.numOps = kOpsPerRequest;
    chip.spawnWorkers(workers, std::move(tasks));
    const Cycle end = sim.run(400'000'000);
    return static_cast<double>(chip.metrics().tasksCompleted) * 1000.0 /
           static_cast<double>(end);
}

SweepPoint
runBaselinePoint(const baseline::BaselineParams &params,
                 const workloads::BenchProfile &profile,
                 std::uint32_t workers, std::uint64_t count,
                 double rate, double mult, Cycle deadline,
                 Cycle interval)
{
    Simulator sim;
    baseline::BaselineChip chip(sim, params);
    chip.enableAdmission(64);
    chip.spawnWorkers(workers, {}, /*persistent=*/true);

    // Arrivals start once every worker has finished its staggered
    // spawn ramp, so the measured window is all steady state.
    const Cycle start = static_cast<Cycle>(workers + 1) *
                        params.threadCreateCost;
    // Persistent workers never drain the chip, so the run stops at
    // the end of the serving window — the same span the goodput rate
    // divides by; completions past it would not be goodput anyway.
    return servePoint(chip, profile, count, rate, mult, deadline,
                      interval, start, [&sim](Cycle window_end) {
                          sim.run(window_end);
                      });
}

} // namespace

int
main(int argc, char **argv)
{
    const bool quick = parseArgs(argc, argv, "[--quick]");

    banner("overload", "goodput and tail latency versus offered load "
                       "(0.5x..4x saturation)");

    const std::vector<double> mults =
        quick ? std::vector<double>{0.5, 1.0, 4.0}
              : std::vector<double>{0.5, 1.0, 2.0, 4.0};
    // Requests offered at 1x; each point scales its count with the
    // load multiplier so every point serves the same window length
    // (a fixed count would squeeze the 4x window to a quarter and
    // bias its rate with edge effects).
    const std::uint64_t base_count = quick ? 120 : 240;
    const auto pointCount = [base_count](double m) {
        return static_cast<std::uint64_t>(
            static_cast<double>(base_count) * m);
    };

    // Request work: CDN chunk service at a mid-size connection count
    // (the paper's motivating open-loop workload), shrunk to
    // kOpsPerRequest so the sweep stays laptop-fast.
    workloads::CdnWorkload cdn;
    const auto profile = cdn.chunkProfile(300);

    Checks checks;

    // --- SmarCo ---------------------------------------------------
    const auto cfg = chip::ChipConfig::scaled(1, 4);
    const double sm_cap =
        calibrateSmarco(cfg, profile, quick ? 64 : 128);
    const Cycle sm_interval =
        static_cast<Cycle>(std::max(1.0, 1000.0 / sm_cap));
    const Cycle sm_deadline = kDeadlineIntervals * sm_interval;
    printHeader(cfg.name.c_str(), sm_cap, sm_deadline);
    std::vector<SweepPoint> sm_pts;
    for (double m : mults) {
        sm_pts.push_back(runSmarcoPoint(cfg, profile, pointCount(m),
                                        m * sm_cap, m, sm_deadline,
                                        sm_interval));
        printPoint(sm_pts.back());
    }
    checkSweep(checks, cfg.name.c_str(), sm_pts, sm_deadline);

    // --- conventional baseline ------------------------------------
    baseline::BaselineParams bp;
    const std::uint32_t workers = quick ? 8 : 16;
    const double ba_cap =
        calibrateBaseline(bp, profile, workers, quick ? 64 : 128);
    const Cycle ba_interval =
        static_cast<Cycle>(std::max(1.0, 1000.0 / ba_cap));
    const Cycle ba_deadline = kDeadlineIntervals * ba_interval;
    printHeader("baseline", ba_cap, ba_deadline);
    std::vector<SweepPoint> ba_pts;
    for (double m : mults) {
        ba_pts.push_back(runBaselinePoint(bp, profile, workers,
                                          pointCount(m), m * ba_cap,
                                          m, ba_deadline,
                                          ba_interval));
        printPoint(ba_pts.back());
    }
    checkSweep(checks, "baseline", ba_pts, ba_deadline);

    note("");
    note("shape: goodput rises with offered load until saturation,");
    note("then plateaus -- admission + deadline-aware shedding turn");
    note("the excess into shed/expired requests instead of queueing");
    note("collapse, and completion p99 stays within 3x the deadline.");
    return checks.exitCode();
}
