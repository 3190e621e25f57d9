#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "baseline/baseline_chip.hpp"
#include "chip/chip_config.hpp"
#include "chip/smarco_chip.hpp"
#include "replay.hpp"
#include "runtime/overload.hpp"
#include "sim/json_writer.hpp"
#include "sim/logging.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "workloads/cdn.hpp"
#include "workloads/profile.hpp"
#include "workloads/request_gen.hpp"
#include "workloads/task.hpp"

namespace perfbench {

using namespace smarco;

namespace {

// --- htc-dense and xeon-htc: one closed batch of the six HTC kernels ----

/** About one task per hardware thread of the 2048-thread chip. */
constexpr std::uint64_t kHtcTasksPerProfile = 342;
/** Mean micro-ops per task (each task jitters it by +/-15%). */
constexpr std::uint64_t kHtcOpsPerTask = 1000;
/** Short tasks stage a quarter of each kernel's usual input. */
constexpr std::uint64_t kHtcInputDivisor = 4;
/** Simulated cycles per timed slice (14-36 slices per run). */
constexpr Cycle kHtcSliceCycles = 10'000;
constexpr Cycle kXeonSliceCycles = 40'000;
/** Software worker threads on the conventional baseline. */
constexpr std::uint32_t kXeonThreads = 48;
/** Range of the baseline's release-to-completion histogram. */
constexpr double kXeonLatencyMax = 4'000'000.0;

// --- cdn-overload: open-loop CDN-chunk bursts on one sub-ring ------------

/** Connections whose state shapes the chunk profile (Fig. 2). */
constexpr std::uint64_t kCdnClients = 300;
/** Micro-ops of server work per chunk request. */
constexpr std::uint64_t kCdnOpsPerRequest = 1000;
/** Poisson arrival rate inside a burst: 1.2 requests per kcycle,
 *  about three times what a 1x4 chip serves. Fixed, never
 *  recalibrated. */
constexpr double kCdnRatePerKCycle = 1.2;
/** Share of requests with a deadline; the rest are best-effort. */
constexpr double kCdnDeadlineFraction = 0.9;
constexpr std::uint32_t kCdnBursts = 4;
constexpr std::uint64_t kCdnBurstRequests = 80;
/** Idle gap after a burst, drawn uniformly: long enough to drain. */
constexpr Cycle kCdnGapMin = 375'000;
constexpr Cycle kCdnGapMax = 425'000;
constexpr Cycle kCdnSliceCycles = 125'000;
/** Deadline of a deadline-class request, relative to its arrival. */
constexpr Cycle kCdnDeadline = 120'000;
/** Admission's estimate of the sojourn added per queued request. */
constexpr Cycle kCdnQueuedCost = 2'500;
/** Admission bound on queued + running requests per sub-ring. */
constexpr std::uint32_t kCdnSubQueueCap = 32;

constexpr Cycle kCycleCap = 400'000'000;
/** Set-ups per repetition (see setUp). */
constexpr int kSetupReps = 9;

/**
 * Simulate the submitted input to completion (or the cycle cap) in
 * slices of simulated time, recording each slice's host seconds.
 * Every repetition of an input cuts the same slices, so run.py can
 * compare them slice by slice. Slicing leaves the stats digest as one
 * Simulator::run call would.
 */
void
runSliced(Simulator &sim, Cycle slice, SpanLog &spans, RunResult &r)
{
    r.runS = spans.time("sim.run_s", "sim", [&]() {
        while (sim.now() < kCycleCap) {
            const double start = spans.nowUs();
            sim.run(std::min(slice, kCycleCap - sim.now()));
            r.sliceS.push_back((spans.nowUs() - start) * 1e-6);
            if (sim.finishedIdle())
                break;
        }
    });
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Nearest-rank percentile of a sorted sample. */
double
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(sorted.size())));
    return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/** Pooled mean of every Average stat with this prefix and suffix. */
double
averageOver(const StatRegistry &st, const std::string &prefix,
            const std::string &suffix)
{
    double sum = 0.0;
    double count = 0.0;
    for (Stat *s : st.findPrefix(prefix)) {
        if (!endsWith(s->name(), suffix))
            continue;
        if (auto *a = dynamic_cast<Average *>(s)) {
            sum += a->sum();
            count += a->count();
        }
    }
    return ratio(sum, count);
}

double
statValue(const StatRegistry &st, const std::string &name)
{
    const Stat *s = st.find(name);
    return s ? s->value() : 0.0;
}

double
missRate(const StatRegistry &st, const std::string &prefix,
         const std::string &cache)
{
    const double misses = st.total(prefix, cache + ".misses");
    return ratio(misses, st.total(prefix, cache + ".hits") + misses);
}

/**
 * Every per-layer metric, zero until a workload fills it: layers a
 * chip does not have report zero.
 */
std::map<std::string, double>
layerDefaults()
{
    std::map<std::string, double> m;
    for (const char *name : {
             "sim.run_s", "sim.host_ns_per_cycle",
             "sim.cycles_skipped_frac", "sim.fast_forwards",
             "sim.ns_per_event", "workloads.gen_s", "isa.ops",
             "isa.ns_per_op", "isa.run_share", "chip.build_s",
             "core.ops_committed", "core.slot_util",
             "core.stall_mem_frac", "core.starve_frac",
             "core.icache_miss_rate", "core.dcache_miss_rate",
             "noc.packets", "noc.latency_mean", "noc.sub_occupancy",
             "noc.main_occupancy", "noc.inject_rejected",
             "noc.gateway_crossings", "noc.ns_per_packet",
             "noc.run_share", "mem.requests", "mem.latency_mean",
             "mem.mact_coalesce_frac", "mem.mact_batch_size",
             "mem.dram_requests", "mem.dram_bytes_per_op",
             "mem.dram_queue_delay", "mem.dma_bytes",
             "mem.ns_per_access", "mem.run_share", "sched.submit_s",
             "sched.dispatched", "sched.queue_delay",
             "sched.deadline_misses", "sched.admitted", "sched.shed",
             "sched.degraded_entries", "runtime.requests",
             "runtime.retries", "runtime.shed", "runtime.expired",
             "runtime.slo_misses", "runtime.fail_frac",
             "baseline.ops_committed", "baseline.slot_util",
             "baseline.l1d_miss_rate", "baseline.llc_miss_rate",
             "baseline.dtlb_miss_rate", "baseline.switches",
             "baseline.dram_queue_delay", "bench.unattributed_frac"})
        m[name] = 0.0;
    return m;
}

/** Per-layer counters of a SmarCo chip run. */
void
smarcoLayers(const chip::SmarcoChip &chip, const StatRegistry &st,
             std::map<std::string, double> &m)
{
    const double ops = st.total("chip.core", ".committed");
    m["isa.ops"] = ops;
    m["core.ops_committed"] = ops;
    m["core.slot_util"] =
        ratio(st.total("chip.core", ".slotsUsed"),
              st.total("chip.core", ".slotsOffered"));
    m["core.stall_mem_frac"] =
        ratio(st.total("chip.core", ".stallsMem"), ops);
    // Starvation is counted in thread-cycles.
    m["core.starve_frac"] =
        ratio(st.total("chip.core", ".starveCycles"),
              chip.config().core.numThreads *
                  st.total("chip.core", ".cyclesActive"));
    m["core.icache_miss_rate"] = missRate(st, "chip.core", ".icache");
    m["core.dcache_miss_rate"] = missRate(st, "chip.core", ".dcache");

    m["noc.packets"] = statValue(st, "chip.noc.delivered");
    m["noc.latency_mean"] = statValue(st, "chip.noc.endToEnd");
    m["noc.sub_occupancy"] =
        averageOver(st, "chip.noc.sub", ".occupancy");
    m["noc.main_occupancy"] = statValue(st, "chip.noc.main.occupancy");
    m["noc.inject_rejected"] = statValue(st, "chip.noc.injectRejected");
    m["noc.gateway_crossings"] =
        statValue(st, "chip.noc.gatewayCrossings");

    const double collected = st.total("chip.mact", ".collected");
    m["mem.requests"] = statValue(st, "chip.memRequests");
    m["mem.latency_mean"] = statValue(st, "chip.memLatency");
    m["mem.mact_coalesce_frac"] =
        ratio(collected,
              collected + st.total("chip.mact", ".bypassed"));
    m["mem.mact_batch_size"] =
        averageOver(st, "chip.mact", ".batchSize");
    m["mem.dram_requests"] = statValue(st, "chip.dram.requests");
    m["mem.dram_bytes_per_op"] =
        ratio(statValue(st, "chip.dram.bytes"), ops);
    m["mem.dram_queue_delay"] = statValue(st, "chip.dram.queueDelay");
    m["mem.dma_bytes"] = st.total("chip.dma", ".bytes");

    m["sched.dispatched"] = st.total("chip.sched", ".dispatched");
    m["sched.queue_delay"] = averageOver(st, "chip.sched", ".queueDelay");
    m["sched.deadline_misses"] =
        st.total("chip.sched", ".deadlineMisses");
    m["sched.admitted"] = statValue(st, "chip.mainSched.admitted");
    m["sched.shed"] = statValue(st, "chip.mainSched.shedInfeasible") +
                      statValue(st, "chip.mainSched.shedQueueFull") +
                      statValue(st, "chip.mainSched.shedDegraded") +
                      st.total("chip.sched", ".shedOverflow");
    m["sched.degraded_entries"] =
        statValue(st, "chip.mainSched.degradedEntries");
}

/** Per-layer counters of a conventional-baseline run. */
void
baselineLayers(const StatRegistry &st, std::map<std::string, double> &m)
{
    const double ops = statValue(st, "base.committed");
    m["isa.ops"] = ops;
    m["mem.dram_requests"] = statValue(st, "base.dram.requests");
    m["mem.dram_bytes_per_op"] =
        ratio(statValue(st, "base.dram.bytes"), ops);
    m["mem.dram_queue_delay"] = statValue(st, "base.dram.queueDelay");
    m["baseline.ops_committed"] = ops;
    m["baseline.slot_util"] = ratio(statValue(st, "base.slotsUsed"),
                                    statValue(st, "base.slotsOffered"));
    m["baseline.l1d_miss_rate"] = missRate(st, "base.core", ".l1d");
    m["baseline.llc_miss_rate"] = missRate(st, "base.llc", "");
    m["baseline.dtlb_miss_rate"] = missRate(st, "base.core", ".dtlb");
    m["baseline.switches"] = statValue(st, "base.switches");
    m["baseline.dram_queue_delay"] = m["mem.dram_queue_delay"];
}

/**
 * Output checks shared by every workload. Each offered task or
 * request resolves exactly once, the run drains before the cycle
 * cap, every ring delivers (or suppresses as a duplicate) each
 * packet it accepted, and DRAM byte totals add up across channels.
 */
void
checkRun(Simulator &sim, const std::string &dram_prefix,
         std::uint64_t offered, std::uint64_t resolved,
         std::vector<std::string> &failures)
{
    const StatRegistry &st = sim.stats();
    if (resolved != offered)
        failures.push_back(strprintf(
            "%" PRIu64 " of %" PRIu64 " offered tasks resolved", resolved,
            offered));
    if (!sim.finishedIdle())
        failures.push_back("run hit its cycle cap before draining");
    const std::string inj = ".injected";
    for (Stat *s : st.findPrefix("chip.noc.")) {
        const std::string &n = s->name();
        if (!endsWith(n, inj))
            continue;
        const std::string ring = n.substr(0, n.size() - inj.size());
        const double injected = s->value();
        const double out = statValue(st, ring + ".delivered") +
                           statValue(st, ring + ".dupsSuppressed");
        if (injected != out)
            failures.push_back(strprintf(
                "%s: injected %.0f != delivered + dups %.0f",
                ring.c_str(), injected, out));
    }
    const double bytes = statValue(st, dram_prefix + ".bytes");
    const double per_ch = st.total(dram_prefix + ".ch", ".bytes");
    if (bytes != per_ch)
        failures.push_back(strprintf(
            "%s.bytes %.0f != channel sum %.0f", dram_prefix.c_str(),
            bytes, per_ch));
}

/**
 * Common end of every run: kernel and host-time layer metrics, the
 * stats digest, and the call counts the replay costs are scaled by.
 */
void
finishRun(RunResult &r, Simulator &sim, double ring_deliveries,
          double mem_accesses)
{
    auto &m = r.layers;
    const auto cycles = static_cast<double>(r.cycles);
    m["workloads.gen_s"] = r.genS;
    m["chip.build_s"] = r.buildS;
    m["sched.submit_s"] = r.submitS;
    m["sim.run_s"] = r.runS;
    m["sim.host_ns_per_cycle"] = ratio(r.runS * 1e9, cycles);
    m["sim.cycles_skipped_frac"] =
        ratio(static_cast<double>(sim.cyclesSkipped()), cycles);
    m["sim.fast_forwards"] = static_cast<double>(sim.fastForwards());
    r.ringDeliveries = ring_deliveries;
    r.memAccesses = mem_accesses;
    std::ostringstream os;
    sim.stats().dumpJson(os);
    r.digest = fnv1a(os.str());
}

/**
 * Estimate each replayed layer's share of the simulation's host time
 * as (host ns per call) x (calls in the real run); the rest of the
 * run is unattributed.
 */
void
attribute(RunResult &r, const ReplayCosts &c)
{
    auto &m = r.layers;
    const double run_ns = r.runS * 1e9;
    m["isa.ns_per_op"] = c.nsPerOp;
    m["noc.ns_per_packet"] = c.nsPerPacket;
    m["mem.ns_per_access"] = c.nsPerAccess;
    m["sim.ns_per_event"] = c.nsPerEvent;
    m["isa.run_share"] = ratio(c.nsPerOp * m["isa.ops"], run_ns);
    m["noc.run_share"] = ratio(c.nsPerPacket * r.ringDeliveries, run_ns);
    m["mem.run_share"] = ratio(c.nsPerAccess * r.memAccesses, run_ns);
    m["bench.unattributed_frac"] =
        1.0 - m["isa.run_share"] - m["noc.run_share"] - m["mem.run_share"];
}

/** The six HTC kernels with short tasks, owned for the run's life. */
struct HtcInput {
    std::vector<workloads::BenchProfile> profiles;
    std::vector<workloads::TaskSpec> tasks;
};

/**
 * Interleave the six kernels' task sets (task i of every kernel, then
 * task i + 1, ...), all released at cycle 0; ids are positions.
 */
void
makeHtcInput(std::uint64_t seed, HtcInput &in)
{
    in.profiles = workloads::htcProfiles();
    for (auto &p : in.profiles) {
        p.opsPerTask = kHtcOpsPerTask;
        p.taskInputBytes /= kHtcInputDivisor;
    }
    Rng rng = namedRng(seed, "perfbench.htc");
    std::vector<std::vector<workloads::TaskSpec>> sets;
    for (const auto &p : in.profiles) {
        workloads::TaskSetParams tp;
        tp.count = kHtcTasksPerProfile;
        tp.seed = rng.next();
        sets.push_back(workloads::makeTaskSet(p, tp));
    }
    in.tasks.clear();
    for (std::uint64_t i = 0; i < kHtcTasksPerProfile; ++i) {
        for (const auto &set : sets) {
            workloads::TaskSpec t = set[i];
            t.id = in.tasks.size();
            in.tasks.push_back(t);
        }
    }
}

/** Release-to-completion latencies from the sub-schedulers' exits. */
std::vector<double>
exitLatencies(chip::SmarcoChip &chip,
              const std::unordered_map<TaskId, Cycle> &release)
{
    std::vector<double> lat;
    for (std::uint32_t g = 0; g < chip.config().noc.numSubRings; ++g) {
        for (const auto &e : chip.subScheduler(g).exits()) {
            const auto it = release.find(e.taskId);
            if (it != release.end())
                lat.push_back(static_cast<double>(e.finish - it->second));
        }
    }
    std::sort(lat.begin(), lat.end());
    return lat;
}

void
setLatency(RunResult &r, const std::vector<double> &sorted)
{
    r.e2eSamples = sorted.size();
    r.e2eP50 = percentile(sorted, 0.50);
    r.e2eP99 = percentile(sorted, 0.99);
}

void
replaySmarco(RunResult &r, SpanLog &spans, chip::SmarcoChip &chip,
             const std::vector<workloads::TaskSpec> &tasks)
{
    const auto &cfg = chip.config();
    ReplayCosts c;
    spans.time("isa.replay", "isa",
               [&]() { c.nsPerOp = replayProfileStream(tasks); });
    spans.time("noc.replay", "noc", [&]() {
        c.nsPerPacket = replayRing(chip.network().subRing(0).params());
    });
    spans.time("mem.replay", "mem", [&]() {
        c.nsPerAccess = replayMemory(cfg.core.dcache, &cfg.mact, cfg.dram);
    });
    spans.time("sim.replay", "sim",
               [&]() { c.nsPerEvent = replayEventQueue(); });
    attribute(r, c);
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Set a repetition up kSetupReps times, each from scratch, and keep
 * the last. One set-up is too short to time on its own (well under a
 * millisecond on the small chip), so r gets the medians.
 */
template <typename Setup, typename Gen, typename Build, typename Submit>
std::unique_ptr<Setup>
setUp(RunResult &r, SpanLog &spans, Gen &&gen, Build &&build,
      Submit &&submit)
{
    std::vector<double> gen_s, build_s, submit_s, total_s;
    std::unique_ptr<Setup> s;
    for (int i = 0; i < kSetupReps; ++i) {
        s.reset();
        s = std::make_unique<Setup>();
        gen_s.push_back(spans.time("workloads.gen_s", "workloads",
                                   [&]() { gen(*s); }));
        build_s.push_back(
            spans.time("chip.build_s", "chip", [&]() { build(*s); }));
        submit_s.push_back(spans.time("sched.submit_s", "sched",
                                      [&]() { submit(*s); }));
        total_s.push_back(gen_s.back() + build_s.back() +
                          submit_s.back());
    }
    r.genS = median(gen_s);
    r.buildS = median(build_s);
    r.submitS = median(submit_s);
    r.setupS = median(total_s);
    return s;
}

/** A SmarCo repetition; members are destroyed driver, chip, sim. */
template <typename Input>
struct SmarcoSetup {
    Input in;
    std::unique_ptr<Simulator> sim;
    std::unique_ptr<chip::SmarcoChip> chip;
    std::unique_ptr<runtime::OverloadDriver> driver;
};

struct XeonSetup {
    HtcInput in;
    std::unique_ptr<Simulator> sim;
    std::unique_ptr<baseline::BaselineChip> chip;
};

RunResult
runHtcDense(std::uint64_t seed, SpanLog &spans, bool traced)
{
    using Setup = SmarcoSetup<HtcInput>;
    RunResult r;
    auto s = setUp<Setup>(
        r, spans, [&](Setup &x) { makeHtcInput(seed, x.in); },
        [](Setup &x) {
            x.sim = std::make_unique<Simulator>();
            x.chip = std::make_unique<chip::SmarcoChip>(
                *x.sim, chip::ChipConfig::simulated256());
        },
        [](Setup &x) { x.chip->submit(x.in.tasks); });
    Simulator &sim = *s->sim;
    runSliced(sim, kHtcSliceCycles, spans, r);

    const StatRegistry &st = sim.stats();
    std::unordered_map<TaskId, Cycle> release;
    for (const auto &t : s->in.tasks)
        release.emplace(t.id, t.release);
    setLatency(r, exitLatencies(*s->chip, release));
    const auto completed = static_cast<std::uint64_t>(
        st.total("chip.core", ".tasksFinished"));
    const auto abandoned = static_cast<std::uint64_t>(
        st.total("chip.sched", ".tasksAbandoned"));
    r.cycles = sim.now();
    r.opsCommitted =
        static_cast<std::uint64_t>(st.total("chip.core", ".committed"));
    r.offered = s->in.tasks.size();
    r.goodput = completed;
    r.failed = r.offered - std::min(r.offered, completed);
    checkRun(sim, "chip.dram", r.offered, completed + abandoned,
             r.checkFailures);
    if (r.e2eSamples != completed)
        r.checkFailures.push_back("exit records != completed tasks");

    r.layers = layerDefaults();
    smarcoLayers(*s->chip, st, r.layers);
    finishRun(r, sim, st.total("chip.noc.sub", ".delivered") +
                          statValue(st, "chip.noc.main.delivered"),
              statValue(st, "chip.memRequests"));
    if (traced)
        replaySmarco(r, spans, *s->chip, s->in.tasks);
    return r;
}

RunResult
runXeonHtc(std::uint64_t seed, SpanLog &spans, bool traced)
{
    const baseline::BaselineParams params;
    RunResult r;
    auto s = setUp<XeonSetup>(
        r, spans, [&](XeonSetup &x) { makeHtcInput(seed, x.in); },
        [&](XeonSetup &x) {
            x.sim = std::make_unique<Simulator>();
            x.chip = std::make_unique<baseline::BaselineChip>(*x.sim,
                                                              params);
            // A bag as large as the batch: nothing is refused; this
            // only records release-to-completion latency.
            x.chip->enableAdmission(
                static_cast<std::uint32_t>(x.in.tasks.size()),
                kXeonLatencyMax);
        },
        [](XeonSetup &x) {
            x.chip->spawnWorkers(kXeonThreads, x.in.tasks);
        });
    Simulator &sim = *s->sim;
    baseline::BaselineChip &chip = *s->chip;
    runSliced(sim, kXeonSliceCycles, spans, r);

    const StatRegistry &st = sim.stats();
    const auto &lat = st.getAs<Histogram>("base.e2eLatency");
    r.e2eSamples = lat.count();
    r.e2eP50 = lat.percentile(0.50);
    r.e2eP99 = lat.percentile(0.99);
    const auto completed = chip.tasksCompleted();
    r.cycles = sim.now();
    r.opsCommitted =
        static_cast<std::uint64_t>(statValue(st, "base.committed"));
    r.offered = s->in.tasks.size();
    r.goodput = completed;
    r.failed = r.offered - std::min(r.offered, completed);
    checkRun(sim, "base.dram", r.offered,
             completed + chip.tasksShed() + chip.tasksExpired(),
             r.checkFailures);

    r.layers = layerDefaults();
    baselineLayers(st, r.layers);
    finishRun(r, sim, 0.0,
              st.total("base.core", ".l1d.hits") +
                  st.total("base.core", ".l1d.misses"));
    if (traced) {
        ReplayCosts c;
        spans.time("isa.replay", "isa", [&]() {
            c.nsPerOp = replayProfileStream(s->in.tasks);
        });
        spans.time("mem.replay", "mem", [&]() {
            c.nsPerAccess = replayMemory(params.l1d, nullptr, params.dram);
        });
        spans.time("sim.replay", "sim",
                   [&]() { c.nsPerEvent = replayEventQueue(); });
        attribute(r, c);
    }
    return r;
}

/** CDN chunk requests, in seeded bursts. */
struct CdnInput {
    workloads::BenchProfile profile;
    std::vector<workloads::TaskSpec> requests;
};

/**
 * Bursts of Poisson chunk requests (the merged stream of many
 * independent clients), a kCdnDeadlineFraction share of them with a
 * deadline, separated by seeded idle gaps.
 */
void
makeCdnInput(std::uint64_t seed, CdnInput &in)
{
    in.profile = workloads::CdnWorkload().chunkProfile(kCdnClients);
    Rng rng = namedRng(seed, "perfbench.cdn");
    in.requests.clear();
    Cycle start = 0;
    for (std::uint32_t b = 0; b < kCdnBursts; ++b) {
        workloads::RequestGenParams gp;
        gp.count = kCdnBurstRequests;
        gp.start = start;
        gp.ratePerKCycle = kCdnRatePerKCycle;
        gp.relativeDeadline = kCdnDeadline;
        gp.deadlineFraction = kCdnDeadlineFraction;
        gp.realtime = true;
        gp.opsOverride = kCdnOpsPerRequest;
        gp.seed = rng.next();
        gp.firstId = in.requests.size();
        const auto burst = workloads::makePoissonRequests(in.profile, gp);
        in.requests.insert(in.requests.end(), burst.begin(), burst.end());
        start = burst.back().release + kCdnGapMin +
                rng.nextBelow(kCdnGapMax - kCdnGapMin + 1);
    }
}

RunResult
runCdnOverload(std::uint64_t seed, SpanLog &spans, bool traced)
{
    using Setup = SmarcoSetup<CdnInput>;
    RunResult r;
    auto s = setUp<Setup>(
        r, spans, [&](Setup &x) { makeCdnInput(seed, x.in); },
        [](Setup &x) {
            x.sim = std::make_unique<Simulator>();
            x.chip = std::make_unique<chip::SmarcoChip>(
                *x.sim, chip::ChipConfig::scaled(1, 4));
        },
        [&](Setup &x) {
            sched::AdmissionParams ap;
            ap.subQueueCap = kCdnSubQueueCap;
            ap.queuedCost = kCdnQueuedCost;
            x.chip->enableOverloadControl(ap);
            runtime::OverloadParams op;
            op.backoffBase = kCdnQueuedCost;
            op.backoffMax = kCdnDeadline;
            op.seed = seed;
            x.driver =
                std::make_unique<runtime::OverloadDriver>(*x.chip, op);
            x.driver->drive(x.in.requests);
        });
    Simulator &sim = *s->sim;
    const runtime::OverloadDriver &driver = *s->driver;
    runSliced(sim, kCdnSliceCycles, spans, r);

    const StatRegistry &st = sim.stats();
    std::unordered_map<TaskId, Cycle> release;
    for (const auto &t : s->in.requests)
        release.emplace(t.id, t.release);
    setLatency(r, exitLatencies(*s->chip, release));
    const auto abandoned = static_cast<std::uint64_t>(
        st.total("chip.sched", ".tasksAbandoned"));
    r.cycles = sim.now();
    r.opsCommitted =
        static_cast<std::uint64_t>(st.total("chip.core", ".committed"));
    r.offered = s->in.requests.size();
    r.goodput = driver.goodput();
    r.failed = driver.expired() + driver.pending() + abandoned;
    checkRun(sim, "chip.dram", r.offered,
             driver.completed() + driver.expired() + abandoned,
             r.checkFailures);
    if (driver.requests() != r.offered || driver.pending() != 0)
        r.checkFailures.push_back("overload driver left requests open");
    if (r.e2eSamples != driver.completed() ||
        st.total("chip.core", ".tasksFinished") !=
            static_cast<double>(driver.completed()))
        r.checkFailures.push_back(
            "chip completions != driver completions");

    r.layers = layerDefaults();
    smarcoLayers(*s->chip, st, r.layers);
    auto &m = r.layers;
    m["runtime.requests"] = static_cast<double>(driver.requests());
    m["runtime.retries"] = static_cast<double>(driver.retries());
    m["runtime.shed"] = static_cast<double>(driver.shedEvents());
    m["runtime.expired"] = static_cast<double>(driver.expired());
    m["runtime.slo_misses"] = static_cast<double>(driver.sloMisses());
    m["runtime.fail_frac"] = ratio(static_cast<double>(r.failed),
                                   static_cast<double>(r.offered));
    finishRun(r, sim, st.total("chip.noc.sub", ".delivered") +
                          statValue(st, "chip.noc.main.delivered"),
              statValue(st, "chip.memRequests"));
    if (traced)
        replaySmarco(r, spans, *s->chip, s->in.requests);
    return r;
}

} // namespace

SpanLog::SpanLog(bool enabled)
    : enabled_(enabled),
      originNs_(std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now().time_since_epoch())
                    .count())
{
}

double
SpanLog::nowUs() const
{
    const std::int64_t ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count();
    return static_cast<double>(ns - originNs_) * 1e-3;
}

bool
SpanLog::writeChromeTrace(const std::string &path,
                          const std::string &label) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    {
        TraceSink sink(os);
        sink.append(strprintf(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
            "\"tid\":0,\"args\":{\"name\":%s}}",
            json::str(label).c_str()));
        for (const Span &s : spans_)
            sink.append(strprintf(
                "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,"
                "\"tid\":0,\"ts\":%.3f,\"dur\":%.3f}",
                json::str(s.name).c_str(), json::str(s.cat).c_str(),
                s.startUs, s.durUs));
    }
    return static_cast<bool>(os);
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "htc-dense", "cdn-overload", "xeon-htc"};
    return names;
}

RunResult
runWorkload(const std::string &name, std::uint64_t seed, SpanLog &spans,
            bool traced)
{
    if (name == "htc-dense")
        return runHtcDense(seed, spans, traced);
    if (name == "cdn-overload")
        return runCdnOverload(seed, spans, traced);
    if (name == "xeon-htc")
        return runXeonHtc(seed, spans, traced);
    fatal("unknown workload '%s'", name.c_str());
}

} // namespace perfbench
