/**
 * @file
 * SLO-bounded request driver: the client side of overload control.
 *
 * The OverloadDriver plays the role of the serving tier in front of
 * either chip — SmarCo or the conventional baseline — through the
 * same submitRequest(task) call, so goodput, SLO misses,
 * retries and end-to-end latency are defined once for both. It
 * submits an open-loop request stream (see workloads/request_gen.hpp)
 * at each request's arrival cycle, and when the chip's admission
 * control sheds a request it retries with bounded exponential
 * backoff — capped by the request's own deadline, so a retry that
 * could no longer meet the SLO is given up instead of adding load.
 * Each request ends in one state: completed (and either met its
 * deadline — goodput — or missed it), expired (shed terminally /
 * retries exhausted / deadline unreachable / abandoned by fault
 * recovery), or pending while it is
 * still queued or running when the run stops. So requests() always
 * equals completed() + expired() + pending(), and completed() equals
 * goodput() + sloMisses().
 *
 * Backoff jitter draws from the named "overload.backoff" stream, so
 * driving a run never perturbs workload, scheduler, or fault draws,
 * and the same seed replays byte-identically in both kernel modes.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "baseline/baseline_chip.hpp"
#include "chip/smarco_chip.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "workloads/task.hpp"

namespace smarco::runtime {

/** Retry/backoff knobs of the request driver. */
struct OverloadParams {
    /** Retry backoff: sched::boundedBackoff(base, attempt, max)
     *  plus jitter. */
    Cycle backoffBase = 2'000;
    Cycle backoffMax = 64'000;
    /** Retries per request after which it is given up. */
    std::uint32_t maxRetries = 8;
    /** Seed of the "overload.backoff" jitter stream. */
    std::uint64_t seed = 1;
    /** End-to-end latency histogram range (cycles); 64 buckets. */
    double latencyHistMax = 4'000'000.0;
};

/**
 * The driver. Construct against a chip with overload control
 * enabled (SmarcoChip::enableOverloadControl or
 * BaselineChip::enableAdmission), drive() a pre-generated request
 * stream, run the simulator, then read the lifecycle stats.
 */
class OverloadDriver : public workloads::RequestObserver
{
  public:
    OverloadDriver(chip::SmarcoChip &chip, OverloadParams params,
                   const std::string &stat_prefix = "runtime.overload");
    OverloadDriver(baseline::BaselineChip &chip, OverloadParams params,
                   const std::string &stat_prefix = "runtime.overload");

    /** A chip's submitRequest(task). */
    using SubmitFn = std::function<void(const workloads::TaskSpec &)>;
    /** Drive any submit surface, e.g. a chip behind an observer. */
    OverloadDriver(Simulator &sim, SubmitFn submit,
                   OverloadParams params,
                   const std::string &stat_prefix = "runtime.overload");

    /**
     * Schedule open-loop submission of every request at its release
     * cycle. May be called repeatedly (e.g. one call per traffic
     * class); driving an id that is still open is fatal.
     */
    void drive(const std::vector<workloads::TaskSpec> &requests);

    /** The driver observes every task it submits: count an attempt's
     *  outcome, or retry. A second outcome of one attempt panics. */
    void resolved(const workloads::TaskSpec &task,
                  const workloads::RequestResult &res) override;

    std::uint64_t requests() const
    { return static_cast<std::uint64_t>(requests_.value()); }
    std::uint64_t completed() const
    { return static_cast<std::uint64_t>(completed_.value()); }
    /** Completions that met their deadline (or had none). */
    std::uint64_t goodput() const
    { return static_cast<std::uint64_t>(goodput_.value()); }
    std::uint64_t sloMisses() const
    { return static_cast<std::uint64_t>(sloMisses_.value()); }
    std::uint64_t retries() const
    { return static_cast<std::uint64_t>(retries_.value()); }
    std::uint64_t shedEvents() const
    { return static_cast<std::uint64_t>(shed_.value()); }
    /** Requests given up: terminally shed, retries exhausted or
     *  abandoned by fault recovery. */
    std::uint64_t expired() const
    { return static_cast<std::uint64_t>(expired_.value()); }
    /** Requests submitted but not yet resolved. */
    std::uint64_t pending() const { return open_.size(); }

    const Histogram &latency() const { return e2eLatency_; }

  private:
    /** An open request: the task as driven (observed by this driver),
     *  its arrival, its retries and whether an attempt is at the chip. */
    struct Open {
        workloads::TaskSpec task;
        Cycle arrival = 0;
        std::uint32_t attempt = 0;
        bool submitted = false;
    };

    /** Hand the open request id to the chip for its next attempt. */
    void submit(TaskId id);

    Simulator &sim_;
    SubmitFn submit_;
    OverloadParams params_;
    Rng backoffRng_;
    std::unordered_map<TaskId, Open> open_;

    Scalar requests_;
    Scalar completed_;
    Scalar goodput_;
    Scalar sloMisses_;
    Scalar retries_;
    Scalar shed_;
    Scalar expired_;
    Histogram e2eLatency_;
};

} // namespace smarco::runtime
