#include "runtime/overload.hpp"

#include <algorithm>
#include <utility>

#include "sim/logging.hpp"

namespace smarco::runtime {

namespace {

template <class Chip>
OverloadDriver::SubmitFn
submitTo(Chip &chip)
{
    return [&chip](const workloads::TaskSpec &task,
                   workloads::RequestHook hook) {
        chip.submitRequest(task, std::move(hook));
    };
}

} // namespace

OverloadDriver::OverloadDriver(chip::SmarcoChip &chip,
                               OverloadParams params,
                               const std::string &stat_prefix)
    : OverloadDriver(chip.sim(), submitTo(chip), params, stat_prefix)
{
}

OverloadDriver::OverloadDriver(baseline::BaselineChip &chip,
                               OverloadParams params,
                               const std::string &stat_prefix)
    : OverloadDriver(chip.sim(), submitTo(chip), params, stat_prefix)
{
}

OverloadDriver::OverloadDriver(Simulator &sim, SubmitFn submit,
                               OverloadParams params,
                               const std::string &stat_prefix)
    : sim_(sim),
      submit_(std::move(submit)),
      params_(params),
      backoffRng_(namedRng(params.seed, "overload.backoff")),
      requests_(sim_.stats(), stat_prefix + ".requests",
                "requests driven (open loop)"),
      completed_(sim_.stats(), stat_prefix + ".completed",
                 "requests completed"),
      goodput_(sim_.stats(), stat_prefix + ".goodput",
               "completions meeting their deadline (or best-effort)"),
      sloMisses_(sim_.stats(), stat_prefix + ".sloMisses",
                 "completions past their deadline"),
      retries_(sim_.stats(), stat_prefix + ".retries",
               "shed requests resubmitted after backoff"),
      shed_(sim_.stats(), stat_prefix + ".shed",
            "shed events observed (including retried ones)"),
      expired_(sim_.stats(), stat_prefix + ".expired",
               "requests given up (deadline unreachable, retries "
               "exhausted or abandoned by fault recovery)"),
      e2eLatency_(sim_.stats(), stat_prefix + ".e2eLatency",
                  "arrival-to-completion latency of completed "
                  "requests (cycles)",
                  0.0, params.latencyHistMax, 64)
{
    if (params_.backoffBase == 0)
        fatal("overload driver: zero backoff base");
}

void
OverloadDriver::drive(const std::vector<workloads::TaskSpec> &requests)
{
    for (const auto &r : requests) {
        ++requests_;
        ++pending_;
        if (r.release <= sim_.now()) {
            submitOne(r, r.release, 0);
            continue;
        }
        auto t = r;
        sim_.events().schedule(r.release, [this, t]() {
            submitOne(t, t.release, 0);
        });
    }
}

void
OverloadDriver::submitOne(const workloads::TaskSpec &task,
                          Cycle arrival, std::uint32_t attempt)
{
    submit_(task, [this, arrival, attempt](
                      const workloads::TaskSpec &t,
                      const workloads::RequestResult &res) {
        onOutcome(t, res, arrival, attempt);
    });
}

void
OverloadDriver::onOutcome(const workloads::TaskSpec &task,
                          const workloads::RequestResult &res,
                          Cycle arrival, std::uint32_t attempt)
{
    if (res.completed) {
        --pending_;
        ++completed_;
        e2eLatency_.sample(static_cast<double>(res.when - arrival));
        if (!task.hasDeadline() || res.when <= task.deadline)
            ++goodput_;
        else
            ++sloMisses_;
        return;
    }

    // An abandoned task was not shed: fault recovery already spent
    // its attempts on the chip, so it is given up without a retry.
    const bool abandoned =
        res.reason == workloads::ShedReason::Abandoned;
    if (!abandoned)
        ++shed_;
    // Terminal sheds: the deadline is provably unreachable, so a
    // retry could only add load without ever counting as goodput.
    const bool terminal = abandoned ||
        res.reason == workloads::ShedReason::Expired ||
        res.reason == workloads::ShedReason::Infeasible;
    const Cycle now = res.when;
    if (!terminal && attempt < params_.maxRetries) {
        const std::uint32_t shift = std::min<std::uint32_t>(attempt, 20);
        Cycle backoff = std::min<Cycle>(
            params_.backoffBase << shift, params_.backoffMax);
        // Jitter decorrelates the retry herd that a synchronized
        // backoff would re-inject all at once.
        backoff += backoffRng_.nextBelow(backoff / 2 + 1);
        const Cycle retry_at = now + backoff;
        // SLO bound: never retry past the point where even an
        // immediate dispatch would miss the deadline.
        if (task.canFinishBy(retry_at)) {
            ++retries_;
            if (sim_.trace().enabled(TraceCat::Runtime))
                sim_.trace().instant(
                    TraceCat::Runtime, "request.retry", now, 0,
                    strprintf("{\"task\":%llu,\"attempt\":%u,"
                              "\"backoff\":%llu}",
                              static_cast<unsigned long long>(task.id),
                              attempt + 1,
                              static_cast<unsigned long long>(backoff)));
            auto t = task;
            sim_.events().schedule(retry_at, [this, t, arrival,
                                              attempt]() {
                submitOne(t, arrival, attempt + 1);
            });
            return;
        }
    }

    --pending_;
    ++expired_;
    if (sim_.trace().enabled(TraceCat::Runtime))
        sim_.trace().instant(
            TraceCat::Runtime, "request.expire", now, 0,
            strprintf("{\"task\":%llu,\"reason\":\"%s\"}",
                      static_cast<unsigned long long>(task.id),
                      workloads::shedReasonName(res.reason)));
}

} // namespace smarco::runtime
