#include "runtime/overload.hpp"

#include <utility>

#include "sched/shed.hpp"
#include "sim/logging.hpp"

namespace smarco::runtime {

namespace {

template <class Chip>
OverloadDriver::SubmitFn
submitTo(Chip &chip)
{
    return [&chip](const workloads::TaskSpec &task) {
        chip.submitRequest(task);
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
    open_.reserve(open_.size() + requests.size());
    for (const auto &r : requests) {
        const auto [it, fresh] = open_.try_emplace(r.id);
        if (!fresh)
            fatal("overload driver: request %llu driven twice",
                  static_cast<unsigned long long>(r.id));
        it->second.task = r;
        it->second.task.observer = this;
        it->second.arrival = r.release;
        ++requests_;
        if (r.release <= sim_.now())
            submit(r.id);
        else
            sim_.events().schedule(r.release,
                                   [this, id = r.id]() { submit(id); });
    }
}

void
OverloadDriver::submit(TaskId id)
{
    Open &o = open_.at(id);
    o.submitted = true;
    // Hand over a copy: a terminal shed at submit erases the entry.
    submit_(workloads::TaskSpec(o.task));
}

void
OverloadDriver::resolved(const workloads::TaskSpec &task,
                         const workloads::RequestResult &res)
{
    const auto it = open_.find(task.id);
    if (it == open_.end() || !it->second.submitted)
        panic("overload driver: request %llu resolved twice",
              static_cast<unsigned long long>(task.id));
    Open &o = it->second;
    o.submitted = false;
    if (res.completed) {
        ++completed_;
        e2eLatency_.sample(static_cast<double>(res.when - o.arrival));
        if (!task.hasDeadline() || res.when <= task.deadline)
            ++goodput_;
        else
            ++sloMisses_;
        open_.erase(it);
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
    if (!terminal && o.attempt < params_.maxRetries) {
        Cycle backoff = sched::boundedBackoff(
            params_.backoffBase, o.attempt, params_.backoffMax);
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
                              o.attempt + 1,
                              static_cast<unsigned long long>(backoff)));
            ++o.attempt;
            sim_.events().schedule(retry_at,
                                   [this, id = task.id]() { submit(id); });
            return;
        }
    }

    open_.erase(it);
    ++expired_;
    if (sim_.trace().enabled(TraceCat::Runtime))
        sim_.trace().instant(
            TraceCat::Runtime, "request.expire", now, 0,
            strprintf("{\"task\":%llu,\"reason\":\"%s\"}",
                      static_cast<unsigned long long>(task.id),
                      workloads::shedReasonName(res.reason)));
}

} // namespace smarco::runtime
