#include "sched/main_scheduler.hpp"

#include <algorithm>
#include <utility>

#include "sim/logging.hpp"

namespace smarco::sched {

using workloads::ShedReason;

MainScheduler::MainScheduler(Simulator &sim, MainSchedulerParams params,
                             Transport transport,
                             const std::string &stat_prefix)
    : sim_(sim),
      params_(params),
      transport_(std::move(transport)),
      routed_(sim.stats(), stat_prefix + ".routed",
              "tasks routed to sub-rings"),
      admitted_(sim.stats(), stat_prefix + ".admitted",
                "tasks passing admission control"),
      shedQueueFull_(sim.stats(), stat_prefix + ".shedQueueFull",
                     "tasks shed: admission queue at capacity"),
      shedInfeasible_(sim.stats(), stat_prefix + ".shedInfeasible",
                      "tasks shed: deadline infeasible at queue depth"),
      shedDegraded_(sim.stats(), stat_prefix + ".shedDegraded",
                    "best-effort tasks shed in degraded mode"),
      degradedEntries_(sim.stats(), stat_prefix + ".degradedEntries",
                       "times the scheduler entered degraded mode")
{
}

void
MainScheduler::enableAdmission(const AdmissionParams &params)
{
    if (params.subQueueCap == 0)
        fatal("MainScheduler: zero admission queue cap");
    if (params.degradedExit > params.degradedEnter)
        fatal("MainScheduler: degraded-mode exit threshold above "
              "enter threshold (hysteresis inverted)");
    admission_ = params;
    admissionOn_ = true;
}

std::uint64_t
MainScheduler::tasksShed() const
{
    return static_cast<std::uint64_t>(shedQueueFull_.value() +
                                      shedInfeasible_.value() +
                                      shedDegraded_.value());
}

void
MainScheduler::addSubScheduler(SubScheduler *sub)
{
    if (!sub)
        panic("MainScheduler: null sub-scheduler");
    subs_.push_back(sub);
}

std::uint32_t
MainScheduler::leastLoaded() const
{
    std::uint32_t best = 0;
    std::uint64_t best_load = ~std::uint64_t{0};
    for (std::uint32_t i = 0; i < subs_.size(); ++i) {
        const std::uint64_t l = subs_[i]->load();
        if (l < best_load) {
            best_load = l;
            best = i;
        }
    }
    return best;
}

void
MainScheduler::updateDegraded()
{
    std::uint64_t load = 0;
    for (const SubScheduler *s : subs_)
        load += s->load();
    const double cap = static_cast<double>(admission_.subQueueCap) *
                       static_cast<double>(subs_.size());
    const double frac = static_cast<double>(load) / cap;
    if (!degraded_ && frac >= admission_.degradedEnter) {
        degraded_ = true;
        ++degradedEntries_;
        if (sim_.trace().enabled(TraceCat::Sched))
            sim_.trace().instant(TraceCat::Sched, "degraded.enter",
                                 sim_.now());
    } else if (degraded_ && frac < admission_.degradedExit) {
        degraded_ = false;
        if (sim_.trace().enabled(TraceCat::Sched))
            sim_.trace().instant(TraceCat::Sched, "degraded.exit",
                                 sim_.now());
    }
}

bool
MainScheduler::admit(const workloads::TaskSpec &task,
                     std::uint32_t target, ShedReason &reason)
{
    // Bounded queue: even the least-loaded sub-ring is full.
    if (subs_[target]->load() >= admission_.subQueueCap) {
        reason = ShedReason::QueueFull;
        return false;
    }
    // Degraded mode sheds best-effort traffic before deadline
    // traffic; deadline/realtime requests still compete below.
    if (degraded_ && !task.hasDeadline()) {
        reason = ShedReason::Degraded;
        return false;
    }
    // Laxity feasibility: by the time the task reaches the head of
    // the target queue (estimated queuedCost cycles per task ahead)
    // and executes (~1 op/cycle, as TaskSpec::laxity assumes), the deadline
    // must still be reachable. Rejecting now lets the client retry
    // elsewhere instead of wasting chip work on a doomed request.
    const Cycle wait = admission_.queuedCost * subs_[target]->load();
    if (!task.canFinishBy(sim_.now() + wait)) {
        reason = ShedReason::Infeasible;
        return false;
    }
    return true;
}

void
MainScheduler::shed(const workloads::TaskSpec &task, ShedReason reason)
{
    switch (reason) {
      case ShedReason::QueueFull:  ++shedQueueFull_; break;
      case ShedReason::Infeasible: ++shedInfeasible_; break;
      case ShedReason::Degraded:   ++shedDegraded_; break;
      case ShedReason::Expired:    break; // sub-scheduler's counter
      case ShedReason::Abandoned:  break; // sub-scheduler's counter
    }
    if (sim_.trace().enabled(TraceCat::Sched))
        sim_.trace().instant(
            TraceCat::Sched, "shed", sim_.now(), 0,
            strprintf("{\"task\":%llu,\"reason\":\"%s\"}",
                      static_cast<unsigned long long>(task.id),
                      workloads::shedReasonName(reason)));
    workloads::resolve(task, {.when = sim_.now(), .reason = reason});
}

void
MainScheduler::route(const workloads::TaskSpec &task)
{
    if (subs_.empty())
        fatal("MainScheduler: no sub-schedulers registered");
    const std::uint32_t target = leastLoaded();
    if (admissionOn_) {
        updateDegraded();
        ShedReason reason;
        if (!admit(task, target, reason)) {
            shed(task, reason);
            return;
        }
        ++admitted_;
    }
    ++routed_;
    if (sim_.trace().enabled(TraceCat::Sched))
        sim_.trace().instant(
            TraceCat::Sched, "route", sim_.now(), target,
            strprintf("{\"task\":%llu,\"sub\":%u}",
                      static_cast<unsigned long long>(task.id),
                      target));
    transport_(target, task);
}

void
MainScheduler::submit(const workloads::TaskSpec &task)
{
    // Serialise decisions through the scheduler's own latency.
    const Cycle ready =
        std::max(std::max(task.release, sim_.now()), nextFree_);
    nextFree_ = ready + params_.decisionLatency;
    if (ready <= sim_.now()) {
        route(task);
        return;
    }
    auto t = task;
    sim_.holdWork();
    sim_.events().schedule(ready, [this, t]() {
        sim_.releaseWork();
        route(t);
    });
}

} // namespace smarco::sched
