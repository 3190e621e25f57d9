#include "sched/sub_scheduler.hpp"

#include <algorithm>
#include <utility>

#include "sim/logging.hpp"

namespace smarco::sched {

SubScheduler::SubScheduler(Simulator &sim, SubSchedulerParams params,
                           std::uint32_t sub_ring_id,
                           StreamFactory make_stream, StageFn stage,
                           const std::string &stat_prefix)
    : sim_(sim),
      params_(params),
      id_(sub_ring_id),
      table_(params.chainCapacity),
      makeStream_(std::move(make_stream)),
      stage_(std::move(stage)),
      submitted_(sim.stats(), stat_prefix + ".submitted",
                 "tasks submitted to this sub-scheduler"),
      dispatched_(sim.stats(), stat_prefix + ".dispatched",
                  "tasks dispatched to cores"),
      misses_(sim.stats(), stat_prefix + ".deadlineMisses",
              "tasks finishing past their deadline"),
      redispatches_(sim.stats(), stat_prefix + ".redispatches",
                    "failed tasks dispatched again (recovery)"),
      hangKills_(sim.stats(), stat_prefix + ".hangKills",
                 "hung tasks killed by the heartbeat scan"),
      tasksAbandoned_(sim.stats(), stat_prefix + ".tasksAbandoned",
                      "failed tasks given up on"),
      queueDelay_(sim.stats(), stat_prefix + ".queueDelay",
                  "mean cycles from release to dispatch"),
      redispatchDelay_(sim.stats(), stat_prefix + ".redispatchDelay",
                       "cycles from task failure to re-dispatch",
                       0.0, 131072.0, 64),
      expired_(sim.stats(), stat_prefix + ".tasksExpired",
               "queued tasks dropped: deadline became unreachable"),
      shedOverflow_(sim.stats(), stat_prefix + ".shedOverflow",
                    "tasks shed on chain-table overflow")
{
    sim.addTicking(this);
}

void
SubScheduler::enableShedding()
{
    sim_.wake(this);
    sheddingOn_ = true;
}

void
SubScheduler::addCore(core::TcgCore *core)
{
    if (!core)
        panic("SubScheduler %u: null core", id_);
    sim_.wake(this);
    cores_.push_back(core);
    reserved_.push_back(0);
    core->setExitHandler(
        [this](std::uint32_t ticket, Cycle when, bool finished) {
            onTaskExit(ticket, when, finished);
        });
}

void
SubScheduler::enableRecovery(const RecoveryParams &params)
{
    if (params.heartbeatInterval == 0 || params.hangTimeout == 0)
        fatal("sub-scheduler %u: zero recovery interval", id_);
    sim_.wake(this);
    recovery_ = params;
    recoveryOn_ = true;
}

void
SubScheduler::submit(const workloads::TaskSpec &task)
{
    ++submitted_;
    if (!table_.insert(task)) {
        if (sheddingOn_) {
            // Overflow becomes back-pressure instead of a crash: the
            // runtime retries the request with bounded backoff.
            ++shedOverflow_;
            workloads::resolve(
                task, {.when = sim_.now(),
                       .reason = workloads::ShedReason::QueueFull});
            return;
        }
        fatal("sub-scheduler %u: chain table overflow (capacity %u)",
              id_, table_.capacity());
    }
    sim_.wake(this);
}

void
SubScheduler::dropExpired(const workloads::TaskSpec &task, Cycle now)
{
    ++expired_;
    if (sim_.trace().enabled(TraceCat::Sched))
        sim_.trace().instant(
            TraceCat::Sched, "expire", now, 0,
            strprintf("{\"task\":%llu}",
                      static_cast<unsigned long long>(task.id)));
    workloads::resolve(task, {.when = now,
                              .reason = workloads::ShedReason::Expired});
}

std::int32_t
SubScheduler::pickCore() const
{
    std::int32_t best = -1;
    std::uint32_t best_free = 0;
    for (std::uint32_t i = 0; i < cores_.size(); ++i) {
        const std::uint32_t f = cores_[i]->freeContexts();
        const std::uint32_t eff =
            f > reserved_[i] ? f - reserved_[i] : 0;
        if (eff > best_free) {
            best_free = eff;
            best = static_cast<std::int32_t>(i);
        }
    }
    return best;
}

void
SubScheduler::dispatchOne(const workloads::TaskSpec &task, Cycle now)
{
    const std::int32_t slot = pickCore();
    if (slot < 0) {
        // A software quantum counted contexts its earlier dispatch
        // events, not yet run, have since taken: requeue.
        if (!table_.insert(task))
            fatal("sub-scheduler %u: requeue overflow", id_);
        return;
    }
    ++reserved_[slot];
    ++dispatched_;
    queueDelay_.sample(static_cast<double>(now - task.release));
    if (task.failures > 0) { // released its backoff after failing
        ++redispatches_;
        redispatchDelay_.sample(static_cast<double>(
            now - task.release +
            boundedBackoff(recovery_.backoffBase, task.failures - 1,
                           recovery_.backoffMax)));
    }

    if (freeTickets_.empty()) {
        freeTickets_.push_back(static_cast<std::uint32_t>(dispatches_.size()));
        dispatches_.emplace_back();
    }
    const std::uint32_t ticket = freeTickets_.back();
    freeTickets_.pop_back();
    dispatches_[ticket] = Dispatch{
        .task = task, .slot = static_cast<std::uint32_t>(slot), .at = now};
    stage_(cores_[slot]->id(), task, ticket);
}

void
SubScheduler::staged(std::uint32_t ticket)
{
    // Staging completes through DMA callbacks while the scheduler may
    // be asleep; reserved_ changes here, so re-arm.
    sim_.wake(this);
    Dispatch &d = dispatches_[ticket];
    --reserved_[d.slot];
    core::TcgCore *core = cores_[d.slot];
    // reserved_ held the context from dispatch on, and only this
    // scheduler attaches to its cores.
    if (!core->attachTask(d.task, makeStream_(d.task, core->id()), ticket))
        panic("sub-scheduler %u: core %u lost a reserved context", id_,
              core->id());
    if (recoveryOn_) {
        d.watched = true;
        d.lastChange = sim_.now();
        ++watched_;
    }
}

void
SubScheduler::onTaskExit(std::uint32_t ticket, Cycle when, bool finished)
{
    // Free the ticket first: the task's observer may dispatch.
    const Dispatch d = dispatches_[ticket];
    freeTickets_.push_back(ticket);
    watched_ -= d.watched;
    dispatches_[ticket].watched = false;
    if (!finished) {
        onTaskFailed(d.task, when);
        return;
    }
    const workloads::TaskSpec &t = d.task;
    const TaskExit exit{.taskId = t.id, .core = cores_[d.slot]->id(),
                        .finish = when, .deadline = t.deadline,
                        .metDeadline = !t.hasDeadline() || when <= t.deadline};
    if (!exit.metDeadline)
        ++misses_;
    if (sim_.trace().enabled(TraceCat::Sched))
        sim_.trace().complete(
            TraceCat::Sched, "task", d.at, when, exit.core,
            strprintf("{\"task\":%llu,\"met\":%s}",
                      static_cast<unsigned long long>(t.id),
                      exit.metDeadline ? "true" : "false"));
    exits_.push_back(exit);
    // A context freed up: a sleeping scheduler blocked on pickCore()
    // can place the next task again.
    sim_.wake(this);
    workloads::resolve(t, {.completed = true, .when = when,
                           .core = exit.core});
}

void
SubScheduler::onTaskFailed(const workloads::TaskSpec &task, Cycle now)
{
    sim_.wake(this);
    const workloads::RequestResult abandoned{
        .when = now, .reason = workloads::ShedReason::Abandoned};
    if (!recoveryOn_) {
        ++tasksAbandoned_;
        workloads::resolve(task, abandoned);
        return;
    }
    workloads::TaskSpec retry = task;
    ++retry.failures;
    if (retry.failures > recovery_.maxAttempts) {
        ++tasksAbandoned_;
        if (sim_.trace().enabled(TraceCat::Fault))
            sim_.trace().instant(
                TraceCat::Fault, "sched.abandon", now, 0,
                strprintf("{\"task\":%llu}",
                          static_cast<unsigned long long>(task.id)));
        workloads::resolve(task, abandoned);
        return;
    }
    const Cycle backoff = boundedBackoff(
        recovery_.backoffBase, retry.failures - 1, recovery_.backoffMax);
    retry.release = now + backoff;
    if (!table_.insert(retry))
        fatal("sub-scheduler %u: recovery requeue overflow", id_);
    if (sim_.trace().enabled(TraceCat::Fault))
        sim_.trace().instant(
            TraceCat::Fault, "sched.retry", now, 0,
            strprintf("{\"task\":%llu,\"attempt\":%u,"
                      "\"backoff\":%llu}",
                      static_cast<unsigned long long>(task.id),
                      retry.failures,
                      static_cast<unsigned long long>(backoff)));
}

void
SubScheduler::heartbeat(Cycle now)
{
    nextHeartbeat_ = now + recovery_.heartbeatInterval;
    // Collect victims first: killTask() re-enters this scheduler
    // through its exit handler, which frees the victim's ticket.
    std::vector<std::uint32_t> victims;
    for (std::uint32_t t = 0; t < dispatches_.size(); ++t) {
        Dispatch &d = dispatches_[t];
        if (!d.watched)
            continue;
        const std::uint64_t ops = cores_[d.slot]->taskProgress(t);
        if (ops == core::TcgCore::kNoTask)
            continue; // killed, freed when its memory response lands
        if (ops != d.lastOps) {
            d.lastOps = ops;
            d.lastChange = now;
        } else if (now - d.lastChange >= recovery_.hangTimeout) {
            victims.push_back(t);
        }
    }
    for (const std::uint32_t t : victims) {
        ++hangKills_;
        dispatches_[t].watched = false;
        --watched_;
        cores_[dispatches_[t].slot]->killTask(t, now);
    }
}

void
SubScheduler::tick(Cycle now)
{
    // Cycle-gated so both kernel modes run the scan at the same
    // cycles regardless of how often the scheduler ticks.
    if (watched_ > 0 && now >= nextHeartbeat_)
        heartbeat(now);

    if (params_.policy == SchedPolicy::HardwareLaxity) {
        if (table_.empty() || now < nextDecision_)
            return;
        if (pickCore() < 0)
            return;
        if (table_.earliestRelease() > now)
            return; // everything queued releases in the future
        auto task = table_.popNext(now);
        if (!task)
            return;
        if (task->release > now) {
            // Not yet released; put it back and wait.
            table_.insert(*task);
            return;
        }
        nextDecision_ = now + params_.hwDecisionLatency;
        if (sheddingOn_ && !task->canFinishBy(now)) {
            // Early drop: the pop still costs a decision slot, but
            // no context is wasted running a doomed request.
            dropExpired(*task, now);
            return;
        }
        dispatchOne(*task, now);
        return;
    }

    // SoftwareDeadline: act only at quantum boundaries, with a
    // serial per-dispatch software cost.
    if (now < nextQuantum_)
        return;
    nextQuantum_ = now + params_.swQuantum;

    std::uint32_t free_slots = 0;
    for (std::uint32_t i = 0; i < cores_.size(); ++i) {
        const std::uint32_t f = cores_[i]->freeContexts();
        free_slots += f > reserved_[i] ? f - reserved_[i] : 0;
    }

    Cycle overhead = params_.swDispatchOverhead;
    std::uint32_t k = 0;
    while (k < free_slots && !table_.empty()) {
        auto task = table_.popNext(now);
        if (!task)
            break;
        if (task->release > now) {
            table_.insert(*task);
            break;
        }
        if (sheddingOn_ && !task->canFinishBy(now)) {
            dropExpired(*task, now);
            continue; // drop is free: no dispatch overhead paid
        }
        ++k;
        const Cycle when = now + overhead * k;
        auto t = *task;
        sim_.events().schedule(when, [this, t, when]() {
            dispatchOne(t, when);
        });
    }
}

bool
SubScheduler::busy() const
{
    return load() > 0;
}

Cycle
SubScheduler::nextActiveCycle(Cycle now) const
{
    Cycle hb = kNoCycle;
    if (watched_ > 0)
        hb = std::max(now + 1, nextHeartbeat_);
    if (params_.policy == SchedPolicy::SoftwareDeadline)
        return std::min(hb, std::max(now + 1, nextQuantum_));
    if (table_.empty())
        return hb; // submit() wakes us
    if (pickCore() < 0)
        return hb; // a task exit frees a context and wakes us
    return std::min(hb, std::max({now + 1, nextDecision_,
                                  table_.earliestRelease()}));
}

std::uint64_t
SubScheduler::load() const
{
    return table_.size() + dispatches_.size() - freeTickets_.size();
}

} // namespace smarco::sched
