#include "baseline/baseline_chip.hpp"

#include <algorithm>
#include <utility>

#include "sim/logging.hpp"

namespace smarco::baseline {

using isa::MicroOp;
using isa::OpKind;

namespace {

constexpr Addr kDramBase = 0x1'0000'0000ULL;

} // namespace

BaselineChip::BaselineChip(Simulator &sim, BaselineParams params)
    : sim_(sim),
      params_(std::move(params)),
      committed_(sim.stats(), "base.committed", "micro-ops committed"),
      cycles_(sim.stats(), "base.cycles", "active cycles"),
      slotsOffered_(sim.stats(), "base.slotsOffered",
                    "issue slots offered"),
      slotsUsed_(sim.stats(), "base.slotsUsed", "issue slots used"),
      starveCycles_(sim.stats(), "base.starveCycles",
                    "thread-cycles lost to instruction starvation"),
      branches_(sim.stats(), "base.branches", "branches executed"),
      branchMisses_(sim.stats(), "base.branchMisses",
                    "branches mispredicted"),
      tasksDone_(sim.stats(), "base.tasksDone", "tasks completed"),
      switches_(sim.stats(), "base.switches", "OS context switches"),
      deadlineMisses_(sim.stats(), "base.deadlineMisses",
                      "tasks finishing past their deadline"),
      workerKills_(sim.stats(), "base.workerKills",
                   "worker threads killed by fault injection"),
      workerHangs_(sim.stats(), "base.workerHangs",
                   "worker threads frozen by fault injection"),
      recoveries_(sim.stats(), "base.recoveries",
                  "hung workers restarted by the OS watchdog"),
      l1Latency_(sim.stats(), "base.l1Latency",
                 "mean latency of L1-served accesses"),
      l2Latency_(sim.stats(), "base.l2Latency",
                 "mean latency of L2-served accesses"),
      llcLatency_(sim.stats(), "base.llcLatency",
                  "mean latency of LLC-served accesses"),
      shedQueueFull_(sim.stats(), "base.shedQueueFull",
                     "tasks refused: shared bag at capacity"),
      tasksExpired_(sim.stats(), "base.tasksExpired",
                    "queued tasks dropped: deadline became unreachable")
{
    if (params_.numCores == 0 || params_.smtPerCore == 0)
        fatal("baseline: empty chip");

    llc_ = std::make_unique<mem::Cache>(sim.stats(), params_.llc,
                                        "base.llc");
    dram_ = std::make_unique<mem::DramController>(sim, params_.dram,
                                                  "base.dram");
    dram_->setSink([this](mem::DramJob &&job) {
        SwThread &th = threads_[std::get<mem::MemRequest>(job).thread];
        if (th.state == SwThread::State::Stalled) {
            sim_.wake(&coreOf(th));
            th.state = SwThread::State::Runnable;
            th.readyAt = std::max(th.readyAt, sim_.now());
        }
        --th.outstanding;
        --pendingMisses_;
        // The last fill of a finished pool: the chip retires it at the
        // end of this cycle's tick. The chip's skipped ticks read
        // neither counter, so the wake may follow the change.
        if (retirable())
            sim_.wake(this);
    });
    cores_.resize(params_.numCores);
    for (std::uint32_t c = 0; c < params_.numCores; ++c) {
        Core &core = cores_[c];
        core.l1i = std::make_unique<mem::Cache>(
            sim.stats(), params_.l1i, strprintf("base.core%02u.l1i", c));
        core.l1d = std::make_unique<mem::Cache>(
            sim.stats(), params_.l1d, strprintf("base.core%02u.l1d", c));
        core.l2 = std::make_unique<mem::Cache>(
            sim.stats(), params_.l2, strprintf("base.core%02u.l2", c));
        mem::CacheParams tlb;
        tlb.name = "dtlb";
        tlb.lineBytes = params_.pageBytes;
        tlb.assoc = 8;
        tlb.sizeBytes = static_cast<std::uint64_t>(params_.tlbEntries) *
                        params_.pageBytes;
        core.dtlb = std::make_unique<mem::Cache>(
            sim.stats(), tlb, strprintf("base.core%02u.dtlb", c));
        core.slots.resize(params_.smtPerCore);
        core.chip = this;
        core.index = c;
    }
    sim.addTicking(this);
    for (Core &core : cores_)
        sim.addTicking(&core);
}

workloads::AddressLayout
BaselineChip::layoutFor(const SwThread &t) const
{
    // On the conventional chip everything is cacheable DRAM; the
    // SmarCo memory classes map onto per-thread regions: the SPM
    // region becomes the thread's hot stack/TLS data, the remote SPM
    // becomes a neighbour's shared buffer.
    const std::uint64_t nthreads =
        std::max<std::uint64_t>(threads_.size(), 1);
    workloads::AddressLayout layout;
    layout.spmLocalBase = kDramBase + t.id * 0x100000ULL;
    layout.spmLocalSize = params_.hotRegionBytes;
    layout.spmRemoteBase =
        kDramBase + ((t.id + 1) % nthreads) * 0x100000ULL;
    layout.spmRemoteSize = params_.hotRegionBytes;
    layout.heapBase = kDramBase + 0x2000'0000ULL + t.id * 0x400000ULL;
    // Without an SPM to stage hot data into, the conventional chip
    // keeps the full server-side state cacheable: its heap working
    // set is far larger than the SmarCo-staged slice.
    layout.heapSize = 32 * t.task.profile->heapWorkingSet;
    layout.streamBase =
        kDramBase + 0x2'0000'0000ULL + t.id * 0x400'0000ULL;
    layout.streamSize = t.task.profile->streamWorkingSet;
    return layout;
}

void
BaselineChip::spawnWorkers(std::uint32_t num_threads,
                           std::vector<workloads::TaskSpec> tasks,
                           bool persistent)
{
    if (num_threads == 0)
        fatal("baseline: zero worker threads");
    sim_.wake(this);
    for (Core &core : cores_)
        sim_.wake(&core);
    persistent_ = persistent;
    for (auto &t : tasks)
        bag_.push_back(t);

    const std::uint32_t base =
        static_cast<std::uint32_t>(threads_.size());
    threads_.resize(base + num_threads);
    for (std::uint32_t k = 0; k < num_threads; ++k) {
        SwThread &t = threads_[base + k];
        t.id = base + k;
        t.state = SwThread::State::Starting;
        // pthread_create is serialised through the spawning thread.
        t.readyAt = sim_.now() +
            static_cast<Cycle>(k + 1) * params_.threadCreateCost;
        t.rng = Rng(0xba5e + t.id, t.id);
        coreOf(t).slots[slotOf(t) % params_.smtPerCore].push_back(t.id);
        ++liveThreads_;
        ++startingCount_;
    }
}

void
BaselineChip::enableAdmission(std::uint32_t queue_cap,
                              double latency_hist_max)
{
    if (queue_cap == 0)
        fatal("baseline: zero admission queue cap");
    sim_.wake(this);
    admissionOn_ = true;
    bagCap_ = queue_cap;
    e2eLatency_ = std::make_unique<Histogram>(
        sim_.stats(), "base.e2eLatency",
        "release-to-completion latency of completed tasks (cycles)",
        0.0, latency_hist_max, 64);
}

void
BaselineChip::submitRequest(const workloads::TaskSpec &task)
{
    sim_.wake(this);
    if (admissionOn_ && bag_.size() >= bagCap_) {
        ++shedQueueFull_;
        workloads::resolve(
            task, {.when = sim_.now(),
                   .reason = workloads::ShedReason::QueueFull});
        return;
    }
    bag_.push_back(task);
}

void
BaselineChip::taskDone(SwThread &t, Cycle now)
{
    ++tasksDone_;
    lastTaskFinish_ = std::max(lastTaskFinish_, now);
    if (t.hasTask && t.task.hasDeadline() && now > t.task.deadline)
        ++deadlineMisses_;
    if (admissionOn_ && t.hasTask)
        e2eLatency_->sample(static_cast<double>(now - t.task.release));
    if (t.hasTask)
        workloads::resolve(t.task,
                           {.completed = true,
                            .when = now,
                            .core = slotOf(t) / params_.smtPerCore});
    nextTask(t, now);
}

void
BaselineChip::restartWorker(SwThread &t, Cycle now)
{
    sim_.wake(&coreOf(t));
    if (t.hasTask) {
        // Progress is lost; the task re-runs from scratch.
        bag_.push_front(t.task);
        t.hasTask = false;
        --activeTasks_;
    }
    // Outstanding miss callbacks stay valid: they only decrement the
    // in-flight counters once the restarted thread is Runnable.
    t.hung = false;
    t.stream.reset();
    t.hasPending = false;
    t.state = SwThread::State::Runnable;
    t.readyAt = now + params_.threadCreateCost;
}

bool
BaselineChip::injectWorkerFault(bool hang, Rng &rng, Cycle now)
{
    if (threads_.empty())
        return false;
    sim_.wake(this);
    const std::uint32_t n =
        static_cast<std::uint32_t>(threads_.size());
    const std::uint32_t start =
        static_cast<std::uint32_t>(rng.nextBelow(n));
    for (std::uint32_t i = 0; i < n; ++i) {
        SwThread &t = threads_[(start + i) % n];
        if (!t.hasTask || t.hung ||
            t.state == SwThread::State::Starting ||
            t.state == SwThread::State::Finished)
            continue;
        if (hang) {
            // A hang only takes a thread's wake away, so a core that
            // sleeps through it would skip no tick it could act in;
            // the wake keeps the one rule for outside changes.
            sim_.wake(&coreOf(t));
            t.hung = true;
            t.hungSince = now;
            ++workerHangs_;
        } else {
            ++workerKills_;
            restartWorker(t, now);
        }
        if (sim_.trace().enabled(TraceCat::Fault))
            sim_.trace().instant(
                TraceCat::Fault,
                hang ? "base.workerHang" : "base.workerKill", now,
                t.id);
        return true;
    }
    return false;
}

bool
BaselineChip::inject(fault::FaultKind kind, Rng &rng, Cycle now,
                     const fault::FaultSpec &spec)
{
    switch (kind) {
      case fault::FaultKind::CoreHang:
        return injectWorkerFault(/*hang=*/true, rng, now);
      case fault::FaultKind::CoreKill:
        return injectWorkerFault(/*hang=*/false, rng, now);
      case fault::FaultKind::DramStall: {
        const std::uint32_t ch = static_cast<std::uint32_t>(
            rng.nextBelow(params_.dram.channels));
        dram_->stallChannel(ch, spec.dramStallDuration, now);
        return true;
      }
      case fault::FaultKind::NocDegrade:
      case fault::FaultKind::NocDup:
      case fault::FaultKind::MactLoss:
        return false;
    }
    panic("baseline: bad fault kind");
}

void
BaselineChip::armContinuous(const fault::FaultSpec &spec, Rng &)
{
    recoveryInterval_ = spec.recovery.heartbeatInterval;
    recoveryTimeout_ = spec.recovery.hangTimeout;
    if (recoveryInterval_ == 0 || recoveryTimeout_ == 0)
        fatal("baseline: zero recovery interval");
    sim_.wake(this);
    recoveryOn_ = true;
}

std::uint64_t
BaselineChip::progress() const
{
    // Thread creations count: a spawn's serial creations can outlast
    // its tasks. Time slices do not: they recur on a wedged chip too.
    return static_cast<std::uint64_t>(committed_.value()) +
           static_cast<std::uint64_t>(tasksDone_.value()) +
           dram_->requestsServed() + (threads_.size() - startingCount_);
}

void
BaselineChip::nextTask(SwThread &t, Cycle now)
{
    if (t.hasTask) {
        t.hasTask = false;
        --activeTasks_;
    }
    // Early drop: don't burn a worker's time (taskPopCost plus the
    // whole task body) on requests that can no longer meet their
    // deadline; goodput under overload comes from this triage.
    while (admissionOn_ && !bag_.empty()) {
        if (bag_.front().canFinishBy(now))
            break;
        ++tasksExpired_;
        const workloads::TaskSpec dropped = std::move(bag_.front());
        bag_.pop_front();
        workloads::resolve(dropped,
                           {.when = now,
                            .reason = workloads::ShedReason::Expired});
    }
    if (bag_.empty()) {
        // Worker parks on the empty queue and polls again shortly
        // (condition-variable wait in a real server loop).
        t.hasTask = false;
        t.stream.reset();
        t.state = SwThread::State::Runnable;
        t.readyAt = now + 500;
        return;
    }
    t.task = bag_.front();
    bag_.pop_front();
    if (!t.task.profile)
        panic("task %llu has no profile",
              static_cast<unsigned long long>(t.task.id));
    t.hasTask = true;
    ++activeTasks_;
    t.hasPending = false;
    t.fetchOff = 0;
    t.pcBase = workloads::kernelCodeBase(t.task, 0x7000'0000);
    t.stream = std::make_unique<workloads::ProfileStream>(
        *t.task.profile, layoutFor(t), t.task.numOps, t.task.seed);
    t.state = SwThread::State::Runnable;
    t.readyAt = now + params_.taskPopCost;
}

bool
BaselineChip::fetchOk(Core &core, SwThread &t, Cycle now)
{
    // A server binary's resident code path is larger than the
    // extracted kernel (runtime/library/OS-stack code), and each
    // software thread takes data-dependent paths through a different
    // window of it, so the union of live code grows with the thread
    // count -- the source of Fig. 1b's rising starvation.
    const std::uint64_t kernel_fp = std::max<std::uint64_t>(
        3 * t.task.profile->instrFootprint,
        256);
    const std::uint64_t binary = 16 * kernel_fp;
    const Addr window =
        (static_cast<Addr>(t.id) * (kernel_fp / 2)) %
        (binary - kernel_fp);
    const Addr pc = t.pcBase + window + (t.fetchOff % kernel_fp);
    t.fetchOff += 16;
    if (core.l1i->access(pc, false).hit)
        return true;
    ++starveCycles_;
    if (core.l2->access(pc, false).hit) {
        t.readyAt = std::max(t.readyAt, now + params_.l2HitLatency);
        return false;
    }
    if (llc_->access(pc, false).hit) {
        t.readyAt = std::max(t.readyAt, now + params_.llcHitLatency);
        return false;
    }
    t.readyAt = std::max(t.readyAt, now + params_.dram.accessLatency);
    return false;
}

void
BaselineChip::memAccess(Core &core, SwThread &t, Addr addr,
                        bool is_store, Cycle now)
{
    // Address translation: a DTLB miss serialises a page walk in
    // front of the access (walks mostly hit the caches, ~22 cycles).
    if (!core.dtlb->access(addr & ~static_cast<Addr>(
                               params_.pageBytes - 1), false).hit)
        t.readyAt = std::max(t.readyAt,
                             now + params_.tlbWalkLatency);
    if (core.l1d->access(addr, is_store).hit) {
        l1Latency_.sample(
            static_cast<double>(params_.l1d.hitLatency));
        return;
    }
    if (core.l2->access(addr, is_store).hit) {
        l2Latency_.sample(static_cast<double>(params_.l2HitLatency));
        if (!is_store && t.rng.chance(params_.dependStall * 0.5))
            t.readyAt = std::max(t.readyAt,
                                 now + params_.l2HitLatency);
        return;
    }
    const auto llc_res = llc_->access(addr, is_store);
    if (llc_res.writeback)
        dram_->serve(llc_res.victimAddr, 64, now, {},
                     mem::DramClass::Write);
    if (llc_res.hit) {
        // Shared LLC: queueing grows mildly with in-flight misses.
        const double lat = static_cast<double>(params_.llcHitLatency) +
            static_cast<double>(pendingMisses_) / 16.0;
        llcLatency_.sample(lat);
        if (!is_store && t.rng.chance(params_.dependStall))
            t.readyAt = std::max(
                t.readyAt, now + static_cast<Cycle>(lat));
        return;
    }

    // DRAM fill.
    ++t.outstanding;
    ++pendingMisses_;
    dram_->serve(addr, 64, now,
                 mem::MemRequest{.addr = addr, .bytes = 64, .thread = t.id});

    if (!is_store && t.rng.chance(params_.dependStall)) {
        t.state = SwThread::State::Stalled;
        return;
    }
    if (t.outstanding >= params_.mshrPerThread)
        t.state = SwThread::State::Stalled;
}

bool
BaselineChip::executeOp(Core &core, SwThread &t, const MicroOp &op,
                        Cycle now)
{
    const auto consume = [&t, this]() {
        t.hasPending = false;
        ++committed_;
        ++slotsUsed_;
    };

    switch (op.kind) {
      case OpKind::Halt:
        t.hasPending = false;
        taskDone(t, now);
        return false;
      case OpKind::Alu:
      case OpKind::Mul:
      case OpKind::Fp:
        // OoO execution hides fixed ALU/FP latencies.
        consume();
        return true;
      case OpKind::Branch:
        consume();
        ++branches_;
        if (op.mispredict) {
            ++branchMisses_;
            t.readyAt = now + params_.branchPenalty;
            return false;
        }
        return true;
      case OpKind::Load:
      case OpKind::Store:
        consume();
        memAccess(core, t, op.addr, op.isStore(), now);
        return t.state == SwThread::State::Runnable;
    }
    panic("baseline: bad op kind");
}

Cycle
BaselineChip::nextActiveCycle(Cycle now) const
{
    if (liveThreads_ == 0)
        return kNoCycle;
    Cycle next = oversubscribed() ? nextRotate_ : kNoCycle;
    if (recoveryOn_)
        next = std::min(next, nextScan_);
    return std::max(next, now + 1);
}

void
BaselineChip::skipTicks(Cycle from, Cycle n)
{
    if (liveThreads_ == 0)
        return; // a chip with no live thread ticks as a no-op
    // A skipped tick only counts its cycle and offered slots and
    // advances the rotation clock; nextActiveCycle() keeps every
    // other effect from being skipped.
    const Cycle end = from + n;
    const Cycle rotate = std::max(from, nextRotate_);
    if ((recoveryOn_ && nextScan_ < end) ||
        (oversubscribed() && rotate < end))
        panic("baseline: skipped an active tick in [%llu, %llu)",
              static_cast<unsigned long long>(from),
              static_cast<unsigned long long>(end));
    cycles_ += static_cast<double>(n);
    slotsOffered_ += static_cast<double>(
        n * params_.issueWidth * params_.numCores);
    if (rotate < end) {
        // Rotations fire at rotate, rotate + quantum, ... below end.
        const Cycle q = params_.schedQuantum;
        nextRotate_ = q == 0 ? end - 1
                             : rotate + ((end - 1 - rotate) / q + 1) * q;
    }
}

Cycle
BaselineChip::Core::firstWake() const
{
    Cycle wake = kNoCycle;
    for (const auto &q : slots) {
        if (q.empty())
            continue;
        const SwThread &t = chip->threads_[q.front()];
        if (!t.hung && (t.state == SwThread::State::Starting ||
                        t.state == SwThread::State::Runnable))
            wake = std::min(wake, t.readyAt);
    }
    return wake;
}

Cycle
BaselineChip::Core::nextActiveCycle(Cycle now) const
{
    return std::max(firstWake(), now + 1);
}

void
BaselineChip::Core::skipTicks(Cycle from, Cycle n)
{
    if (firstWake() < from + n)
        panic("baseline core %u: skipped an active tick in [%llu, %llu)",
              index, static_cast<unsigned long long>(from),
              static_cast<unsigned long long>(from + n));
}

void
BaselineChip::Core::tick(Cycle now)
{
    std::uint32_t budget = chip->params_.issueWidth;
    for (auto &q : slots) {
        if (budget == 0)
            break;
        if (!q.empty())
            chip->runThread(*this, chip->threads_[q.front()], now, budget);
    }
    // A visit finished the pool: the chip counts this cycle first.
    // A later core's visits this cycle would only find parked workers
    // polling the empty bag, so the pool retires at once.
    if (chip->retirable()) {
        chip->sim_.wake(chip);
        chip->retirePool();
    }
}

void
BaselineChip::runThread(Core &core, SwThread &t, Cycle now,
                        std::uint32_t &budget)
{
    if (t.hung)
        return; // frozen fault: holds the slot until restart
    if (t.state == SwThread::State::Starting) {
        if (now >= t.readyAt) {
            --startingCount_;
            nextTask(t, now);
        }
        return;
    }
    if (t.state != SwThread::State::Runnable || t.readyAt > now)
        return;
    if (!t.hasTask) {
        nextTask(t, now); // poll the queue again
        if (!t.hasTask)
            return;
    }
    const double ilp = t.task.profile->ilp * params_.ilpBoost;
    const auto base_cap = static_cast<std::uint32_t>(ilp);
    const std::uint32_t cap = base_cap +
        (t.rng.chance(ilp - base_cap) ? 1u : 0u);
    if (!fetchOk(core, t, now))
        return;
    std::uint32_t issued = 0;
    while (budget > 0 && issued < cap &&
           t.state == SwThread::State::Runnable && t.readyAt <= now) {
        if (!t.hasPending) {
            if (!t.stream || !t.stream->next(t.pending)) {
                taskDone(t, now);
                break;
            }
            t.hasPending = true;
        }
        const MicroOp op = t.pending;
        const double before = committed_.value();
        const bool more = executeOp(core, t, op, now);
        if (committed_.value() > before) {
            ++issued;
            --budget;
        }
        if (!more)
            break;
    }
}

void
BaselineChip::tick(Cycle now)
{
    if (liveThreads_ == 0)
        return;
    ++cycles_;
    slotsOffered_ +=
        static_cast<double>(params_.issueWidth * params_.numCores);

    // OS watchdog: restart workers hung past the timeout.
    if (recoveryOn_ && now >= nextScan_) {
        nextScan_ = now + recoveryInterval_;
        for (auto &t : threads_) {
            if (t.hung && now - t.hungSince >= recoveryTimeout_) {
                ++recoveries_;
                restartWorker(t, now);
            }
        }
    }

    // OS time slicing when software threads oversubscribe a slot.
    if (now >= nextRotate_) {
        nextRotate_ = now + params_.schedQuantum;
        for (Core &core : cores_) {
            for (auto &q : core.slots) {
                if (q.size() < 2)
                    continue;
                sim_.wake(&core);
                q.push_back(q.front());
                q.pop_front();
                SwThread &in = threads_[q.front()];
                in.readyAt =
                    std::max(in.readyAt, now + params_.contextSwitchCost);
                ++switches_;
            }
        }
    }

    // A DRAM fill finished the pool before this cycle's core visits,
    // which would only find parked workers polling the empty bag.
    if (retirable())
        retirePool();
}

void
BaselineChip::retirePool()
{
    for (auto &t : threads_) {
        if (t.state != SwThread::State::Finished) {
            t.state = SwThread::State::Finished;
            --liveThreads_;
        }
    }
    for (auto &core : cores_)
        for (auto &q : core.slots)
            q.clear();
}

bool
BaselineChip::busy() const
{
    if (liveThreads_ == 0)
        return false;
    if (!persistent_)
        return true;
    return !bag_.empty() || pendingMisses_ > 0 || activeTasks_ > 0 ||
           startingCount_ > 0;
}

BaselineMetrics
BaselineChip::metrics() const
{
    BaselineMetrics m;
    m.cycles = static_cast<Cycle>(cycles_.value());
    m.tasksCompleted =
        static_cast<std::uint64_t>(tasksDone_.value());
    m.opsCommitted = static_cast<std::uint64_t>(committed_.value());
    m.slotsOffered = static_cast<std::uint64_t>(slotsOffered_.value());
    m.slotsUsed = static_cast<std::uint64_t>(slotsUsed_.value());
    m.dramRequests = dram_->requestsServed();
    if (m.slotsOffered > 0)
        m.starvationRatio = starveCycles_.value() /
            (slotsOffered_.value() / params_.issueWidth);
    if (branches_.value() > 0.0)
        m.branchMissRatio = branchMisses_.value() / branches_.value();

    double l1h = 0, l1m = 0, l2h = 0, l2m = 0;
    for (const auto &core : cores_) {
        l1h += static_cast<double>(core.l1d->hits());
        l1m += static_cast<double>(core.l1d->misses());
        l2h += static_cast<double>(core.l2->hits());
        l2m += static_cast<double>(core.l2->misses());
    }
    if (l1h + l1m > 0.0)
        m.l1MissRatio = l1m / (l1h + l1m);
    if (l2h + l2m > 0.0)
        m.l2MissRatio = l2m / (l2h + l2m);
    m.llcMissRatio = llc_->missRatio();
    m.l1AvgLatency = l1Latency_.value();
    m.l2AvgLatency = l2Latency_.value();
    m.llcAvgLatency = llcLatency_.value();
    m.deadlineMisses =
        static_cast<std::uint64_t>(deadlineMisses_.value());
    m.lastTaskFinish = lastTaskFinish_;
    return m;
}

} // namespace smarco::baseline
