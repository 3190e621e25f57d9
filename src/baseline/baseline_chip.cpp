#include "baseline/baseline_chip.hpp"

#include <algorithm>
#include <bit>
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
        sim_.wake(this);
        SwThread &th = threads_[std::get<mem::MemRequest>(job).thread];
        --th.outstanding;
        --pendingMisses_;
        if (th.state == SwThread::State::Stalled) {
            th.state = SwThread::State::Runnable;
            th.readyAt = std::max(th.readyAt, sim_.now());
            refreshSlot(slotOf(th));
        }
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
    }
    slotWake_.assign(params_.numCores * params_.smtPerCore, kNoCycle);
    slotWords_ = static_cast<std::uint32_t>((slotWake_.size() + 63) / 64);
    calendar_.assign(kCalendarWindow * slotWords_, 0);
    farSlots_.assign(slotWords_, 0);
    dueMask_.assign(slotWords_, 0);
    sim.addTicking(this);
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
        slotQueue(slotOf(t)).push_back(t.id);
        ++liveThreads_;
        ++startingCount_;
    }
    for (std::uint32_t slot = 0; slot < slotWake_.size(); ++slot)
        refreshSlot(slot);
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
    refreshSlot(slotOf(t));
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
            t.hung = true;
            t.hungSince = now;
            ++workerHangs_;
            refreshSlot(slotOf(t));
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

void
BaselineChip::refreshSlot(std::uint32_t slot)
{
    const auto &q = slotQueue(slot);
    Cycle wake = kNoCycle;
    if (!q.empty()) {
        const SwThread &t = threads_[q.front()];
        if (!t.hung && (t.state == SwThread::State::Starting ||
                        t.state == SwThread::State::Runnable))
            wake = t.readyAt;
    }
    slotWake_[slot] = wake;
    if (wake != kNoCycle)
        fileSlot(slot, wake);
}

void
BaselineChip::fileSlot(std::uint32_t slot, Cycle wake)
{
    const std::uint32_t word = slot / 64;
    const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
    if (wake < calBase_) {
        dueMask_[word] |= bit;
    } else if (wake - calBase_ < kCalendarWindow) {
        const auto bucket =
            static_cast<std::uint32_t>(wake % kCalendarWindow);
        calendar_[bucket * slotWords_ + word] |= bit;
        calOccupied_[bucket / 64] |= std::uint64_t{1} << (bucket % 64);
    } else {
        farSlots_[word] |= bit;
        farMin_ = std::min(farMin_, wake);
    }
    wakeMin_ = std::min(wakeMin_, wake);
}

void
BaselineChip::drainBuckets(std::uint32_t lo, std::uint32_t hi)
{
    for (std::uint32_t word = lo / 64; word * 64 < hi; ++word) {
        const std::uint32_t first = std::max(lo, word * 64) - word * 64;
        const std::uint32_t end = std::min(hi, word * 64 + 64) - word * 64;
        const std::uint64_t range =
            (end == 64 ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << end) - 1) &
            (~std::uint64_t{0} << first);
        std::uint64_t occupied = calOccupied_[word] & range;
        calOccupied_[word] &= ~occupied;
        for (; occupied != 0; occupied &= occupied - 1) {
            const std::uint32_t bucket =
                word * 64 +
                static_cast<std::uint32_t>(std::countr_zero(occupied));
            std::uint64_t *const slots = &calendar_[bucket * slotWords_];
            for (std::uint32_t w = 0; w < slotWords_; ++w) {
                dueMask_[w] |= slots[w];
                slots[w] = 0;
            }
        }
    }
}

void
BaselineChip::drainCalendar(Cycle now)
{
    // The buckets hold the cycles calBase_ .. calBase_ + window - 1,
    // one each, so a clock that has passed the whole window drains
    // them all.
    const auto lo = static_cast<std::uint32_t>(calBase_ % kCalendarWindow);
    const auto hi = lo + static_cast<std::uint32_t>(std::min(
                             now - calBase_ + 1, kCalendarWindow));
    drainBuckets(lo, std::min<std::uint32_t>(hi, kCalendarWindow));
    if (hi > kCalendarWindow)
        drainBuckets(0, hi - kCalendarWindow);
    calBase_ = now + 1;
    if (farMin_ >= calBase_ + kCalendarWindow)
        return;
    // Refile the far set; slots whose wake has moved on are filed
    // where it now is, or dropped when they wake no more.
    farMin_ = kNoCycle;
    for (std::uint32_t word = 0; word < slotWords_; ++word) {
        std::uint64_t far = farSlots_[word];
        farSlots_[word] = 0;
        for (; far != 0; far &= far - 1) {
            const std::uint32_t slot =
                word * 64 + static_cast<std::uint32_t>(std::countr_zero(far));
            if (slotWake_[slot] != kNoCycle)
                fileSlot(slot, slotWake_[slot]);
        }
    }
}

Cycle
BaselineChip::firstFiledWake() const
{
    for (const std::uint64_t due : dueMask_)
        if (due != 0)
            return calBase_;
    // Bucket b holds cycle calBase_ + (b - start) mod window: search
    // from start's word round to the bits of that word below start.
    const auto start = static_cast<std::uint32_t>(calBase_ % kCalendarWindow);
    for (std::uint32_t i = 0; i <= kOccupancyWords; ++i) {
        const std::uint32_t word = (start / 64 + i) % kOccupancyWords;
        std::uint64_t occupied = calOccupied_[word];
        if (i == 0)
            occupied &= ~std::uint64_t{0} << (start % 64);
        else if (i == kOccupancyWords)
            occupied &= ~(~std::uint64_t{0} << (start % 64));
        if (occupied != 0) {
            const std::uint32_t bucket =
                word * 64 +
                static_cast<std::uint32_t>(std::countr_zero(occupied));
            return calBase_ +
                   (bucket + kCalendarWindow - start) % kCalendarWindow;
        }
    }
    return farMin_;
}

Cycle
BaselineChip::nextActiveCycle(Cycle now) const
{
    if (liveThreads_ == 0)
        return kNoCycle;
    if (retirable())
        return now + 1;
    Cycle next = wakeMin_;
    if (oversubscribed())
        next = std::min(next, nextRotate_);
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
    if (*std::min_element(slotWake_.begin(), slotWake_.end()) < end ||
        (recoveryOn_ && nextScan_ < end) ||
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
    drainCalendar(now);

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
        for (std::uint32_t slot = 0; slot < slotWake_.size(); ++slot) {
            auto &q = slotQueue(slot);
            if (q.size() < 2)
                continue;
            q.push_back(q.front());
            q.pop_front();
            SwThread &in = threads_[q.front()];
            in.readyAt =
                std::max(in.readyAt, now + params_.contextSwitchCost);
            ++switches_;
            refreshSlot(slot);
        }
    }

    // Visit the due slots in core-then-slot order, each core's under
    // its issue budget. The tick-every-cycle kernel visits every
    // non-empty slot instead: a visit to a front thread that cannot
    // act is a no-op, so the stats of the two modes are identical
    // exactly when every wake time is. A visit refreshes the slot,
    // which files it anew (in the due set again when it can still
    // act this cycle, for the next tick); a slot passed over for
    // budget stays due.
    const bool forced = !sim_.fastForward();
    const auto num_slots = static_cast<std::uint32_t>(slotWake_.size());
    const std::uint32_t smt = params_.smtPerCore;
    std::uint32_t core = 0;
    std::uint32_t budget = params_.issueWidth;
    for (std::uint32_t word = 0; word < slotWords_; ++word) {
        std::uint64_t visit = dueMask_[word];
        for (std::uint32_t slot = word * 64;
             forced && slot < std::min(num_slots, word * 64 + 64); ++slot)
            if (!slotQueue(slot).empty())
                visit |= std::uint64_t{1} << (slot % 64);
        for (; visit != 0; visit &= visit - 1) {
            const auto lane =
                static_cast<std::uint32_t>(std::countr_zero(visit));
            const std::uint32_t slot = word * 64 + lane;
            const std::uint64_t bit = std::uint64_t{1} << lane;
            if (slotWake_[slot] > now) {
                dueMask_[word] &= ~bit; // refiled at its later wake
                if (!forced)
                    continue;
            }
            if (slot / smt != core) {
                core = slot / smt;
                budget = params_.issueWidth;
            }
            if (budget == 0)
                continue;
            dueMask_[word] &= ~bit;
            Core &c = cores_[core];
            runThread(c, threads_[c.slots[slot - core * smt].front()],
                      now, budget);
            refreshSlot(slot);
        }
    }
    wakeMin_ = firstFiledWake();

    // Run completion (non-persistent pools): once the bag is dry and
    // every worker has parked, retire the pool so the simulator can
    // go idle. Its threads leave their slots, so a later spawn's
    // threads are each at the front of theirs.
    if (retirable()) {
        for (auto &t : threads_) {
            if (t.state != SwThread::State::Finished) {
                t.state = SwThread::State::Finished;
                --liveThreads_;
            }
        }
        for (auto &core : cores_)
            for (auto &q : core.slots)
                q.clear();
        std::fill(slotWake_.begin(), slotWake_.end(), kNoCycle);
        std::fill(calendar_.begin(), calendar_.end(), 0);
        std::fill(std::begin(calOccupied_), std::end(calOccupied_), 0);
        std::fill(farSlots_.begin(), farSlots_.end(), 0);
        std::fill(dueMask_.begin(), dueMask_.end(), 0);
        farMin_ = kNoCycle;
        wakeMin_ = kNoCycle;
    }
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
