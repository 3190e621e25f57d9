#include "core/tcg_core.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "sim/logging.hpp"

namespace smarco::core {

using isa::MemClass;
using isa::MicroOp;
using isa::OpKind;

TcgCore::TcgCore(Simulator &sim, CoreParams params, CoreId id,
                 MemPort &port, const std::string &stat_prefix)
    : sim_(sim),
      params_(params),
      id_(id),
      port_(port),
      icache_(sim.stats(), params.icache, stat_prefix + ".icache"),
      dcache_(sim.stats(), params.dcache, stat_prefix + ".dcache"),
      spm_(sim.stats(), params.spm, stat_prefix + ".spm"),
      contexts_(params.numThreads),
      rng_(0x5eed0 + id, id),
      committed_(sim.stats(), stat_prefix + ".committed",
                 "micro-ops committed"),
      cyclesActive_(sim.stats(), stat_prefix + ".cyclesActive",
                    "cycles with at least one live context"),
      slotsOffered_(sim.stats(), stat_prefix + ".slotsOffered",
                    "issue slots offered while active"),
      slotsUsed_(sim.stats(), stat_prefix + ".slotsUsed",
                 "issue slots that committed an op"),
      starveCycles_(sim.stats(), stat_prefix + ".starveCycles",
                    "thread-cycles lost to instruction starvation"),
      pairSwitches_(sim.stats(), stat_prefix + ".pairSwitches",
                    "friend-thread switches"),
      stallsMem_(sim.stats(), stat_prefix + ".stallsMem",
                 "blocking memory stalls"),
      tasksFinished_(sim.stats(), stat_prefix + ".tasksFinished",
                     "tasks completed on this core"),
      tasksKilled_(sim.stats(), stat_prefix + ".tasksKilled",
                   "tasks killed by faults or hang recovery"),
      threadHangs_(sim.stats(), stat_prefix + ".threadHangs",
                   "thread-hang faults injected")
{
    if (params_.maxRunning == 0 || params_.issueWidth == 0)
        fatal("core %u: zero-width pipeline", id);
    if (params_.numThreads < params_.maxRunning ||
        params_.numThreads > 2 * params_.maxRunning)
        fatal("core %u: numThreads %u must be in [maxRunning, "
              "2*maxRunning]", id, params_.numThreads);
    if (params_.maxRunning > 16)
        fatal("core %u: at most 16 run slots supported", id);
    for (std::uint32_t i = 0; i < contexts_.size(); ++i)
        contexts_[i].rng = Rng(0xc0de + id * 131 + i, i);
    sim.addTicking(this);
}

Cycle
TcgCore::nextActiveCycle(Cycle now) const
{
    if (runnable_ == 0)
        return kNoCycle;
    if (params_.issuePolicy == IssuePolicy::LaxityAware)
        return now + 1;
    Cycle next = kNoCycle;
    for (std::uint32_t s = 0; s < params_.maxRunning; ++s) {
        const std::uint32_t h = holderOf(s);
        if (h == kNoHolder)
            continue;
        const Context &ctx = contexts_[h];
        if (ctx.state == State::Ready)
            return now + 1; // the next tick promotes it
        if (!ctx.hung)
            next = std::min(next, ctx.readyAt);
    }
    return std::max(next, now + 1);
}

void
TcgCore::skipTicks(Cycle from, Cycle n)
{
    if (live_ == 0)
        return; // idle ticks do nothing
    // Holders that draw their ILP cap in a tick in which none issues.
    std::uint32_t drawing[16];
    std::uint32_t ndrawing = 0;
    for (std::uint32_t s = 0; s < params_.maxRunning; ++s) {
        const std::uint32_t h = holderOf(s);
        if (h == kNoHolder)
            continue;
        const Context &ctx = contexts_[h];
        if (ctx.state == State::Ready ||
            params_.issuePolicy == IssuePolicy::LaxityAware ||
            (!ctx.hung && ctx.readyAt < from + n))
            panic("core %u: skipped an active tick in [%llu, %llu) "
                  "(context %u)", id_,
                  static_cast<unsigned long long>(from),
                  static_cast<unsigned long long>(from + n), h);
        if (!ctx.hung)
            drawing[ndrawing++] = h;
    }
    cyclesActive_ += static_cast<double>(n);
    slotsOffered_ += static_cast<double>(n * params_.issueWidth);
    if (params_.issuePolicy == IssuePolicy::RoundRobin)
        rrSlot_ += static_cast<std::uint32_t>(n);
    // A tick visits the slots while issue budget is left: always,
    // unless the pairing tax took a one-wide core's only slot.
    Cycle visits = n;
    if (live_ > params_.maxRunning)
        for (Cycle k = 0; k < n; ++k)
            if (rng_.chance(params_.pairingSelectTax) &&
                params_.issueWidth == 1)
                --visits;
    for (std::uint32_t d = 0; d < ndrawing; ++d)
        for (Cycle k = 0; k < visits; ++k)
            ilpCap(contexts_[drawing[d]]);
}

std::uint32_t
TcgCore::friendOf(std::uint32_t ctx) const
{
    const std::uint32_t m = params_.maxRunning;
    const std::uint32_t f = ctx < m ? ctx + m : ctx - m;
    return f < params_.numThreads ? f : ctx; // unpaired slot
}

bool
TcgCore::attachTask(const workloads::TaskSpec &task,
                    isa::StreamPtr stream, std::uint32_t ticket)
{
    if (!task.profile)
        panic("task %llu has no profile",
              static_cast<unsigned long long>(task.id));
    sim_.wake(this);
    for (std::uint32_t i = 0; i < contexts_.size(); ++i) {
        Context &ctx = contexts_[i];
        if (ctx.state != State::Idle)
            continue;
        ctx.task = task;
        ctx.stream = std::move(stream);
        ctx.ticket = ticket;
        ctx.opsDone = 0;
        ctx.readyAt = sim_.now();
        ctx.taskStart = sim_.now();
        ctx.fetchOff = 0;
        ctx.hasPending = false;
        ctx.hung = false;
        ctx.killed = false;
        ctx.pcBase = workloads::kernelCodeBase(task, 0x4000'0000);
        if (!params_.sharedInstrSegment) {
            // Without segment sharing every context fetches its own
            // copy of the kernel, multiplying the I-footprint.
            ctx.pcBase += static_cast<Addr>(i) << 20;
        }
        // Promote directly when the context's run slot is free.
        const std::uint32_t f = friendOf(i);
        if (f == i || contexts_[f].state != State::Running)
            ctx.state = State::Running;
        else
            ctx.state = State::Ready;
        ++live_;
        ++runnable_;
        return true;
    }
    return false;
}

bool
TcgCore::busy() const
{
    // A stalled context, killed or not, stays live until its load's
    // response arrives, so live contexts cover outstanding loads.
    return liveContexts() > 0 || storeBufferUsed_ > 0;
}

std::uint32_t
TcgCore::holderOf(std::uint32_t slot) const
{
    const Context &a = contexts_[slot];
    const std::uint32_t fi = friendOf(slot);
    if (fi == slot)
        return a.state == State::Running ? slot : kNoHolder;
    const Context &b = contexts_[fi];
    if (params_.scheme == ThreadScheme::NoSwitch) {
        // The slot is owned by one context until it finishes; the
        // friend context provides no latency hiding.
        const std::uint32_t prim = a.state != State::Idle ? slot : fi;
        const State st = contexts_[prim].state;
        return st == State::Running || st == State::Ready ? prim
                                                          : kNoHolder;
    }
    if (a.state == State::Running)
        return slot;
    if (b.state == State::Running)
        return fi;
    // Neither running: a Ready context takes the vacated slot.
    if (a.state == State::Ready)
        return slot;
    if (b.state == State::Ready)
        return fi;
    return kNoHolder;
}

TcgCore::Context *
TcgCore::activeOf(std::uint32_t slot)
{
    const std::uint32_t h = holderOf(slot);
    if (h == kNoHolder)
        return nullptr;
    Context &ctx = contexts_[h];
    if (ctx.state == State::Ready)
        ctx.state = State::Running;
    return &ctx;
}

void
TcgCore::traceStall(const char *reason, std::uint32_t ctx_idx,
                    Cycle now)
{
    sim_.trace().instant(TraceCat::Core, "stall", now, id_,
                         strprintf("{\"reason\":\"%s\",\"ctx\":%u}",
                                   reason, ctx_idx));
}

void
TcgCore::traceTaskDone(const Context &ctx, std::uint32_t ctx_idx,
                       Cycle now)
{
    sim_.trace().complete(
        TraceCat::Core, ctx.task.profile->name, ctx.taskStart, now, id_,
        strprintf("{\"task\":%llu,\"ops\":%llu,\"ctx\":%u}",
                  static_cast<unsigned long long>(ctx.task.id),
                  static_cast<unsigned long long>(ctx.opsDone),
                  ctx_idx));
}

void
TcgCore::stallThread(std::uint32_t ctx_idx, Cycle now)
{
    Context &ctx = contexts_[ctx_idx];
    ctx.state = State::Stalled;
    --runnable_;
    ++stallsMem_;
    if (sim_.trace().enabled(TraceCat::Core)) [[unlikely]]
        traceStall("mem", ctx_idx, now);

    if (params_.scheme == ThreadScheme::NoSwitch)
        return;
    const std::uint32_t fi = friendOf(ctx_idx);
    if (fi == ctx_idx)
        return;
    Context &fr = contexts_[fi];
    if (fr.state == State::Ready) {
        fr.state = State::Running;
        const Cycle penalty = params_.scheme == ThreadScheme::InPair
            ? params_.pairSwitchPenalty
            : params_.coarseSwitchPenalty;
        fr.readyAt = std::max(fr.readyAt, now + penalty);
        ++pairSwitches_;
    }
}

void
TcgCore::loadDone(ThreadId ctx_idx)
{
    const Cycle now = sim_.now();
    sim_.wake(this);
    Context &ctx = contexts_[ctx_idx];
    if (ctx.killed) {
        // Deferred kill: the context was killed while stalled; free
        // it now that its outstanding response has arrived.
        killContext(ctx_idx, now);
        return;
    }
    if (ctx.state != State::Stalled)
        panic("core %u: waking context %u in state %d", id_, ctx_idx,
              static_cast<int>(ctx.state));
    ++runnable_;
    const std::uint32_t fi = friendOf(ctx_idx);
    if (params_.scheme != ThreadScheme::NoSwitch && fi != ctx_idx &&
        contexts_[fi].state == State::Running) {
        // Laxity-aware arbitration may preempt the friend when the
        // woken task is more urgent (lagging behind its deadline).
        if (params_.issuePolicy == IssuePolicy::LaxityAware &&
            ctx.task.laxity(now, ctx.opsDone) <
                contexts_[fi].task.laxity(now, contexts_[fi].opsDone)) {
            contexts_[fi].state = State::Ready;
            ctx.state = State::Running;
            ctx.readyAt = std::max(ctx.readyAt,
                                   now + params_.pairSwitchPenalty);
            ++pairSwitches_;
            return;
        }
        // Friend holds the slot: wait until it stalls (Section 3.1.1).
        ctx.state = State::Ready;
        return;
    }
    ctx.state = State::Running;
    ctx.readyAt = std::max(ctx.readyAt, now);
}

void
TcgCore::handOffSlot(std::uint32_t ctx_idx)
{
    const std::uint32_t fi = friendOf(ctx_idx);
    if (fi != ctx_idx && contexts_[fi].state == State::Ready)
        contexts_[fi].state = State::Running;
}

void
TcgCore::finishTask(std::uint32_t ctx_idx, Cycle now)
{
    ++tasksFinished_;
    if (sim_.trace().enabled(TraceCat::Core)) [[unlikely]]
        traceTaskDone(contexts_[ctx_idx], ctx_idx, now);
    exitContext(ctx_idx, now, true);
}

void
TcgCore::killContext(std::uint32_t ctx_idx, Cycle now)
{
    const Context &ctx = contexts_[ctx_idx];
    ++tasksKilled_;
    if (sim_.trace().enabled(TraceCat::Fault)) [[unlikely]]
        sim_.trace().instant(
            TraceCat::Fault, "core.kill", now, id_,
            strprintf("{\"task\":%llu,\"ctx\":%u,\"ops\":%llu}",
                      static_cast<unsigned long long>(ctx.task.id),
                      ctx_idx,
                      static_cast<unsigned long long>(ctx.opsDone)));
    exitContext(ctx_idx, now, false);
}

void
TcgCore::exitContext(std::uint32_t ctx_idx, Cycle now, bool finished)
{
    Context &ctx = contexts_[ctx_idx];
    if (ctx.state != State::Stalled)
        --runnable_;
    ctx.state = State::Idle;
    --live_;
    ctx.stream.reset();
    ctx.hasPending = false;
    ctx.hung = false;
    ctx.killed = false;
    handOffSlot(ctx_idx);

    if (ctx.ticket != kNoTicket)
        exitHandler_(ctx.ticket, now, finished);
}

bool
TcgCore::injectThreadFault(ThreadFault kind, Rng &rng, Cycle now)
{
    sim_.wake(this);
    std::uint32_t cand[32]; // numThreads <= 2 * maxRunning <= 32
    std::uint32_t n = 0;
    for (std::uint32_t i = 0; i < contexts_.size(); ++i) {
        const Context &c = contexts_[i];
        if (c.killed)
            continue;
        if (kind == ThreadFault::Hang) {
            if ((c.state == State::Running ||
                 c.state == State::Ready) && !c.hung)
                cand[n++] = i;
        } else if (c.state != State::Idle) {
            cand[n++] = i;
        }
    }
    if (n == 0)
        return false;
    const std::uint32_t idx =
        cand[static_cast<std::uint32_t>(rng.nextBelow(n))];
    if (kind == ThreadFault::Hang) {
        contexts_[idx].hung = true;
        ++threadHangs_;
        if (sim_.trace().enabled(TraceCat::Fault)) [[unlikely]]
            sim_.trace().instant(
                TraceCat::Fault, "core.hang", now, id_,
                strprintf("{\"task\":%llu,\"ctx\":%u}",
                          static_cast<unsigned long long>(
                              contexts_[idx].task.id),
                          idx));
        return true;
    }
    if (contexts_[idx].state == State::Stalled)
        contexts_[idx].killed = true; // freed on response arrival
    else
        killContext(idx, now);
    return true;
}

bool
TcgCore::killTask(std::uint32_t ticket, Cycle now)
{
    sim_.wake(this);
    for (std::uint32_t i = 0; i < contexts_.size(); ++i) {
        Context &ctx = contexts_[i];
        if (ctx.state == State::Idle || ctx.killed ||
            ctx.ticket != ticket)
            continue;
        if (ctx.state == State::Stalled)
            ctx.killed = true; // freed on response arrival
        else
            killContext(i, now);
        return true;
    }
    return false;
}

std::uint64_t
TcgCore::taskProgress(std::uint32_t ticket) const
{
    for (const auto &ctx : contexts_) {
        if (ctx.state != State::Idle && !ctx.killed &&
            ctx.ticket == ticket)
            return ctx.opsDone;
    }
    return kNoTask;
}

std::uint32_t
TcgCore::ilpCap(Context &ctx) const
{
    const double ilp = ctx.task.profile->ilp;
    const auto base = static_cast<std::uint32_t>(ilp);
    const double frac = ilp - static_cast<double>(base);
    return base + (ctx.rng.chance(frac) ? 1u : 0u);
}

bool
TcgCore::fetchOk(Context &ctx, Cycle now)
{
    if (ctx.fetchedAt == now)
        return true;
    ctx.fetchedAt = now;
    const std::uint64_t footprint =
        std::max<std::uint64_t>(ctx.task.profile->instrFootprint, 256);
    const Addr pc = ctx.pcBase + (ctx.fetchOff % footprint);
    ctx.fetchOff += 16; // one fetch group of four 32-bit instructions
    if (icache_.access(pc, false).hit)
        return true;
    // Refill from the prefetched SPM instruction segment.
    ctx.readyAt = std::max(ctx.readyAt, now + params_.icacheMissPenalty);
    ++starveCycles_;
    if (sim_.trace().enabled(TraceCat::Core)) [[unlikely]]
        traceStall("istarve",
                   static_cast<std::uint32_t>(&ctx - contexts_.data()),
                   now);
    return false;
}

void
TcgCore::commitOp(Context &ctx)
{
    ctx.hasPending = false;
    ++ctx.opsDone;
    ++committed_;
    ++slotsUsed_;
}

bool
TcgCore::issueBlockingLoad(std::uint32_t ctx_idx, Context &ctx,
                           const MicroOp &op, Cycle now)
{
    commitOp(ctx);
    stallThread(ctx_idx, now);
    port_.request(id_, ctx_idx, op, mem::AccessClass::Load);
    return false;
}

bool
TcgCore::issuePostedStore(std::uint32_t ctx_idx, Context &ctx,
                          const MicroOp &op)
{
    if (storeBufferUsed_ >= params_.storeBufferSlots)
        return false; // retry next cycle (op stays pending)
    ++storeBufferUsed_;
    commitOp(ctx);
    port_.request(id_, ctx_idx, op, mem::AccessClass::Store);
    return true;
}

void
TcgCore::storeDone()
{
    if (storeBufferUsed_ == 0)
        panic("core %u: store completion with an empty store buffer",
              id_);
    --storeBufferUsed_;
}

bool
TcgCore::executeOp(std::uint32_t ctx_idx, Context &ctx,
                   const MicroOp &op, Cycle now)
{
    switch (op.kind) {
      case OpKind::Halt:
        ctx.hasPending = false;
        finishTask(ctx_idx, now);
        return false;

      case OpKind::Alu:
        commitOp(ctx);
        return true;

      case OpKind::Mul:
      case OpKind::Fp:
        commitOp(ctx);
        if (op.execLatency > 1) {
            ctx.readyAt = now + op.execLatency - 1;
            return false;
        }
        return true;

      case OpKind::Branch:
        commitOp(ctx);
        if (op.mispredict) {
            ctx.readyAt = now + params_.branchPenalty;
            return false;
        }
        return true;

      case OpKind::Load:
      case OpKind::Store:
        break;
    }

    // Memory operation.
    const bool is_store = op.isStore();
    switch (op.memClass) {
      case MemClass::SpmLocal:
        spm_.access(is_store);
        commitOp(ctx);
        return true;

      case MemClass::Heap: {
        const auto res = dcache_.access(op.addr, is_store);
        if (res.writeback)
            port_.writeback(id_, res.victimAddr);
        if (res.hit) {
            commitOp(ctx);
            return true;
        }
        // Line fill from DRAM; a store miss write-allocates through
        // the store buffer.
        MicroOp fill = op;
        fill.size = static_cast<std::uint8_t>(64);
        fill.addr = op.addr & ~Addr{63};
        return is_store ? issuePostedStore(ctx_idx, ctx, fill)
                        : issueBlockingLoad(ctx_idx, ctx, fill, now);
      }

      case MemClass::Stream:
        if (!is_store) {
            if (!ctx.rng.chance(ctx.task.profile->streamLoadBlocking)) {
                // Staged into the SPM by the runtime's DMA prefetch.
                spm_.access(false);
                commitOp(ctx);
                return true;
            }
        }
        [[fallthrough]];
      case MemClass::SpmRemote:
        return is_store ? issuePostedStore(ctx_idx, ctx, op)
                        : issueBlockingLoad(ctx_idx, ctx, op, now);

      case MemClass::None:
        break;
    }
    panic("core %u: memory op with MemClass::None", id_);
}

void
TcgCore::tick(Cycle now)
{
    if (liveContexts() == 0)
        return;
    // While no slot holder can issue (all wait on memory, on their
    // readyAt or are hung) this full tick only counts, rotates and
    // draws the pairing tax and the holders' ILP caps: what
    // skipTicks() replays for a sleeping core. Forced mode ticks such
    // a core every cycle, so the two kernel modes cross-check.
    ++cyclesActive_;
    slotsOffered_ += static_cast<double>(params_.issueWidth);

    // Slot visit order: round-robin rotation or least-laxity-first.
    std::uint32_t order[16];
    const std::uint32_t nslots = params_.maxRunning;
    for (std::uint32_t s = 0; s < nslots; ++s)
        order[s] = s;
    if (params_.issuePolicy == IssuePolicy::RoundRobin) {
        std::rotate(order, order + (rrSlot_ % nslots), order + nslots);
        ++rrSlot_;
    } else {
        double laxity[16];
        double min_laxity = std::numeric_limits<double>::infinity();
        for (std::uint32_t s = 0; s < nslots; ++s) {
            const Context *c = activeOf(s);
            laxity[s] = c ? c->task.laxity(now, c->opsDone)
                          : std::numeric_limits<double>::infinity();
            min_laxity = std::min(min_laxity, laxity[s]);
        }
        std::sort(order, order + nslots,
                  [&laxity](std::uint32_t a, std::uint32_t b) {
                      return laxity[a] < laxity[b];
                  });
        // Hard gate: pause leaders so lagging deadline tasks close
        // the gap (drop them from this cycle's issue order).
        if (std::isfinite(min_laxity)) {
            std::uint32_t kept = 0;
            for (std::uint32_t k = 0; k < nslots; ++k) {
                if (laxity[order[k]] <=
                    min_laxity + static_cast<double>(params_.laxityGate))
                    order[kept++] = order[k];
            }
            for (std::uint32_t k = kept; k < nslots; ++k)
                order[k] = ~0u; // sentinel: skip
        }
    }

    std::uint32_t budget = params_.issueWidth;
    if (liveContexts() > params_.maxRunning && budget > 0 &&
        rng_.chance(params_.pairingSelectTax))
        --budget;
    for (std::uint32_t k = 0; k < nslots && budget > 0; ++k) {
        if (order[k] == ~0u)
            continue; // laxity-gated leader
        Context *ctx = activeOf(order[k]);
        if (!ctx)
            continue;
        if (ctx->hung)
            continue; // frozen fault: occupies its slot, issues nothing
        const std::uint32_t ctx_idx =
            static_cast<std::uint32_t>(ctx - contexts_.data());
        const std::uint32_t cap = ilpCap(*ctx);
        std::uint32_t issued = 0;
        while (budget > 0 && issued < cap) {
            if (ctx->state != State::Running || ctx->readyAt > now)
                break;
            if (!fetchOk(*ctx, now))
                break;
            if (!ctx->hasPending) {
                if (!ctx->stream || !ctx->stream->next(ctx->pending)) {
                    finishTask(ctx_idx, now);
                    break;
                }
                ctx->hasPending = true;
            }
            const MicroOp op = ctx->pending;
            const std::uint64_t before = ctx->opsDone;
            const bool keep_going = executeOp(ctx_idx, *ctx, op, now);
            if (ctx->opsDone > before) {
                ++issued;
                --budget;
            }
            if (!keep_going)
                break;
        }
    }
}

double
TcgCore::ipc() const
{
    const double cycles = cyclesActive_.value();
    return cycles > 0.0 ? committed_.value() / cycles : 0.0;
}

double
TcgCore::starvationRatio() const
{
    const double offered = slotsOffered_.value();
    return offered > 0.0
        ? starveCycles_.value() / (offered / params_.issueWidth)
        : 0.0;
}

} // namespace smarco::core
