#include "sched/chain_table.hpp"

#include <algorithm>
#include <limits>

#include "sim/logging.hpp"

namespace smarco::sched {

TaskChainTable::TaskChainTable(std::uint32_t capacity)
    : capacity_(capacity)
{
    if (capacity == 0)
        fatal("TaskChainTable: zero capacity");
    ram_.reserve(capacity);
}

bool
TaskChainTable::insert(const workloads::TaskSpec &task)
{
    std::int32_t idx;
    if (freeHead_ != kNil) {
        idx = freeHead_;
        freeHead_ = ram_[idx].next;
        ram_[idx].task = task;
        ram_[idx].next = kNil;
    } else if (ram_.size() < capacity_) {
        idx = static_cast<std::int32_t>(ram_.size());
        ram_.push_back(Entry{task, kNil});
    } else {
        return false;
    }

    std::int32_t *head = task.realtime ? &highHead_ : &normalHead_;
    std::int32_t *tail = task.realtime ? &highTail_ : &normalTail_;
    if (*tail == kNil) {
        *head = idx;
        *tail = idx;
    } else {
        ram_[*tail].next = idx;
        *tail = idx;
    }
    ++used_;
    if (used_ == 1 || task.release < minRelease_)
        minRelease_ = task.release;
    return true;
}

void
TaskChainTable::recomputeMinRelease()
{
    minRelease_ = kNoCycle;
    for (std::int32_t i = highHead_; i != kNil; i = ram_[i].next)
        minRelease_ = std::min(minRelease_, ram_[i].task.release);
    for (std::int32_t i = normalHead_; i != kNil; i = ram_[i].next)
        minRelease_ = std::min(minRelease_, ram_[i].task.release);
}

workloads::TaskSpec
TaskChainTable::detach(std::int32_t *head, std::int32_t *tail,
                       std::int32_t prev)
{
    const std::int32_t idx = prev == kNil ? *head : ram_[prev].next;
    if (idx == kNil)
        panic("TaskChainTable::detach on empty chain");
    const std::int32_t nxt = ram_[idx].next;
    if (prev == kNil)
        *head = nxt;
    else
        ram_[prev].next = nxt;
    if (*tail == idx)
        *tail = prev;

    workloads::TaskSpec task = ram_[idx].task;
    ram_[idx].next = freeHead_;
    freeHead_ = idx;
    --used_;
    if (task.release == minRelease_)
        recomputeMinRelease();
    return task;
}

std::optional<workloads::TaskSpec>
TaskChainTable::popFrom(std::int32_t *head, std::int32_t *tail,
                        Cycle now)
{
    if (*head == kNil)
        return std::nullopt;
    // Walk the chain for the least-laxity entry (what the RAM-based
    // hardware does sequentially).
    std::int32_t prev = kNil, best_prev = kNil;
    double best = std::numeric_limits<double>::infinity();
    for (std::int32_t i = *head; i != kNil; i = ram_[i].next) {
        const double l = ram_[i].task.laxity(now);
        if (l < best) {
            best = l;
            best_prev = prev;
        }
        prev = i;
    }
    return detach(head, tail, best_prev);
}

std::optional<workloads::TaskSpec>
TaskChainTable::popNext(Cycle now)
{
    if (auto task = popFrom(&highHead_, &highTail_, now))
        return task;
    return popFrom(&normalHead_, &normalTail_, now);
}

} // namespace smarco::sched
