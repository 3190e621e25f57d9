/**
 * @file
 * RAM-based task chain tables (Section 3.7, Fig. 16).
 *
 * The hardware sub-ring scheduler keeps three chain tables: a null
 * chain of free entries, a normal chain, and a high-priority chain.
 * Entries live in a RAM array linked by next-indices (the paper uses
 * RAM instead of CAM to save area/power); insertion appends to the
 * tail of the class chain, and the pop operation walks the chain to
 * find the least-laxity task.
 *
 * The RAM is reserved at construction but an entry is built only when
 * an insert first needs it: the null chain holds the freed entries
 * (most recently freed first), and an insert that finds it empty
 * builds the next never-used entry while fewer than capacity exist.
 * That hands out entries in the order a fully threaded null chain
 * would, so a table costs no per-entry work until tasks arrive.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include <vector>

#include "sim/types.hpp"
#include "workloads/task.hpp"

namespace smarco::sched {

/** The three-chain task table. */
class TaskChainTable
{
  public:
    explicit TaskChainTable(std::uint32_t capacity = 512);

    /**
     * Append a task to its class chain (high when realtime).
     * @return false when no free (null-chain) entry remains.
     */
    bool insert(const workloads::TaskSpec &task);

    /**
     * Remove and return the next task to dispatch: the least-laxity
     * entry of the high-priority chain, else that of the normal
     * chain. Ties (tasks without deadlines included) go to the entry
     * nearest the head, so equal-laxity tasks leave in FIFO order.
     */
    std::optional<workloads::TaskSpec> popNext(Cycle now);

    std::uint32_t size() const { return used_; }
    bool empty() const { return used_ == 0; }
    std::uint32_t capacity() const { return capacity_; }

    /**
     * Smallest release time of any queued task (kNoCycle when empty).
     * Lets the scheduler sleep instead of polling while everything
     * queued is released in the future. O(1) amortised: maintained on
     * insert, recomputed on detach of the current minimum.
     */
    Cycle earliestRelease() const
    { return used_ > 0 ? minRelease_ : kNoCycle; }

  private:
    static constexpr std::int32_t kNil = -1;

    struct Entry {
        workloads::TaskSpec task;
        std::int32_t next = kNil;
    };

    /** Detach the entry after prev (or the head) from a chain. */
    workloads::TaskSpec detach(std::int32_t *head, std::int32_t *tail,
                               std::int32_t prev);
    /** Full walk of both class chains to refresh minRelease_. */
    void recomputeMinRelease();
    std::optional<workloads::TaskSpec> popFrom(std::int32_t *head,
                                               std::int32_t *tail,
                                               Cycle now);

    /** Entries built so far; reserved to capacity_, never above. */
    std::vector<Entry> ram_;
    std::uint32_t capacity_;
    std::int32_t freeHead_ = kNil;          // null thread chain
    std::int32_t normalHead_ = kNil, normalTail_ = kNil;
    std::int32_t highHead_ = kNil, highTail_ = kNil;
    std::uint32_t used_ = 0;
    Cycle minRelease_ = kNoCycle;
};

} // namespace smarco::sched
