/**
 * @file
 * Discrete-event queue for one-shot timed callbacks.
 *
 * The SmarCo simulator is primarily cycle-driven (see Simulator), but
 * components use the event queue for sparse, latency-shaped actions:
 * memory response arrival, DRAM channel service, task release and
 * dispatch delay, request arrival and retry, NoC retransmission,
 * fault arrival and recovery.
 * Events fire in (cycle, scheduling order), which keeps runs
 * bit-reproducible.
 */
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/bit_calendar.hpp"
#include "sim/types.hpp"

namespace smarco {

/** Callback invoked when its scheduled cycle is reached. */
using EventFn = std::function<void()>;

/**
 * Calendar queue of timed callbacks, fired in (cycle, insertion
 * sequence) order.
 *
 * Most events land a few cycles to a few hundred cycles ahead (DRAM
 * service and completion, NoC hops), so the queue keeps a window of
 * kWindow cycles starting at the first cycle not yet fired through.
 * An event due inside the window is appended to its cycle's FIFO
 * bucket in O(1); an occupancy bitmap finds the next busy bucket. Any
 * other event (further ahead, or at or before a cycle already fired)
 * goes to a small (cycle, sequence) heap. The two never disagree on
 * order: a heap entry for a cycle c still in the future was scheduled
 * before c entered the window, so before every bucket entry of c, and
 * fires first; a heap entry for a cycle already passed has no bucket
 * entry left beside it.
 */
class EventQueue
{
  public:
    /** Cycles the bucket window spans; a power of two. */
    static constexpr Cycle kWindow = 1024;

    EventQueue() = default;

    /** Schedule fn to run at absolute cycle when. An event for a cycle
     *  already fired through runs at the next runUntil. */
    void schedule(Cycle when, EventFn fn);

    /** Cycle of the earliest pending event, or kNoCycle if empty. */
    Cycle nextEventCycle() const { return next_; }

    /**
     * Fire every event with cycle <= now, in deterministic order.
     * Events scheduled during processing for cycles <= now also fire.
     * @return number of events fired.
     */
    std::size_t
    runUntil(Cycle now)
    {
        if (next_ > now) {
            if (now >= base_)
                base_ = now + 1;
            return 0;
        }
        return fireThrough(now);
    }

    bool empty() const { return size() == 0; }
    std::size_t size() const { return far_.size() + bucketed_; }

  private:
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};
    using Occupancy = BucketOccupancy<kWindow>;

    /** One bucketed event; a free node links the free list. */
    struct Node {
        EventFn fn;
        std::uint32_t next = kNil;
    };
    /** FIFO of one window cycle's nodes; valid while its bit is set. */
    struct Bucket {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
    };
    struct FarEntry {
        Cycle when;
        std::uint64_t seq;
        EventFn fn;
    };
    struct Later {
        bool
        operator()(const FarEntry &a, const FarEntry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::size_t fireThrough(Cycle now);
    /** Remove and return the first event of cycle c, the earliest
     *  pending cycle. */
    EventFn pop(Cycle c);
    /** Earliest pending cycle, found from the heap and the bitmap. */
    Cycle scanNext() const;

    /** Every bucketed event's cycle lies in [base_, base_ + kWindow);
     *  every cycle before base_ has fired. */
    Cycle base_ = 0;
    /** Earliest pending cycle, kept exact by schedule and pop. */
    Cycle next_ = kNoCycle;
    std::size_t bucketed_ = 0;
    std::array<Bucket, kWindow> buckets_{};
    Occupancy occupied_;
    /** Bucketed events' storage; freed nodes are reused first. */
    std::vector<Node> nodes_;
    std::uint32_t freeNode_ = kNil;
    /** Min-heap under Later, kept with std::push_heap/pop_heap so a
     *  fired entry can be moved out instead of copied. */
    std::vector<FarEntry> far_;
    std::uint64_t farSeq_ = 0;
};

} // namespace smarco
