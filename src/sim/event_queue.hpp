/**
 * @file
 * Discrete-event queue for one-shot timed callbacks.
 *
 * The SmarCo simulator is primarily cycle-driven (see Simulator), but
 * components use the event queue for sparse, latency-shaped actions:
 * memory response arrival, DRAM channel service, task release and
 * dispatch delay, request arrival and retry, NoC retransmission,
 * fault arrival and recovery.
 * Events scheduled for the same cycle fire in scheduling order, which
 * keeps runs bit-reproducible.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/types.hpp"

namespace smarco {

/** Callback invoked when its scheduled cycle is reached. */
using EventFn = std::function<void()>;

/**
 * Min-heap of timed callbacks ordered by (cycle, insertion sequence).
 */
class EventQueue
{
  public:
    EventQueue() = default;

    /** Schedule fn to run at absolute cycle when (>= current head). */
    void schedule(Cycle when, EventFn fn);

    /** Cycle of the earliest pending event, or kNoCycle if empty. */
    Cycle nextEventCycle() const;

    /**
     * Fire every event with cycle <= now, in deterministic order.
     * Events scheduled during processing for cycles <= now also fire.
     * @return number of events fired.
     */
    std::size_t runUntil(Cycle now);

    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }

  private:
    struct Entry {
        Cycle when;
        std::uint64_t seq;
        EventFn fn;
    };
    struct Later {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /** Min-heap under Later, kept with std::push_heap/pop_heap so a
     *  fired entry can be moved out instead of copied. */
    std::vector<Entry> heap_;
    std::uint64_t nextSeq_ = 0;
};

} // namespace smarco
