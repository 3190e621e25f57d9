#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

#include "sim/logging.hpp"

namespace smarco {

void
EventQueue::schedule(Cycle when, EventFn fn)
{
    if (!fn)
        panic("EventQueue::schedule: empty callback");
    heap_.push_back(Entry{when, nextSeq_++, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
}

Cycle
EventQueue::nextEventCycle() const
{
    return heap_.empty() ? kNoCycle : heap_.front().when;
}

std::size_t
EventQueue::runUntil(Cycle now)
{
    std::size_t fired = 0;
    while (!heap_.empty() && heap_.front().when <= now) {
        // Move out before firing so the callback may schedule new
        // events.
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        EventFn fn = std::move(heap_.back().fn);
        heap_.pop_back();
        fn();
        ++fired;
    }
    return fired;
}

} // namespace smarco
