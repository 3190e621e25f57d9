#include "sim/event_queue.hpp"

#include <utility>

#include "sim/logging.hpp"

namespace smarco {

void
EventQueue::schedule(Cycle when, EventFn fn)
{
    if (!fn)
        panic("EventQueue::schedule: empty callback");
    heap_.push(Entry{when, nextSeq_++, std::move(fn)});
}

Cycle
EventQueue::nextEventCycle() const
{
    return heap_.empty() ? kNoCycle : heap_.top().when;
}

std::size_t
EventQueue::runUntil(Cycle now)
{
    std::size_t fired = 0;
    while (!heap_.empty() && heap_.top().when <= now) {
        // Copy out before pop so the callback may schedule new events.
        EventFn fn = heap_.top().fn;
        heap_.pop();
        fn();
        ++fired;
    }
    return fired;
}

} // namespace smarco
