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
    if (when < next_)
        next_ = when;
    // Unsigned: a cycle before base_ wraps past the window too.
    if (when - base_ >= kWindow) {
        far_.push_back(FarEntry{when, farSeq_++, std::move(fn)});
        std::push_heap(far_.begin(), far_.end(), Later{});
        return;
    }

    std::uint32_t n = freeNode_;
    if (n != kNil) {
        freeNode_ = nodes_[n].next;
        nodes_[n].fn = std::move(fn);
        nodes_[n].next = kNil;
    } else {
        n = static_cast<std::uint32_t>(nodes_.size());
        nodes_.push_back(Node{std::move(fn), kNil});
    }
    const std::size_t i = Occupancy::bucketOf(when);
    Bucket &b = buckets_[i];
    if (occupied_.test(i))
        nodes_[b.tail].next = n;
    else {
        occupied_.set(i);
        b.head = n;
    }
    b.tail = n;
    ++bucketed_;
}

EventFn
EventQueue::pop(Cycle c)
{
    if (!far_.empty() && far_.front().when == c) {
        std::pop_heap(far_.begin(), far_.end(), Later{});
        EventFn fn = std::move(far_.back().fn);
        far_.pop_back();
        return fn;
    }
    const std::size_t i = Occupancy::bucketOf(c);
    Bucket &b = buckets_[i];
    const std::uint32_t n = b.head;
    EventFn fn = std::move(nodes_[n].fn);
    b.head = nodes_[n].next;
    if (b.head == kNil)
        occupied_.reset(i);
    nodes_[n].next = freeNode_;
    freeNode_ = n;
    --bucketed_;
    return fn;
}

Cycle
EventQueue::scanNext() const
{
    const Cycle far = far_.empty() ? kNoCycle : far_.front().when;
    if (bucketed_ == 0)
        return far;
    return std::min(far,
                    base_ + occupied_.distanceFrom(Occupancy::bucketOf(base_)));
}

std::size_t
EventQueue::fireThrough(Cycle now)
{
    std::size_t fired = 0;
    while (next_ <= now) {
        const Cycle c = next_;
        // Every cycle before c has fired, so the window may start at
        // c: events scheduled while c fires then land in buckets.
        if (c > base_)
            base_ = c;
        // Move out before firing so the callback may schedule new
        // events.
        EventFn fn = pop(c);
        next_ = scanNext();
        fn();
        ++fired;
    }
    if (now >= base_)
        base_ = now + 1;
    return fired;
}

} // namespace smarco
