#include "noc/ring.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "sim/logging.hpp"

namespace smarco::noc {

namespace {

/** bytes rounded up to whole slices. */
std::uint32_t
quantise(std::uint32_t bytes, std::uint32_t slice)
{
    if ((slice & (slice - 1)) == 0) // a power of two: slice > 0
        return (bytes + slice - 1) & ~(slice - 1);
    return ((bytes + slice - 1) / slice) * slice;
}

/** bytes rounded down to whole slices. */
std::uint32_t
floorToSlice(std::uint32_t bytes, std::uint32_t slice)
{
    if ((slice & (slice - 1)) == 0)
        return bytes & ~(slice - 1);
    return (bytes / slice) * slice;
}

} // namespace

void
Ring::SlotFifo::grow()
{
    const std::size_t cap = buf_.empty() ? 4 : 2 * buf_.size();
    std::vector<std::uint32_t> bigger(cap);
    for (std::uint32_t k = 0; k < size_; ++k)
        bigger[k] = buf_[(head_ + k) & mask_];
    buf_ = std::move(bigger);
    head_ = 0;
    mask_ = static_cast<std::uint32_t>(cap - 1);
}

Ring::Ring(Simulator &sim, RingParams params,
           const std::string &stat_prefix)
    : sim_(sim),
      params_(std::move(params)),
      stops_(params_.numStops),
      handlers_(params_.numStops),
      ejectMask_((params_.numStops + 63) / 64, 0),
      queuedMask_((params_.numStops + 63) / 64, 0),
      delivered_(sim.stats(), stat_prefix + ".delivered",
                 "packets delivered"),
      injected_(sim.stats(), stat_prefix + ".injected",
                "packets injected"),
      injectRejects_(sim.stats(), stat_prefix + ".injectRejects",
                     "injections refused (queue full)"),
      bytesMoved_(sim.stats(), stat_prefix + ".bytesMoved",
                  "payload bytes moved across links"),
      wireBytesUsed_(sim.stats(), stat_prefix + ".wireBytesUsed",
                     "slice-quantised wire bytes consumed"),
      cyclesTicked_(sim.stats(), stat_prefix + ".cycles",
                    "cycles this ring was ticked"),
      drops_(sim.stats(), stat_prefix + ".faultDrops",
             "packets dropped by the link fault model"),
      retransmits_(sim.stats(), stat_prefix + ".retransmits",
                   "NACK-triggered retransmissions"),
      dupsSuppressed_(sim.stats(), stat_prefix + ".dupsSuppressed",
                      "duplicate deliveries suppressed at ejection"),
      linkDegrades_(sim.stats(), stat_prefix + ".linkDegrades",
                    "link degradation windows applied"),
      hopLatency_(sim.stats(), stat_prefix + ".latency",
                  "mean in-ring packet latency (cycles)"),
      occupancy_(sim.stats(), stat_prefix + ".occupancy",
                 "mean queued packets per cycle")
{
    if (params_.numStops < 3)
        fatal("ring %s: need at least 3 stops", params_.name.c_str());
    if (params_.fixedBytesPerDir == 0 && params_.flexBytes == 0)
        fatal("ring %s: zero link width", params_.name.c_str());
    // Slices wider than a datapath are clamped to the per-cycle
    // budget at transfer time (they behave like conventional links).
    sim.addTicking(this);
}

void
Ring::setHandler(std::uint32_t stop, Handler handler)
{
    if (stop >= stops_.size())
        panic("ring %s: setHandler on stop %u of %zu",
              params_.name.c_str(), stop, stops_.size());
    handlers_[stop] = std::move(handler);
}

std::uint32_t
Ring::distance(std::uint32_t a, std::uint32_t b, std::uint32_t dir) const
{
    if (dir != 0)
        std::swap(a, b);
    return b >= a ? b - a : b + params_.numStops - a;
}

std::uint32_t
Ring::alloc()
{
    if (freeSlots_.empty()) {
        pool_.emplace_back();
        packets_.emplace_back();
        return static_cast<std::uint32_t>(pool_.size() - 1);
    }
    const std::uint32_t slot = freeSlots_.back();
    freeSlots_.pop_back();
    return slot;
}

bool
Ring::inject(std::uint32_t src_stop, std::uint32_t dst_stop,
             Packet &&pkt)
{
    if (src_stop >= stops_.size() || dst_stop >= stops_.size())
        panic("ring %s: inject %u->%u out of range",
              params_.name.c_str(), src_stop, dst_stop);
    if (src_stop == dst_stop)
        panic("ring %s: self-injection at stop %u",
              params_.name.c_str(), src_stop);

    Stop &s = stops_[src_stop];

    // Direction choice (Fig. 7): shortest path first, but divert to
    // the longer way when the preferred side is clearly congested and
    // the detour is not much longer.
    const std::uint32_t d0 = distance(src_stop, dst_stop, 0);
    const std::uint32_t d1 = distance(src_stop, dst_stop, 1);
    std::uint32_t dir = d0 <= d1 ? 0 : 1;
    const std::uint32_t alt = dir ^ 1;
    const std::uint64_t pref_q =
        s.inject[dir].size() + s.through[dir].size();
    const std::uint64_t alt_q =
        s.inject[alt].size() + s.through[alt].size();
    const std::uint32_t detour =
        (dir == 0 ? d1 : d0) - std::min(d0, d1);
    if (pref_q > alt_q + 4 && detour <= params_.numStops / 4)
        dir = alt;

    if (s.inject[dir].size() >= params_.injectQueueCap) {
        ++injectRejects_;
        return false;
    }

    const std::uint32_t bytes =
        std::max<std::uint32_t>(pkt.payloadBytes, 1);
    const bool priority = pkt.priority;
    sim_.wake(this);
    const std::uint32_t slot = alloc();
    packets_[slot] = std::move(pkt);
    pool_[slot] = Transit{dst_stop, bytes, bytes, 0};
    s.pending[dir] += bytes;
    ++queued_;
    if (priority)
        s.inject[dir].push_front(slot);
    else
        s.inject[dir].push_back(slot);
    updateMasks(src_stop);
    ++inFlight_;
    ++injected_;
    if (sim_.trace().enabled(TraceCat::Noc))
        sim_.trace().instant(
            TraceCat::Noc, params_.name + ".inject", sim_.now(),
            src_stop,
            strprintf("{\"dst\":%u,\"dir\":%u,\"bytes\":%u}",
                      dst_stop, dir, bytes));
    return true;
}

void
Ring::setFaults(const RingFaultParams &faults)
{
    sim_.wake(this);
    faults_ = faults;
    if (faults_.dropProb > 0.0 && !faults_.rng)
        panic("ring %s: dropProb without an RNG", params_.name.c_str());
}

void
Ring::armDrop(std::uint32_t count)
{
    sim_.wake(this);
    dropArm_ += count;
}

void
Ring::armDuplicate(std::uint32_t count)
{
    sim_.wake(this);
    dupArm_ += count;
    dedupOn_ = true;
}

void
Ring::degradeLink(std::uint32_t stop, std::uint32_t dir, double factor,
                  Cycle until)
{
    if (stop >= stops_.size() || dir > 1)
        panic("ring %s: degradeLink(%u, %u) out of range",
              params_.name.c_str(), stop, dir);
    sim_.wake(this);
    degrades_.push_back({stop, dir, factor, until});
    ++linkDegrades_;
    if (sim_.trace().enabled(TraceCat::Fault))
        sim_.trace().complete(
            TraceCat::Fault, params_.name + ".degrade", sim_.now(),
            until, stop,
            strprintf("{\"dir\":%u,\"factor\":%f}", dir, factor));
}

bool
Ring::shouldDrop(const Transit &t)
{
    if (t.retries >= faults_.maxRetransmits)
        return false; // protected retransmission: must get through
    if (dropArm_ > 0) {
        --dropArm_;
        return true;
    }
    return faults_.dropProb > 0.0 && faults_.rng &&
        faults_.rng->chance(faults_.dropProb);
}

void
Ring::scheduleRetransmit(std::uint32_t src_stop, std::uint32_t d,
                         std::uint32_t slot, Cycle now)
{
    ++drops_;
    ++retransmits_;
    if (sim_.trace().enabled(TraceCat::Fault))
        sim_.trace().instant(
            TraceCat::Fault, params_.name + ".drop", now, src_stop,
            strprintf("{\"dir\":%u,\"retries\":%u}", d,
                      pool_[slot].retries));
    // The packet stays accounted in inFlight_ (the ring remains busy)
    // while the NACK is in flight; the retransmission re-enters at
    // the head of the source through-queue, ahead of younger traffic.
    sim_.events().schedule(
        now + faults_.nackDelay,
        [this, src_stop, d, slot] {
            sim_.wake(this);
            Stop &s = stops_[src_stop];
            s.pending[d] += pool_[slot].remBytes;
            ++queued_;
            s.through[d].push_front(slot);
            updateMasks(src_stop);
        });
}

bool
Ring::dedupSeen(std::uint64_t id)
{
    return dedupSet_.count(id) != 0;
}

void
Ring::dedupRecord(std::uint64_t id)
{
    if (!dedupSet_.insert(id).second)
        return;
    dedupFifo_.push_back(id);
    if (dedupFifo_.size() > 512) {
        dedupSet_.erase(dedupFifo_.front());
        dedupFifo_.pop_front();
    }
}

std::uint32_t
Ring::dirBudget(const Stop &s, std::uint32_t stop_idx, std::uint32_t d,
                Cycle now) const
{
    std::uint32_t budget = params_.fixedBytesPerDir;
    if (params_.flexBytes > 0) {
        // Assign each bidirectional datapath unit to the direction
        // with more pending bytes this cycle.
        const std::uint64_t p0 = s.pending[0];
        const std::uint64_t p1 = s.pending[1];
        const std::uint32_t units = params_.flexBytes / kFlexUnitBytes;
        std::uint32_t mine = 0;
        if (p0 == p1) {
            mine = units / 2 + (d == 0 ? units % 2 : 0);
        } else {
            const std::uint32_t heavy = p0 > p1 ? 0u : 1u;
            // Heavier side takes all but one unit (keeps a trickle
            // flowing the other way), unless the light side is empty.
            const std::uint64_t light_pending = heavy == 0 ? p1 : p0;
            std::uint32_t heavy_units =
                light_pending == 0 ? units
                                   : (units > 1 ? units - 1 : units);
            mine = d == heavy ? heavy_units : units - heavy_units;
        }
        budget += mine * kFlexUnitBytes;
    }
    bool degraded = false;
    for (const Degrade &g : degrades_) {
        if (g.stop == stop_idx && g.dir == d && now < g.until) {
            budget = static_cast<std::uint32_t>(
                static_cast<double>(budget) * g.factor);
            degraded = true;
        }
    }
    // A degraded link still trickles (floored at one byte per cycle)
    // so traffic behind it drains instead of wedging.
    return degraded ? std::max<std::uint32_t>(budget, 1) : budget;
}

void
Ring::eject(Stop &s, std::uint32_t stop_idx, Cycle now)
{
    // The ejection port mirrors the link: sliced links can sink
    // several small packets per cycle, a conventional wide link
    // delivers one packet per cycle per direction.
    const std::uint32_t port_bytes =
        params_.fixedBytesPerDir + params_.flexBytes;
    for (std::uint32_t d = 0; d < 2; ++d) {
        const std::uint32_t slice = params_.sliceBytes == 0
            ? port_bytes
            : std::min(params_.sliceBytes, port_bytes);
        std::uint32_t remaining = port_bytes;
        while (!s.through[d].empty() && remaining > 0) {
            const std::uint32_t slot = s.through[d].front();
            const Transit &head = pool_[slot];
            if (head.dstStop != stop_idx)
                break;
            const std::uint32_t need = quantise(head.wireBytes, slice);
            if (need > remaining && remaining != port_bytes)
                break; // next cycle
            remaining -= std::min(need, remaining);
            s.pending[d] -= head.remBytes;
            // The slot is free before the handler can inject (and
            // grow pool_ and packets_).
            Packet pkt = std::move(packets_[slot]);
            freeSlots_.push_back(slot);
            const Cycle lat = now - pkt.created;
            s.through[d].pop_front();
            --queued_;
            --inFlight_;
            if (dedupOn_ && pkt.id != 0) {
                if (dedupSeen(pkt.id)) {
                    // Retired duplicate: port bytes were consumed,
                    // but the payload is delivered exactly once.
                    ++dupsSuppressed_;
                    continue;
                }
                dedupRecord(pkt.id);
            }
            ++delivered_;
            hopLatency_.sample(static_cast<double>(lat));
            if (sim_.trace().enabled(TraceCat::Noc))
                sim_.trace().instant(
                    TraceCat::Noc, params_.name + ".eject", now,
                    stop_idx,
                    strprintf("{\"latency\":%llu,\"bytes\":%u}",
                              static_cast<unsigned long long>(lat),
                              std::max<std::uint32_t>(
                                  pkt.payloadBytes, 1)));
            if (const Handler &handler = handlers_[stop_idx])
                handler(std::move(pkt));
        }
    }
}

void
Ring::updateMasks(std::uint32_t i)
{
    const Stop &s = stops_[i];
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    const auto ejects_here = [this, i](const SlotFifo &q) {
        return !q.empty() && pool_[q.front()].dstStop == i;
    };
    const bool eject = ejects_here(s.through[0]) || ejects_here(s.through[1]);
    const bool queued = !s.through[0].empty() || !s.through[1].empty() ||
                        !s.inject[0].empty() || !s.inject[1].empty();
    std::uint64_t &ew = ejectMask_[i / 64];
    std::uint64_t &qw = queuedMask_[i / 64];
    ew = eject ? ew | bit : ew & ~bit;
    qw = queued ? qw | bit : qw & ~bit;
}

void
Ring::stage(std::uint32_t next, std::uint32_t d, std::uint32_t slot)
{
    Stop &ns = stops_[next];
    if (ns.staged[0].empty() && ns.staged[1].empty())
        stagedStops_.push_back(next);
    ns.staged[d].push_back(slot);
}

void
Ring::send(std::uint32_t i, Cycle now)
{
    const std::uint32_t n = params_.numStops;
    Stop &s = stops_[i];
    for (std::uint32_t d = 0; d < 2; ++d) {
        if (s.through[d].empty() && s.inject[d].empty())
            continue; // nothing wants this link
        const std::uint32_t next = d == 0 ? (i + 1 == n ? 0 : i + 1)
                                          : (i == 0 ? n - 1 : i - 1);
        Stop &ns = stops_[next];
        const std::uint32_t budget = dirBudget(s, i, d, now);
        const std::uint32_t slice = params_.sliceBytes == 0
            ? budget
            : std::min(params_.sliceBytes, budget);
        std::uint32_t remaining = budget;

        // Greedy switch allocation: drain through-traffic first, then
        // local injections, packing packets while slices remain
        // (Section 3.3).
        for (int source = 0; source < 2 && remaining > 0; ++source) {
            auto &q = source == 0 ? s.through[d] : s.inject[d];
            while (!q.empty() && remaining > 0) {
                if (ns.through[d].size() + ns.staged[d].size() >=
                    params_.stopQueueCap)
                    break; // backpressure: next stop is full
                const std::uint32_t slot = q.front();
                Transit &head = pool_[slot];
                if (source == 0 && head.dstStop == i)
                    break; // waits for next cycle's eject phase
                const std::uint32_t need = quantise(head.remBytes, slice);
                const std::uint32_t grant =
                    std::min(need, floorToSlice(remaining, slice));
                if (grant == 0)
                    break;
                remaining -= grant;
                wireBytesUsed_ += static_cast<double>(grant);
                const std::uint32_t moved = std::min(head.remBytes, grant);
                bytesMoved_ += static_cast<double>(moved);
                head.remBytes -= moved;
                s.pending[d] -= moved;
                if (head.remBytes != 0)
                    break; // partially sent; keeps the channel

                // Fully across: restore wire size for the next link
                // and stage at the neighbour.
                q.pop_front();
                --queued_;
                head.remBytes = head.wireBytes;
                if ((dropArm_ > 0 || faults_.dropProb > 0.0) &&
                    shouldDrop(head)) {
                    // Lost at the end of the crossing: the wire bytes
                    // above are already spent.
                    ++head.retries;
                    scheduleRetransmit(i, d, slot, now);
                } else if (dupArm_ > 0 && packets_[slot].id != 0) {
                    --dupArm_;
                    // alloc() may grow pool_: head is dead from here.
                    const std::uint32_t copy = alloc();
                    pool_[copy] = pool_[slot];
                    packets_[copy] = packets_[slot];
                    ++inFlight_;
                    stage(next, d, slot);
                    stage(next, d, copy);
                } else {
                    stage(next, d, slot);
                }
            }
        }
    }
    updateMasks(i);
}

void
Ring::tick(Cycle now)
{
    // Empty ring: a provable no-op, so the kernel may skip it (the
    // cycles/occupancy stats deliberately cover loaded cycles only —
    // identical in fast-forward and tick-every-cycle mode).
    if (inFlight_ == 0)
        return;
    ++cyclesTicked_;
    occupancy_.sample(static_cast<double>(queued_));

    // An expired window never applies again; the rest keep their
    // order, so their factors multiply as before.
    if (!degrades_.empty())
        std::erase_if(degrades_,
                      [now](const Degrade &g) { return g.until <= now; });

    // Phase 1: ejection at every stop whose through-head is destined
    // there. Eject handlers may inject into this ring; phase 2 reads
    // queuedMask_ afterwards, so those packets move this cycle.
    for (std::size_t w = 0; w < ejectMask_.size(); ++w) {
        for (std::uint64_t bits = ejectMask_[w]; bits != 0;
             bits &= bits - 1) {
            const auto i = static_cast<std::uint32_t>(
                w * 64 + std::countr_zero(bits));
            eject(stops_[i], i, now);
            updateMasks(i);
        }
    }

    // Phase 2: link traversal from every stop with a queued packet.
    // Arrivals are staged so a packet moves at most one hop per cycle.
    for (std::size_t w = 0; w < queuedMask_.size(); ++w)
        for (std::uint64_t bits = queuedMask_[w]; bits != 0;
             bits &= bits - 1)
            send(static_cast<std::uint32_t>(
                     w * 64 + std::countr_zero(bits)),
                 now);

    // Phase 3: merge staged arrivals.
    for (const std::uint32_t i : stagedStops_) {
        Stop &s = stops_[i];
        for (std::uint32_t d = 0; d < 2; ++d) {
            for (const std::uint32_t slot : s.staged[d]) {
                s.pending[d] += pool_[slot].remBytes;
                s.through[d].push_back(slot);
            }
            queued_ += s.staged[d].size();
            s.staged[d].clear();
        }
        updateMasks(i);
    }
    stagedStops_.clear();
}

double
Ring::utilisation(Cycle elapsed) const
{
    if (elapsed == 0)
        return 0.0;
    const double capacity =
        static_cast<double>(params_.numStops) *
        (2.0 * params_.fixedBytesPerDir + params_.flexBytes) *
        static_cast<double>(elapsed);
    return capacity > 0.0 ? wireBytesUsed_.value() / capacity : 0.0;
}

} // namespace smarco::noc
