/**
 * @file
 * Bidirectional ring with high-density sliced links (Sections 3.2-3.3).
 *
 * Both the main ring and the sub-rings are built from this class.
 * Each direction owns a number of fixed 64-bit datapaths plus a pool
 * of bidirectional datapaths assigned per cycle to the more loaded
 * direction. Links are sliced into self-governed narrow channels;
 * the switch allocator greedily packs as many queued packets as fit
 * into one cycle's slices (high-density NoC). Setting the slice size
 * equal to the full direction width recovers a conventional wide
 * link, where one small packet wastes the whole cycle.
 *
 * The tick is occupancy-driven: its cost follows the stops that can
 * act, not numStops. A ring keeps, incrementally,
 *  - per (stop, direction), the queued payload bytes: the sum of
 *    remBytes over through[d] and inject[d], which the flex-pool
 *    assignment reads;
 *  - the ring-wide count of packets in through and inject queues,
 *    which the occupancy stat samples;
 *  - two per-stop bitsets (64 stops a word, any ring size): a bit of
 *    ejectMask_ is set iff the head of either of the stop's
 *    through-queues is destined there, a bit of queuedMask_ iff any
 *    of its queues holds a packet.
 * A loaded cycle then runs three phases:
 *  1. eject at the stops of ejectMask_, in ascending order (a stop
 *     whose through-heads go elsewhere could eject nothing);
 *  2. send across links from the stops of queuedMask_, read after
 *     phase 1 so packets that eject handlers injected (e.g. a
 *     remote-SPM response) move this cycle; ascending order matters
 *     because backpressure reads the neighbour's staged arrivals; a
 *     direction with no queued packet is skipped;
 *  3. merge staged arrivals into the through-queues of the stops
 *     that received any this tick.
 * Stops with no queued packet are never touched, and the per-packet
 * path divides only where a slice or budget is not a power of two
 * (conventional links and degraded budgets).
 *
 * Packets in flight live in a ring-owned slot pool split hot from
 * cold: pool_ holds the 16-byte Transit the tick reads on every hop
 * (destination, remaining and wire bytes, retries), packets_ the
 * Packet itself in the same slot. The through-, inject- and staged
 * queues hold 4-byte slot indices; the through- and inject-queues are
 * power-of-two circular FIFOs that double when full, since a
 * through-queue may pass stopQueueCap (a NACKed packet re-enters at
 * its head, a duplicate is staged beside its original). A hop moves
 * an index and rewrites only remBytes. A NACKed packet keeps its slot
 * until the retransmission re-enters a queue; a duplicate gets a slot
 * of its own. Ejection moves the Packet out and frees its slot before
 * the handler runs. Handlers may inject into the same ring and so
 * grow pool_ and packets_: no Transit or Packet reference is held
 * across alloc() or a handler call.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_set>
#include <vector>

#include "noc/packet.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace smarco::noc {

/** Width of one bidirectional datapath of the flex pool (64 bits). */
inline constexpr std::uint32_t kFlexUnitBytes = 8;

/** Configuration of one ring instance. */
struct RingParams {
    std::string name = "ring";
    std::uint32_t numStops = 17;
    /** Bytes per cycle of the fixed datapaths of ONE direction. */
    std::uint32_t fixedBytesPerDir = 8;
    /** Bytes per cycle of the shared bidirectional datapath pool,
     *  assigned per cycle in whole kFlexUnitBytes datapaths. */
    std::uint32_t flexBytes = 16;
    /**
     * High-density slice width in bytes. 0 means conventional mode:
     * the whole per-direction width acts as a single channel.
     */
    std::uint32_t sliceBytes = 2;
    /** Max packets a stop's through-queue holds per direction. */
    std::uint32_t stopQueueCap = 16;
    /** Max packets a stop's injection queue holds per direction. */
    std::uint32_t injectQueueCap = 64;
};

/**
 * Link-level fault model (see src/fault/). A dropped packet is lost
 * at the end of its link crossing — the wire bytes are already spent,
 * as with a real CRC-fail-at-receiver — and the sender's NACK timer
 * re-enqueues it at the head of the source queue after nackDelay.
 * Once a packet has been retransmitted maxRetransmits times it rides
 * a protected (assumed ECC-escorted) channel and can no longer drop,
 * so delivery is guaranteed and faulted runs always drain.
 */
struct RingFaultParams {
    /** Per-link-crossing drop probability (0 disables). */
    double dropProb = 0.0;
    /** Cycles from loss to the retransmission re-entering the queue. */
    Cycle nackDelay = 12;
    /** Drops after which a packet becomes undroppable. */
    std::uint32_t maxRetransmits = 4;
    /** Fault RNG (a named "fault.*" stream); not owned, may be null
     *  when dropProb is 0. */
    Rng *rng = nullptr;
};

/**
 * The ring. Stops are indexed 0..numStops-1; direction 0 moves from
 * stop i to i+1 (mod N), direction 1 the other way. Packets are
 * injected with a destination stop. Direction is chosen at
 * injection: shortest path, switched when the preferred side is
 * congested (Fig. 7).
 *
 * Ejection rule: the stop's handler takes every packet ejected there;
 * a stop without one discards the packet.
 */
class Ring : public Ticking
{
  public:
    using Handler = std::function<void(Packet &&)>;

    Ring(Simulator &sim, RingParams params,
         const std::string &stat_prefix);

    /** Install the ejection handler of a stop: it takes every packet
     *  ejected there. */
    void setHandler(std::uint32_t stop, Handler handler);

    /**
     * Inject a packet at src_stop destined for dst_stop.
     * @return false when the injection queue is full (backpressure).
     */
    bool inject(std::uint32_t src_stop, std::uint32_t dst_stop,
                Packet &&pkt);

    void tick(Cycle now) override;
    bool busy() const override { return inFlight_ > 0; }
    /** Quiet rings sleep; inject() wakes them. */
    Cycle nextActiveCycle(Cycle now) const override
    { return inFlight_ > 0 ? now + 1 : kNoCycle; }

    /** Hop count from a to b along the given direction. */
    std::uint32_t distance(std::uint32_t a, std::uint32_t b,
                           std::uint32_t dir) const;

    const RingParams &params() const { return params_; }
    /** Fraction of link capacity carrying payload so far. */
    double utilisation(Cycle elapsed) const;
    std::uint64_t inFlight() const { return inFlight_; }

    /** Enable/update the probabilistic link fault model. */
    void setFaults(const RingFaultParams &faults);

    /**
     * Deterministic test hook: drop the next count eligible link
     * crossings regardless of dropProb (each still NACKs/retransmits).
     */
    void armDrop(std::uint32_t count);

    /**
     * Deterministic test hook: duplicate the next count full link
     * crossings of packets with a nonzero id. Arming (or a dup-capable
     * campaign) also turns on receiver-side duplicate suppression.
     */
    void armDuplicate(std::uint32_t count);

    /**
     * Degrade the (stop, dir) link to factor x its normal budget until
     * the given cycle (budgets are floored at one byte per cycle).
     */
    void degradeLink(std::uint32_t stop, std::uint32_t dir,
                     double factor, Cycle until);

  private:
    /** Hot per-packet state of a pool slot (the Packet is cold). */
    struct Transit {
        std::uint32_t dstStop = 0;
        /** Bytes left to cross the current link. */
        std::uint32_t remBytes = 0;
        /** Bytes each link crossing carries: max(payloadBytes, 1). */
        std::uint32_t wireBytes = 0;
        /** Times this packet has been dropped and re-sent. */
        std::uint32_t retries = 0;
    };

    /** FIFO of pool slot indices: a power-of-two ring buffer that
     *  doubles when full, so it has no fixed capacity. */
    class SlotFifo
    {
      public:
        bool empty() const { return size_ == 0; }
        std::uint32_t size() const { return size_; }
        std::uint32_t front() const { return buf_[head_]; }
        void
        pop_front()
        {
            head_ = (head_ + 1) & mask_;
            --size_;
        }
        void
        push_back(std::uint32_t slot)
        {
            if (size_ == buf_.size())
                grow();
            buf_[(head_ + size_) & mask_] = slot;
            ++size_;
        }
        void
        push_front(std::uint32_t slot)
        {
            if (size_ == buf_.size())
                grow();
            head_ = (head_ - 1) & mask_;
            buf_[head_] = slot;
            ++size_;
        }

      private:
        void grow();

        std::vector<std::uint32_t> buf_;
        std::uint32_t head_ = 0;
        std::uint32_t size_ = 0;
        std::uint32_t mask_ = 0;
    };

    struct Degrade {
        std::uint32_t stop;
        std::uint32_t dir;
        double factor;
        Cycle until;
    };

    /** Queues hold indices into pool_. */
    struct Stop {
        SlotFifo through[2];
        SlotFifo inject[2];
        /** Arrivals staged during the current tick. */
        std::vector<std::uint32_t> staged[2];
        /** Queued payload bytes wanting to leave in direction d: the
         *  sum of remBytes over through[d] and inject[d]. */
        std::uint64_t pending[2] = {0, 0};
    };

    std::uint32_t dirBudget(const Stop &s, std::uint32_t stop_idx,
                            std::uint32_t d, Cycle now) const;
    /** Take a free pool slot for the caller to fill (may grow
     *  pool_ and packets_, invalidating references into them). */
    std::uint32_t alloc();
    void eject(Stop &s, std::uint32_t stop_idx, Cycle now);
    /** Link traversal out of stop i in both directions. */
    void send(std::uint32_t i, Cycle now);
    /** Stage the packet in pool slot `slot` at stop next for the
     *  phase-3 merge. */
    void stage(std::uint32_t next, std::uint32_t d, std::uint32_t slot);
    /** Re-derive stop i's bits in ejectMask_ and queuedMask_. */
    void updateMasks(std::uint32_t i);
    /** Fault model: does this completed crossing get dropped? */
    bool shouldDrop(const Transit &t);
    /** NACK path: re-enqueue the packet in pool slot `slot` at the
     *  source stop after nackDelay. */
    void scheduleRetransmit(std::uint32_t src_stop, std::uint32_t d,
                            std::uint32_t slot, Cycle now);
    /** Receiver dedup window: true when id was delivered recently. */
    bool dedupSeen(std::uint64_t id);
    void dedupRecord(std::uint64_t id);

    Simulator &sim_;
    RingParams params_;
    std::vector<Stop> stops_;
    /** Ejection handler of each stop. */
    std::vector<Handler> handlers_;
    /** Transit slots of queued, staged and NACKed packets. */
    std::vector<Transit> pool_;
    /** The packet of each pool slot. */
    std::vector<Packet> packets_;
    /** Free pool_ slots, reused last-freed first. */
    std::vector<std::uint32_t> freeSlots_;
    std::uint64_t inFlight_ = 0;
    /** Packets in through and inject queues over all stops (in-flight
     *  packets also include staged and NACKed ones). */
    std::uint64_t queued_ = 0;
    std::vector<std::uint64_t> ejectMask_;
    std::vector<std::uint64_t> queuedMask_;
    /** Stops with staged arrivals this tick, in staging order. */
    std::vector<std::uint32_t> stagedStops_;

    RingFaultParams faults_;
    std::uint32_t dropArm_ = 0;
    std::uint32_t dupArm_ = 0;
    /** Receiver-side dedup active (only once duplication is possible,
     *  so clean runs pay nothing). */
    bool dedupOn_ = false;
    std::deque<std::uint64_t> dedupFifo_;
    std::unordered_set<std::uint64_t> dedupSet_;
    /** Degrade windows not yet expired, in the order applied. */
    std::vector<Degrade> degrades_;

    Scalar delivered_;
    Scalar injected_;
    Scalar injectRejects_;
    Scalar bytesMoved_;
    Scalar wireBytesUsed_;
    Scalar cyclesTicked_;
    Scalar drops_;
    Scalar retransmits_;
    Scalar dupsSuppressed_;
    Scalar linkDegrades_;
    Average hopLatency_;
    Average occupancy_;
};

} // namespace smarco::noc
