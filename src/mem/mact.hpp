/**
 * @file
 * Memory Access Collection Table (Section 3.4).
 *
 * One MACT sits at each sub-ring gateway and merges the small,
 * discrete memory requests of that sub-ring's cores into per-line
 * batches. A line holds {Type, Tag, Vector, Threshold}: request type
 * (read/write), the 64-byte base address, a byte bitmap, and a
 * deadline timer. A line is flushed to memory when its bitmap fills
 * or its deadline expires; requests marked with superior real-time
 * priority bypass the table entirely.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mem/mem_types.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace smarco::mem {

/** Configuration of one MACT instance. */
struct MactParams {
    bool enabled = true;
    std::uint32_t lines = 32;
    /** Deadline: max cycles a request may wait in the table. */
    Cycle threshold = 16;
    /** Requests larger than this bypass (already efficient). */
    std::uint32_t maxCollectBytes = 16;
};

/**
 * The collection table. collect() either absorbs a request (returns
 * true and takes it over; the caller must not forward it) or
 * refuses it (priority, oversize, line-straddling), leaving it
 * untouched for the caller to forward on the ordinary path. Flushed
 * batches are handed to the sink installed by the chip.
 */
class Mact : public Ticking
{
  public:
    using BatchSink = std::function<void(MactBatch &&batch)>;

    Mact(Simulator &sim, MactParams params,
         const std::string &stat_prefix);

    /** Install the flush destination (wired by the chip). */
    void setSink(BatchSink sink);

    /** Offer a request to the table at cycle now; req is moved from
     *  only when absorbed. */
    bool collect(MemRequest &req, Cycle now);

    /** Deadline scan. */
    void tick(Cycle now) override;
    bool busy() const override { return used_ > 0; }
    /** Sleep until the earliest line deadline; collect() wakes us. */
    Cycle nextActiveCycle(Cycle now) const override;

    const MactParams &params() const { return params_; }
    std::uint32_t occupancy() const { return used_; }

    /**
     * Fault model (see src/fault/): lose one occupied table entry, as
     * if a soft error flipped its valid bit. The entry's contents are
     * rebuilt from the (modelled) core-side MSHRs and re-emitted as a
     * batch after recovery_latency cycles, so the merged requests
     * complete late rather than never. pick selects among the
     * occupied lines (pick % occupancy).
     * @return false when the table is empty.
     */
    bool injectEntryLoss(std::uint64_t pick, Cycle recovery_latency,
                         Cycle now);

  private:
    struct Line {
        bool valid = false;
        bool write = false;
        Addr base = kNoAddr;
        std::uint64_t vector = 0;
        Cycle firstCollect = 0;
        std::vector<MemRequest> requests;
    };

    void flushLine(Line &line, const char *reason);

    Simulator &sim_;
    MactParams params_;
    BatchSink sink_;
    std::vector<Line> table_;
    std::uint32_t used_ = 0;

    Scalar collected_;
    Scalar bypassed_;
    Scalar batches_;
    Scalar fullFlushes_;
    Scalar deadlineFlushes_;
    Scalar capacityFlushes_;
    Scalar entriesLost_;
    Scalar requestsRecovered_;
    Average batchSize_;
};

} // namespace smarco::mem
