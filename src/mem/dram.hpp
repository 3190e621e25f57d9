/**
 * @file
 * DDR main-memory model (Section 3.5.3).
 *
 * SmarCo attaches four memory controllers to the main ring, each
 * driving a 128-bit DDR4-2133 channel; total bandwidth 136.5 GB/s.
 * Each channel owns read and write queues: demand reads are served
 * first (posted writes drain opportunistically or when their queue
 * fills), every request pays a fixed command overhead plus a
 * bandwidth-limited data transfer, and completion is event-driven.
 * This captures the effects the evaluation depends on: queueing
 * under load, write interference, and request-count sensitivity
 * (which is what the MACT attacks).
 */
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "mem/mem_types.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace smarco::mem {

/** Configuration of the DRAM subsystem. */
struct DramParams {
    std::uint32_t channels = 4;
    /** Data bytes one channel moves per core cycle.
     *  34.125 GB/s per channel at 1.5 GHz core clock = 22.75 B/cy. */
    double bytesPerCycle = 22.75;
    /** Fixed access latency (activate + CAS + controller). */
    Cycle accessLatency = 48;
    /** Fixed per-request command/bank overhead. */
    Cycle requestOverhead = 2;
    /** Writes are force-drained when this many are queued. */
    std::uint32_t writeDrainThreshold = 16;
    /** Serve one bulk request after this many consecutive demand
     *  reads (anti-starvation share for DMA traffic). */
    std::uint32_t demandStreakLimit = 3;
    /** Line interleaving granularity across channels. */
    std::uint32_t interleaveBytes = 64;
};

/** Service class of a DRAM access. Demand reads stall pipelines and
 *  are served first; bulk transfers (DMA staging, prefetch) fill in;
 *  posted writes drain opportunistically. */
enum class DramClass : std::uint8_t { DemandRead, Bulk, Write };

/** What a DRAM access hands back when it completes, if anything. */
using DramJob = std::variant<std::monostate, MemRequest, MactBatch>;

/**
 * Multi-channel DRAM controller. serve() enqueues an access with its
 * job, plain data, which waits in a controller-owned slot pool until
 * the transfer completes and goes back unchanged to the chip's sink.
 */
class DramController
{
  public:
    using Sink = std::function<void(DramJob &&job)>;

    DramController(Simulator &sim, DramParams params,
                   const std::string &stat_prefix);

    /** Install the completion destination (wired by the chip). */
    void setSink(Sink sink) { sink_ = std::move(sink); }

    /** Enqueue an access of the given service class. An empty job
     *  ({}) never reaches the sink; any other panics without one. */
    void serve(Addr addr, std::uint32_t data_bytes, Cycle now,
               DramJob job, DramClass cls = DramClass::DemandRead);

    /** Channel index an address maps to. */
    std::uint32_t channelOf(Addr addr) const;

    const DramParams &params() const { return params_; }

    std::uint64_t requestsServed() const
    { return static_cast<std::uint64_t>(requests_.value()); }
    double totalBytes() const { return bytes_.value(); }

    /**
     * Fault model (see src/fault/): freeze one channel's service loop
     * until now + duration. Queued and newly arriving requests wait
     * and are served after the window — nothing is lost, so a stalled
     * run completes late rather than wedging. Overlapping stalls
     * extend the window.
     */
    void stallChannel(std::uint32_t ch, Cycle duration, Cycle now);

  private:
    static constexpr std::uint32_t kNoJob = ~std::uint32_t{0};

    struct Request {
        Addr addr;
        std::uint32_t bytes;
        std::uint32_t job; ///< slot of jobs_, or kNoJob
        Cycle enqueued;
    };

    struct Channel {
        std::deque<Request> demandQ;
        std::deque<Request> bulkQ;
        std::deque<Request> writeQ;
        std::uint32_t demandStreak = 0;
        bool serving = false;
        /** Fault model: service is frozen until this cycle. */
        Cycle stalledUntil = 0;
    };

    void serviceNext(std::uint32_t ch);

    Simulator &sim_;
    DramParams params_;
    std::vector<Channel> channels_;
    Sink sink_;
    std::vector<DramJob> jobs_;             ///< in flight, by slot
    std::vector<std::uint32_t> freeJobs_;   ///< reused last-freed first

    Scalar requests_;
    Scalar bytes_;
    Scalar faultStalls_;
    Scalar faultStallCycles_;
    Average readLatency_;
    Average queueDelay_;
    /** Per-channel data bytes (".ch<N>.bytes" in the registry). */
    std::vector<std::unique_ptr<Scalar>> channelBytes_;
};

} // namespace smarco::mem
