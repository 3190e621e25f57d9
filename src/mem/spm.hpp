/**
 * @file
 * Scratch-Pad Memory (SPM) and its DMA engine (Section 3.5.1).
 *
 * Each TCG core owns a 128 KB programmer-managed SPM mapped into the
 * unified address space. The top 256 bytes act as control registers
 * (DMA source/destination/size). DMA stages a task's input from DRAM
 * into the core's own SPM without blocking the pipeline.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace smarco::mem {

/** Configuration of one scratch-pad. */
struct SpmParams {
    std::uint64_t sizeBytes = 128 * 1024;
    /** Bytes reserved at the top for DMA control registers. */
    std::uint64_t controlBytes = 256;
    /** Bytes one DMA transfer moves per chunk packet. */
    std::uint32_t dmaChunkBytes = 256;
};

/**
 * One core's scratch-pad. The SPM itself is a latency/occupancy
 * model; actual payload bytes live in the functional layer (the
 * MapReduce runtime keeps real data host-side).
 */
class Spm
{
  public:
    Spm(StatRegistry &stats, SpmParams params,
        const std::string &stat_prefix);

    /** Account one pipeline access. */
    void access(bool write);

    const SpmParams &params() const { return params_; }
    std::uint64_t dataBytes() const
    { return params_.sizeBytes - params_.controlBytes; }

  private:
    SpmParams params_;
    Scalar reads_;
    Scalar writes_;
};

/**
 * DMA engine attached to an SPM. The engine hands chunk-granularity
 * reads to the transport it is built with (on the chip, one that
 * sends each to DRAM and answers the owning core), each tagged with
 * its transfer; whoever serves a chunk reports it with chunkDone(tag).
 * A transfer is started with its owner's ticket, and when its last
 * chunk lands the engine hands that ticket to the sink it is built
 * with (on the chip, the core's sub-scheduler, whose staging ends).
 */
class DmaEngine
{
  public:
    /** Transport: move one chunk from src into the SPM; report it
     *  with chunkDone(tag) when it lands. */
    using Transport =
        std::function<void(Addr src, std::uint32_t bytes, std::uint64_t tag)>;
    /** Sink: the transfer started with ticket has landed. */
    using Sink = std::function<void(std::uint32_t ticket)>;

    DmaEngine(StatRegistry &stats, std::uint32_t chunk_bytes,
              Transport transport, Sink sink,
              const std::string &stat_prefix,
              std::uint32_t max_outstanding = 4);

    /**
     * Start a transfer of bytes (> 0; an empty one panics) from src
     * into the SPM; the sink gets ticket once the final chunk lands.
     * Multiple transfers may be in flight; their chunks issue in
     * start order.
     */
    void start(Addr src, std::uint64_t bytes, std::uint32_t ticket);

    /** One chunk of transfer tag landed; panics when the transfer has
     *  no chunk in flight. */
    void chunkDone(std::uint64_t tag);

  private:
    /** One started transfer that has not finished. */
    struct Transfer {
        Addr next;              ///< source of its next unissued chunk
        std::uint64_t unsent;   ///< bytes not yet issued
        std::uint32_t inFlight; ///< chunks issued, not landed
        std::uint32_t ticket;   ///< handed to the sink when it lands
    };

    void issueNext();

    std::uint32_t chunkBytes_;
    std::uint32_t maxOutstanding_;
    Transport transport_;
    Sink sink_;
    std::uint32_t outstanding_ = 0;
    /** Unfinished transfers in start order; pending_[i] has tag
     *  firstTag_ + i. */
    std::vector<Transfer> pending_;
    std::uint64_t firstTag_ = 0;
    /** Index of the first transfer with unissued bytes. */
    std::size_t issueAt_ = 0;
    Scalar transfers_;
    Scalar chunkCount_;
    Scalar bytesMoved_;
};

} // namespace smarco::mem
