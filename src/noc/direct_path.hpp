/**
 * @file
 * Direct memory-access datapath (Section 3.5.2, Fig. 14).
 *
 * Each sub-ring owns a dedicated star-shaped link to the memory
 * complex so that control messages and high-real-time-priority read
 * requests can bypass the rings entirely, keeping their latency
 * predictable even when the NoC is congested.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace smarco::noc {

/** Configuration of the star datapath. */
struct DirectPathParams {
    bool enabled = true;
    /** One-way latency of a star link, in cycles. */
    Cycle linkLatency = 6;
    /** Bytes one star link moves per cycle. */
    double bytesPerCycle = 8.0;
};

/**
 * Star links from sub-rings to the memory complex, one per sub-ring.
 * transfer() books payload_bytes one way and returns the arrival
 * cycle; the caller schedules whatever happens there. Each link is a
 * bandwidth-limited pipe with FIFO queueing.
 */
class DirectPath
{
  public:
    DirectPath(StatRegistry &stats, DirectPathParams params,
               std::uint32_t num_sub_rings,
               const std::string &stat_prefix);

    bool enabled() const { return params_.enabled; }

    /**
     * Move payload_bytes over sub-ring's star link starting at now.
     * @return the arrival cycle.
     */
    Cycle transfer(std::uint32_t sub_ring, std::uint32_t payload_bytes,
                   Cycle now);

  private:
    DirectPathParams params_;
    std::vector<Cycle> nextFree_;

    Scalar transfers_;
    Scalar bytes_;
    Average latency_;
};

} // namespace smarco::noc
