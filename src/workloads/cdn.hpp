/**
 * @file
 * Content Delivery Network serving workload (paper Section 1, Fig. 2).
 *
 * The paper's motivating CDN study runs Nginx behind a 10 Gbps NIC
 * serving 25 Mbps video streams. We substitute a synthetic equivalent
 * (see DESIGN.md): each connection periodically requires a chunk of
 * server work (protocol processing + buffer copies), the NIC is a
 * hard egress cap, and per-connection state grows the working set so
 * branch and L1 behaviour degrade as clients increase.
 */
#pragma once

#include <cstdint>

#include "sim/types.hpp"
#include "workloads/profile.hpp"

namespace smarco::workloads {

/** Static parameters of the CDN testbed being modelled. */
struct CdnParams {
    double nicGbps = 10.0;       ///< NIC egress bandwidth
    double videoMbps = 25.0;     ///< per-client stream rate
    std::uint32_t chunkBytes = 64 * 1024; ///< service unit (sendfile chunk)
    /** Micro-ops of server work per KiB of chunk payload (protocol
     *  processing, buffer management, kernel network stack). */
    double opsPerKiB = 4000.0;
    /** Per-connection kernel/user state in bytes (sockets, TLS, ...). */
    std::uint64_t connStateBytes = 24 * 1024;
};

/**
 * CDN workload model. chunkProfile(clients) yields the benchmark
 * profile of one chunk's server work at a given client count: the
 * heap working set scales with live connection state, which is what
 * drives the cache/branch degradation the paper observes.
 */
class CdnWorkload
{
  public:
    explicit CdnWorkload(CdnParams params = {});

    const CdnParams &params() const { return params_; }

    /** Chunks/second the NIC lets through at this client count. */
    double chunkRate(std::uint64_t clients) const;

    /** Micro-ops of server work for one chunk. */
    std::uint64_t opsPerChunk() const;

    /** Profile of chunk-service work at a given connection count. */
    BenchProfile chunkProfile(std::uint64_t clients) const;

    /** Client count at which the NIC saturates. */
    std::uint64_t saturationClients() const;

  private:
    CdnParams params_;
};

} // namespace smarco::workloads
