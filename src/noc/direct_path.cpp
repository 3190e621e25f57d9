#include "noc/direct_path.hpp"

#include <algorithm>
#include <cmath>

#include "sim/logging.hpp"

namespace smarco::noc {

DirectPath::DirectPath(StatRegistry &stats, DirectPathParams params,
                       std::uint32_t num_sub_rings,
                       const std::string &stat_prefix)
    : params_(params),
      nextFree_(num_sub_rings, 0),
      transfers_(stats, stat_prefix + ".transfers",
                 "direct-path transfers"),
      bytes_(stats, stat_prefix + ".bytes",
             "direct-path payload bytes"),
      latency_(stats, stat_prefix + ".latency",
               "mean direct-path latency (cycles)")
{
    if (params_.bytesPerCycle <= 0.0)
        fatal("direct path: non-positive bandwidth");
}

Cycle
DirectPath::transfer(std::uint32_t sub_ring,
                     std::uint32_t payload_bytes, Cycle now)
{
    if (!params_.enabled)
        panic("direct path used while disabled");
    if (sub_ring >= nextFree_.size())
        panic("direct path: bad sub-ring %u", sub_ring);

    const Cycle start = std::max(now, nextFree_[sub_ring]);
    const Cycle serialise = static_cast<Cycle>(std::ceil(
        static_cast<double>(payload_bytes) / params_.bytesPerCycle));
    nextFree_[sub_ring] = start + std::max<Cycle>(serialise, 1);
    const Cycle arrive = start + params_.linkLatency + serialise;

    ++transfers_;
    bytes_ += static_cast<double>(payload_bytes);
    latency_.sample(static_cast<double>(arrive - now));
    return arrive;
}

} // namespace smarco::noc
