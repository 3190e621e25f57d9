#include "mem/spm.hpp"

#include <algorithm>
#include <utility>

#include "sim/logging.hpp"

namespace smarco::mem {

Spm::Spm(StatRegistry &stats, SpmParams params,
         const std::string &stat_prefix)
    // One allocation per name, as in Cache (the prefix is heap-sized).
    : params_(params),
      reads_(stats, strprintf("%s.reads", stat_prefix.c_str()),
             "SPM read accesses"),
      writes_(stats, strprintf("%s.writes", stat_prefix.c_str()),
              "SPM write accesses")
{
    if (params_.controlBytes >= params_.sizeBytes)
        fatal("SPM: control window (%llu) exceeds capacity (%llu)",
              static_cast<unsigned long long>(params_.controlBytes),
              static_cast<unsigned long long>(params_.sizeBytes));
}

void
Spm::access(bool write)
{
    if (write)
        ++writes_;
    else
        ++reads_;
}

DmaEngine::DmaEngine(StatRegistry &stats, std::uint32_t chunk_bytes,
                     Transport transport, Sink sink,
                     const std::string &stat_prefix,
                     std::uint32_t max_outstanding)
    : chunkBytes_(chunk_bytes),
      maxOutstanding_(max_outstanding),
      transport_(std::move(transport)),
      sink_(std::move(sink)),
      transfers_(stats, stat_prefix + ".transfers", "DMA transfers"),
      chunkCount_(stats, stat_prefix + ".chunks", "DMA chunk packets"),
      bytesMoved_(stats, stat_prefix + ".bytes", "DMA bytes moved")
{
    if (chunkBytes_ == 0)
        fatal("DmaEngine: zero chunk size");
    if (maxOutstanding_ == 0)
        fatal("DmaEngine: zero outstanding window");
}

void
DmaEngine::start(Addr src, std::uint64_t bytes, std::uint32_t ticket)
{
    if (bytes == 0)
        panic("DmaEngine: empty transfer %u", ticket);
    ++transfers_;
    bytesMoved_ += static_cast<double>(bytes);
    chunkCount_ += static_cast<double>((bytes + chunkBytes_ - 1) /
                                       chunkBytes_);
    pending_.push_back(Transfer{src, bytes, 0, ticket});
    issueNext();
}

void
DmaEngine::chunkDone(std::uint64_t tag)
{
    const std::uint64_t i = tag - firstTag_; // wraps below firstTag_
    if (i >= pending_.size() || pending_[i].inFlight == 0)
        panic("DmaEngine: no chunk of transfer %llu in flight",
              static_cast<unsigned long long>(tag));
    --outstanding_;
    if (--pending_[i].inFlight == 0 && pending_[i].unsent == 0) {
        const std::uint32_t ticket = pending_[i].ticket;
        // Finished transfers leave from the front only, so the tags
        // of those still in flight keep their indices.
        while (!pending_.empty() && pending_.front().inFlight == 0 &&
               pending_.front().unsent == 0) {
            pending_.erase(pending_.begin());
            ++firstTag_;
            --issueAt_;
        }
        sink_(ticket);
    }
    issueNext();
}

void
DmaEngine::issueNext()
{
    // Only a bounded window of chunks is in flight at once so a large
    // transfer does not flood the NoC in a single cycle.
    while (outstanding_ < maxOutstanding_ &&
           issueAt_ < pending_.size()) {
        Transfer &t = pending_[issueAt_];
        const Addr src = t.next;
        const std::uint32_t sz = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(chunkBytes_, t.unsent));
        const std::uint64_t tag = firstTag_ + issueAt_;
        t.next += sz;
        t.unsent -= sz;
        ++t.inFlight;
        if (t.unsent == 0)
            ++issueAt_;
        ++outstanding_;
        transport_(src, sz, tag);
    }
}

} // namespace smarco::mem
