#include "mem/spm.hpp"

#include <memory>
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
                     Transport transport,
                     const std::string &stat_prefix,
                     std::uint32_t max_outstanding)
    : chunkBytes_(chunk_bytes),
      maxOutstanding_(max_outstanding),
      transport_(std::move(transport)),
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
DmaEngine::start(Addr src, std::uint64_t bytes,
                 std::function<void()> done)
{
    if (bytes == 0) {
        if (done)
            done();
        return;
    }

    ++transfers_;
    bytesMoved_ += static_cast<double>(bytes);

    const std::uint64_t chunks =
        (bytes + chunkBytes_ - 1) / chunkBytes_;
    chunkCount_ += static_cast<double>(chunks);

    // Shared countdown across chunk completions; only a bounded
    // window of chunks is in flight at once so a large transfer does
    // not flood the NoC in a single cycle.
    auto remaining = std::make_shared<std::uint64_t>(chunks);
    auto on_chunk = [this, remaining, done = std::move(done)]() {
        --outstanding_;
        if (--*remaining == 0 && done)
            done();
        issueNext();
    };

    std::uint64_t off = 0;
    for (std::uint64_t c = 0; c < chunks; ++c) {
        const std::uint32_t sz = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(chunkBytes_, bytes - off));
        queue_.push_back(Chunk{src + off, sz, on_chunk});
        off += sz;
    }
    issueNext();
}

void
DmaEngine::issueNext()
{
    while (outstanding_ < maxOutstanding_ &&
           queueHead_ < queue_.size()) {
        Chunk chunk = std::move(queue_[queueHead_++]);
        ++outstanding_;
        transport_(chunk.src, chunk.bytes, std::move(chunk.onChunk));
    }
    if (queueHead_ == queue_.size()) {
        queue_.clear();
        queueHead_ = 0;
    }
}

} // namespace smarco::mem
