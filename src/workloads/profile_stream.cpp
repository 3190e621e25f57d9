#include "workloads/profile_stream.hpp"

#include <algorithm>

#include "sim/logging.hpp"

namespace smarco::workloads {

namespace {
/** Heap is visited in 64-byte chunks to model spatial locality. */
constexpr std::uint64_t kHeapChunk = 64;
} // namespace

ProfileStream::ProfileStream(const BenchProfile &profile,
                             AddressLayout layout,
                             std::uint64_t num_ops, std::uint64_t seed)
    : profile_(profile),
      layout_(layout),
      numOps_(num_ops),
      rng_(seed, 0x9e37),
      granularity_(profile.granularityWeights),
      heapReuse_(std::max<std::uint64_t>(
                     layout.heapSize / kHeapChunk, 1),
                 profile.heapZipf)
{
    profile.validate();
    if (num_ops == 0)
        panic("ProfileStream: zero-length stream");
    // Entry probability q solving  qB / (qB + 1 - q) = fracStream,
    // so bursts of mean length B keep the intended overall mix.
    const double r = profile.fracStream();
    const double b = std::max(profile.streamBurst, 1.0);
    streamEntry_ = r >= 1.0 ? 1.0 : r / (b * (1.0 - r) + r);
}

Addr
ProfileStream::heapAddr(std::uint8_t size)
{
    const std::uint64_t chunk = heapReuse_.sample(rng_);
    const std::uint64_t max_off = kHeapChunk - size;
    const std::uint64_t off = rng_.nextBelow(max_off + 1);
    return layout_.heapBase + chunk * kHeapChunk + off;
}

Addr
ProfileStream::streamAddr(std::uint8_t size)
{
    // Record-like: each burst lands on a random record somewhere in
    // the (large) stream dataset -- an index/table probe -- and walks
    // forward within the record. Within-burst adjacency is what the
    // MACT merges; across bursts there is essentially no locality,
    // which is exactly the discrete small-access pattern of Fig. 8.
    const std::uint64_t span =
        std::max<std::uint64_t>(layout_.streamSize, 128);
    const Addr a = layout_.streamBase + (streamCursor_ % span);
    streamCursor_ += size;
    return a;
}

bool
ProfileStream::next(isa::MicroOp &op)
{
    using isa::MemClass;
    using isa::OpKind;

    if (haltEmitted_)
        return false;

    op = isa::MicroOp{};
    if (produced_ >= numOps_) {
        op.kind = OpKind::Halt;
        haltEmitted_ = true;
        return true;
    }
    ++produced_;

    op.priority = rng_.chance(profile_.fracPriority);

    const double u = rng_.nextDouble();
    double acc = profile_.fracMem;
    if (u < acc) {
        // Memory op: pick direction, size, and target class.
        const bool is_load = burstLeft_ > 0
            ? !burstIsStore_
            : rng_.chance(profile_.fracLoadOfMem);
        op.kind = is_load ? OpKind::Load : OpKind::Store;
        const std::size_t g = granularity_.sample(rng_);
        op.size = kGranularitySizes[g];

        // An active stream burst keeps subsequent memory ops on the
        // sequential stream (same-line adjacency for the MACT).
        if (burstLeft_ > 0) {
            --burstLeft_;
            op.memClass = MemClass::Stream;
            op.addr = streamAddr(op.size);
            return true;
        }

        // Burst-entry probability is scaled down so the *overall*
        // stream fraction still matches the profile despite each
        // entry spawning ~streamBurst accesses.
        const double m = rng_.nextDouble();
        if (m < streamEntry_) {
            op.memClass = MemClass::Stream;
            // New record: jump to a random position in the dataset.
            streamCursor_ = rng_.nextBelow(
                std::max<std::uint64_t>(layout_.streamSize, 128) - 64);
            op.addr = streamAddr(op.size);
            if (profile_.streamBurst > 1.0) {
                burstLeft_ = static_cast<std::uint32_t>(
                    rng_.nextGeometric(profile_.streamBurst - 1.0, 16));
                burstIsStore_ = op.kind == OpKind::Store;
            }
            return true;
        }
        // Remaining probability mass split among the other classes
        // in proportion to their profile fractions.
        const double rest = 1.0 - streamEntry_;
        const double nonstream = profile_.fracSpmLocal +
            profile_.fracSpmRemote + profile_.fracHeap;
        const double scale =
            nonstream > 0.0 ? rest / nonstream : 0.0;
        const double t_local = streamEntry_ +
            profile_.fracSpmLocal * scale;
        const double t_remote = t_local +
            profile_.fracSpmRemote * scale;
        if (m < t_local || scale == 0.0) {
            op.memClass = MemClass::SpmLocal;
            const std::uint64_t span =
                std::max<std::uint64_t>(layout_.spmLocalSize, 64) - op.size;
            op.addr = layout_.spmLocalBase + rng_.nextBelow(span);
        } else if (m < t_remote) {
            op.memClass = MemClass::SpmRemote;
            const std::uint64_t span =
                std::max<std::uint64_t>(layout_.spmRemoteSize, 64) - op.size;
            op.addr = layout_.spmRemoteBase + rng_.nextBelow(span);
        } else {
            op.memClass = MemClass::Heap;
            op.addr = heapAddr(op.size);
        }
        return true;
    }
    acc += profile_.fracBranch;
    if (u < acc) {
        op.kind = OpKind::Branch;
        op.mispredict = rng_.chance(profile_.branchMissRate);
        return true;
    }
    acc += profile_.fracMul;
    if (u < acc) {
        op.kind = OpKind::Mul;
        op.execLatency = 3;
        return true;
    }
    acc += profile_.fracFp;
    if (u < acc) {
        op.kind = OpKind::Fp;
        op.execLatency = 4;
        return true;
    }
    op.kind = OpKind::Alu;
    op.execLatency = 1;
    return true;
}

} // namespace smarco::workloads
