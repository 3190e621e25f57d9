#include "mem/mact.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "sim/logging.hpp"

namespace smarco::mem {

namespace {

/** A table line covers one 64-byte DRAM line, one bitmap bit per
 *  byte. */
constexpr std::uint32_t kLineBytes = 64;
constexpr std::uint64_t kFullVector = ~std::uint64_t{0};

} // namespace

std::uint32_t
MactBatch::coveredBytes() const
{
    return static_cast<std::uint32_t>(std::popcount(vector));
}

std::uint32_t
MactBatch::wireBytes() const
{
    // Header + base address/vector metadata; writes also carry the
    // merged payload bytes.
    const std::uint32_t meta = kReqHeaderBytes + 8;
    return write ? meta + coveredBytes() : meta;
}

Mact::Mact(Simulator &sim, MactParams params,
           const std::string &stat_prefix)
    : sim_(sim),
      params_(params),
      table_(params.lines),
      collected_(sim.stats(), stat_prefix + ".collected",
                 "requests absorbed into the table"),
      bypassed_(sim.stats(), stat_prefix + ".bypassed",
                "requests refused (priority/oversize/straddle)"),
      batches_(sim.stats(), stat_prefix + ".batches",
               "batch packets emitted"),
      fullFlushes_(sim.stats(), stat_prefix + ".fullFlushes",
                   "lines flushed because the bitmap filled"),
      deadlineFlushes_(sim.stats(), stat_prefix + ".deadlineFlushes",
                       "lines flushed by the threshold timer"),
      capacityFlushes_(sim.stats(), stat_prefix + ".capacityFlushes",
                       "lines flushed to make room"),
      entriesLost_(sim.stats(), stat_prefix + ".entriesLost",
                   "table entries lost to injected soft errors"),
      requestsRecovered_(sim.stats(), stat_prefix + ".requestsRecovered",
                         "requests re-emitted after an entry loss"),
      batchSize_(sim.stats(), stat_prefix + ".batchSize",
                 "requests merged per batch")
{
    if (params_.lines == 0)
        fatal("MACT: zero lines");
    if (params_.threshold == 0)
        fatal("MACT: zero threshold");
    sim.addTicking(this);
}

void
Mact::setSink(BatchSink sink)
{
    sink_ = std::move(sink);
}

bool
Mact::collect(MemRequest &req, Cycle now)
{
    if (!params_.enabled || req.priority ||
        req.bytes > params_.maxCollectBytes || req.bytes == 0) {
        ++bypassed_;
        if (sim_.trace().enabled(TraceCat::Mem))
            sim_.trace().instant(TraceCat::Mem, "mact.bypass", now);
        return false;
    }
    const Addr base = req.addr & ~static_cast<Addr>(kLineBytes - 1);
    const std::uint32_t off =
        static_cast<std::uint32_t>(req.addr - base);
    if (off + req.bytes > kLineBytes) {
        // Line-straddling access: not representable in one bitmap.
        ++bypassed_;
        return false;
    }
    const std::uint64_t bits =
        (req.bytes == kLineBytes
             ? kFullVector
             : ((std::uint64_t{1} << req.bytes) - 1) << off);

    // Try to merge into an existing line of the same type.
    Line *free_line = nullptr;
    Line *oldest = nullptr;
    for (auto &line : table_) {
        if (!line.valid) {
            if (!free_line)
                free_line = &line;
            continue;
        }
        if (!oldest || line.firstCollect < oldest->firstCollect)
            oldest = &line;
        if (line.write == req.write && line.base == base) {
            line.vector |= bits;
            ++collected_;
            sim_.wake(this);
            if (sim_.trace().enabled(TraceCat::Mem))
                sim_.trace().instant(TraceCat::Mem, "mact.hit", now,
                                     req.core);
            line.requests.push_back(std::move(req));
            if (line.vector == kFullVector) {
                ++fullFlushes_;
                flushLine(line, "full");
            }
            return true;
        }
    }

    // Allocate; evict the oldest line when the table is full.
    Line *slot = free_line;
    if (!slot) {
        ++capacityFlushes_;
        flushLine(*oldest, "capacity");
        slot = oldest;
    }
    slot->valid = true;
    slot->write = req.write;
    slot->base = base;
    slot->vector = bits;
    slot->firstCollect = now;
    slot->requests.clear();
    ++used_;
    ++collected_;
    sim_.wake(this);
    if (sim_.trace().enabled(TraceCat::Mem))
        sim_.trace().instant(TraceCat::Mem, "mact.alloc", now,
                             req.core);
    slot->requests.push_back(std::move(req));
    if (slot->vector == kFullVector) {
        ++fullFlushes_;
        flushLine(*slot, "full");
    }
    return true;
}

void
Mact::tick(Cycle now)
{
    if (used_ == 0)
        return;
    for (auto &line : table_) {
        if (line.valid && now >= line.firstCollect + params_.threshold) {
            ++deadlineFlushes_;
            flushLine(line, "deadline");
        }
    }
}

Cycle
Mact::nextActiveCycle(Cycle now) const
{
    if (used_ == 0)
        return kNoCycle;
    Cycle earliest = kNoCycle;
    for (const auto &line : table_) {
        if (line.valid)
            earliest = std::min(earliest,
                                line.firstCollect + params_.threshold);
    }
    return std::max(earliest, now + 1);
}

bool
Mact::injectEntryLoss(std::uint64_t pick, Cycle recovery_latency,
                      Cycle now)
{
    if (used_ == 0)
        return false;
    if (!sink_)
        panic("MACT entry loss before setSink");
    std::uint64_t skip = pick % used_;
    Line *victim = nullptr;
    for (auto &line : table_) {
        if (!line.valid)
            continue;
        if (skip == 0) {
            victim = &line;
            break;
        }
        --skip;
    }
    MactBatch batch;
    batch.write = victim->write;
    batch.lineBase = victim->base;
    batch.vector = victim->vector;
    batch.requests = std::move(victim->requests);
    victim->valid = false;
    victim->requests.clear();
    --used_;
    ++entriesLost_;
    requestsRecovered_ += static_cast<double>(batch.requests.size());
    if (sim_.trace().enabled(TraceCat::Fault))
        sim_.trace().instant(
            TraceCat::Fault, "mact.entryLoss", now, 0,
            strprintf("{\"merged\":%zu}", batch.requests.size()));
    // The lost entry's requests are rebuilt from the requester side
    // and re-emitted once the recovery window elapses; they complete
    // late, never silently disappear.
    sim_.events().schedule(
        now + recovery_latency,
        [this, batch = std::move(batch)]() mutable {
            batchSize_.sample(
                static_cast<double>(batch.requests.size()));
            ++batches_;
            sink_(std::move(batch));
        });
    return true;
}

void
Mact::flushLine(Line &line, const char *reason)
{
    if (!sink_)
        panic("MACT flush before setSink");
    MactBatch batch;
    batch.write = line.write;
    batch.lineBase = line.base;
    batch.vector = line.vector;
    // Copy: the line keeps its buffer for its next collects.
    batch.requests.assign(line.requests.begin(), line.requests.end());
    batchSize_.sample(static_cast<double>(batch.requests.size()));
    ++batches_;
    if (sim_.trace().enabled(TraceCat::Mem))
        sim_.trace().complete(
            TraceCat::Mem, "mact.batch", line.firstCollect,
            sim_.now(), 0,
            strprintf("{\"reason\":\"%s\",\"merged\":%zu,"
                      "\"write\":%s}",
                      reason, batch.requests.size(),
                      batch.write ? "true" : "false"));

    line.valid = false;
    line.requests.clear();
    if (used_ == 0)
        panic("MACT occupancy underflow");
    --used_;
    sink_(std::move(batch));
}

} // namespace smarco::mem
