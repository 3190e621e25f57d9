#include "mem/cache.hpp"

#include <algorithm>
#include <bit>

#include "sim/logging.hpp"

namespace smarco::mem {

namespace {

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

Cache::Cache(StatRegistry &stats, CacheParams params,
             const std::string &stat_prefix)
    : params_(std::move(params)),
      numSets_(params_.sizeBytes / (params_.assoc * params_.lineBytes)),
      hits_(stats, stat_prefix + ".hits", "cache hits"),
      misses_(stats, stat_prefix + ".misses", "cache misses"),
      writebacks_(stats, stat_prefix + ".writebacks", "dirty evictions")
{
    if (params_.sizeBytes == 0 || params_.assoc == 0 ||
        params_.lineBytes == 0)
        fatal("cache %s: zero-sized parameter", params_.name.c_str());
    if (!isPow2(params_.lineBytes))
        fatal("cache %s: line size must be a power of two",
              params_.name.c_str());
    if (numSets_ * params_.assoc * params_.lineBytes != params_.sizeBytes)
        fatal("cache %s: size %llu not divisible into %u-way sets",
              params_.name.c_str(),
              static_cast<unsigned long long>(params_.sizeBytes),
              params_.assoc);
    lines_.resize(numSets_ * params_.assoc);
    lineShift_ = std::countr_zero(params_.lineBytes);
    pow2Sets_ = isPow2(numSets_);
    setShift_ = std::countr_zero(numSets_);
}

std::uint64_t
Cache::setIndex(Addr addr) const
{
    // Set counts need not be powers of two (e.g. a 60 MB LLC); those
    // keep the division.
    const Addr line = addr >> lineShift_;
    return pow2Sets_ ? line & (numSets_ - 1) : line % numSets_;
}

Addr
Cache::tagOf(Addr addr) const
{
    const Addr line = addr >> lineShift_;
    return pow2Sets_ ? line >> setShift_ : line / numSets_;
}

CacheResult
Cache::access(Addr addr, bool write)
{
    const std::uint64_t set = setIndex(addr);
    const Addr tag = tagOf(addr);
    Line *const base = &lines_[set * params_.assoc];
    ++useClock_;

    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        Line &line = base[w];
        if (line.valid && line.tag == tag) {
            line.lastUse = useClock_;
            line.dirty = line.dirty || write;
            ++hits_;
            return CacheResult{true, false, kNoAddr};
        }
    }

    // Miss: pick an invalid way if any, else the LRU way.
    Line *victim = nullptr;
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        Line &line = base[w];
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (!victim || line.lastUse < victim->lastUse)
            victim = &line;
    }

    CacheResult res;
    res.hit = false;
    if (victim->valid && victim->dirty) {
        res.writeback = true;
        res.victimAddr =
            (victim->tag * numSets_ + set) * params_.lineBytes;
        ++writebacks_;
    }
    victim->valid = true;
    victim->tag = tag;
    victim->dirty = write;
    victim->lastUse = useClock_;
    ++misses_;
    return res;
}

bool
Cache::probe(Addr addr) const
{
    const std::uint64_t set = setIndex(addr);
    const Addr tag = tagOf(addr);
    const Line *const base = &lines_[set * params_.assoc];
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        if (base[w].valid && base[w].tag == tag)
            return true;
    }
    return false;
}

void
Cache::flush()
{
    std::fill(lines_.begin(), lines_.end(), Line{});
}

double
Cache::missRatio() const
{
    const double total = hits_.value() + misses_.value();
    return total > 0.0 ? misses_.value() / total : 0.0;
}

} // namespace smarco::mem
