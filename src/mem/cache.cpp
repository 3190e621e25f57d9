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
    const std::uint64_t ways = numSets_ * params_.assoc;
    tags_.assign(ways, kNoAddr);
    stamps_.assign(ways, 0);
    dirty_.assign(ways, 0);
    lineShift_ = std::countr_zero(params_.lineBytes);
    pow2Sets_ = isPow2(numSets_);
    setShift_ = std::countr_zero(numSets_);
}

Cache::Location
Cache::locate(Addr addr) const
{
    const Addr line = addr >> lineShift_;
    if (pow2Sets_)
        return {line & (numSets_ - 1), line >> setShift_};
    // Set counts need not be powers of two (e.g. a 60 MB LLC); those
    // divide once for the tag and take the set from it.
    const Addr tag = line / numSets_;
    return {line - tag * numSets_, tag};
}

CacheResult
Cache::access(Addr addr, bool write)
{
    const auto [set, tag] = locate(addr);
    const std::uint64_t base = set * params_.assoc;
    Addr *const tags = &tags_[base];
    std::uint64_t *const stamps = &stamps_[base];
    std::uint8_t *const dirty = &dirty_[base];
    ++useClock_;

    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        if (tags[w] == tag) {
            stamps[w] = useClock_;
            if (write)
                dirty[w] = 1;
            ++hits_;
            return CacheResult{true, false, kNoAddr};
        }
    }

    // Miss: the first way with the smallest stamp, which is the first
    // invalid way if any, else the LRU way. Nothing is below stamp 0,
    // so the scan stops at the first invalid way.
    std::uint32_t victim = 0;
    for (std::uint32_t w = 1; w < params_.assoc && stamps[victim] != 0;
         ++w) {
        if (stamps[w] < stamps[victim])
            victim = w;
    }

    CacheResult res;
    res.hit = false;
    // Only a valid way can be dirty.
    if (dirty[victim]) {
        res.writeback = true;
        res.victimAddr = (tags[victim] * numSets_ + set) * params_.lineBytes;
        ++writebacks_;
    }
    tags[victim] = tag;
    stamps[victim] = useClock_;
    dirty[victim] = write;
    ++misses_;
    return res;
}

bool
Cache::probe(Addr addr) const
{
    const auto [set, tag] = locate(addr);
    const Addr *const tags = &tags_[set * params_.assoc];
    return std::find(tags, tags + params_.assoc, tag) !=
           tags + params_.assoc;
}

void
Cache::flush()
{
    std::fill(tags_.begin(), tags_.end(), kNoAddr);
    std::fill(stamps_.begin(), stamps_.end(), 0);
    std::fill(dirty_.begin(), dirty_.end(), 0);
}

double
Cache::missRatio() const
{
    const double total = hits_.value() + misses_.value();
    return total > 0.0 ? misses_.value() / total : 0.0;
}

} // namespace smarco::mem
