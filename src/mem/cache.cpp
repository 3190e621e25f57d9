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
    // strprintf builds each name in one allocation; `prefix + ".x"`
    // copies a prefix too long for the short-string buffer, then
    // grows the copy (512 caches on a 256-core chip).
    : params_(std::move(params)),
      hits_(stats, strprintf("%s.hits", stat_prefix.c_str()),
            "cache hits"),
      misses_(stats, strprintf("%s.misses", stat_prefix.c_str()),
              "cache misses"),
      writebacks_(stats, strprintf("%s.writebacks", stat_prefix.c_str()),
                  "dirty evictions")
{
    if (params_.sizeBytes == 0 || params_.assoc == 0 ||
        params_.lineBytes == 0)
        fatal("cache %s: zero-sized parameter", params_.name.c_str());
    // In 64 bits: a 32-bit way-size product can wrap to zero.
    numSets_ = params_.sizeBytes /
        (std::uint64_t{params_.assoc} * params_.lineBytes);
    if (params_.assoc > kMaxAssoc)
        fatal("cache %s: associativity %u above the LRU rank limit %u",
              params_.name.c_str(), params_.assoc, kMaxAssoc);
    if (!isPow2(params_.lineBytes))
        fatal("cache %s: line size must be a power of two",
              params_.name.c_str());
    if (numSets_ * params_.assoc * params_.lineBytes != params_.sizeBytes)
        fatal("cache %s: size %llu not divisible into %u-way sets",
              params_.name.c_str(),
              static_cast<unsigned long long>(params_.sizeBytes),
              params_.assoc);
    const std::uint64_t ways = numSets_ * params_.assoc;
    tags_ = std::make_unique_for_overwrite<Addr[]>(ways);
    state_ = std::make_unique_for_overwrite<std::uint8_t[]>(ways);
    fill_ = std::make_unique<std::uint8_t[]>(numSets_); // every set empty
    lineShift_ = std::countr_zero(params_.lineBytes);
    pow2Sets_ = isPow2(numSets_);
    setShift_ = std::countr_zero(numSets_);
}

void
Cache::ageBelow(std::uint8_t *state, std::uint32_t ways, std::uint8_t rank)
{
    // Ranks stay below assoc <= kMaxAssoc, so aging never carries
    // into the dirty bit.
    for (std::uint32_t w = 0; w < ways; ++w)
        state[w] = static_cast<std::uint8_t>(
            state[w] + ((state[w] & kRankMask) < rank));
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
    std::uint8_t *const state = &state_[base];
    const std::uint32_t assoc = params_.assoc;
    const std::uint32_t fill = fill_[set];
    const std::uint8_t dirtyIfWrite = write ? kDirty : 0;

    // A tag sits in at most one valid way of a set, so comparing every
    // valid way with no early exit finds the hit way without a
    // mispredicted loop exit.
    std::uint32_t way = assoc;
    for (std::uint32_t w = 0; w < fill; ++w)
        way = tags[w] == tag ? w : way;
    if (way != assoc) {
        ageBelow(state, fill, state[way] & kRankMask);
        state[way] = (state[way] & kDirty) | dirtyIfWrite; // rank 0
        ++hits_;
        return CacheResult{true, false, kNoAddr};
    }

    // Miss. A full set holds the ranks 0 .. assoc - 1 once each, and
    // its victim is the LRU way, of rank assoc - 1. A set that is not
    // full holds only ranks below fill <= assoc - 1, so the scan finds
    // no such way and the miss fills way fill, the first invalid way.
    // Aging every way ranked below assoc - 1 ages every valid way but
    // the victim either way.
    const std::uint8_t lru = static_cast<std::uint8_t>(assoc - 1);
    const bool full = fill == assoc;
    std::uint32_t victim = fill;
    for (std::uint32_t w = 0; w < fill; ++w)
        victim = (state[w] & kRankMask) == lru ? w : victim;

    CacheResult res;
    // Only a valid way can be dirty, and way fill is not yet valid.
    if (full && (state[victim] & kDirty)) {
        res.writeback = true;
        res.victimAddr = (tags[victim] * numSets_ + set) * params_.lineBytes;
        ++writebacks_;
    }
    ageBelow(state, fill, lru);
    tags[victim] = tag;
    state[victim] = dirtyIfWrite; // rank 0
    fill_[set] = static_cast<std::uint8_t>(fill + !full);
    ++misses_;
    return res;
}

bool
Cache::probe(Addr addr) const
{
    const auto [set, tag] = locate(addr);
    const Addr *const tags = &tags_[set * params_.assoc];
    return std::find(tags, tags + fill_[set], tag) != tags + fill_[set];
}

void
Cache::flush()
{
    std::fill_n(fill_.get(), numSets_, std::uint8_t{0});
}

double
Cache::missRatio() const
{
    const double total = hits_.value() + misses_.value();
    return total > 0.0 ? misses_.value() / total : 0.0;
}

} // namespace smarco::mem
