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
    tags_.assign(ways, kNoAddr);
    state_.assign(ways, kInvalidRank);
    lineShift_ = std::countr_zero(params_.lineBytes);
    pow2Sets_ = isPow2(numSets_);
    setShift_ = std::countr_zero(numSets_);
}

void
Cache::ageBelow(std::uint8_t *state, std::uint32_t assoc, std::uint8_t rank)
{
    // rank is at most kInvalidRank, so a rank below it ages to at
    // most kInvalidRank and never carries into the dirty bit.
    for (std::uint32_t w = 0; w < assoc; ++w)
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
    const std::uint8_t dirtyIfWrite = write ? kDirty : 0;

    // A valid tag sits in at most one way of a set, so comparing every
    // way with no early exit finds the hit way without a mispredicted
    // loop exit.
    std::uint32_t way = assoc;
    for (std::uint32_t w = 0; w < assoc; ++w)
        way = tags[w] == tag ? w : way;
    if (way != assoc) {
        ageBelow(state, assoc, state[way] & kRankMask);
        state[way] = (state[way] & kDirty) | dirtyIfWrite; // rank 0
        ++hits_;
        return CacheResult{true, false, kNoAddr};
    }

    // Miss: the first way with the largest rank, which is the first
    // invalid way if any, else the LRU way. A running maximum over
    // every way with a strict > keeps the first of equal ranks.
    std::uint32_t victim = 0;
    std::uint8_t oldest = state[0] & kRankMask;
    for (std::uint32_t w = 1; w < assoc; ++w) {
        const std::uint8_t rank = state[w] & kRankMask;
        const bool older = rank > oldest;
        victim = older ? w : victim;
        oldest = older ? rank : oldest;
    }

    CacheResult res;
    res.hit = false;
    // Only a valid way can be dirty.
    if (state[victim] & kDirty) {
        res.writeback = true;
        res.victimAddr = (tags[victim] * numSets_ + set) * params_.lineBytes;
        ++writebacks_;
    }
    ageBelow(state, assoc, oldest);
    tags[victim] = tag;
    state[victim] = dirtyIfWrite; // rank 0
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
    std::fill(state_.begin(), state_.end(), kInvalidRank);
}

double
Cache::missRatio() const
{
    const double total = hits_.value() + misses_.value();
    return total > 0.0 ? misses_.value() / total : 0.0;
}

} // namespace smarco::mem
