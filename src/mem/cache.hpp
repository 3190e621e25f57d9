/**
 * @file
 * Set-associative cache tag model with LRU replacement.
 *
 * Used for the 16 KB I/D caches of the TCG cores and for the
 * three-level hierarchy of the conventional baseline chip. Only tags
 * are modelled; data movement is accounted by the callers in packets
 * and DRAM traffic.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace smarco::mem {

/** Configuration of one cache level. */
struct CacheParams {
    std::string name = "cache";
    std::uint64_t sizeBytes = 16 * 1024;
    std::uint32_t assoc = 4;
    std::uint32_t lineBytes = 64;
    Cycle hitLatency = 2;
};

/** Outcome of a cache access. */
struct CacheResult {
    bool hit = false;
    /** Line fill evicted a dirty victim that must be written back. */
    bool writeback = false;
    /** Address of the dirty victim line (valid when writeback). */
    Addr victimAddr = kNoAddr;
};

/**
 * LRU set-associative cache. access() performs lookup and, on miss,
 * allocates the line immediately (the timing of the fill is the
 * caller's concern; this keeps the tag model reusable by both chips).
 *
 * The tag store is two set-major arrays, way w of set s at entry
 * s * assoc + w: 8-byte tags and one state byte, 9 bytes a way, plus
 * one fill count per set. A state byte holds the way's LRU rank in its
 * low seven bits and its dirty flag in the top bit.
 *
 * A miss always fills the first invalid way, and only flush()
 * invalidates, so the valid ways of a set are always its ways
 * 0 .. fill - 1; the fill count is the whole of a set's valid state.
 * The valid ways hold the ranks 0 (MRU) to fill - 1, one each. An
 * access to a way of rank r ages every valid way ranked below r by
 * one and gives the way rank 0. A miss in a set that is not full
 * takes way fill, with no eviction and no writeback; a miss in a full
 * set evicts the one way of rank assoc - 1, the LRU way.
 *
 * No way's value is used before the miss that fills it, so the tag and
 * state arrays are left uninitialised: building a cache writes one
 * byte per set (the zeroed fill counts) and touches no way, which
 * keeps a 60 MB LLC's 8.8 MB of ways out of the build. flush() zeroes
 * the counts.
 *
 * Every search is branch-free. A lookup compares every valid tag of
 * the set with no early exit (a tag matches at most one way). The
 * rank searches run eight state bytes to a 64-bit word: a miss
 * compares every valid rank with assoc - 1, which no way of a set
 * that is not full holds, and falls back to way fill; aging adds one
 * to every lane ranked below the accessed way. Each lane compares its
 * seven rank bits only, so the dirty bit never enters a result, and
 * lanes at or past the fill count are masked out of every result, so
 * the store writes their bytes back unchanged. The state array has
 * eight bytes of padding, so the last set's last word stays inside
 * it.
 */
class Cache
{
  public:
    /** Largest associativity. Ranks 0..125 fit the seven rank bits,
     *  and a fill count fits its byte. */
    static constexpr std::uint32_t kMaxAssoc = 126;

    Cache(StatRegistry &stats, CacheParams params,
          const std::string &stat_prefix);

    /** Look up addr; allocate on miss; update LRU and dirty bits. */
    CacheResult access(Addr addr, bool write);

    /** Look up without allocating or touching LRU (for tests). */
    bool probe(Addr addr) const;

    /** Invalidate every way, dropping dirty lines without a
     *  writeback. Only tests call it. */
    void flush();

    const CacheParams &params() const { return params_; }

    std::uint64_t hits() const
    { return static_cast<std::uint64_t>(hits_.value()); }
    std::uint64_t misses() const
    { return static_cast<std::uint64_t>(misses_.value()); }
    double missRatio() const;

  private:
    /** Where a line lives: its set and its tag within the set. */
    struct Location {
        std::uint64_t set;
        Addr tag;
    };

    Location locate(Addr addr) const;

    static constexpr std::uint8_t kDirty = 0x80;
    static constexpr std::uint8_t kRankMask = 0x7F;

    /** Age each of the first ways ways ranked below rank by one,
     *  eight to a word. */
    static void ageBelow(std::uint8_t *state, std::uint32_t ways,
                         std::uint8_t rank);

    CacheParams params_;
    std::uint64_t numSets_ = 0;
    /** log2(lineBytes); set index and tag shift the line number. */
    int lineShift_ = 0;
    /** Power-of-two set counts mask and shift instead of dividing;
     *  setShift_ is log2(numSets_) then. */
    bool pow2Sets_ = false;
    int setShift_ = 0;
    // numSets * assoc entries each, set-major; uninitialised until
    // a miss fills the way.
    std::unique_ptr<Addr[]> tags_;
    /** kDirty | LRU rank, plus eight bytes of padding. */
    std::unique_ptr<std::uint8_t[]> state_;
    /** Valid ways of each set: ways 0 .. fill_[s] - 1. */
    std::unique_ptr<std::uint8_t[]> fill_;

    Scalar hits_;
    Scalar misses_;
    Scalar writebacks_;
};

} // namespace smarco::mem
