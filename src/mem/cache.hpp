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
#include <string>
#include <vector>

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
 * The tag store is three set-major arrays, way w of set s at entry
 * s * assoc + w: tags (kNoAddr marks an invalid way), 64-bit LRU
 * stamps and dirty flags. A stamp is the use clock of the way's last
 * access; valid stamps start at 1 and no two are equal, so stamp 0
 * marks an invalid way and a miss evicts the first way with the
 * smallest stamp: the first invalid way, else the LRU way. Both
 * searches are branch-free. A lookup compares every tag of the set,
 * 8 bytes a way, with no early exit (a valid tag matches at most one
 * way). A miss takes a running minimum of the set's stamps with a
 * strict <, so the first of equal stamps wins.
 */
class Cache
{
  public:
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

    CacheParams params_;
    std::uint64_t numSets_;
    /** log2(lineBytes); set index and tag shift the line number. */
    int lineShift_ = 0;
    /** Power-of-two set counts mask and shift instead of dividing;
     *  setShift_ is log2(numSets_) then. */
    bool pow2Sets_ = false;
    int setShift_ = 0;
    // numSets * assoc entries each, set-major.
    std::vector<Addr> tags_;            ///< kNoAddr: invalid way
    std::vector<std::uint64_t> stamps_; ///< last use; 0: invalid way
    std::vector<std::uint8_t> dirty_;
    std::uint64_t useClock_ = 0;

    Scalar hits_;
    Scalar misses_;
    Scalar writebacks_;
};

} // namespace smarco::mem
