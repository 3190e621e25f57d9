/**
 * @file
 * Per-benchmark workload profiles.
 *
 * The paper evaluates six HTC micro-benchmarks (WordCount, TeraSort,
 * Search, K-means, KMP, RNC) and contrasts them with eleven SPLASH2
 * applications (Fig. 8). We do not ship the original binaries; instead
 * each benchmark is characterised by a profile capturing the features
 * the evaluation depends on: instruction mix, ILP, branch behaviour,
 * memory access granularity distribution, and where accesses land in
 * the memory system. DESIGN.md documents this substitution.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/random.hpp"

namespace smarco::workloads {

/** Access sizes used by the granularity distributions (bytes). */
inline constexpr std::uint8_t kGranularitySizes[] = {1, 2, 4, 8, 16, 32, 64};
inline constexpr std::size_t kNumGranularities = 7;

/**
 * Static characterisation of one benchmark. All fractions are in
 * [0, 1]; instruction-mix fractions must sum to <= 1 with the
 * remainder being plain ALU ops.
 */
struct BenchProfile {
    std::string name;

    // --- instruction mix ------------------------------------------------
    double fracMem = 0.35;      ///< loads + stores among all ops
    double fracLoadOfMem = 0.65;///< loads among memory ops
    double fracBranch = 0.15;   ///< branches among all ops
    double fracMul = 0.02;      ///< multiply/divide class
    double fracFp = 0.0;        ///< floating-point class
    double branchMissRate = 0.06;
    /** Independent ops one thread can issue per cycle (ILP limit). */
    double ilp = 2.0;

    // --- memory behaviour -------------------------------------------------
    /** Weights over kGranularitySizes for load/store sizes. */
    std::vector<double> granularityWeights;
    double fracSpmLocal = 0.55; ///< of mem ops: local scratch-pad
    double fracSpmRemote = 0.04;///< of mem ops: neighbour scratch-pad
    double fracHeap = 0.25;     ///< of mem ops: cacheable heap
    // remainder of mem ops is Stream (uncached word-granularity DRAM)

    std::uint64_t heapWorkingSet = 256 * 1024; ///< bytes, zipf-visited
    double heapZipf = 0.8;      ///< skew of heap reuse; finite, >= 0
    std::uint64_t streamWorkingSet = 4 * 1024 * 1024;

    /** Fraction of ops tagged with superior real-time priority. */
    double fracPriority = 0.0;

    /** Mean length of a stream-access burst (consecutive small
     *  accesses to adjacent addresses, e.g. emitting one record).
     *  Bursts are what give the MACT same-line merging opportunities. */
    double streamBurst = 4.0;

    /** Typical micro-ops in one task of this benchmark. */
    std::uint64_t opsPerTask = 20000;
    /** Bytes of input staged into SPM per task (DMA prefetch). */
    std::uint64_t taskInputBytes = 32 * 1024;

    /** Fraction of stream remainder (see fracHeap) that is loads that
     *  block; the rest are non-blocking stores / prefetched reads. */
    double streamLoadBlocking = 0.15;

    /** Instruction-loop footprint of the kernel, in bytes. With the
     *  shared instruction segment every thread fetches from the same
     *  footprint (Section 3.1.2). */
    std::uint64_t instrFootprint = 6 * 1024;

    /** Sanity-check the profile; panics on inconsistent fractions. */
    void validate() const;

    /** Fraction of mem ops going to the Stream class. */
    double fracStream() const
    {
        return 1.0 - fracSpmLocal - fracSpmRemote - fracHeap;
    }
};

/** The six HTC benchmarks of the paper, in paper order. */
const std::vector<BenchProfile> &htcProfiles();

/** Look up an HTC profile by name; panics when unknown. */
const BenchProfile &htcProfile(const std::string &name);

/** Eleven SPLASH2-like conventional applications (Fig. 8, right). */
const std::vector<BenchProfile> &conventionalProfiles();

/**
 * Mean access granularity in bytes implied by a profile's
 * granularity distribution (used by Fig. 8 and tests).
 */
double meanGranularity(const BenchProfile &profile);

} // namespace smarco::workloads
