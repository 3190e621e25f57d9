/**
 * @file
 * Deterministic random number generation for the simulator.
 *
 * Every stochastic component owns its own Rng seeded from the
 * experiment seed plus a component-unique stream id, so adding or
 * removing components never perturbs the random streams of others.
 */
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

namespace smarco {

/**
 * xoshiro256** generator with splitmix64 seeding. Small, fast, and
 * reproducible across platforms (unlike std::mt19937 + std::
 * distributions, whose outputs are implementation-defined).
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed; stream distinguishes instances. */
    explicit Rng(std::uint64_t seed = 0x5eed, std::uint64_t stream = 0);

    /** Next raw 64-bit value. */
    std::uint64_t next()
    {
        const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = std::rotl(s_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound) using Lemire rejection. */
    std::uint64_t nextBelow(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t nextRange(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1). */
    double nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability p of true. */
    bool chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return nextDouble() < p;
    }

    /** Geometric-ish bounded draw: mean roughly m, capped at cap. */
    std::uint64_t nextGeometric(double mean, std::uint64_t cap);

  private:
    std::uint64_t s_[4];
};

/**
 * Stable 64-bit stream id for a named random stream (FNV-1a over the
 * name). Components that want an Rng decoupled from every numeric
 * stream id in the codebase derive theirs from a string instead:
 * adding a new named stream can never collide with or renumber the
 * positional ids handed out by chip construction.
 */
std::uint64_t rngStreamId(std::string_view name);

/**
 * Rng for the named stream under the given experiment seed. The fault
 * subsystem draws exclusively from named streams ("fault.*") so that
 * arming a campaign never perturbs workload or scheduler draws.
 */
Rng namedRng(std::uint64_t seed, std::string_view name);

/**
 * Discrete distribution over arbitrary weights. Used for
 * per-benchmark access-granularity histograms, which have a handful
 * of categories, so a draw of u in [0, 1) counts the CDF entries
 * below u without branches. On the non-decreasing CDF that count is
 * the index std::lower_bound finds.
 */
class DiscreteDist
{
  public:
    DiscreteDist() = default;

    /** Build from (unnormalised) weights; weights must be >= 0. */
    explicit DiscreteDist(std::vector<double> weights);

    /** Sample an index according to the weights. */
    std::size_t sample(Rng &rng) const
    {
        const double u = rng.nextDouble();
        std::size_t below = 0;
        for (const double c : cdf_)
            below += c < u;
        return below;
    }

    /** Number of categories. */
    std::size_t size() const { return cdf_.size(); }

    /** Probability of category i (normalised). */
    double probability(std::size_t i) const;

  private:
    std::vector<double> cdf_;
};

/**
 * Zipf distribution over [0, n) with exponent s. Models the skewed
 * popularity of keys/pages in HTC workloads (web objects, words).
 * Sampling is by indexed search (Chen and Asau, 1974) over a
 * precomputed CDF: a guide table of K buckets over [0, 1) holds, for
 * each bucket start k / K, the first CDF index at or above it, so a
 * draw u binary-searches only between its bucket's two guide entries
 * and returns exactly the rank that std::lower_bound over the whole
 * CDF returns.
 *
 * The tables depend only on (n, s), so they are built once per
 * distinct key and shared: every ZipfDist with that key, and every
 * copy of one, reads the same immutable tables. A process-wide memo
 * keeps them per key it has seen for the life of the process, so
 * starting a task costs a lookup, not n calls to pow().
 */
class ZipfDist
{
  public:
    ZipfDist() = default;

    /** Zipf(n, s); 0 < n < 2^32, and s finite and >= 0. */
    ZipfDist(std::size_t n, double s);

    /** Sample a rank in [0, n). */
    std::size_t sample(Rng &rng) const;

    std::size_t size() const { return table_ ? table_->cdf.size() : 0; }

  private:
    struct Table {
        std::vector<double> cdf;
        /** K + 1 entries, K a power of two: guide[k] is the first CDF
         *  index whose value is at least k / K. */
        std::vector<std::uint32_t> guide;
    };

    std::shared_ptr<const Table> table_;
};

} // namespace smarco
