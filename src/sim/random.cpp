#include "sim/random.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>

#include "sim/logging.hpp"

namespace smarco {

namespace {

std::uint64_t
splitmix64(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed, std::uint64_t stream)
{
    // Mix the stream id in so distinct components get distinct
    // sequences even with the same experiment seed.
    std::uint64_t sm = seed ^ (stream * 0xd1342543de82ef95ULL + 1);
    for (auto &s : s_)
        s = splitmix64(sm);
}

std::uint64_t
rngStreamId(std::string_view name)
{
    // FNV-1a, 64-bit: stable across platforms and runs.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : name) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

Rng
namedRng(std::uint64_t seed, std::string_view name)
{
    return Rng(seed, rngStreamId(name));
}

std::uint64_t
Rng::nextBelow(std::uint64_t bound)
{
    if (bound == 0)
        panic("Rng::nextBelow called with bound 0");
    // Lemire's multiply-shift with rejection for exact uniformity.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    std::uint64_t l = static_cast<std::uint64_t>(m);
    if (l < bound) {
        std::uint64_t t = -bound % bound;
        while (l < t) {
            x = next();
            m = static_cast<__uint128_t>(x) * bound;
            l = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t
Rng::nextRange(std::int64_t lo, std::int64_t hi)
{
    if (lo > hi)
        panic("Rng::nextRange: lo %lld > hi %lld",
              static_cast<long long>(lo), static_cast<long long>(hi));
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(nextBelow(span));
}

std::uint64_t
Rng::nextGeometric(double mean, std::uint64_t cap)
{
    if (mean <= 0.0)
        return 0;
    const double p = 1.0 / (mean + 1.0);
    const double u = std::max(nextDouble(), 1e-300);
    const double v = std::log(u) / std::log(1.0 - p);
    // A draw at or above the cap is never cast (it may not fit), nor
    // is the -inf of a mean so long that 1 - p rounds to 1.
    if (!(v >= 0.0 && v < static_cast<double>(cap)))
        return cap;
    return static_cast<std::uint64_t>(v);
}

DiscreteDist::DiscreteDist(std::vector<double> weights)
{
    double total = 0.0;
    for (double w : weights) {
        if (w < 0.0)
            panic("DiscreteDist: negative weight %f", w);
        total += w;
    }
    if (total <= 0.0)
        panic("DiscreteDist: weights sum to zero");
    cdf_.reserve(weights.size());
    double acc = 0.0;
    for (double w : weights) {
        acc += w / total;
        cdf_.push_back(acc);
    }
    cdf_.back() = 1.0; // guard against fp drift
}

double
DiscreteDist::probability(std::size_t i) const
{
    if (i >= cdf_.size())
        panic("DiscreteDist::probability: index out of range");
    return i == 0 ? cdf_[0] : cdf_[i] - cdf_[i - 1];
}

ZipfDist::ZipfDist(std::size_t n, double s)
{
    if (n == 0)
        panic("ZipfDist: empty support");
    if (n > std::numeric_limits<std::uint32_t>::max())
        panic("ZipfDist: support %zu too large", n);
    if (!std::isfinite(s) || s < 0.0)
        panic("ZipfDist: exponent %f is not finite and >= 0", s);

    // Keyed by the exponent's bits, so only a request that would have
    // built a bit-identical table shares one.
    using Key = std::pair<std::size_t, std::uint64_t>;
    static std::mutex lock;
    static std::map<Key, std::shared_ptr<const Table>> memo;
    const std::lock_guard<std::mutex> guard(lock);
    auto &table = memo[{n, std::bit_cast<std::uint64_t>(s)}];
    if (!table) {
        Table t;
        t.cdf.resize(n);
        double acc = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
            t.cdf[i] = acc;
        }
        for (auto &c : t.cdf)
            c /= acc;
        t.cdf.back() = 1.0;

        // About one bucket per rank, at most 2^16. K is a power of
        // two, so k / K and u * K in sample() are exact.
        const std::size_t buckets =
            std::min<std::size_t>(std::bit_ceil(n), std::size_t{1} << 16);
        t.guide.resize(buckets + 1);
        std::size_t i = 0;
        for (std::size_t k = 0; k <= buckets; ++k) {
            const double start =
                static_cast<double>(k) / static_cast<double>(buckets);
            while (t.cdf[i] < start)
                ++i; // stops at n - 1 at the latest: cdf.back() is 1
            t.guide[k] = static_cast<std::uint32_t>(i);
        }
        table = std::make_shared<const Table>(std::move(t));
    }
    table_ = table;
}

std::size_t
ZipfDist::sample(Rng &rng) const
{
    if (!table_)
        panic("ZipfDist::sample: empty support");
    const double u = rng.nextDouble();
    // u lies in bucket k, [k / K, (k + 1) / K), so its lower_bound
    // rank lies in [guide[k], guide[k + 1]].
    const std::vector<std::uint32_t> &guide = table_->guide;
    const auto k = static_cast<std::size_t>(
        u * static_cast<double>(guide.size() - 1));
    const double *const cdf = table_->cdf.data();
    return static_cast<std::size_t>(
        std::lower_bound(cdf + guide[k], cdf + guide[k + 1], u) - cdf);
}

} // namespace smarco
