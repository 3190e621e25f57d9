#include "sim/random.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
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
    const auto draw = static_cast<std::uint64_t>(v);
    return std::min(draw, cap);
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
    if (!std::isfinite(s) || s < 0.0)
        panic("ZipfDist: exponent %f is not finite and >= 0", s);

    // Keyed by the exponent's bits, so only a request that would have
    // built a bit-identical table shares one.
    using Key = std::pair<std::size_t, std::uint64_t>;
    static std::mutex lock;
    static std::map<Key, std::shared_ptr<const std::vector<double>>> memo;
    const std::lock_guard<std::mutex> guard(lock);
    auto &table = memo[{n, std::bit_cast<std::uint64_t>(s)}];
    if (!table) {
        std::vector<double> cdf(n);
        double acc = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
            cdf[i] = acc;
        }
        for (auto &c : cdf)
            c /= acc;
        cdf.back() = 1.0;
        table = std::make_shared<const std::vector<double>>(
            std::move(cdf));
    }
    cdf_ = table;
}

std::size_t
ZipfDist::sample(Rng &rng) const
{
    if (!cdf_)
        panic("ZipfDist::sample: empty support");
    const double u = rng.nextDouble();
    const auto it = std::lower_bound(cdf_->begin(), cdf_->end(), u);
    return static_cast<std::size_t>(it - cdf_->begin());
}

} // namespace smarco
