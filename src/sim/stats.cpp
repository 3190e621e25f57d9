#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sim/json_writer.hpp"
#include "sim/logging.hpp"

namespace smarco {

Stat::Stat(StatRegistry &registry, std::string name, const char *desc)
    : name_(&registry.add(std::move(name), this)), desc_(desc)
{
}

void
Stat::printJsonHead(std::ostream &os, const char *kind) const
{
    os << "{\"kind\":\"" << kind << "\",\"value\":"
       << json::num(value()) << ",\"desc\":" << json::str(desc_);
}

void
Stat::printJson(std::ostream &os) const
{
    printJsonHead(os, "scalar");
    os << '}';
}

void
Average::printJson(std::ostream &os) const
{
    printJsonHead(os, "average");
    os << ",\"sum\":" << json::num(sum_)
       << ",\"count\":" << json::num(count_) << '}';
}

Histogram::Histogram(StatRegistry &registry, std::string name,
                     const char *desc, double lo, double hi,
                     std::size_t buckets)
    : Stat(registry, std::move(name), desc),
      lo_(lo), hi_(hi),
      width_((hi - lo) / static_cast<double>(buckets)),
      buckets_(buckets, 0)
{
    if (hi <= lo || buckets == 0)
        panic("Histogram %s: bad range [%f, %f) x %zu",
              this->name().c_str(), lo, hi, buckets);
}

void
Histogram::sample(double v, std::uint64_t weight)
{
    if (weight == 0)
        return;
    if (count_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    count_ += weight;
    sum_ += v * static_cast<double>(weight);
    sumSq_ += v * v * static_cast<double>(weight);

    double idx_f = (v - lo_) / width_;
    auto idx = idx_f <= 0.0
        ? std::size_t{0}
        : std::min(static_cast<std::size_t>(idx_f), buckets_.size() - 1);
    buckets_[idx] += weight;
}

double
Histogram::value() const
{
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
}

double
Histogram::stddev() const
{
    if (count_ < 2)
        return 0.0;
    const double n = static_cast<double>(count_);
    const double var = (sumSq_ - sum_ * sum_ / n) / (n - 1.0);
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

double
Histogram::bucketLow(std::size_t i) const
{
    return lo_ + width_ * static_cast<double>(i);
}

double
Histogram::percentile(double p) const
{
    if (count_ == 0)
        return 0.0;
    p = std::clamp(p, 0.0, 1.0);
    const double target = p * static_cast<double>(count_);
    double seen = 0.0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        const double w = static_cast<double>(buckets_[i]);
        if (w == 0.0)
            continue;
        if (seen + w >= target) {
            const double frac = w > 0.0 ? (target - seen) / w : 0.0;
            const double v = bucketLow(i) + width_ * frac;
            return std::clamp(v, min_, max_);
        }
        seen += w;
    }
    return max_;
}

void
Histogram::printJson(std::ostream &os) const
{
    printJsonHead(os, "histogram");
    os << ",\"count\":" << count_
       << ",\"stddev\":" << json::num(stddev())
       << ",\"min\":" << json::num(min_)
       << ",\"max\":" << json::num(max_)
       << ",\"lo\":" << json::num(lo_)
       << ",\"hi\":" << json::num(hi_)
       << ",\"bucketWidth\":" << json::num(width_)
       << ",\"p50\":" << json::num(percentile(0.50))
       << ",\"p95\":" << json::num(percentile(0.95))
       << ",\"p99\":" << json::num(percentile(0.99))
       << ",\"buckets\":[";
    for (std::size_t i = 0; i < buckets_.size(); ++i)
        os << (i ? "," : "") << buckets_[i];
    os << "]}";
}

namespace {

std::uint32_t
nameHash(std::string_view name)
{
    return static_cast<std::uint32_t>(std::hash<std::string_view>{}(name));
}

} // namespace

std::size_t
StatRegistry::probe(std::string_view name, std::uint32_t hash) const
{
    const std::size_t mask = table_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
        const Slot &slot = table_[i];
        if (slot.index == kEmpty ||
            (slot.hash == hash && names_[slot.index] == name))
            return i;
    }
}

void
StatRegistry::rehash(std::size_t slots)
{
    const std::vector<Slot> old =
        std::exchange(table_, std::vector<Slot>(slots));
    const std::size_t mask = slots - 1;
    for (const Slot &slot : old) {
        if (slot.index == kEmpty)
            continue;
        std::size_t i = slot.hash & mask;
        while (table_[i].index != kEmpty)
            i = (i + 1) & mask;
        table_[i] = slot;
    }
}

const std::string &
StatRegistry::add(std::string name, Stat *stat)
{
    if (2 * (stats_.size() + 1) > table_.size())
        rehash(table_.empty() ? 16 : 2 * table_.size());
    const std::uint32_t hash = nameHash(name);
    Slot &slot = table_[probe(name, hash)];
    if (slot.index != kEmpty)
        panic("duplicate stat name '%s'", name.c_str());
    slot = {hash, static_cast<std::uint32_t>(stats_.size())};
    names_.push_back(std::move(name));
    stats_.push_back(stat);
    return names_.back();
}

Stat *
StatRegistry::find(std::string_view name) const
{
    if (table_.empty())
        return nullptr;
    const Slot &slot = table_[probe(name, nameHash(name))];
    return slot.index == kEmpty ? nullptr : stats_[slot.index];
}

Stat &
StatRegistry::get(std::string_view name) const
{
    Stat *s = find(name);
    if (!s)
        panic("stat '%.*s' not registered",
              static_cast<int>(name.size()), name.data());
    return *s;
}

void
StatRegistry::sortNew() const
{
    const std::size_t sorted = byName_.size();
    if (sorted == stats_.size())
        return;
    for (std::size_t i = sorted; i < stats_.size(); ++i)
        byName_.push_back(static_cast<std::uint32_t>(i));
    auto less = [this](std::uint32_t a, std::uint32_t b) {
        return names_[a] < names_[b];
    };
    const auto mid = byName_.begin() + static_cast<std::ptrdiff_t>(sorted);
    std::sort(mid, byName_.end(), less);
    std::inplace_merge(byName_.begin(), mid, byName_.end(), less);
}

std::size_t
StatRegistry::lowerBound(std::string_view prefix) const
{
    sortNew();
    const auto it = std::lower_bound(
        byName_.begin(), byName_.end(), prefix,
        [this](std::uint32_t i, std::string_view p) {
            return std::string_view(names_[i]) < p;
        });
    return static_cast<std::size_t>(it - byName_.begin());
}

std::vector<Stat *>
StatRegistry::findPrefix(std::string_view prefix) const
{
    std::vector<Stat *> out;
    for (std::size_t k = lowerBound(prefix); k < byName_.size(); ++k) {
        const std::uint32_t i = byName_[k];
        if (!names_[i].starts_with(prefix))
            break;
        out.push_back(stats_[i]);
    }
    return out;
}

double
StatRegistry::total(std::string_view prefix, std::string_view suffix) const
{
    double sum = 0.0;
    for (std::size_t k = lowerBound(prefix); k < byName_.size(); ++k) {
        const std::uint32_t i = byName_[k];
        if (!names_[i].starts_with(prefix))
            break;
        if (names_[i].ends_with(suffix))
            sum += stats_[i]->value();
    }
    return sum;
}

void
StatRegistry::dumpJson(std::ostream &os) const
{
    sortNew();
    os << '{';
    bool first = true;
    for (std::uint32_t i : byName_) {
        os << (first ? "" : ",") << '\n' << json::str(names_[i]) << ':';
        stats_[i]->printJson(os);
        first = false;
    }
    os << "\n}";
}

void
StatRegistry::missingTyped(std::string_view name) const
{
    panic("stat '%.*s' not registered with the requested type",
          static_cast<int>(name.size()), name.data());
}

} // namespace smarco
