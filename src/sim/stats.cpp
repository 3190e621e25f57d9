#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>

#include "sim/json_writer.hpp"
#include "sim/logging.hpp"

namespace smarco {

Stat::Stat(StatRegistry &registry, std::string name, std::string desc)
    : name_(std::move(name)), desc_(std::move(desc))
{
    registry.add(this);
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
                     std::string desc, double lo, double hi,
                     std::size_t buckets)
    : Stat(registry, std::move(name), std::move(desc)),
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

void
StatRegistry::add(Stat *stat)
{
    auto [it, inserted] = stats_.emplace(stat->name(), stat);
    (void)it;
    if (!inserted)
        panic("duplicate stat name '%s'", stat->name().c_str());
}

Stat *
StatRegistry::find(const std::string &name) const
{
    auto it = stats_.find(name);
    return it == stats_.end() ? nullptr : it->second;
}

Stat &
StatRegistry::get(const std::string &name) const
{
    Stat *s = find(name);
    if (!s)
        panic("stat '%s' not registered", name.c_str());
    return *s;
}

std::vector<Stat *>
StatRegistry::findPrefix(const std::string &prefix) const
{
    std::vector<Stat *> out;
    for (auto it = stats_.lower_bound(prefix); it != stats_.end(); ++it) {
        if (it->first.compare(0, prefix.size(), prefix) != 0)
            break;
        out.push_back(it->second);
    }
    return out;
}

double
StatRegistry::total(const std::string &prefix,
                    const std::string &suffix) const
{
    double sum = 0.0;
    for (auto it = stats_.lower_bound(prefix); it != stats_.end(); ++it) {
        const std::string &n = it->first;
        if (n.compare(0, prefix.size(), prefix) != 0)
            break;
        if (n.size() >= suffix.size() &&
            n.compare(n.size() - suffix.size(), suffix.size(),
                      suffix) == 0)
            sum += it->second->value();
    }
    return sum;
}

void
StatRegistry::dumpJson(std::ostream &os) const
{
    os << '{';
    bool first = true;
    for (auto &[name, stat] : stats_) {
        os << (first ? "" : ",") << '\n' << json::str(name) << ':';
        stat->printJson(os);
        first = false;
    }
    os << "\n}";
}

void
StatRegistry::missingTyped(const std::string &name) const
{
    panic("stat '%s' not registered with the requested type",
          name.c_str());
}

} // namespace smarco
