/**
 * @file
 * Lightweight statistics framework.
 *
 * Components register named statistics in a StatRegistry; experiment
 * harnesses and tests look them up by hierarchical dotted name. Only
 * three concrete kinds are needed by the SmarCo models: Scalar
 * (counter/value), Average (ratio of two accumulators), and Histogram
 * (linear-bucket distribution with moment tracking).
 */
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace smarco {

class StatRegistry;

/** Base class for all named statistics. */
class Stat
{
  public:
    Stat(StatRegistry &registry, std::string name, std::string desc);
    virtual ~Stat() = default;

    Stat(const Stat &) = delete;
    Stat &operator=(const Stat &) = delete;

    const std::string &name() const { return name_; }

    /** Primary scalar summary of this statistic. */
    virtual double value() const = 0;

    /**
     * JSON value object of this stat (everything except the name),
     * e.g. {"kind":"scalar","value":3,"desc":"..."}. Every concrete
     * kind includes at least "kind", "value" and "desc".
     */
    virtual void printJson(std::ostream &os) const;

  protected:
    /** Opening fields shared by every printJson override. */
    void printJsonHead(std::ostream &os, const char *kind) const;

  private:
    std::string name_;
    std::string desc_;
};

/** A plain accumulating counter / settable value. */
class Scalar : public Stat
{
  public:
    using Stat::Stat;

    Scalar &operator+=(double v) { value_ += v; return *this; }
    Scalar &operator++() { value_ += 1.0; return *this; }
    void set(double v) { value_ = v; }

    double value() const override { return value_; }

  private:
    double value_ = 0.0;
};

/** Mean of a stream of samples (sum / count). */
class Average : public Stat
{
  public:
    using Stat::Stat;

    void sample(double v) { sum_ += v; count_ += 1.0; }

    double value() const override
    {
        return count_ > 0.0 ? sum_ / count_ : 0.0;
    }
    double sum() const { return sum_; }
    double count() const { return count_; }
    void printJson(std::ostream &os) const override;

  private:
    double sum_ = 0.0;
    double count_ = 0.0;
};

/**
 * Linear-bucket histogram over [lo, hi) with moment tracking.
 * Samples outside the range land in saturating edge buckets.
 *
 * Weights are frequency weights: sample(v, w) is equivalent to
 * sampling v w times, so count() is the total weight and mean,
 * stddev and the buckets are all weight-scaled. A weight of zero is
 * a complete no-op — it does not touch min/max, the moments or the
 * buckets.
 */
class Histogram : public Stat
{
  public:
    Histogram(StatRegistry &registry, std::string name,
              std::string desc, double lo, double hi,
              std::size_t buckets);

    void sample(double v, std::uint64_t weight = 1);

    /** value() reports the sample mean. */
    double value() const override;
    void printJson(std::ostream &os) const override;

    std::uint64_t count() const { return count_; }
    double minSample() const { return min_; }
    double maxSample() const { return max_; }

    /**
     * p-quantile estimate in [0, 1], linearly interpolated within the
     * containing bucket and clamped to the observed [min, max] (so
     * edge-bucket saturation cannot report values never sampled).
     * Returns 0 when the histogram is empty.
     */
    double percentile(double p) const;
    double stddev() const;
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }
    double bucketLow(std::size_t i) const;

  private:
    double lo_;
    double hi_;
    double width_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double sumSq_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Owner-side registry mapping dotted names to statistics. Statistics
 * register themselves on construction and must outlive the registry
 * queries made against them (they are member fields of components in
 * practice).
 */
class StatRegistry
{
  public:
    /** Register a stat; names must be unique. Called by Stat ctor. */
    void add(Stat *stat);

    /** Look up by exact name; returns nullptr when absent. */
    Stat *find(const std::string &name) const;

    /** Look up and panic when absent (for tests/harnesses). */
    Stat &get(const std::string &name) const;

    /**
     * Typed lookup; nullptr when absent or of a different kind.
     * Harnesses use this instead of casting or name scraping.
     */
    template <typename T>
    T *findAs(const std::string &name) const
    { return dynamic_cast<T *>(find(name)); }

    /** Typed lookup that panics when absent or of the wrong kind. */
    template <typename T>
    T &getAs(const std::string &name) const
    {
        T *s = findAs<T>(name);
        if (!s)
            missingTyped(name);
        return *s;
    }

    /** All stats whose name starts with prefix, in name order. */
    std::vector<Stat *> findPrefix(const std::string &prefix) const;

    /**
     * Sum of value() over every stat whose name starts with prefix
     * and ends with suffix (e.g. total("chip.core", ".slotsUsed")
     * aggregates one per-core counter across the chip).
     */
    double total(const std::string &prefix,
                 const std::string &suffix) const;

    /**
     * Dump every stat as one JSON object keyed by name, in name
     * order. Histograms include their full buckets and moments.
     */
    void dumpJson(std::ostream &os) const;

    std::size_t size() const { return stats_.size(); }

  private:
    [[noreturn]] void missingTyped(const std::string &name) const;

    std::map<std::string, Stat *> stats_;
};

} // namespace smarco
