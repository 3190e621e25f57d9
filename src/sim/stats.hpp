/**
 * @file
 * Lightweight statistics framework.
 *
 * Components register named statistics in a StatRegistry; experiment
 * harnesses and tests look them up by hierarchical dotted name. Only
 * three concrete kinds are needed by the SmarCo models: Scalar
 * (counter/value), Average (ratio of two accumulators), and Histogram
 * (linear-bucket distribution with moment tracking).
 *
 * Ownership. The registry owns every name: registering moves the
 * caller's string into registry storage that never moves, and the
 * stat keeps a pointer to it. A stat's description is not copied at
 * all: the stat keeps the `const char *` it was given, so a
 * description must have static storage (a string literal). A 256-core
 * chip registers about 6,000 stats per build, so a registration
 * allocates nothing per stat beyond the caller's name (storage grows
 * in amortized blocks) and inserts into no tree.
 *
 * Lookup. Exact lookups and the duplicate-name check go through an
 * open-addressing hash index over the names and never touch a Stat
 * object. Name-ordered queries (findPrefix, total, dumpJson) read a
 * view of the stats sorted by name (std::string's operator<). The
 * first ordered query after a registration builds it, merging in
 * what was registered since the last one, so even a const query may
 * write the view: a registry belongs to one Simulator and must not
 * be shared across threads.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace smarco {

class StatRegistry;

/** Base class for all named statistics. */
class Stat
{
  public:
    /** @p desc must have static storage: the stat keeps the pointer. */
    Stat(StatRegistry &registry, std::string name, const char *desc);
    virtual ~Stat() = default;

    Stat(const Stat &) = delete;
    Stat &operator=(const Stat &) = delete;

    /** The registry's copy of the name: valid while it lives. */
    const std::string &name() const { return *name_; }

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
    const std::string *name_; ///< owned by the registry
    const char *desc_;
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
              const char *desc, double lo, double hi,
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
 * queries that return or read them (they are member fields of
 * components in practice); exact lookups read only the registry's
 * own names.
 */
class StatRegistry
{
  public:
    /**
     * Register @p stat under @p name, which must be unique (a
     * duplicate panics). Returns the registry's copy of the name,
     * which lives as long as the registry. Called by the Stat ctor.
     */
    const std::string &add(std::string name, Stat *stat);

    /** Look up by exact name; returns nullptr when absent. */
    Stat *find(std::string_view name) const;

    /** Look up and panic when absent (for tests/harnesses). */
    Stat &get(std::string_view name) const;

    /**
     * Typed lookup; nullptr when absent or of a different kind.
     * Harnesses use this instead of casting or name scraping.
     */
    template <typename T>
    T *findAs(std::string_view name) const
    { return dynamic_cast<T *>(find(name)); }

    /** Typed lookup that panics when absent or of the wrong kind. */
    template <typename T>
    T &getAs(std::string_view name) const
    {
        T *s = findAs<T>(name);
        if (!s)
            missingTyped(name);
        return *s;
    }

    /** All stats whose name starts with prefix, in name order. */
    std::vector<Stat *> findPrefix(std::string_view prefix) const;

    /**
     * Sum of value() over every stat whose name starts with prefix
     * and ends with suffix (e.g. total("chip.core", ".slotsUsed")
     * aggregates one per-core counter across the chip).
     */
    double total(std::string_view prefix, std::string_view suffix) const;

    /**
     * Dump every stat as one JSON object keyed by name, in name
     * order. Histograms include their full buckets and moments.
     */
    void dumpJson(std::ostream &os) const;

    std::size_t size() const { return stats_.size(); }

  private:
    /**
     * Hash-table slot: the low 32 bits of a name's hash (enough to
     * place it in any table a 32-bit registration index allows) and
     * its registration index.
     */
    struct Slot
    {
        std::uint32_t hash = 0;
        std::uint32_t index = kEmpty;
    };
    static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

    /** Slot holding @p name, or the empty slot where it would go. */
    std::size_t probe(std::string_view name, std::uint32_t hash) const;
    /** Resize the hash table to @p slots (a power of two). */
    void rehash(std::size_t slots);
    /** Merge stats registered since the last ordered query. */
    void sortNew() const;
    /** First position in byName_ whose name is not below @p prefix. */
    std::size_t lowerBound(std::string_view prefix) const;

    [[noreturn]] void missingTyped(std::string_view name) const;

    std::deque<std::string> names_; ///< by index; never moves
    std::vector<Stat *> stats_;     ///< by index
    std::vector<Slot> table_;       ///< open addressing, <= half full
    mutable std::vector<std::uint32_t> byName_; ///< indices by name
};

} // namespace smarco
