/**
 * @file
 * Small statistics helpers used by the benchmark harnesses.
 *
 * The paper repeats every experiment at least ten times and plots average
 * and standard deviation; RunningStat provides exactly that.
 */

#ifndef SENTRY_COMMON_STATS_HH
#define SENTRY_COMMON_STATS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sentry
{

/**
 * Online mean / variance / extrema accumulator (Welford's algorithm)
 * that also keeps every sample, so exact percentiles are available
 * without reservoir approximation. Benchmark sample counts are small
 * (tens to a few thousand), so full retention is cheap.
 */
class RunningStat
{
  public:
    /** Add one sample. */
    void add(double sample);

    /** @return number of samples added. */
    std::size_t count() const { return count_; }

    /** @return arithmetic mean (0 when empty). */
    double mean() const { return count_ ? mean_ : 0.0; }

    /** @return sample standard deviation (0 with fewer than 2 samples). */
    double stddev() const;

    /** @return smallest sample (0 when empty). */
    double min() const { return count_ ? min_ : 0.0; }

    /** @return largest sample (0 when empty). */
    double max() const { return count_ ? max_ : 0.0; }

    /**
     * Exact nearest-rank percentile of the retained samples: the
     * smallest sample with at least @p p percent of the mass at or
     * below it (p is clamped to [0,100]; 0 when empty).
     */
    double percentile(double p) const;

    /** Shorthands for the usual latency summary points. */
    double p50() const { return percentile(50.0); }
    double p95() const { return percentile(95.0); }
    double p99() const { return percentile(99.0); }

    /** Drop all samples. */
    void reset();

    /** @return "mean ± stddev" formatted with @p precision decimals. */
    std::string summary(int precision = 3) const;

  private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    std::vector<double> samples_;
};

/**
 * Mergeable, fixed-memory sample statistic for population-scale
 * aggregation (the SentryFleet shard accumulators).
 *
 * Exact quantities (count, min, max) and a *weighted bottom-k*
 * reservoir for percentiles: every sample carries a caller-supplied
 * 64-bit priority (a deterministic hash of its origin — device seed,
 * metric, ordinal), and the stat retains the `cap` samples with the
 * smallest priorities. Bottom-k selection is commutative and
 * associative under merge (bottom-k of a union equals bottom-k of the
 * parts' bottom-k sets), so any merge tree over any partition of the
 * samples yields the *same retained set* — aggregation order cannot
 * change the result. While the total sample count fits the cap the
 * reservoir holds everything and percentile() is exact (bit-identical
 * to RunningStat::percentile over the same samples); beyond the cap it
 * is a uniform subsample with the usual reservoir error bounds.
 *
 * mean() is order-independent by construction while all samples are
 * retained: it sums the retained values in sorted order. Past the cap
 * it falls back to a running sum, whose last-ulp rounding depends on
 * the (deterministic) merge tree but not on thread count.
 */
class MergeStat
{
  public:
    /** Default retained-sample bound (see FLEET_SAMPLE_CAP users). */
    static constexpr std::size_t DEFAULT_CAP = 8192;

    /** One retained sample and its selection priority. */
    struct Weighted
    {
        std::uint64_t priority = 0;
        double value = 0.0;
    };

    explicit MergeStat(std::size_t cap = DEFAULT_CAP);

    /** Add one sample with its deterministic selection priority. */
    void add(double sample, std::uint64_t priority);

    /** Fold @p other into this stat (commutative, associative in the
     * retained set; see class comment for mean() caveats). */
    void merge(const MergeStat &other);

    /** @return true count of samples added (not just retained). */
    std::uint64_t count() const { return count_; }

    /** @return number of samples currently retained (≤ cap). */
    std::size_t retained() const { return keep_.size(); }

    /** @return retained-sample bound. */
    std::size_t cap() const { return cap_; }

    /** @return smallest sample (0 when empty). */
    double min() const { return count_ ? min_ : 0.0; }

    /** @return largest sample (0 when empty). */
    double max() const { return count_ ? max_ : 0.0; }

    /**
     * @return arithmetic mean (0 when empty). Exact and merge-order
     * independent while every sample is retained.
     */
    double mean() const;

    /**
     * Nearest-rank percentile over the retained samples (same formula
     * as RunningStat::percentile; exact while count() ≤ cap()).
     */
    double percentile(double p) const;

    /** @return retained values sorted ascending (for digests/tests). */
    std::vector<double> sortedValues() const;

  private:
    std::size_t cap_;
    std::uint64_t count_ = 0;
    double runningSum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    std::vector<Weighted> keep_; //!< max-heap by (priority, value)
};

/**
 * A sum of doubles rounded once: the running total is a list of
 * non-overlapping partials whose sum is exact (Shewchuk's algorithm, as
 * Python's math.fsum), and value() rounds that exact sum to the nearest
 * double. The value therefore depends only on the multiset of addends,
 * never on the order they were added or merged in, for any number of
 * addends. Addends and their sum must be finite.
 */
class ExactSum
{
  public:
    /** Add @p x exactly. */
    void add(double x);

    /** Add every addend of @p other exactly. */
    void merge(const ExactSum &other);

    /** @return the exact sum rounded to nearest, ties to even. */
    double value() const;

  private:
    std::vector<double> partials_; //!< increasing magnitude
};

} // namespace sentry

#endif // SENTRY_COMMON_STATS_HH
