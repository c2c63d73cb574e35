/**
 * @file
 * Empirical discrete distributions: sampling (used by the Figure-4b
 * issue-time model) and histogram accumulation (used by every trace
 * profiler that reports a distribution of references among buckets).
 */

#ifndef SAC_UTIL_DISTRIBUTION_HH
#define SAC_UTIL_DISTRIBUTION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/rng.hh"

namespace sac {
namespace util {

/**
 * A discrete distribution over arbitrary integer outcomes with given
 * relative weights; samples by inverse CDF over a precomputed
 * cumulative table.
 */
class DiscreteDistribution
{
  public:
    /** One possible outcome and its (relative, unnormalized) weight. */
    struct Outcome
    {
        std::int64_t value;
        double weight;
    };

    /** Build from outcomes; total weight must be positive. */
    explicit DiscreteDistribution(std::vector<Outcome> outcomes);

    /**
     * Draw one outcome value using the supplied generator (one raw
     * draw). The draw's 53 high bits k pick the first outcome whose
     * cumulative weight exceeds k * 2^-53, the last one if none does;
     * counting the integer thresholds ceil(cumulative * 2^53) that k
     * reaches selects exactly that outcome with no branch and no
     * conversion to double.
     */
    std::int64_t
    sample(Rng &rng) const
    {
        const std::uint64_t k = rng.next() >> 11;
        std::size_t i = 0;
        for (const std::uint64_t t : thresholds_)
            i += k >= t;
        return outcomes_[i].value;
    }

    /** Probability mass of outcome index @p i (normalized). */
    double probability(std::size_t i) const;

    /** Number of distinct outcomes. */
    std::size_t size() const { return outcomes_.size(); }

    /** Outcome value at index @p i. */
    std::int64_t value(std::size_t i) const { return outcomes_[i].value; }

    /** Expected value of the distribution. */
    double mean() const;

  private:
    std::vector<Outcome> outcomes_;
    std::vector<double> cumulative_; // normalized, ends at 1.0
    /** ceil(cumulative_[i] * 2^53) for every outcome but the last. */
    std::vector<std::uint64_t> thresholds_;
};

/**
 * A histogram over half-open value ranges [bound[i-1], bound[i]), used
 * to reproduce the paper's "distribution of references among ..."
 * figures. The first bucket is (-inf, bound[0]) and a final implicit
 * bucket covers [bound[n-1], +inf).
 */
class BucketHistogram
{
  public:
    /**
     * @param upper_bounds strictly increasing exclusive upper bounds;
     *        one extra overflow bucket is appended automatically
     * @param labels human-readable label per bucket (size() + 1 of
     *        upper_bounds), used by formatting helpers
     */
    BucketHistogram(std::vector<std::int64_t> upper_bounds,
                    std::vector<std::string> labels);

    /** Add @p weight to the bucket containing @p value. */
    void add(std::int64_t value, double weight = 1.0);

    /** Number of buckets (bounds + overflow). */
    std::size_t size() const { return counts_.size(); }

    /** Raw accumulated weight of bucket @p i. */
    double count(std::size_t i) const { return counts_[i]; }

    /** Fraction of total weight in bucket @p i (0 if histogram empty). */
    double fraction(std::size_t i) const;

    /** Label of bucket @p i. */
    const std::string &label(std::size_t i) const { return labels_[i]; }

    /** Total accumulated weight. */
    double total() const { return total_; }

  private:
    std::vector<std::int64_t> bounds_;
    std::vector<std::string> labels_;
    std::vector<double> counts_;
    double total_ = 0.0;
};

} // namespace util
} // namespace sac

#endif // SAC_UTIL_DISTRIBUTION_HH
