#include "src/util/distribution.hh"

#include <algorithm>
#include <cmath>

#include "src/util/logging.hh"

namespace sac {
namespace util {

DiscreteDistribution::DiscreteDistribution(std::vector<Outcome> outcomes)
    : outcomes_(std::move(outcomes))
{
    SAC_ASSERT(!outcomes_.empty(),
               "a discrete distribution needs at least one outcome");
    double total = 0.0;
    for (const auto &o : outcomes_) {
        SAC_ASSERT(o.weight >= 0.0, "negative outcome weight");
        total += o.weight;
    }
    SAC_ASSERT(total > 0.0, "total distribution weight must be positive");
    cumulative_.reserve(outcomes_.size());
    double run = 0.0;
    for (const auto &o : outcomes_) {
        run += o.weight / total;
        cumulative_.push_back(run);
    }
    cumulative_.back() = 1.0;
    // cumulative * 2^53 is exact, and for an integer k,
    // k * 2^-53 < c  <=>  k < ceil(c * 2^53).
    for (std::size_t i = 0; i + 1 < cumulative_.size(); ++i)
        thresholds_.push_back(static_cast<std::uint64_t>(
            std::ceil(std::ldexp(cumulative_[i], 53))));
}

double
DiscreteDistribution::probability(std::size_t i) const
{
    SAC_ASSERT(i < outcomes_.size(), "outcome index out of range");
    return cumulative_[i] - (i == 0 ? 0.0 : cumulative_[i - 1]);
}

double
DiscreteDistribution::mean() const
{
    double m = 0.0;
    for (std::size_t i = 0; i < outcomes_.size(); ++i)
        m += probability(i) * static_cast<double>(outcomes_[i].value);
    return m;
}

BucketHistogram::BucketHistogram(std::vector<std::int64_t> upper_bounds,
                                 std::vector<std::string> labels)
    : bounds_(std::move(upper_bounds)), labels_(std::move(labels))
{
    SAC_ASSERT(std::is_sorted(bounds_.begin(), bounds_.end()),
               "histogram bounds must be increasing");
    SAC_ASSERT(labels_.size() == bounds_.size() + 1,
               "need one label per bucket including the overflow bucket");
    counts_.assign(bounds_.size() + 1, 0.0);
}

void
BucketHistogram::add(std::int64_t value, double weight)
{
    const auto it =
        std::upper_bound(bounds_.begin(), bounds_.end(), value);
    counts_[static_cast<std::size_t>(it - bounds_.begin())] += weight;
    total_ += weight;
}

double
BucketHistogram::fraction(std::size_t i) const
{
    SAC_ASSERT(i < counts_.size(), "bucket index out of range");
    return total_ > 0.0 ? counts_[i] / total_ : 0.0;
}

} // namespace util
} // namespace sac
