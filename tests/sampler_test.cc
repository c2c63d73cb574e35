/**
 * @file
 * Draw-for-draw equivalence of DiscreteDistribution::sample() with
 * the reference inverse-CDF formula: a uniform double u = (x >> 11) *
 * 2^-53 from each raw generator draw x, the first cumulative weight
 * above u by std::upper_bound, clamped to the last outcome. Every
 * trace's issue deltas come from this sampler, so any divergence
 * would change trace contents.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/trace/timing_model.hh"
#include "src/util/distribution.hh"
#include "src/util/rng.hh"

namespace {

using namespace sac;
using util::DiscreteDistribution;

/** The reference sampler; builds its table as the distribution does. */
class UpperBoundSampler
{
  public:
    explicit UpperBoundSampler(
        const std::vector<DiscreteDistribution::Outcome> &outcomes)
    {
        double total = 0.0;
        for (const auto &o : outcomes)
            total += o.weight;
        double run = 0.0;
        for (const auto &o : outcomes) {
            run += o.weight / total;
            cumulative_.push_back(run);
            values_.push_back(o.value);
        }
        cumulative_.back() = 1.0;
    }

    std::int64_t
    sample(util::Rng &rng) const
    {
        const double u = static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
        const auto it =
            std::upper_bound(cumulative_.begin(), cumulative_.end(), u);
        const auto idx = std::min<std::ptrdiff_t>(
            it - cumulative_.begin(),
            static_cast<std::ptrdiff_t>(values_.size() - 1));
        return values_[static_cast<std::size_t>(idx)];
    }

    /** The cumulative table, final entry forced to 1.0. */
    const std::vector<double> &cumulative() const { return cumulative_; }

  private:
    std::vector<double> cumulative_;
    std::vector<std::int64_t> values_;
};

constexpr std::size_t drawCount = 1u << 20;

/** Compare @p drawCount draws of both samplers from equal seeds. */
void
expectSameDraws(const std::vector<DiscreteDistribution::Outcome> &outcomes,
                std::uint64_t seed)
{
    const DiscreteDistribution dist(outcomes);
    const UpperBoundSampler reference(outcomes);
    util::Rng a(seed), b(seed);
    for (std::size_t i = 0; i < drawCount; ++i)
        ASSERT_EQ(dist.sample(a), reference.sample(b)) << "draw " << i;
    // Both consumed exactly one raw draw per sample.
    EXPECT_EQ(a.next(), b.next());
}

std::vector<DiscreteDistribution::Outcome>
figure4bOutcomes()
{
    const DiscreteDistribution d = trace::TimingModel::figure4bDistribution();
    std::vector<DiscreteDistribution::Outcome> out;
    for (std::size_t i = 0; i < d.size(); ++i)
        out.push_back({d.value(i), d.probability(i)});
    return out;
}

TEST(SamplerEquivalence, Figure4b)
{
    expectSameDraws({{1, 0.40}, {2, 0.25}, {3, 0.12}, {4, 0.07}, {5, 0.05},
                     {10, 0.06}, {15, 0.02}, {20, 0.02}, {25, 0.01}},
                    0xf19b4);
    expectSameDraws(figure4bOutcomes(), 0x7ac3);
}

TEST(SamplerEquivalence, ZeroWeightOutcomesAreNeverDrawn)
{
    const std::vector<DiscreteDistribution::Outcome> outcomes = {
        {0, 0.0}, {1, 0.5}, {2, 0.0}, {3, 0.0}, {4, 0.5}, {5, 0.0}};
    expectSameDraws(outcomes, 11);
    const DiscreteDistribution dist(outcomes);
    util::Rng rng(12);
    for (std::size_t i = 0; i < drawCount; ++i) {
        const auto v = dist.sample(rng);
        ASSERT_TRUE(v == 1 || v == 4) << v;
    }
}

TEST(SamplerEquivalence, SingleOutcome)
{
    expectSameDraws({{8, 1.0}}, 5);
    expectSameDraws({{3, 0.25}}, 6);
}

TEST(SamplerEquivalence, CumulativeSumRoundingAboveOne)
{
    // 0.7/0.9999999999999999 + 0.2/... + 0.1/... rounds to
    // 1.0000000000000002; the trailing zero weight keeps that entry
    // ahead of the forced final 1.0, so the table is not monotonic.
    const std::vector<DiscreteDistribution::Outcome> outcomes = {
        {1, 0.7}, {2, 0.2}, {3, 0.1}, {4, 0.0}};
    const UpperBoundSampler reference(outcomes);
    ASSERT_GT(reference.cumulative()[2], 1.0);
    expectSameDraws(outcomes, 21);
    // Without the trailing outcome, the sum above 1.0 is the entry
    // the constructor overwrites.
    expectSameDraws({{1, 0.7}, {2, 0.2}, {3, 0.1}}, 22);
    // Seven weights of 1/7 also run to 1.0000000000000002.
    std::vector<DiscreteDistribution::Outcome> sevenths;
    for (std::int64_t v = 1; v <= 7; ++v)
        sevenths.push_back({v, 1.0 / 7});
    expectSameDraws(sevenths, 23);
}

} // namespace
