#include "src/trace/timing_model.hh"

#include "src/util/logging.hh"

namespace sac {
namespace trace {

util::DiscreteDistribution
TimingModel::figure4bDistribution()
{
    // Figure 4b: the mode is at 1-2 cycles with a long tail; roughly
    // 40% at 1 cycle, 25% at 2, and decreasing mass out to >20 cycles.
    // The ">20" bucket is represented by 25 cycles.
    return util::DiscreteDistribution({
        {1, 0.40},
        {2, 0.25},
        {3, 0.12},
        {4, 0.07},
        {5, 0.05},
        {10, 0.06},
        {15, 0.02},
        {20, 0.02},
        {25, 0.01},
    });
}

TimingModel::TimingModel(std::uint64_t seed)
    : dist_(figure4bDistribution()), rng_(seed)
{
}

TimingModel::TimingModel(util::DiscreteDistribution dist,
                         std::uint64_t seed)
    : dist_(std::move(dist)), rng_(seed)
{
}

void
TimingModel::deltaOutOfRange(std::int64_t d)
{
    util::panic("delta out of range: ", d);
}

} // namespace trace
} // namespace sac
