/**
 * @file
 * Per-set heat profiling over cache::CacheArray: access, miss,
 * eviction and conflict counters indexed by set, emitted as a compact
 * heatmap block ("sac-set-profile-v1") in the run manifest. This
 * makes the paper's conflict story visible — fig09-style sweeps can
 * show *which* sets the assisted configurations decongest instead of
 * only how many conflict misses disappeared in aggregate.
 *
 * The simulator drives it as Observers::setProfiler (see
 * core::SoftwareAssistedCache::observe(), which checks that the set
 * counts match), in detailed StatsMode only. The profiler itself is
 * simulator-agnostic: plain per-set vectors any array-indexed
 * structure can drive; the on*() hooks do not bounds-check @p set.
 */

#ifndef SAC_TELEMETRY_SET_PROFILE_HH
#define SAC_TELEMETRY_SET_PROFILE_HH

#include <cstdint>
#include <vector>

#include "src/util/json.hh"

namespace sac {
namespace telemetry {

/** Schema tag of the manifest heatmap block. */
inline constexpr const char *setProfileSchema = "sac-set-profile-v1";

/** Per-set access/miss/eviction/conflict counters. */
class SetProfiler
{
  public:
    /** Profile an array of @p num_sets sets (clamped >= 1). */
    explicit SetProfiler(std::uint32_t num_sets);

    void onAccess(std::uint32_t set) noexcept { ++accesses_[set]; }
    void onMiss(std::uint32_t set) noexcept { ++misses_[set]; }
    void onEviction(std::uint32_t set) noexcept { ++evictions_[set]; }
    void onConflict(std::uint32_t set) noexcept { ++conflicts_[set]; }

    std::uint32_t numSets() const
    {
        return static_cast<std::uint32_t>(accesses_.size());
    }

    const std::vector<std::uint64_t> &accesses() const
    {
        return accesses_;
    }
    const std::vector<std::uint64_t> &misses() const
    {
        return misses_;
    }
    const std::vector<std::uint64_t> &evictions() const
    {
        return evictions_;
    }
    const std::vector<std::uint64_t> &conflicts() const
    {
        return conflicts_;
    }

    std::uint64_t totalAccesses() const { return total(accesses_); }
    std::uint64_t totalMisses() const { return total(misses_); }
    std::uint64_t totalEvictions() const { return total(evictions_); }
    std::uint64_t totalConflicts() const { return total(conflicts_); }

    /** Set with the most misses (lowest index on ties). */
    std::uint32_t hottestSet() const;

    /** The manifest heatmap block (schema, per-set arrays, totals). */
    util::Json toJson() const;

  private:
    static std::uint64_t total(const std::vector<std::uint64_t> &v);

    std::vector<std::uint64_t> accesses_;
    std::vector<std::uint64_t> misses_;
    std::vector<std::uint64_t> evictions_;
    std::vector<std::uint64_t> conflicts_;
};

} // namespace telemetry
} // namespace sac

#endif // SAC_TELEMETRY_SET_PROFILE_HH
