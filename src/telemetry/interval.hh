/**
 * @file
 * Time-resolved run statistics: the IntervalRecorder snapshots the
 * full sim::RunStats delta every N records — miss ratio, per-class
 * misses, traffic, write-buffer occupancy, bounce-backs — and exports
 * the series as JSONL ("sac-intervals-v1") next to the run manifest.
 * The simulator calls it only in the Observed instantiation of its
 * access path (detailed StatsMode with an observer set), so
 * functional warming and unobserved runs pay nothing.
 *
 * Every uint64 counter is monotone non-decreasing within a run (the
 * completion cycle included), so plain unsigned subtraction telescopes
 * exactly: the per-interval deltas sum bit-for-bit to the final
 * RunStats. interval_test pins that property differentially.
 *
 * Layering: RunStats fields are read through the header-only
 * forEachCounter() enumeration only, so sac_telemetry keeps linking
 * nothing but sac_util.
 */

#ifndef SAC_TELEMETRY_INTERVAL_HH
#define SAC_TELEMETRY_INTERVAL_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/sim/run_stats.hh"
#include "src/util/json.hh"

namespace sac {
namespace telemetry {

/** Schema tag of the interval JSONL export (header line). */
inline constexpr const char *intervalSchema = "sac-intervals-v1";

/**
 * One recorded interval: the counter deltas accumulated since the
 * previous snapshot plus the cumulative state at the boundary.
 */
struct IntervalSnapshot
{
    std::uint64_t index = 0;       //!< 0-based interval number
    std::uint64_t startRecord = 0; //!< first access of the interval
    std::uint64_t endRecord = 0;   //!< one past the last access
    std::uint32_t writeBufferOccupancy = 0; //!< entries at the boundary
    bool closing = false; //!< partial interval flushed by finish()

    /** Per-counter deltas, in RunStats::forEachCounter() order. */
    std::vector<std::uint64_t> deltas;

    /** Latency-cycle delta (the one double-valued RunStats field). */
    double deltaAccessCycles = 0.0;

    /** Cumulative stats at the interval boundary. */
    sim::RunStats cumulative;
};

/**
 * Periodic RunStats snapshotter. The simulator calls afterAccess()
 * once per detailed-mode access (one decrement and one branch on the
 * hot path); every `interval_records`-th call captures a snapshot.
 * finish() flushes the trailing partial interval. Attach it as
 * Observers::interval with core::SoftwareAssistedCache::observe().
 */
class IntervalRecorder
{
  public:
    /** Snapshot every @p interval_records accesses (clamped >= 1). */
    explicit IntervalRecorder(std::uint64_t interval_records);

    /** Hot-path hook: countdown, snapshot on expiry. */
    void afterAccess(const sim::RunStats &stats,
                     std::uint32_t wb_occupancy)
    {
        if (--countdown_ != 0)
            return;
        countdown_ = every_;
        capture(stats, wb_occupancy, false);
    }

    /**
     * Flush the trailing partial interval (no-op when the run ended
     * exactly on a boundary or nothing changed since the last
     * snapshot). Idempotent; called by the simulator's finish().
     */
    void finish(const sim::RunStats &stats,
                std::uint32_t wb_occupancy);

    /**
     * Count from @p stats instead of zero: the state of a run the
     * recorder joins part-way. The next snapshot starts at
     * stats.accesses and holds only the deltas made after this call.
     * core::SoftwareAssistedCache::observe() calls it on attach.
     */
    void startFrom(const sim::RunStats &stats);

    /** Snapshot period in records. */
    std::uint64_t intervalRecords() const { return every_; }

    /** All captured snapshots, in time order. */
    const std::vector<IntervalSnapshot> &snapshots() const
    {
        return snapshots_;
    }

    /**
     * Component-wise sum of every snapshot's deltas — equals the
     * final RunStats counters exactly (the differential property
     * interval_test checks).
     */
    std::vector<std::uint64_t> deltaTotals() const;

    /** Sum of the per-interval latency-cycle deltas. */
    double deltaAccessCyclesTotal() const;

    /**
     * Dotted counter names in snapshot-delta order (identical to
     * RunStats::registerInto() registration order).
     */
    static const std::vector<std::string> &counterNames();

    /** Index of @p name in counterNames(); size() when unknown. */
    static std::size_t counterIndex(const std::string &name);

    /** The JSONL header line (schema, run identity, period). */
    util::Json headerJson(const std::string &workload,
                          const std::string &config_name,
                          const std::string &cache_key) const;

    /** One snapshot as a single JSONL line value. */
    util::Json snapshotJson(const IntervalSnapshot &s) const;

    /**
     * Write the full series as JSONL: one header line, then one line
     * per snapshot. Returns false when the file cannot be written.
     */
    bool writeJsonl(const std::string &path,
                    const std::string &workload,
                    const std::string &config_name,
                    const std::string &cache_key) const;

  private:
    void capture(const sim::RunStats &stats, std::uint32_t wb_occupancy,
                 bool closing);

    std::uint64_t every_;
    std::uint64_t countdown_;
    bool finished_ = false;
    sim::RunStats last_;                    //!< state at last snapshot
    std::vector<std::uint64_t> lastValues_; //!< counters of last_
    std::vector<IntervalSnapshot> snapshots_;
};

} // namespace telemetry
} // namespace sac

#endif // SAC_TELEMETRY_INTERVAL_HH
