/**
 * @file
 * Single-pass Mattson stack-distance profiler: one traversal of a
 * trace yields the exact LRU miss count of every cache geometry in a
 * lattice of set counts x associativities x line sizes, instead of
 * one full replay per configuration.
 *
 * The classical result (Mattson et al., 1970): under LRU an A-way
 * set-associative cache with bit-selected indexing hits a reference
 * iff the referenced line is among the A most recently used lines of
 * its set. Tracking, per set, the recency order of the lines mapped
 * to it therefore answers "hit or miss?" for every associativity at
 * once; configurations sharing a (line size, set count) pair share
 * one recency structure, and a size x assoc sweep collapses to a
 * handful of structures updated in a single pass.
 *
 * The recency structure is a per-set way array: each set of a
 * (line size, set count) pair holds the line addresses of its
 * maxAssoc most recently used lines in MRU order, maxAssoc being the
 * largest associativity any lattice point asks of that pair. A hit's
 * position in the array is its stack distance; a line not in the
 * array (a first touch, or a reuse deeper than maxAssoc) misses at
 * every tracked associativity. With the few ways real lattices use,
 * a set is a short contiguous scan and needs neither a hash table
 * nor a linked list, and sets never interact. Distinct lines
 * (touchedLines()) are counted once per line size in a block bitmap,
 * not per structure.
 *
 * Scope: the engine models exactly what the simulator's Standard
 * feature path does to the main array — one physical line per access,
 * LRU with invalid-way preference, bit-selected sets — so its miss
 * counts are bit-identical to core::simulateTrace for standard
 * configurations (the StackDifferential tests prove this). Timing
 * (AMAT) is not modeled: a stack pass yields counts, not cycles.
 *
 * Layering: like the rest of sac_sim, this header never names a
 * sac_core symbol; the harness maps core::Config points onto
 * StackPoint and back.
 */

#ifndef SAC_SIM_STACK_ENGINE_HH
#define SAC_SIM_STACK_ENGINE_HH

#include <cstdint>
#include <vector>

#include "src/trace/record.hh"
#include "src/util/types.hh"

namespace sac {

namespace trace {
class TraceSource;
}

namespace sim {

/** One LRU cache geometry answered by a stack pass. */
struct StackPoint
{
    std::uint64_t cacheSizeBytes = 8 * 1024;
    std::uint32_t lineBytes = 32;
    std::uint32_t assoc = 1;

    /** Number of sets (cacheSizeBytes / (lineBytes * assoc)). */
    std::uint64_t
    sets() const
    {
        return cacheSizeBytes /
               (static_cast<std::uint64_t>(lineBytes) * assoc);
    }

    /**
     * Can a stack pass answer this point? Requires the bit-selection
     * geometry of cache::CacheArray: power-of-two line size and set
     * count, size a multiple of line * assoc.
     */
    bool wellFormed() const;
};

/**
 * Single-pass exact-LRU profiler over a lattice of StackPoints.
 *
 * Build it from every point of the sweep, feed the trace once (run()
 * or repeated feed() calls), then query missCount() per point. Points
 * sharing (lineBytes, sets) share one internal profiler; the pass
 * cost scales with the number of distinct (lineBytes, sets) pairs,
 * not with the number of lattice points.
 *
 * Not thread-safe; single consumer, like the sources it drains.
 */
class StackDistanceEngine
{
  public:
    /** @param points the lattice; every point must be wellFormed() */
    explicit StackDistanceEngine(const std::vector<StackPoint> &points);

    /**
     * A set-sharded slice of the pass: this engine profiles only the
     * sets with index % @p shards == @p shard (per profiler, in its
     * own set space) and ignores every other record. Per-set LRU
     * stacks never interact, so @p shards engines fed the same stream
     * and absorb()ed together yield exactly the unsharded counts —
     * the decomposition behind the parallel stack pass. The stream
     * counters (accesses/reads/writes) are whole-stream on every
     * shard, which absorb() checks.
     */
    StackDistanceEngine(const std::vector<StackPoint> &points,
                        unsigned shard, unsigned shards);

    ~StackDistanceEngine();
    StackDistanceEngine(StackDistanceEngine &&) noexcept;
    StackDistanceEngine &operator=(StackDistanceEngine &&) noexcept;

    /** Profile @p n records (appends to the current pass). */
    void feed(const trace::Record *recs, std::size_t n);

    /**
     * Drain @p src in chunks through feed().
     * @return records consumed
     */
    std::uint64_t run(trace::TraceSource &src);

    /** Records profiled so far. */
    std::uint64_t accesses() const { return accesses_; }

    /** Read records profiled so far. */
    std::uint64_t reads() const { return reads_; }

    /** Write records profiled so far. */
    std::uint64_t writes() const { return writes_; }

    /** Is @p p covered by this engine's lattice? */
    bool covers(const StackPoint &p) const;

    /**
     * Exact LRU demand-miss count of @p p over everything fed so far.
     * @p p must be covered.
     */
    std::uint64_t missCount(const StackPoint &p) const;

    /** missCount() / accesses() (0 when nothing was fed). */
    double missRatio(const StackPoint &p) const;

    /**
     * Distinct lines touched at @p p's line granularity — the
     * compulsory-miss count of every point sharing that line size.
     */
    std::uint64_t touchedLines(std::uint32_t line_bytes) const;

    /** This engine's shard index (0 when unsharded). */
    unsigned shard() const { return shard_; }

    /** Total shards the pass was split into (1 when unsharded). */
    unsigned shards() const { return shards_; }

    /**
     * Fold @p other's histograms into this engine: per matching
     * profiler, the compulsory / deep / depth counts and touched-line
     * tallies sum. Both engines must be slices of the same pass —
     * same lattice, same shard count, both fed the identical full
     * stream (asserted via the stream counters). After absorbing
     * every other shard, this engine answers missCount()/
     * touchedLines() exactly as one unsharded pass would.
     */
    void absorb(const StackDistanceEngine &other);

  private:
    class Profiler;
    class LineCounter;

    /** The profiler covering (@p line_bytes, @p sets), or nullptr. */
    const Profiler *profilerOf(std::uint32_t line_bytes,
                               std::uint64_t sets) const;

    /** The distinct-line counter at @p line_bytes, or nullptr. */
    const LineCounter *lineCounterOf(std::uint32_t line_bytes) const;

    std::vector<Profiler> profilers_;
    std::vector<LineCounter> counters_; //!< one per line size
    std::uint64_t accesses_ = 0;
    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
    unsigned shard_ = 0;
    unsigned shards_ = 1;
};

} // namespace sim
} // namespace sac

#endif // SAC_SIM_STACK_ENGINE_HH
