/**
 * @file
 * Experiment harness: runs configuration x workload matrices with
 * trace and result caching, extracts named metrics, and renders the
 * results as aligned tables or CSV. The figure-reproduction benches
 * are thin clients of this library.
 */

#ifndef SAC_HARNESS_EXPERIMENT_HH
#define SAC_HARNESS_EXPERIMENT_HH

#include <atomic>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/config.hh"
#include "src/core/soft_cache.hh"
#include "src/sim/checkpoint.hh"
#include "src/sim/sampling.hh"
#include "src/sim/stack_engine.hh"
#include "src/telemetry/counter_registry.hh"
#include "src/telemetry/phase_timer.hh"
#include "src/trace/trace.hh"
#include "src/trace/trace_source.hh"
#include "src/util/table.hh"

namespace sac {

namespace util {
class ThreadPool;
} // namespace util

namespace harness {

struct SweepRequest;
struct SweepResult;

/** A metric extracted from one simulation run. */
struct Metric
{
    std::string name;
    std::function<double(const sim::RunStats &)> extract;
    int decimals = 3;
};

/** The metrics the paper reports. */
Metric amatMetric();
Metric missRatioMetric();
Metric wordsPerAccessMetric();
Metric mainHitShareMetric();
Metric auxHitShareMetric();

/** A named trace source (generated lazily, cached per runner). */
struct Workload
{
    std::string name;
    std::function<trace::Trace()> build;
    /**
     * Optional streaming producer: emit every record into the sink
     * without materializing the trace. When set, runStreamed() keeps
     * memory bounded by the chunk size instead of the trace length.
     */
    std::function<void(const trace::RecordSink &)> stream = nullptr;
};

/**
 * Runs (workload, config) pairs, caching each generated trace and
 * each simulation result so sweeps sharing points are free.
 *
 * Thread safety: traceOf() and run() may be called concurrently from
 * any number of threads. Each trace is generated exactly once (a
 * per-workload once-latch blocks concurrent requesters until the
 * first generation finishes) and each (workload, config) cell is
 * simulated exactly once; results are keyed on the canonical
 * serialized configuration (core::Config::cacheKey()), never on the
 * display name, so two configs sharing a label cannot alias.
 */
class Runner
{
  public:
    /** One simulated sweep cell: statistics plus its wall-clock cost. */
    struct CellResult
    {
        sim::RunStats stats;
        double simSeconds = 0.0; //!< wall seconds of simulateTrace()
    };

    /** Wall-clock account of one exact sweep (SweepResult::timing). */
    struct SweepTiming
    {
        double wallSeconds = 0.0; //!< sweep wall time
        double busySeconds = 0.0; //!< summed per-worker cell time
        unsigned jobs = 1;        //!< workers used

        /** Fraction of worker-seconds spent in cells (0..1). */
        double
        utilization() const
        {
            return jobs > 0 && wallSeconds > 0.0
                       ? busySeconds /
                             (static_cast<double>(jobs) * wallSeconds)
                       : 0.0;
        }
    };

    Runner() = default;

    /** The trace of @p w, generated on first use. Thread-safe. */
    const trace::Trace &traceOf(const Workload &w);

    /**
     * Pre-generate every trace of @p workloads (the "warmup" phase),
     * so subsequent sweeps measure simulation alone.
     */
    void warmup(const std::vector<Workload> &workloads);

    /**
     * THE sweep entry point: execute one batched request, routing
     * each (workload, config) cell to the fastest eligible engine
     * (see EngineSelect in sweep.hh), emit the requested telemetry,
     * and return the rendered table plus the per-cell routing record.
     * The request must be valid (SweepRequest::validationError());
     * thread-safe — concurrent requests share the trace, cell, stack
     * and sampled caches.
     *
     * Exact requests simulate every uncached cell on request.jobs
     * workers and render the table serially in workload x config
     * order, so the bytes never depend on the worker count. When the
     * metric is stack-derivable (stackDerivableMetric()) and at least
     * two configurations form a stack family (stackFamilyEligible()),
     * the family is served by ONE Mattson stack traversal per
     * workload (sim::StackDistanceEngine), run as a task on the same
     * pool; its counts are bit-identical to replay, so the table is
     * too. Stack stats live in their own store, never the exact cell
     * cache, and are accounted under "stack.pass.*" (stackCounter()).
     * When two or more uncached exact cells of one workload classify
     * misses at one classifier geometry, they share one
     * sim::shadowPass() built on the pool ("classifier.shadow.*");
     * its codes are freed as soon as the last cell reading them
     * finishes.
     *
     * Sampled requests estimate every cell with sim::SampledEngine
     * over the cached trace; estimates never enter the exact cell
     * cache. The live-point engine first loads the `.saclp` library
     * of (trace content, config family, sampling geometry) under
     * request.checkpointDir; a miss or stale library warms once,
     * rewrites the file and takes the same restore path, with
     * RunStats bit-identical to plain sampling. Outcomes land in the
     * "checkpoint.*" counters and in each cell's manifest.
     */
    SweepResult run(const SweepRequest &request);

    /**
     * The exact-replay cell of @p w under @p cfg, simulated on first
     * use: its statistics plus its wall-clock cost. Thread-safe.
     */
    const CellResult &cell(const Workload &w,
                           const core::Config &cfg);

    /**
     * Streamed sweep: simulate @p w under every configuration in one
     * pass over the trace, never holding more than a bounded window
     * of records. The producer (w.stream when set, else a fallback
     * that generates via w.build and replays) runs on its own thread
     * feeding a bounded chunk queue; each popped chunk is fanned out
     * over the per-config simulators in at most @p jobs groups (<= 1
     * = serial), with a barrier per chunk so all simulators advance
     * in lockstep. Chunks are double-buffered: the next chunk is
     * pulled from the queue while the workers replay the current one.
     * Results are NOT cached (the cell cache stores
     * materialized-trace results only; the two are bit-identical, as
     * the streaming differential tests prove).
     *
     * @return one RunStats per configuration, in @p configs order
     */
    std::vector<sim::RunStats>
    runStreamed(const Workload &w,
                const std::vector<core::Config> &configs,
                unsigned jobs = 0,
                std::size_t chunk_records =
                    trace::TraceSource::defaultChunkRecords);

    /** One sampled sweep cell: the estimate report plus its cost. */
    struct SampledCell
    {
        sim::SampleReport report;
        double simSeconds = 0.0; //!< wall seconds of the sampled replay
        /**
         * The cell ran on the live-point restore path (warming
         * replaced by checkpoint restores); manifests then carry
         * "engine": "sampled-livepoint".
         */
        bool fromCheckpoints = false;
        /** Live-point cells: how this cell's library was obtained. */
        sim::CheckpointLibrary::LoadResult library =
            sim::CheckpointLibrary::LoadResult::Missing;
        /** Live-point cells: bytes moved through its .saclp file. */
        std::uint64_t libraryBytes = 0;
        /** Live-point cells: window-replay workers requested. */
        unsigned intraJobs = 1;
        /** Live-point cells: the parallel window replay's account. */
        sim::ParallelReplayStats parallel{};
    };

    /** Number of simulations actually executed (not served cached). */
    std::size_t runsExecuted() const { return runsExecuted_.load(); }

    /**
     * Value of one of this runner's shared-pass telemetry counters
     * (0 when never incremented) — the stack engine's "stack.pass.*"
     * and the shared three-C shadow's "classifier.shadow.*":
     *   stack.pass.traversals     single-pass traversals executed
     *   stack.pass.records        records profiled by those passes
     *   stack.pass.cells          cells served fresh from a pass
     *   stack.pass.cached_cells   cells served from the stack store
     *   stack.pass.fallback_cells exact-replay cells in stack sweeps
     *   classifier.shadow.passes  shared shadow passes built
     *   classifier.shadow.cells   exact cells classified from one
     *   classifier.shadow.released passes whose codes were freed
     *                             once their last cell finished
     */
    std::uint64_t stackCounter(const std::string &name) const;

    /**
     * Value of one of this runner's "checkpoint.*" telemetry counters
     * (0 when never incremented):
     *   checkpoint.hits    cells served from a valid library
     *   checkpoint.misses  cells that warmed and wrote a library
     *   checkpoint.stale   rejected libraries (bad key/version/file)
     *   checkpoint.bytes   bytes moved through .saclp files
     */
    std::uint64_t checkpointCounter(const std::string &name) const;

    /**
     * Value of one of this runner's "parallel.*" telemetry counters
     * (0 when never incremented) — the intra-trace parallelism
     * account of live-point window replay:
     *   parallel.windows   detailed windows replayed concurrently
     *   parallel.merge_ns  nanoseconds spent merging parallel
     *                      partial results in deterministic order
     */
    std::uint64_t parallelCounter(const std::string &name) const;

    /**
     * Stack-store stats of (w, cfg), or nullptr when no stack pass
     * has served that cell. Lets manifest emitters record
     * stack-served cells without forcing an exact replay through
     * cell().
     */
    const sim::RunStats *stackStats(const Workload &w,
                                    const core::Config &cfg) const;

    /** Number of traces actually generated. */
    std::size_t tracesGenerated() const
    {
        return tracesGenerated_.load();
    }

    /**
     * Wall-clock phase account of this runner: "trace-gen" (workload
     * builds), "warmup" (warmup() calls), "sim" (simulateTrace
     * cells), "sweep" (exact sweep execution) and "report" (table
     * rendering). Phase adds are thread-safe.
     */
    const telemetry::PhaseTimer &phases() const { return phases_; }

  private:
    /** A once-latched cache slot: built exactly once, then immutable. */
    template <typename T> struct Slot
    {
        std::once_flag once;
        T value;
    };

    /**
     * One sweep-scoped shared shadow pass: the sim::shadowPass()
     * codes of one (workload, classifier geometry), built once by
     * whichever task reaches it first (defined in experiment.cc).
     */
    struct ShadowPass;

    /** The codes of @p pass, building them on first use. Thread-safe. */
    const std::vector<sim::ShadowOutcome> &shadowCodes(ShadowPass &pass);

    /**
     * One user of @p pass (a cell or the pass task) is finished; the
     * last one frees the codes. Thread-safe.
     */
    void doneWithShadow(ShadowPass &pass);

    /**
     * cell() classifying from @p pass when given (nullptr = the live
     * classifier). Both yield the same stats, so they share one slot.
     */
    const CellResult &cellWith(const Workload &w, const core::Config &cfg,
                               ShadowPass *pass);

    /**
     * Run one stack pass over @p w covering the whole @p family,
     * storing per-config stats for any member not already in the
     * stack store. Thread-safe: sweepExact() runs one call per
     * workload on the sweep pool, and a per-workload pass mutex makes
     * concurrent calls for one workload share a single traversal.
     */
    void runStackFamily(const Workload &w,
                        const std::vector<const core::Config *> &family);

    /**
     * The exact half of run(): simulate every uncached cell of
     * @p workloads x @p configs on @p jobs workers — one stack pass
     * per workload for the members of @p family (empty = no stack
     * dispatch), shared shadow passes, then exact replays — and
     * return the sweep's wall-clock account.
     */
    SweepTiming sweepExact(const std::vector<Workload> &workloads,
                           const std::vector<core::Config> &configs,
                           const std::vector<const core::Config *> &family,
                           unsigned jobs);

    /**
     * The sampled half of run(): every (workload, config) cell,
     * indexed [workload][config], on @p jobs workers. A non-empty
     * @p checkpoint_dir selects the live-point library (ignored for
     * geometries with no warming gap); @p rebuild forces
     * warm-and-rewrite and bypasses the shared cell store;
     * @p intra_jobs > 1 fans each live-point cell's window replay out
     * over the same pool.
     */
    std::vector<std::vector<SampledCell>>
    sampleCells(const std::vector<Workload> &workloads,
                const std::vector<core::Config> &configs,
                const sim::SamplingOptions &opt, unsigned jobs,
                const std::string &checkpoint_dir, bool rebuild,
                unsigned intra_jobs);

    /**
     * Simulate one sampled cell (optionally over the live-point
     * library at @p checkpoint_dir). Always executes; the cache is
     * sampledCellShared()'s. When @p intra_pool is given with
     * @p intra_jobs > 1, the live-point replay fans its detailed
     * windows out over the pool (runCheckpointedParallel) — the
     * report stays bit-identical to the serial path.
     */
    SampledCell computeSampledCell(const Workload &w,
                                   const core::Config &cfg,
                                   const sim::SamplingOptions &opt,
                                   const std::string &checkpoint_dir,
                                   bool rebuild,
                                   std::uint64_t trace_hash,
                                   util::ThreadPool *intra_pool = nullptr,
                                   unsigned intra_jobs = 1);

    /**
     * The once-latched sampled cell of (w, cfg, geometry, library):
     * concurrent requests for the same cell share one sampled replay
     * — and, on the live-point path, one library build. Keyed on the
     * full sampling geometry plus the checkpoint directory, so a
     * plain and a checkpointed run of the same cell never alias.
     * (Not on intra_jobs: parallel and serial replays are
     * bit-identical, so they may share one slot.)
     */
    const SampledCell &
    sampledCellShared(const Workload &w, const core::Config &cfg,
                      const sim::SamplingOptions &opt,
                      const std::string &checkpoint_dir,
                      std::uint64_t trace_hash,
                      util::ThreadPool *intra_pool = nullptr,
                      unsigned intra_jobs = 1);

    std::mutex mutex_; //!< guards the two slot maps (not the slots)
    std::map<std::string, std::unique_ptr<Slot<trace::Trace>>>
        traces_;
    std::map<std::pair<std::string, std::string>,
             std::unique_ptr<Slot<CellResult>>>
        results_;
    /**
     * Stack-derived stats, keyed like results_ on (workload,
     * cacheKey). Deliberately a separate store: stack stats carry
     * counts but no timing, so they must never be served where an
     * exact CellResult is expected (the sampled engine's
     * no-poisoning discipline).
     */
    std::map<std::pair<std::string, std::string>, sim::RunStats>
        stackResults_;
    /**
     * Sampled-cell cache, keyed by sampledCellKey() (workload,
     * cacheKey, geometry, checkpoint dir). Separate from results_ for
     * the same reason stackResults_ is: an estimate must never be
     * served where an exact CellResult is expected.
     */
    std::map<std::string, std::unique_ptr<Slot<SampledCell>>>
        sampledResults_;
    mutable std::mutex stackMutex_; //!< guards stackResults_/counters
    /**
     * One pass mutex per workload (created under stackMutex_): the
     * whole check-store / traverse / fill-store sequence of
     * runStackFamily() holds it, so concurrent sweeps over the same
     * workload share one traversal instead of racing to duplicate it.
     */
    std::map<std::string, std::unique_ptr<std::mutex>>
        stackPassMutexes_;
    telemetry::CounterRegistry stackCounters_;
    mutable std::mutex checkpointMutex_; //!< guards checkpointCounters_
    telemetry::CounterRegistry checkpointCounters_;
    mutable std::mutex parallelMutex_; //!< guards parallelCounters_
    telemetry::CounterRegistry parallelCounters_;
    std::atomic<std::size_t> runsExecuted_{0};
    std::atomic<std::size_t> tracesGenerated_{0};
    telemetry::PhaseTimer phases_;
};

/** The nine paper benchmarks as workloads, traced with timing seed @p seed. */
std::vector<Workload> paperWorkloads(std::uint64_t seed = 0x7ac3ull);

/**
 * Render a sampled sweep as the classic figure table: one row per
 * workload, one column per configuration, cells "estimate +/-half" at
 * the report's confidence. The three sampled metrics (miss ratio,
 * AMAT, words/ref) carry their interval; any other metric falls back
 * to extracting from the cumulative detailed stats, without a bound.
 * Exact cells (short traces) render their point value, +/-0.
 */
util::Table
sampledMatrix(const std::vector<Workload> &workloads,
              const std::vector<core::Config> &configs,
              const std::vector<std::vector<Runner::SampledCell>> &cells,
              const Metric &metric);

/**
 * Is @p cfg a member of the stack family — a configuration whose
 * miss counts a single-pass stack traversal reproduces exactly? True
 * for plain LRU set-associative caches on the Standard feature path
 * (no aux cache, no virtual lines, no prefetch, no bypass) without
 * the non-temporal replacement preference (which alters the victim
 * choice), in a power-of-two bit-selection geometry.
 */
bool stackFamilyEligible(const core::Config &cfg);

/**
 * Does @p metric derive purely from counts a stack pass determines
 * (misses, hits, traffic)? True for "miss ratio", "words/ref",
 * "main-hit share" and "aux-hit share"; false for timing metrics
 * like AMAT, which need the exact replay's cycle model.
 */
bool stackDerivableMetric(const Metric &metric);

/** The stack lattice point of @p cfg's main-array geometry. */
sim::StackPoint stackPointOf(const core::Config &cfg);

/**
 * The RunStats a stack pass implies for @p cfg: access/read/write
 * counts, misses, main hits and fetch traffic are exact; timing and
 * miss-class fields stay zero (a stack pass yields counts, not
 * cycles). @p cfg must be covered by @p eng's lattice.
 */
sim::RunStats stackStatsFor(const sim::StackDistanceEngine &eng,
                            const core::Config &cfg);

/** What an instrumented exact-cell manifest adds (ManifestCell). */
struct InstrumentOptions
{
    /**
     * Interval-stats period in records: > 0 writes the sibling
     * `<manifest stem>.intervals.jsonl` time series. 0 = off.
     */
    std::uint64_t intervalRecords = 0;

    /** Embed the per-set heat profile ("profile" manifest block). */
    bool heatmap = false;
};

/** Render a table as RFC-4180-style CSV (quoted where needed). */
std::string toCsv(const util::Table &table);

/** Write a table to a CSV file; returns false on I/O failure. */
bool writeCsvFile(const util::Table &table, const std::string &path);

} // namespace harness
} // namespace sac

#endif // SAC_HARNESS_EXPERIMENT_HH
