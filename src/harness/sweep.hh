/**
 * @file
 * Request-oriented sweep API: one value type (SweepRequest) that
 * expresses every flag combination the benches accept — workloads,
 * config lattice, engine selection, sampling/checkpoint/telemetry
 * options — and one Runner::run() entry point that routes each cell
 * to the fastest eligible engine. It is the only way to run a sweep:
 * the bench binaries and the sweep service (src/service/) are thin
 * adapters onto these types, and writeCellManifest() is the one
 * writer of a cell manifest file.
 */

#ifndef SAC_HARNESS_SWEEP_HH
#define SAC_HARNESS_SWEEP_HH

#include <functional>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/harness/bench_options.hh"
#include "src/harness/experiment.hh"
#include "src/telemetry/manifest.hh"

namespace sac {
namespace harness {

/**
 * Which engine a SweepRequest asks for. Auto is the default and
 * routes per cell: stack-derivable metrics over a stack family are
 * served by one single-pass traversal, everything else by exact
 * replay. The two sampled engines must be requested explicitly —
 * sampling trades accuracy for speed, which no router may decide
 * silently.
 */
enum class EngineSelect
{
    Auto,             //!< fastest exact-equivalent engine per cell
    Exact,            //!< force exact replay (no stack dispatch)
    Sampled,          //!< windowed sampling estimates
    SampledLivepoint, //!< sampling over a live-point checkpoint library
    Stack,            //!< require stack dispatch (fallback cells exact)
};

/** Wire/CLI name of @p engine ("auto", "exact", ...). */
const char *engineSelectName(EngineSelect engine);

/** Parse an engineSelectName() string; nullopt when unknown. */
std::optional<EngineSelect>
engineSelectFromName(const std::string &name);

/**
 * The engine that actually produced one sweep cell — the routing
 * decision, recorded per cell in SweepResult and as the manifest's
 * "engine" key.
 */
enum class EngineTag
{
    ExactReplay,      //!< full-detail replay ("exact-replay")
    Sampled,          //!< windowed sampling ("sampled")
    SampledLivepoint, //!< sampling + checkpoints ("sampled-livepoint")
    StackSinglePass,  //!< Mattson stack pass ("stack-single-pass")
};

/** Manifest "engine" value of @p tag. */
const char *engineName(EngineTag tag);

/**
 * Everything writeCellManifest() may need to render one sweep-cell
 * manifest, engine-independent: exact and stack cells carry stats,
 * sampled cells carry the report (+ sampling geometry and, on the
 * live-point path, the checkpoint-outcome block). Pointers reference
 * caller-owned data and are only read during the call.
 */
struct ManifestCell
{
    std::string workload;
    const core::Config *config = nullptr; //!< required

    /** Exact/stack cells: the run's statistics. */
    const sim::RunStats *stats = nullptr;

    /** Sampled cells: the estimate report. */
    const sim::SampleReport *report = nullptr;
    /** Sampled cells: the geometry that produced the report. */
    const sim::SamplingOptions *sampling = nullptr;
    /** Live-point cells: the "checkpoint" block (outcome counters). */
    const util::Json *checkpoint = nullptr;
    /**
     * Live-point cells whose window replay ran in parallel: the
     * "parallel" block, rendered inside "timing". Like the rest of
     * "timing" it never affects result comparisons.
     */
    const util::Json *parallel = nullptr;

    /** Stack cells: members in the family the pass covered. */
    std::size_t stackFamilySize = 0;

    /** Exact cells: trace for an instrumented re-replay (optional). */
    const trace::Trace *trace = nullptr;
    InstrumentOptions instrument;

    double simSeconds = 0.0; //!< wall seconds of the cell (0 = omit)
    /** Extra members merged into "timing" (e.g. phase totals). */
    const util::Json *extraTiming = nullptr;
};

/**
 * Render the manifest document of one sweep cell with its "engine"
 * key derived from @p tag. Pure: no filesystem access, so servers can
 * stream the document without writing it. The instrumented re-replay
 * (cell.trace + instrument flags, exact cells only) runs here and
 * embeds the heat profile; the interval series needs a sibling file
 * and is only written by writeCellManifest().
 */
telemetry::Manifest renderCellManifest(const ManifestCell &cell,
                                       EngineTag tag);

/**
 * Write the manifest of one sweep cell under @p dir (atomically, via
 * telemetry::writeManifestFile()), plus the interval series sidecar
 * of an instrumented exact cell. The one writer of cell manifest
 * files. When @p document is given it receives the rendered bytes,
 * even if the write fails. Returns the written path ("" on I/O
 * failure).
 */
std::string writeCellManifest(const std::string &dir,
                              const ManifestCell &cell, EngineTag tag,
                              std::string *document = nullptr);

/** Manifest emission options of a SweepRequest. */
struct SweepTelemetry
{
    /** Directory for per-cell manifests; empty = do not write. */
    std::string manifestDir;

    /** Instrumented exact cells: interval period (0 = off). */
    std::uint64_t intervalRecords = 0;
    /** Instrumented exact cells: embed per-set heat profiles. */
    bool heatmap = false;

    /**
     * Also emit one "suite-total" aggregate manifest per
     * configuration (exact sweeps only; stack-served configs are
     * skipped — a stack pass yields no timing to aggregate).
     */
    bool suiteTotals = false;

    /**
     * Optional cross-request dedup set keyed (workload, cacheKey):
     * cells already present are not emitted again. The benches pass
     * their process-wide set; nullptr emits every cell of the run.
     */
    std::set<std::pair<std::string, std::string>> *dedup = nullptr;

    /**
     * Incremental manifest sink: invoked once per emitted manifest
     * with its canonical file name and the document bytes (identical
     * to the file writeManifestFile() would produce). The service
     * streams these frames to clients as cells finish. A sink works
     * with or without manifestDir.
     */
    std::function<void(const std::string &file,
                       const std::string &document)>
        sink;
};

/**
 * One batched sweep: which cells to run, how, and what to emit.
 * Everything the bench command line can express maps onto this type
 * (fromBenchOptions()), and the service's wire protocol parses into
 * it. Validate with validationError() before calling Runner::run().
 */
struct SweepRequest
{
    std::vector<Workload> workloads;
    std::vector<core::Config> configs;
    Metric metric = missRatioMetric();
    unsigned jobs = 1; //!< worker threads (<= 1 = serial)

    EngineSelect engine = EngineSelect::Auto;
    sim::SamplingOptions sampling; //!< sampled engines only

    /**
     * Workers per cell for live-point window replay (the only
     * intra-trace parallelism; other engines ignore it). 0 = auto
     * (shard only when the cell count cannot keep all @ref jobs
     * workers busy, intra = jobs / cells); 1 = serial. Results are
     * bit-identical either way.
     */
    unsigned intraJobs = 0;

    /** Live-point library root (SampledLivepoint engine). */
    std::string checkpointDir;
    bool checkpointRebuild = false; //!< force warm-and-rewrite

    SweepTelemetry telemetry;

    /** First contradiction in this request, or nullopt when valid. */
    std::optional<std::string> validationError() const;

    /**
     * The request equivalent to one bench invocation: --sample maps
     * to Sampled (SampledLivepoint with --checkpoint-dir), everything
     * else to Auto; --emit-json/--interval/--heatmap land in
     * telemetry. Suite totals are on — the benches emit them.
     */
    static SweepRequest fromBenchOptions(
        const BenchOptions &options, std::vector<Workload> workloads,
        std::vector<core::Config> configs, Metric metric);
};

/** What Runner::run() produced for one SweepRequest. */
struct SweepResult
{
    /** The classic figure table (workload rows x config columns). */
    util::Table table;

    /** Routing record of one sweep cell. */
    struct Cell
    {
        std::string workload;
        std::string configName;
        std::string cacheKey;
        EngineTag engine = EngineTag::ExactReplay;
        /** Canonical manifest file name (set when emitted). */
        std::string manifestFile;
        /** On-disk manifest path (set when written to manifestDir). */
        std::string manifestPath;
        /**
         * Exact and stack cells: the statistics the cell was rendered
         * from (counts only for stack cells). Sampled cells leave it
         * empty.
         */
        sim::RunStats stats;
    };

    /** All cells, workload-major in request order. */
    std::vector<Cell> cells;

    std::size_t manifestsWritten = 0;
    /** Cells whose manifest write failed (I/O errors). */
    std::size_t manifestFailures = 0;

    /** Wall-clock account of the sweep. */
    Runner::SweepTiming timing;
};

} // namespace harness
} // namespace sac

#endif // SAC_HARNESS_SWEEP_HH
