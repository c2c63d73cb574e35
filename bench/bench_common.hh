/**
 * @file
 * Shared infrastructure for the figure-reproduction binaries: trace
 * caching (each benchmark is generated once per process), config x
 * benchmark result matrices, and uniform headers so EXPERIMENTS.md
 * can quote the output verbatim.
 */

#ifndef SAC_BENCH_BENCH_COMMON_HH
#define SAC_BENCH_BENCH_COMMON_HH

#include <functional>
#include <string>
#include <vector>

#include "src/core/config.hh"
#include "src/core/soft_cache.hh"
#include "src/harness/bench_options.hh"
#include "src/harness/experiment.hh"
#include "src/util/table.hh"
#include "src/workloads/workloads.hh"

namespace sac {
namespace bench {

/** A metric extracted from a simulation run. */
using Metric = std::function<double(const sim::RunStats &)>;

/**
 * Parse the shared bench command line; call first in every main().
 * Recognized flags (see harness::BenchOptions): `--jobs N` (worker
 * threads for matrix sweeps; default: all hardware threads, `--jobs
 * 1` forces the serial path), `--emit-json DIR` (write one telemetry
 * run manifest per sweep cell under DIR; see DESIGN.md §6),
 * `--preset NAME` (a core::presets() configuration), `--trace-seed
 * N` (timing seed of the generated traces), `--trace-chunk N`
 * (records per chunk in streamed replay), `--sample` with its
 * tuning flags `--sample-window/-stride/-warmup/-ci/-error` (estimate
 * suite tables with the windowed sampling engine; cells then read
 * "estimate ±half" — see DESIGN.md §10), `--interval N` and
 * `--heatmap` (time-resolved instrumentation of every manifest cell:
 * interval JSONL series and per-set heat profiles, rendered by
 * tools/sac_report.py — see DESIGN.md §13; requires --emit-json).
 * Tables are byte-identical at any job count.
 */
void initBench(int argc, const char *const *argv);

/** All shared options configured by initBench() (or defaults). */
const harness::BenchOptions &options();

/** Worker-thread count configured by initBench() (or the default). */
unsigned jobs();

/** Manifest output directory of --emit-json; empty = no emission. */
const std::string &emitJsonDir();

/**
 * Write the run manifest of one sweep cell under emitJsonDir() (a
 * no-op without --emit-json; cells are deduplicated on (workload,
 * cacheKey) so repeated cached runs emit once).
 */
void emitCellManifest(const std::string &workload,
                      const core::Config &cfg,
                      const sim::RunStats &stats,
                      double sim_seconds = 0.0);

/**
 * Trace-aware overload: under --interval/--heatmap the cell is
 * re-replayed with the time-resolved instrumentation attached, so the
 * manifest gains its "profile" block and/or the sibling
 * `<stem>.intervals.jsonl` series (harness::writeCellManifest with
 * ManifestCell::trace set). Without those flags, identical to
 * the plain overload. The no-trace overload resolves registered
 * benchmark workloads through the trace cache, so suite sweeps are
 * instrumented too.
 */
void emitCellManifest(const std::string &workload,
                      const core::Config &cfg, const trace::Trace &t,
                      const sim::RunStats &stats,
                      double sim_seconds = 0.0);

/**
 * Simulate @p t under @p cfg and emit the cell's manifest when
 * --emit-json is active: the hook for benches that build ad-hoc
 * traces instead of going through the registered suite. @p workload
 * names the manifest (falls back to the trace name).
 */
sim::RunStats runCell(const trace::Trace &t, const core::Config &cfg,
                      const std::string &workload = "");

/** The AMAT metric (the paper's main y-axis). */
double amatOf(const sim::RunStats &s);

/** The miss-ratio metric (Figure 7b). */
double missRatioOf(const sim::RunStats &s);

/** The memory-traffic metric in words per reference (Figure 7a). */
double wordsOf(const sim::RunStats &s);

/**
 * The trace of a registered paper benchmark, generated once per
 * process and cached.
 */
const trace::Trace &benchmarkTrace(const std::string &name);

/** Cached simulation: one run per (benchmark, config-name) pair. */
const sim::RunStats &cachedRun(const std::string &bench_name,
                               const core::Config &cfg);

/**
 * Resolve registry preset keys into configurations, in order — the
 * replacement for the per-bench hand-maintained config lists.
 */
std::vector<core::Config>
presetConfigs(const std::vector<std::string> &keys);

/**
 * Build the classic paper table: one row per benchmark of the main
 * suite, one column per configuration, cells = metric(config run).
 * Under --sample the cells are sampled estimates; an unnamed metric
 * (this overload) then renders without a confidence interval.
 */
util::Table suiteTable(const std::vector<core::Config> &configs,
                       const Metric &metric, int decimals = 3);

/**
 * Like the above, for a named harness metric (harness::amatMetric()
 * and friends). Under --sample the three sampled metrics (AMAT, miss
 * ratio, words/ref) render as "estimate ±half" at the configured
 * confidence.
 */
util::Table suiteTable(const std::vector<core::Config> &configs,
                       const harness::Metric &metric);

/** Print a figure banner with the paper reference. */
void printBanner(const std::string &figure, const std::string &what);

} // namespace bench
} // namespace sac

#endif // SAC_BENCH_BENCH_COMMON_HH
