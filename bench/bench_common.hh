/**
 * @file
 * Shared infrastructure for the figure-reproduction binaries. Every
 * simulated cell a bench prints comes from harness::Runner::run: the
 * suite tables (suiteTable()) and the exact cells a bench derives its
 * own columns from (exactCells(), derivedCells()). One process runner
 * caches the suite traces, so each benchmark is generated once per
 * process. Uniform headers let EXPERIMENTS.md quote the output
 * verbatim.
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
 * threads of every sweep; default: all hardware threads, `--jobs
 * 1` forces the serial path), `--emit-json DIR` (write one telemetry
 * run manifest per sweep cell under DIR; see DESIGN.md §6),
 * `--preset NAME` (a core::presets() configuration), `--trace-seed
 * N` (timing seed of the generated traces), `--sample` with its
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

/** The AMAT metric (the paper's main y-axis). */
double amatOf(const sim::RunStats &s);

/** The memory-traffic metric in words per reference (Figure 7a). */
double wordsOf(const sim::RunStats &s);

/**
 * The trace of a registered paper benchmark (seeded by --trace-seed),
 * generated once per process and cached. Thread-safe.
 */
const trace::Trace &benchmarkTrace(const std::string &name);

/** The paper suite as harness workloads, seeded by --trace-seed. */
std::vector<harness::Workload> suiteWorkloads();

/** Per-cell statistics of one sweep, indexed [workload][config]. */
using CellStats = std::vector<std::vector<sim::RunStats>>;

/**
 * Exact-replay cells of @p workloads x @p configs for a bench's own
 * columns: one harness::Runner::run on the process runner, which
 * caches the traces. Manifests as for suiteTable(), without suite
 * totals; --sample does not apply.
 */
CellStats exactCells(const std::vector<harness::Workload> &workloads,
                     const std::vector<core::Config> &configs);

/**
 * exactCells() for workloads derived per bench (variants of the
 * suite traces, parameter sweeps). Their traces are generated on the
 * sweep pool in batches of --jobs workloads, each batch on its own
 * Runner released when it returns, so at most --jobs derived traces
 * are alive at once.
 */
CellStats derivedCells(const std::vector<harness::Workload> &workloads,
                       const std::vector<core::Config> &configs);

/** A trace-to-trace transformation (tag stripping, retagging, ...). */
using TraceTransform = std::function<trace::Trace(const trace::Trace &)>;

/**
 * The derived workload "<name>-<variant>": @p transform applied to
 * benchmarkTrace(@p name).
 */
harness::Workload variantOf(const std::string &name,
                            const std::string &variant,
                            TraceTransform transform);

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
