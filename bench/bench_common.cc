#include "bench_common.hh"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <set>
#include <utility>

#include "src/harness/experiment.hh"
#include "src/harness/sweep.hh"
#include "src/util/logging.hh"
#include "src/util/thread_pool.hh"

namespace sac {
namespace bench {

namespace {

harness::BenchOptions &
optionsSetting()
{
    // Benches that skip initBench() still get a sensible job count.
    static harness::BenchOptions value = [] {
        harness::BenchOptions o;
        o.jobs = util::ThreadPool::defaultThreads();
        return o;
    }();
    return value;
}

/** Cells already written this process, keyed (workload, cacheKey). */
std::set<std::pair<std::string, std::string>> &
emittedCells()
{
    static std::set<std::pair<std::string, std::string>> cells;
    return cells;
}

harness::Runner &
runner()
{
    static harness::Runner instance;
    return instance;
}

/** An exact-replay request of the bench command line. */
harness::SweepRequest
exactRequest(std::vector<harness::Workload> workloads,
             std::vector<core::Config> configs)
{
    harness::SweepRequest request;
    request.workloads = std::move(workloads);
    request.configs = std::move(configs);
    request.metric = harness::amatMetric();
    request.jobs = options().jobs;
    request.engine = harness::EngineSelect::Exact;
    request.telemetry.manifestDir = options().emitJsonDir;
    request.telemetry.intervalRecords = options().interval;
    request.telemetry.heatmap = options().heatmap;
    request.telemetry.dedup = &emittedCells();
    return request;
}

/** Run @p request on @p r; exit when a manifest cannot be written. */
harness::SweepResult
runOrExit(harness::Runner &r, const harness::SweepRequest &request)
{
    harness::SweepResult result = r.run(request);
    if (result.manifestFailures > 0) {
        std::cerr << "failed to write run manifest under '"
                  << options().emitJsonDir << "'\n";
        std::exit(1);
    }
    return result;
}

/** Append one row per workload of @p result's cell stats to @p out. */
void
appendRows(const harness::SweepResult &result, std::size_t configs,
           CellStats &out)
{
    for (std::size_t i = 0; i < result.cells.size(); ++i) {
        if (i % configs == 0)
            out.emplace_back();
        out.back().push_back(result.cells[i].stats);
    }
}

} // namespace

void
initBench(int argc, const char *const *argv)
{
    optionsSetting() = harness::BenchOptions::parse(argc, argv);
}

const harness::BenchOptions &
options()
{
    return optionsSetting();
}

double
amatOf(const sim::RunStats &s)
{
    return s.amat();
}

double
wordsOf(const sim::RunStats &s)
{
    return s.wordsFetchedPerAccess();
}

const trace::Trace &
benchmarkTrace(const std::string &name)
{
    const auto suite = suiteWorkloads();
    const auto w = std::find_if(
        suite.begin(), suite.end(),
        [&name](const harness::Workload &s) { return s.name == name; });
    SAC_ASSERT(w != suite.end(), "unknown paper benchmark '", name, "'");
    return runner().traceOf(*w);
}

std::vector<harness::Workload>
suiteWorkloads()
{
    return harness::paperWorkloads(options().traceSeed);
}

CellStats
exactCells(const std::vector<harness::Workload> &workloads,
           const std::vector<core::Config> &configs)
{
    CellStats out;
    appendRows(runOrExit(runner(), exactRequest(workloads, configs)),
               configs.size(), out);
    return out;
}

CellStats
derivedCells(const std::vector<harness::Workload> &workloads,
             const std::vector<core::Config> &configs)
{
    CellStats out;
    const std::size_t batch = std::max(1u, options().jobs);
    for (std::size_t first = 0; first < workloads.size();
         first += batch) {
        const std::size_t last = std::min(workloads.size(), first + batch);
        harness::Runner batch_runner;
        appendRows(runOrExit(batch_runner,
                             exactRequest({workloads.begin() + first,
                                           workloads.begin() + last},
                                          configs)),
                   configs.size(), out);
    }
    return out;
}

harness::Workload
variantOf(const std::string &name, const std::string &variant,
          TraceTransform transform)
{
    return {name + "-" + variant, [name, transform] {
                return transform(benchmarkTrace(name));
            }};
}

std::vector<core::Config>
presetConfigs(const std::vector<std::string> &keys)
{
    std::vector<core::Config> out;
    out.reserve(keys.size());
    for (const auto &key : keys)
        out.push_back(core::presets().get(key));
    return out;
}

util::Table
suiteTable(const std::vector<core::Config> &configs,
           const Metric &metric, int decimals)
{
    return suiteTable(configs,
                      harness::Metric{"metric", metric, decimals});
}

util::Table
suiteTable(const std::vector<core::Config> &configs,
           const harness::Metric &m)
{
    // Thin adapter: one SweepRequest expresses the whole bench
    // command line; Runner::run() routes, sweeps, and emits the
    // manifests (engine tags, suite totals, instrumentation).
    const auto workloads = suiteWorkloads();
    runner().warmup(workloads);

    harness::SweepRequest request = harness::SweepRequest::
        fromBenchOptions(options(), workloads, configs, m);
    request.telemetry.dedup = &emittedCells();
    return runOrExit(runner(), request).table;
}

void
printBanner(const std::string &figure, const std::string &what)
{
    std::cout << "==========================================================\n"
              << "Reproduction of " << figure
              << " — Software Assistance for Data Caches (HPCA 1995)\n"
              << what << "\n"
              << "==========================================================\n";
}

} // namespace bench
} // namespace sac
