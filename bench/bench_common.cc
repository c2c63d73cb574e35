#include "bench_common.hh"

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <set>
#include <utility>

#include "src/harness/experiment.hh"
#include "src/harness/sweep.hh"
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

harness::Workload
workloadOf(const std::string &name)
{
    const std::uint64_t seed = options().traceSeed;
    return {name,
            [name, seed] {
                return workloads::makeBenchmarkTrace(name, seed);
            },
            [name, seed](const trace::RecordSink &sink) {
                workloads::streamBenchmarkTrace(name, sink, seed);
            }};
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

unsigned
jobs()
{
    return options().jobs;
}

const std::string &
emitJsonDir()
{
    return options().emitJsonDir;
}

namespace {

bool
isRegisteredBenchmark(const std::string &name)
{
    for (const auto &b : workloads::paperBenchmarks()) {
        if (b.name == name)
            return true;
    }
    return false;
}

void
writeCell(const std::string &workload, const core::Config &cfg,
          const trace::Trace *t, const sim::RunStats &stats,
          double sim_seconds)
{
    const std::string &dir = emitJsonDir();
    if (dir.empty())
        return;
    if (!emittedCells().emplace(workload, cfg.cacheKey()).second)
        return;
    const harness::BenchOptions &o = options();
    const bool instrument = o.interval > 0 || o.heatmap;
    // Suite sweeps emit by workload name only; registered benchmarks
    // resolve through the trace cache so they get instrumented too.
    if (instrument && t == nullptr && isRegisteredBenchmark(workload))
        t = &benchmarkTrace(workload);
    harness::ManifestCell cell;
    cell.workload = workload;
    cell.config = &cfg;
    cell.stats = &stats;
    cell.simSeconds = sim_seconds;
    if (instrument && t != nullptr) {
        cell.trace = t;
        cell.instrument = {o.interval, o.heatmap};
    }
    const std::string path = harness::writeCellManifest(
        dir, cell, harness::EngineTag::ExactReplay);
    if (path.empty()) {
        std::cerr << "failed to write run manifest under '" << dir
                  << "'\n";
        std::exit(1);
    }
}

} // namespace

void
emitCellManifest(const std::string &workload, const core::Config &cfg,
                 const sim::RunStats &stats, double sim_seconds)
{
    writeCell(workload, cfg, nullptr, stats, sim_seconds);
}

void
emitCellManifest(const std::string &workload, const core::Config &cfg,
                 const trace::Trace &t, const sim::RunStats &stats,
                 double sim_seconds)
{
    writeCell(workload, cfg, &t, stats, sim_seconds);
}

sim::RunStats
runCell(const trace::Trace &t, const core::Config &cfg,
        const std::string &workload)
{
    const auto t0 = std::chrono::steady_clock::now();
    const sim::RunStats stats = core::simulateTrace(t, cfg);
    const double seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count();
    const std::string &name = workload.empty() ? t.name() : workload;
    emitCellManifest(name, cfg, t, stats, seconds);
    return stats;
}

double
amatOf(const sim::RunStats &s)
{
    return s.amat();
}

double
missRatioOf(const sim::RunStats &s)
{
    return s.missRatio();
}

double
wordsOf(const sim::RunStats &s)
{
    return s.wordsFetchedPerAccess();
}

const trace::Trace &
benchmarkTrace(const std::string &name)
{
    return runner().traceOf(workloadOf(name));
}

const sim::RunStats &
cachedRun(const std::string &bench_name, const core::Config &cfg)
{
    const auto &cell = runner().cell(workloadOf(bench_name), cfg);
    emitCellManifest(bench_name, cfg, cell.stats, cell.simSeconds);
    return cell.stats;
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
    const auto workloads = harness::paperWorkloads();
    runner().warmup(workloads);

    harness::SweepRequest request = harness::SweepRequest::
        fromBenchOptions(options(), workloads, configs, m);
    request.telemetry.dedup = &emittedCells();
    const harness::SweepResult result = runner().run(request);
    if (result.manifestFailures > 0) {
        std::cerr << "failed to write run manifest under '"
                  << emitJsonDir() << "'\n";
        std::exit(1);
    }
    return result.table;
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
