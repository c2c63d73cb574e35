/**
 * @file
 * Simulator throughput benchmarks (google-benchmark): trace
 * generation speed, simulation speed per configuration, the
 * feature-specialized fast path against the forced-general path, and
 * the streaming engine against materialize-then-replay. These are
 * engineering benchmarks of the reproduction itself, not paper
 * figures.
 *
 * The perf leg of tools/check.sh runs this binary with a JSON
 * reporter and diffs items_per_second against the committed
 * BENCH_simspeed.json baseline (tools/perf_compare.py).
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/check/auditor.hh"
#include "src/core/config.hh"
#include "src/core/soft_cache.hh"
#include "src/harness/bench_options.hh"
#include "src/harness/experiment.hh"
#include "src/harness/sweep.hh"
#include "src/sim/sampling.hh"
#include "src/sim/stack_engine.hh"
#include "src/telemetry/interval.hh"
#include "src/telemetry/set_profile.hh"
#include "src/trace/trace_source.hh"
#include "src/util/thread_pool.hh"
#include "src/workloads/workloads.hh"

namespace {

using namespace sac;
using core::DispatchMode;

const trace::Trace &
mvTrace()
{
    static const trace::Trace t =
        workloads::makeTaggedTrace(workloads::buildMv(200));
    return t;
}

void
BM_TraceGeneration(benchmark::State &state)
{
    std::uint64_t seed = 1;
    for (auto _ : state) {
        const auto t = workloads::makeTaggedTrace(
            workloads::buildMv(100), seed++);
        benchmark::DoNotOptimize(t.size());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * (100 * 100 * 2 + 100 * 2)));
}
BENCHMARK(BM_TraceGeneration);

void
BM_LocalityAnalysis(benchmark::State &state)
{
    for (auto _ : state) {
        auto p = workloads::buildLiv(workloads::Scale{0.1});
        p.finalize();
        const auto r = locality::analyze(p);
        benchmark::DoNotOptimize(r.tags.size());
    }
}
BENCHMARK(BM_LocalityAnalysis);

void
simulateConfig(benchmark::State &state, const core::Config &cfg,
               DispatchMode dispatch = DispatchMode::Auto)
{
    const auto &t = mvTrace();
    core::SoftwareAssistedCache probe(cfg, dispatch);
    state.SetLabel(toString(probe.featureSet()));
    for (auto _ : state) {
        const auto s = core::simulateTrace(t, cfg, dispatch);
        benchmark::DoNotOptimize(s.totalAccessCycles);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * t.size()));
}

// Fast-path / general-path pairs: the same configuration replayed
// through the auto-selected specialized access path and through
// dispatch forced to the fully-general path (the engine of PR 3).
// perf_compare.py asserts on the within-run ratio of each pair.

void
BM_SimulateStandard(benchmark::State &state)
{
    simulateConfig(state, core::presets().get("standard"));
}
BENCHMARK(BM_SimulateStandard);

void
BM_SimulateStandardGeneral(benchmark::State &state)
{
    simulateConfig(state, core::presets().get("standard"),
                   DispatchMode::General);
}
BENCHMARK(BM_SimulateStandardGeneral);

void
BM_SimulateSoft(benchmark::State &state)
{
    simulateConfig(state, core::presets().get("soft"));
}
BENCHMARK(BM_SimulateSoft);

void
BM_SimulateSoftGeneral(benchmark::State &state)
{
    simulateConfig(state, core::presets().get("soft"),
                   DispatchMode::General);
}
BENCHMARK(BM_SimulateSoftGeneral);

void
BM_SimulateSoftPrefetch(benchmark::State &state)
{
    simulateConfig(state, core::presets().get("soft-prefetch"));
}
BENCHMARK(BM_SimulateSoftPrefetch);

void
BM_SimulateSoftPrefetchGeneral(benchmark::State &state)
{
    simulateConfig(state, core::presets().get("soft-prefetch"),
                   DispatchMode::General);
}
BENCHMARK(BM_SimulateSoftPrefetchGeneral);

/**
 * Same workload as BM_SimulateSoft but observed by a check::Auditor:
 * the Observed access path plus the full per-access invariant sweep.
 */
void
BM_SimulateSoftAudited(benchmark::State &state)
{
    const auto &t = mvTrace();
    const core::Config cfg = core::presets().get("soft");
    for (auto _ : state) {
        core::SoftwareAssistedCache sim(cfg);
        check::Auditor auditor(check::Auditor::OnViolation::Panic);
        sim.observe({.auditor = &auditor});
        sim.run(t);
        benchmark::DoNotOptimize(sim.stats().totalAccessCycles);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * t.size()));
}
BENCHMARK(BM_SimulateSoftAudited);

/**
 * Same workload as BM_SimulateSoft but observed by an IntervalRecorder
 * and a SetProfiler: the Observed access path plus the per-access
 * countdown and the per-set counter updates.
 */
void
BM_SimulateSoftInterval(benchmark::State &state)
{
    const auto &t = mvTrace();
    const core::Config cfg = core::presets().get("soft");
    for (auto _ : state) {
        core::SoftwareAssistedCache sim(cfg);
        telemetry::IntervalRecorder recorder(10000);
        telemetry::SetProfiler profiler(sim.mainArray().numSets());
        sim.observe({.interval = &recorder, .setProfiler = &profiler});
        sim.run(t);
        benchmark::DoNotOptimize(sim.stats().totalAccessCycles);
        benchmark::DoNotOptimize(profiler.totalMisses());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * t.size()));
}
BENCHMARK(BM_SimulateSoftInterval);

/**
 * Functional-warming pair: the same trace and configuration as
 * BM_SimulateSoft, replayed in StatsMode::Warming, where the stats
 * counters, miss classifier, tracer and audit hooks are compiled out
 * and only architectural state advances. perf_compare.py asserts the
 * warming path runs at least 2x the detailed path.
 */
void
BM_SimulateSoftWarming(benchmark::State &state)
{
    const auto &t = mvTrace();
    const core::Config cfg = core::presets().get("soft");
    for (auto _ : state) {
        core::SoftwareAssistedCache sim(cfg);
        sim.runWarming(t.data(), t.size());
        benchmark::DoNotOptimize(sim.procReadyAt());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * t.size()));
}
BENCHMARK(BM_SimulateSoftWarming);

void
BM_SimulateNoClassifier(benchmark::State &state)
{
    auto cfg = core::presets().get("soft");
    cfg.classifyMisses = false;
    simulateConfig(state, cfg);
}
BENCHMARK(BM_SimulateNoClassifier);

// Streaming vs. materialized: end-to-end "generate the MV trace and
// replay it under Soft." — first as the classic materialize-then-
// simulate sequence, then through the streaming engine, where
// generation runs on a producer thread and overlaps simulation while
// memory stays bounded by the chunk queue.

void
BM_GenerateThenSimulateMaterialized(benchmark::State &state)
{
    const core::Config cfg = core::presets().get("soft");
    std::int64_t records = 0;
    for (auto _ : state) {
        const auto t = workloads::makeBenchmarkTrace("MV");
        const auto s = core::simulateTrace(t, cfg);
        benchmark::DoNotOptimize(s.totalAccessCycles);
        records = static_cast<std::int64_t>(t.size());
    }
    state.SetItemsProcessed(state.iterations() * records);
}
BENCHMARK(BM_GenerateThenSimulateMaterialized)->UseRealTime();

void
BM_GenerateThenSimulateStreamed(benchmark::State &state)
{
    const core::Config cfg = core::presets().get("soft");
    std::int64_t records = 0;
    for (auto _ : state) {
        const auto src = workloads::benchmarkTraceSource("MV");
        const auto s = core::simulateSource(*src, cfg);
        benchmark::DoNotOptimize(s.totalAccessCycles);
        records = static_cast<std::int64_t>(s.accesses);
    }
    state.SetItemsProcessed(state.iterations() * records);
}
BENCHMARK(BM_GenerateThenSimulateStreamed)->UseRealTime();

/** In-memory chunked replay: the streaming loop's pure overhead. */
void
BM_ReplayStreamedMemory(benchmark::State &state)
{
    const core::Config cfg = core::presets().get("soft");
    const auto &t = mvTrace();
    for (auto _ : state) {
        trace::MemoryTraceSource src(t);
        const auto s = core::simulateSource(src, cfg);
        benchmark::DoNotOptimize(s.totalAccessCycles);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * t.size()));
}
BENCHMARK(BM_ReplayStreamedMemory);

/**
 * Full-matrix sweep through harness::Runner::run (engine auto) at a
 * given worker count (Arg). Traces are pre-generated so the benchmark
 * isolates the sweep executor itself; a fresh Runner per iteration
 * keeps every cell uncached.
 */
const std::vector<trace::Trace> &
sweepTraces()
{
    static const std::vector<trace::Trace> traces = [] {
        std::vector<trace::Trace> out;
        for (int i = 0; i < 4; ++i) {
            auto t = workloads::makeTaggedTrace(
                workloads::buildMv(180), 0x7ac3ull + i);
            t.setName("MV" + std::to_string(i));
            out.push_back(std::move(t));
        }
        return out;
    }();
    return traces;
}

const std::vector<core::Config> &
sweepConfigs()
{
    static const std::vector<core::Config> cfgs = {
        core::presets().get("standard"),
        core::presets().get("soft-temporal"),
        core::presets().get("soft-spatial"),
        core::presets().get("soft")};
    return cfgs;
}

void
BM_MatrixSweep(benchmark::State &state)
{
    const auto jobs = static_cast<unsigned>(state.range(0));
    const auto &traces = sweepTraces();
    std::vector<harness::Workload> ws;
    for (std::size_t i = 0; i < traces.size(); ++i)
        ws.push_back({traces[i].name(),
                      [&traces, i] { return traces[i]; }, nullptr});
    harness::SweepRequest req;
    req.workloads = ws;
    req.configs = sweepConfigs();
    req.metric = harness::amatMetric();
    req.jobs = jobs;
    for (auto _ : state) {
        harness::Runner r;
        const auto result = r.run(req);
        benchmark::DoNotOptimize(result.table.rows());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * traces.front().size() * ws.size() *
        sweepConfigs().size()));
}
BENCHMARK(BM_MatrixSweep)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * Streamed one-pass sweep (Runner::runStreamed): one workload under
 * every sweep configuration without materializing the trace, at a
 * given worker count (Arg).
 */
// Sampled vs. full-detail sweep: the MV trace under every sweep
// configuration, first simulated in full detail, then estimated by
// the windowed sampling engine (detailed windows + functional warming
// + fast-forward skip). Both report items = records *covered*, so the
// within-run items_per_second ratio is the end-to-end sweep speedup
// perf_compare.py asserts on (floor 5x). The geometry is the
// deep-warmup re-sweep shape of the EXPERIMENTS.md checkpoint recipe
// (window 512, stride 32768, warmup 10240): warming dominates the
// sampled cost, which is exactly what a live-point library
// (BM_SweepSampledCheckpointed below) exists to amortize, while the
// stride/window ratio keeps the sampled sweep itself >=5x full
// detail. Warming is bit-exact functional simulation, so deeper
// warmup only improves accuracy over the 2048-record minimum the
// SampledDifferential tests certify.

sim::SamplingOptions
sweepSamplingOptions()
{
    sim::SamplingOptions opt;
    opt.window = 512;
    opt.stride = 32768;
    opt.warmup = 10240;
    return opt;
}

void
BM_SweepFullDetail(benchmark::State &state)
{
    const auto &t = mvTrace();
    for (auto _ : state) {
        for (const auto &cfg : sweepConfigs()) {
            const auto s = core::simulateTrace(t, cfg);
            benchmark::DoNotOptimize(s.totalAccessCycles);
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * t.size() * sweepConfigs().size()));
}
BENCHMARK(BM_SweepFullDetail);

void
BM_SweepSampled(benchmark::State &state)
{
    const auto &t = mvTrace();
    const sim::SampledEngine engine(sweepSamplingOptions());
    std::uint64_t windows = 0;
    for (auto _ : state) {
        for (const auto &cfg : sweepConfigs()) {
            trace::MemoryTraceSource src(t);
            core::SoftwareAssistedCache sim(cfg);
            const auto rep = engine.run(src, sim);
            benchmark::DoNotOptimize(rep.recordsTotal);
            windows = rep.windows;
        }
    }
    state.SetLabel("windows=" + std::to_string(windows));
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * t.size() * sweepConfigs().size()));
}
BENCHMARK(BM_SweepSampled);

/**
 * The same sampled sweep served from a warm live-point library: the
 * per-configuration checkpoint libraries are built once outside the
 * timed loop (the one-time warming pass --checkpoint-dir persists),
 * then every iteration restores each window's architectural state and
 * replays only the detailed windows, skipping functional warming
 * entirely. Items = records covered, like BM_SweepSampled, so the
 * within-run items_per_second ratio against BM_SweepSampled is the
 * warm re-sweep speedup perf_compare.py asserts on (floor 5x). The
 * Checkpoint tests prove the restored runs are bit-identical in
 * RunStats to the warmed runs, so the speedup is free of accuracy
 * loss.
 */
void
BM_SweepSampledCheckpointed(benchmark::State &state)
{
    const auto &t = mvTrace();
    const sim::SampledEngine engine(sweepSamplingOptions());
    static const std::vector<sim::CheckpointLibrary> libs = [] {
        const sim::SampledEngine eng(sweepSamplingOptions());
        std::vector<sim::CheckpointLibrary> out(
            sweepConfigs().size());
        for (std::size_t i = 0; i < sweepConfigs().size(); ++i) {
            core::SoftwareAssistedCache warmer(sweepConfigs()[i]);
            trace::MemoryTraceSource src(mvTrace());
            eng.buildLibrary(src, warmer, out[i]);
        }
        return out;
    }();
    std::uint64_t windows = 0;
    for (auto _ : state) {
        for (std::size_t i = 0; i < sweepConfigs().size(); ++i) {
            trace::MemoryTraceSource src(t);
            core::SoftwareAssistedCache sim(sweepConfigs()[i]);
            const auto rep = engine.runCheckpointed(src, sim, libs[i]);
            benchmark::DoNotOptimize(rep.recordsTotal);
            windows = rep.windows;
        }
    }
    state.SetLabel("windows=" + std::to_string(windows));
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * t.size() * sweepConfigs().size()));
}
BENCHMARK(BM_SweepSampledCheckpointed);

/**
 * Denser live-point lattice for the parallel scaling pair: the
 * shared sweep geometry leaves only ~3 full windows in the MV trace,
 * which would cap 8-way fan-out at 3 batches. The same 512-record
 * windows at a 2 K stride plan ~50 of them, so the /8 arm measures
 * real batch parallelism instead of the partition floor.
 */
sim::SamplingOptions
parallelSamplingOptions()
{
    sim::SamplingOptions opt;
    opt.window = 512;
    opt.stride = 2048;
    opt.warmup = 1024;
    return opt;
}

/**
 * The checkpointed sweep with the window replay sharded across a
 * worker pool (Arg = workers; Arg 1 routes through the serial
 * fallback and must time like a serial replay of the same plan; 2
 * and 4 trace the scaling curve on hosts with that many CPUs).
 * Same libraries, same items accounting, and the
 * ParallelDifferential tests prove the report is bit-identical to
 * the serial replay, so the within-run ratio of /8 against /1 is
 * pure intra-trace speedup (perf_compare.py floors it at 3x on
 * multi-core hosts).
 */
void
BM_SweepSampledCheckpointedParallel(benchmark::State &state)
{
    const auto workers = static_cast<unsigned>(state.range(0));
    const auto &t = mvTrace();
    const sim::SampledEngine engine(parallelSamplingOptions());
    static const std::vector<sim::CheckpointLibrary> libs = [] {
        const sim::SampledEngine eng(parallelSamplingOptions());
        std::vector<sim::CheckpointLibrary> out(
            sweepConfigs().size());
        for (std::size_t i = 0; i < sweepConfigs().size(); ++i) {
            core::SoftwareAssistedCache warmer(sweepConfigs()[i]);
            trace::MemoryTraceSource src(mvTrace());
            eng.buildLibrary(src, warmer, out[i]);
        }
        return out;
    }();
    util::ThreadPool pool(workers);
    std::uint64_t windows = 0;
    for (auto _ : state) {
        for (std::size_t i = 0; i < sweepConfigs().size(); ++i) {
            trace::MemoryTraceSource src(t);
            const core::Config &cfg = sweepConfigs()[i];
            const auto rep = engine.runCheckpointedParallel(
                src,
                [&cfg] { return core::SoftwareAssistedCache(cfg); },
                libs[i], pool, workers);
            benchmark::DoNotOptimize(rep.recordsTotal);
            windows = rep.windows;
        }
    }
    state.SetLabel("windows=" + std::to_string(windows));
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * t.size() * sweepConfigs().size()));
}
BENCHMARK(BM_SweepSampledCheckpointedParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Single-pass stack sweep vs. per-configuration replay: the MV trace
// across the 8-cell standard family of Fig 9 ({4,8,16,32} KB x
// {1,2}-way, 32-byte lines), first replayed through the exact
// simulator once per configuration, then answered by ONE Mattson
// stack-distance traversal (sim::StackDistanceEngine). Both report
// items = records x configurations, so the within-run
// items_per_second ratio is the sweep speedup perf_compare.py asserts
// on (floor 4x). The StackDifferential tests prove the two produce
// bit-identical miss counts, so the speedup is free of accuracy loss.

const std::vector<core::Config> &
stackSweepConfigs()
{
    static const std::vector<core::Config> cfgs = [] {
        std::vector<core::Config> out;
        for (const std::uint64_t kb : {4, 8, 16, 32}) {
            for (const std::uint32_t ways : {1u, 2u}) {
                core::Config cfg = core::scaledConfig(
                    core::presets().get("standard"), kb * 1024, 32);
                cfg.assoc = ways;
                cfg.name += " A=" + std::to_string(ways);
                cfg.validate();
                out.push_back(std::move(cfg));
            }
        }
        return out;
    }();
    return cfgs;
}

void
BM_SweepPerConfigReplay(benchmark::State &state)
{
    const auto &t = mvTrace();
    for (auto _ : state) {
        for (const auto &cfg : stackSweepConfigs()) {
            const auto s = core::simulateTrace(t, cfg);
            benchmark::DoNotOptimize(s.misses);
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * t.size() * stackSweepConfigs().size()));
}
BENCHMARK(BM_SweepPerConfigReplay);

void
BM_SweepStackSinglePass(benchmark::State &state)
{
    const auto &t = mvTrace();
    std::vector<sim::StackPoint> points;
    for (const auto &cfg : stackSweepConfigs())
        points.push_back(harness::stackPointOf(cfg));
    for (auto _ : state) {
        sim::StackDistanceEngine eng(points);
        trace::MemoryTraceSource src(t);
        eng.run(src);
        std::uint64_t misses = 0;
        for (const auto &p : points)
            misses += eng.missCount(p);
        benchmark::DoNotOptimize(misses);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * t.size() * stackSweepConfigs().size()));
}
BENCHMARK(BM_SweepStackSinglePass);

/**
 * The same single-pass stack sweep sharded by set index across a
 * worker pool (Arg = shards; Arg 1 is one unsharded engine on the
 * calling thread). Every shard traverses the full trace but touches
 * only its own sets, and the absorbed histograms are exactly the
 * unsharded counts (ShardedStackDifferential), so the within-run
 * ratio of /8 against /1 is pure set-level parallel speedup
 * (perf_compare.py floors it at 2x on multi-core hosts).
 */
void
BM_SweepStackSharded(benchmark::State &state)
{
    const auto shards = static_cast<unsigned>(state.range(0));
    const auto &t = mvTrace();
    std::vector<sim::StackPoint> points;
    for (const auto &cfg : stackSweepConfigs())
        points.push_back(harness::stackPointOf(cfg));
    util::ThreadPool pool(shards);
    for (auto _ : state) {
        std::vector<sim::StackDistanceEngine> slices;
        slices.reserve(shards);
        for (unsigned s = 0; s < shards; ++s)
            slices.emplace_back(points, s, shards);
        std::vector<std::future<void>> tasks;
        for (unsigned s = 0; s < shards; ++s) {
            tasks.push_back(pool.submit([&t, &slices, s] {
                trace::MemoryTraceSource src(t);
                slices[s].run(src);
            }));
        }
        for (auto &task : tasks)
            task.get();
        for (unsigned s = 1; s < shards; ++s)
            slices[0].absorb(slices[s]);
        std::uint64_t misses = 0;
        for (const auto &p : points)
            misses += slices[0].missCount(p);
        benchmark::DoNotOptimize(misses);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * t.size() * stackSweepConfigs().size()));
}
BENCHMARK(BM_SweepStackSharded)
    ->Arg(1)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void
BM_StreamedSweep(benchmark::State &state)
{
    const auto jobs = static_cast<unsigned>(state.range(0));
    const harness::Workload w{
        "MV", [] { return workloads::makeBenchmarkTrace("MV"); },
        [](const trace::RecordSink &sink) {
            workloads::streamBenchmarkTrace("MV", sink);
        }};
    std::int64_t records = 0;
    for (auto _ : state) {
        harness::Runner r;
        const auto stats = r.runStreamed(w, sweepConfigs(), jobs);
        benchmark::DoNotOptimize(stats.size());
        records = static_cast<std::int64_t>(stats.front().accesses);
    }
    state.SetItemsProcessed(state.iterations() * records *
                            static_cast<std::int64_t>(
                                sweepConfigs().size()));
}
BENCHMARK(BM_StreamedSweep)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

} // namespace

/**
 * Custom main instead of BENCHMARK_MAIN(): google-benchmark rejects
 * flags it does not know, so the command line is split first —
 * --benchmark_* flags go to benchmark::Initialize, everything else to
 * the shared harness::BenchOptions parser (--emit-json, --jobs,
 * --preset, ...). With --emit-json set, one manifest per timed
 * simulator configuration is written after the benchmarks run.
 */
int
main(int argc, char **argv)
{
    std::vector<char *> bench_args{argv[0]};
    std::vector<const char *> opt_args{argv[0]};
    for (int i = 1; i < argc; ++i) {
        if (std::string_view(argv[i]).rfind("--benchmark", 0) == 0)
            bench_args.push_back(argv[i]);
        else
            opt_args.push_back(argv[i]);
    }
    const auto opts = harness::BenchOptions::parse(
        static_cast<int>(opt_args.size()), opt_args.data());

    int bench_argc = static_cast<int>(bench_args.size());
    benchmark::Initialize(&bench_argc, bench_args.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                               bench_args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    if (!opts.emitJsonDir.empty()) {
        for (const auto &key :
             {"standard", "soft", "soft-prefetch"}) {
            const core::Config cfg = core::presets().get(key);
            const auto t0 = std::chrono::steady_clock::now();
            const auto stats = core::simulateTrace(mvTrace(), cfg);
            const double secs =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            harness::ManifestCell cell;
            cell.workload = "MV-simspeed";
            cell.config = &cfg;
            cell.stats = &stats;
            cell.simSeconds = secs;
            if (harness::writeCellManifest(opts.emitJsonDir, cell,
                                           harness::EngineTag::ExactReplay)
                    .empty()) {
                std::cerr << "failed to write manifest under "
                          << opts.emitJsonDir << '\n';
                return 1;
            }
        }
    }
    return 0;
}
