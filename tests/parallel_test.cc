/**
 * @file
 * Differential and property tests of the intra-trace parallel
 * engines: runCheckpointedParallel() must be bit-identical to the
 * serial runCheckpointed() replay (whole SampleReport, across
 * presets, the fuzz corpus, capped/gap-end cases and every worker
 * count), the set-sharded StackDistanceEngine absorbed across shards
 * must answer exactly like one unsharded pass, the RunStats merge
 * algebra the worker-order summation relies on must hold
 * (associativity, identity, permutation invariance, max-merged
 * completion cycle), and Runner::run() with intraJobs > 1 must
 * produce the same tables and manifests (modulo the wall-clock
 * "timing" object) as intraJobs == 1 while counting its work in the
 * parallel.* counters. The engine-level set shards are the
 * StackDistanceEngine's own; the harness never shards a stack pass.
 * Stack passes of different workloads run side by side on the sweep
 * pool and must render exactly what the serial-replay oracle renders.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "src/check/trace_fuzzer.hh"
#include "src/core/config.hh"
#include "src/core/soft_cache.hh"
#include "src/harness/sweep.hh"
#include "src/sim/checkpoint.hh"
#include "src/sim/sampling.hh"
#include "src/sim/stack_engine.hh"
#include "src/trace/trace_source.hh"
#include "src/util/json.hh"
#include "src/util/thread_pool.hh"
#include "src/workloads/workloads.hh"
#include "tests/sweep_oracle.hh"

namespace {

using namespace sac;
using harness::EngineSelect;
using harness::Runner;
using harness::SweepRequest;
using harness::Workload;
using util::Json;
using util::ThreadPool;

sim::SamplingOptions
sampling(std::uint64_t w, std::uint64_t s, std::uint64_t u)
{
    sim::SamplingOptions opt;
    opt.window = w;
    opt.stride = s;
    opt.warmup = u;
    return opt;
}

sim::CheckpointLibrary
buildLibrary(const core::Config &cfg, const trace::Trace &t,
             const sim::SamplingOptions &opt)
{
    const sim::SampledEngine engine(opt);
    sim::CheckpointLibrary lib;
    core::SoftwareAssistedCache warmer(cfg);
    trace::MemoryTraceSource src(t);
    engine.buildLibrary(src, warmer, lib);
    return lib;
}

/**
 * The serial replay and the parallel replay at @p workers over one
 * (config, trace, geometry, library) must produce bit-identical
 * SampleReports; returns what the parallel path reported about
 * itself.
 */
sim::ParallelReplayStats
expectParallelMatchesSerial(const core::Config &cfg,
                            const trace::Trace &t,
                            const sim::SamplingOptions &opt,
                            const sim::CheckpointLibrary &lib,
                            ThreadPool &pool, unsigned workers)
{
    const sim::SampledEngine engine(opt);
    core::SoftwareAssistedCache serial_sim(cfg);
    trace::MemoryTraceSource src_s(t);
    const auto serial = engine.runCheckpointed(src_s, serial_sim, lib);

    trace::MemoryTraceSource src_p(t);
    sim::ParallelReplayStats ps;
    const auto parallel = engine.runCheckpointedParallel(
        src_p, [&cfg] { return core::SoftwareAssistedCache(cfg); },
        lib, pool, workers, &ps);

    EXPECT_TRUE(parallel == serial)
        << "parallel replay diverged on " << cfg.cacheKey() << " at "
        << workers << " workers";
    if (ps.parallel) {
        EXPECT_EQ(ps.windows, serial.windows);
    }
    return ps;
}

// ---------------------------------------------------------------------
// Parallel checkpointed window replay vs. the serial restore path.

TEST(ParallelWindowDifferential, BitIdenticalOnPresets)
{
    const auto t = workloads::makeTaggedTrace(workloads::buildMv(60));
    const auto opt = sampling(256, 1024, 512);
    ThreadPool pool(4);
    for (const auto &key :
         {"standard", "soft-temporal", "soft-spatial", "soft",
          "soft-prefetch"}) {
        SCOPED_TRACE(key);
        const core::Config cfg = core::presets().get(key);
        const auto lib = buildLibrary(cfg, t, opt);
        const auto ps = expectParallelMatchesSerial(cfg, t, opt, lib,
                                                    pool, 4);
        EXPECT_TRUE(ps.parallel);
        EXPECT_EQ(ps.workers, 4u);
        EXPECT_GT(ps.windows, 0u);
    }
}

TEST(ParallelWindowDifferential, BitIdenticalOnFuzzCorpus)
{
    const auto opt = sampling(16, 64, 32);
    const check::TraceFuzzer fuzzer;
    ThreadPool pool(3);
    int eligible = 0;
    for (std::uint64_t i = 0; i < 40; ++i) {
        const auto c = fuzzer.makeCase(i);
        if (c.trace.size() < opt.stride)
            continue;
        ++eligible;
        SCOPED_TRACE("fuzz case " + std::to_string(i));
        const auto lib = buildLibrary(c.config, c.trace, opt);
        expectParallelMatchesSerial(c.config, c.trace, opt, lib, pool,
                                    3);
    }
    ASSERT_GE(eligible, 10)
        << "fuzz corpus must provide enough checkpoint-eligible cases";
}

TEST(ParallelWindowDifferential, WorkerCountNeverChangesTheReport)
{
    // The partition moves with the worker count; the report must not.
    const auto t = workloads::makeTaggedTrace(workloads::buildMv(60));
    const auto opt = sampling(128, 512, 128);
    const core::Config cfg = core::presets().get("soft");
    const auto lib = buildLibrary(cfg, t, opt);
    ThreadPool pool(8);
    for (const unsigned workers : {2u, 3u, 5u, 8u, 16u}) {
        SCOPED_TRACE("workers " + std::to_string(workers));
        expectParallelMatchesSerial(cfg, t, opt, lib, pool, workers);
    }
}

TEST(ParallelWindowDifferential, GapEndAndCappedRunsMatch)
{
    const auto t = workloads::makeTaggedTrace(workloads::buildMv(60));
    const core::Config cfg = core::presets().get("soft");
    ThreadPool pool(4);

    // Stream ends inside a period's gap: the last worker must import
    // the trailing live-point (or replay the partial window) exactly
    // like the serial path.
    ASSERT_NE(t.size() % 2048, 0u);
    const auto gap_end = sampling(256, 2048, 512);
    auto lib = buildLibrary(cfg, t, gap_end);
    expectParallelMatchesSerial(cfg, t, gap_end, lib, pool, 4);

    // Capped run: stopped_early, no trailing import.
    auto capped = sampling(128, 512, 128);
    capped.maxWindows = 3;
    lib = buildLibrary(cfg, t, capped);
    const auto ps =
        expectParallelMatchesSerial(cfg, t, capped, lib, pool, 4);
    EXPECT_TRUE(ps.parallel);
    EXPECT_EQ(ps.windows, 3u);
}

TEST(ParallelWindowDifferential, SerialFallbacksStayIdentical)
{
    const auto t = workloads::makeTaggedTrace(workloads::buildMv(60));
    const core::Config cfg = core::presets().get("soft");
    ThreadPool pool(4);

    // workers <= 1 routes through the serial path.
    const auto opt = sampling(256, 1024, 512);
    const auto lib = buildLibrary(cfg, t, opt);
    const auto ps =
        expectParallelMatchesSerial(cfg, t, opt, lib, pool, 1);
    EXPECT_FALSE(ps.parallel);
    EXPECT_EQ(ps.windows, 0u);

    // Adaptive stopping is inherently sequential; the parallel entry
    // point must fall back, not approximate.
    auto adaptive = sampling(128, 512, 128);
    adaptive.targetRelativeError = 0.5;
    adaptive.minWindows = 2;
    const auto adaptive_lib = buildLibrary(cfg, t, adaptive);
    EXPECT_FALSE(expectParallelMatchesSerial(cfg, t, adaptive,
                                             adaptive_lib, pool, 4)
                     .parallel);

    // Fewer than two full windows leaves nothing to partition.
    const auto small =
        workloads::makeTaggedTrace(workloads::buildMv(5));
    auto one_window = sampling(256, 2048, 64);
    const auto small_lib = buildLibrary(cfg, small, one_window);
    EXPECT_FALSE(expectParallelMatchesSerial(cfg, small, one_window,
                                             small_lib, pool, 4)
                     .parallel);
}

// ---------------------------------------------------------------------
// Set-sharded stack pass vs. one unsharded traversal.

std::vector<sim::StackPoint>
fig9Lattice()
{
    std::vector<sim::StackPoint> points;
    for (const std::uint64_t kb : {4, 8, 16, 32}) {
        for (const std::uint32_t ways : {1u, 2u}) {
            sim::StackPoint p;
            p.cacheSizeBytes = kb * 1024;
            p.lineBytes = 32;
            p.assoc = ways;
            points.push_back(p);
        }
    }
    return points;
}

void
expectShardsMatchUnsharded(const std::vector<sim::StackPoint> &points,
                           const trace::Trace &t, unsigned shards)
{
    sim::StackDistanceEngine whole(points);
    {
        trace::MemoryTraceSource src(t);
        whole.run(src);
    }

    std::vector<sim::StackDistanceEngine> slices;
    slices.reserve(shards);
    for (unsigned s = 0; s < shards; ++s)
        slices.emplace_back(points, s, shards);
    for (auto &slice : slices) {
        trace::MemoryTraceSource src(t);
        slice.run(src);
    }
    for (unsigned s = 1; s < shards; ++s)
        slices[0].absorb(slices[s]);

    EXPECT_EQ(slices[0].accesses(), whole.accesses());
    EXPECT_EQ(slices[0].reads(), whole.reads());
    EXPECT_EQ(slices[0].writes(), whole.writes());
    EXPECT_EQ(slices[0].touchedLines(32), whole.touchedLines(32));
    for (const auto &p : points) {
        SCOPED_TRACE("point " + std::to_string(p.cacheSizeBytes) +
                     "B/" + std::to_string(p.assoc) + "way");
        ASSERT_TRUE(slices[0].covers(p));
        EXPECT_EQ(slices[0].missCount(p), whole.missCount(p));
        EXPECT_EQ(slices[0].missRatio(p), whole.missRatio(p));
    }
}

TEST(ShardedStackDifferential, AbsorbedShardsMatchUnshardedPass)
{
    const auto t = workloads::makeTaggedTrace(workloads::buildMv(60));
    for (const unsigned shards : {2u, 3u, 4u, 8u}) {
        SCOPED_TRACE("shards " + std::to_string(shards));
        expectShardsMatchUnsharded(fig9Lattice(), t, shards);
    }
}

TEST(ShardedStackDifferential, MatchesOnFuzzTraces)
{
    const check::TraceFuzzer fuzzer;
    int used = 0;
    for (std::uint64_t i = 0; i < 12; ++i) {
        const auto c = fuzzer.makeCase(i);
        if (c.trace.size() < 64)
            continue;
        ++used;
        SCOPED_TRACE("fuzz case " + std::to_string(i));
        expectShardsMatchUnsharded(fig9Lattice(), c.trace, 4);
    }
    ASSERT_GE(used, 6);
}

TEST(ShardedStackDifferential, SingleSetLatticeLandsInOneShard)
{
    // sets == 1: every line of the profiler maps to set 0, so shard 0
    // does all the work and the others contribute empty histograms —
    // still exactly the unsharded counts.
    sim::StackPoint p;
    p.cacheSizeBytes = 64;
    p.lineBytes = 32;
    p.assoc = 2; // 1 set
    ASSERT_EQ(p.sets(), 1u);
    const auto t = workloads::makeTaggedTrace(workloads::buildMv(20));
    expectShardsMatchUnsharded({p}, t, 4);
}

TEST(ShardedStackDifferential, ShardAccessorsReportTheSlice)
{
    const auto points = fig9Lattice();
    const sim::StackDistanceEngine whole(points);
    EXPECT_EQ(whole.shard(), 0u);
    EXPECT_EQ(whole.shards(), 1u);
    const sim::StackDistanceEngine slice(points, 2, 5);
    EXPECT_EQ(slice.shard(), 2u);
    EXPECT_EQ(slice.shards(), 5u);
}

// ---------------------------------------------------------------------
// RunStats merge algebra: what worker-order summation relies on.

std::vector<sim::RunStats>
fuzzRunStats(std::size_t n)
{
    const check::TraceFuzzer fuzzer;
    std::vector<sim::RunStats> out;
    for (std::uint64_t i = 0; out.size() < n; ++i) {
        const auto c = fuzzer.makeCase(i);
        if (c.trace.empty())
            continue;
        out.push_back(core::simulateTrace(c.trace, c.config));
    }
    return out;
}

TEST(RunStatsMergeAlgebra, AssociativeWithIdentity)
{
    const auto runs = fuzzRunStats(3);
    const sim::RunStats &a = runs[0];
    const sim::RunStats &b = runs[1];
    const sim::RunStats &c = runs[2];

    EXPECT_TRUE((a + b) + c == a + (b + c));
    const sim::RunStats zero;
    EXPECT_TRUE(zero + a == a);
    EXPECT_TRUE(a + zero == a);
}

TEST(RunStatsMergeAlgebra, PermutationInvariantTotals)
{
    // The parallel replay sums per-worker stats in worker order; any
    // partition of the same windows must therefore give the same
    // total no matter how the pieces are grouped or ordered. Every
    // counter is an exact integer (totalAccessCycles sums integral
    // latencies well below 2^53), so reordering is lossless.
    auto runs = fuzzRunStats(6);
    sim::RunStats forward;
    for (const auto &r : runs)
        forward += r;

    std::reverse(runs.begin(), runs.end());
    sim::RunStats backward;
    for (const auto &r : runs)
        backward += r;
    EXPECT_TRUE(forward == backward);

    // Grouped two ways: ((0+1)+(2+3))+(4+5) vs. linear.
    sim::RunStats grouped =
        ((runs[0] + runs[1]) + (runs[2] + runs[3])) +
        (runs[4] + runs[5]);
    EXPECT_TRUE(grouped == backward);
}

TEST(RunStatsMergeAlgebra, CompletionCycleMergesByMax)
{
    sim::RunStats early;
    early.accesses = 10;
    early.completionCycle = 100;
    sim::RunStats late;
    late.accesses = 5;
    late.completionCycle = 900;

    sim::RunStats merged = early;
    merged += late;
    EXPECT_EQ(merged.completionCycle, 900u);
    EXPECT_EQ(merged.accesses, 15u);

    // Independent runs: merging in the other order agrees.
    sim::RunStats swapped = late;
    swapped += early;
    EXPECT_TRUE(merged == swapped);
}

// ---------------------------------------------------------------------
// Runner / SweepRequest level: intraJobs > 1 is invisible in results.

Workload
mvWorkload(const std::string &name, int n)
{
    return {name,
            [name, n] {
                auto t =
                    workloads::makeTaggedTrace(workloads::buildMv(n));
                t.setName(name);
                return t;
            },
            nullptr};
}

void
expectManifestsEquivalent(const std::string &serial_dir,
                          const std::string &parallel_dir)
{
    const auto serial = oracle::readManifests(serial_dir);
    const auto parallel = oracle::readManifests(parallel_dir);
    ASSERT_EQ(serial.size(), parallel.size());
    for (const auto &entry : serial) {
        SCOPED_TRACE(entry.first);
        const auto it = parallel.find(entry.first);
        ASSERT_NE(it, parallel.end()) << "missing " << entry.first;
        EXPECT_EQ(oracle::stripTiming(entry.second),
                  oracle::stripTiming(it->second));
    }
}

TEST(IntraJobsDifferential, LivepointSweepIsBitIdenticalAndCounted)
{
    namespace fs = std::filesystem;
    const std::string base = testing::TempDir() + "/intra_livepoint";
    fs::remove_all(base);

    const auto run = [&](unsigned intra_jobs) {
        const std::string tag = std::to_string(intra_jobs);
        Runner r;
        SweepRequest req;
        req.workloads = {mvWorkload("MV-intra", 40)};
        req.configs = {core::presets().get("standard"),
                       core::presets().get("soft")};
        req.metric = harness::missRatioMetric();
        req.engine = EngineSelect::SampledLivepoint;
        req.sampling = sampling(128, 1024, 256);
        req.checkpointDir = base + "/ckpt" + tag;
        req.intraJobs = intra_jobs;
        req.telemetry.manifestDir = base + "/manifests" + tag;
        const auto result = r.run(req);
        return std::make_pair(result.table.toString(),
                              r.parallelCounter("parallel.windows"));
    };

    const auto serial = run(1);
    const auto parallel = run(4);
    EXPECT_EQ(serial.second, 0u);
    EXPECT_GT(parallel.second, 0u)
        << "intraJobs=4 must actually replay windows concurrently";
    EXPECT_EQ(parallel.first, serial.first);
    const std::vector<Workload> ws = {mvWorkload("MV-intra", 40)};
    const std::vector<core::Config> cfgs = {
        core::presets().get("standard"), core::presets().get("soft")};
    EXPECT_EQ(serial.first,
              oracle::sampledTable(
                  ws, cfgs,
                  oracle::sampledReports(ws, cfgs,
                                         sampling(128, 1024, 256), false),
                  harness::missRatioMetric())
                  .toString());
    expectManifestsEquivalent(base + "/manifests1",
                              base + "/manifests4");
    fs::remove_all(base);
}

TEST(IntraJobsPolicy, AutoNeverShardsStackPasses)
{
    // intraJobs applies to live-point window replay only: an explicit
    // value on a stack request still runs one unsharded traversal per
    // workload and renders the serial-replay oracle's table.
    auto small = core::presets().get("standard");
    auto large = core::presets().get("standard");
    large.name = "standard-64K";
    large.cacheSizeBytes = 64 * 1024;
    const std::vector<Workload> ws = {mvWorkload("MV-auto-stack", 36)};
    const std::vector<core::Config> cfgs = {small, large};
    const auto expected =
        oracle::exactTable(ws, cfgs, harness::missRatioMetric())
            .toString();

    for (const unsigned intra : {0u, 1u, 3u}) {
        SCOPED_TRACE("intraJobs=" + std::to_string(intra));
        Runner r;
        SweepRequest req;
        req.workloads = ws;
        req.configs = cfgs;
        req.metric = harness::missRatioMetric();
        req.jobs = 4;
        req.intraJobs = intra;
        const auto result = r.run(req);
        EXPECT_EQ(r.stackCounter("stack.pass.traversals"), 1u);
        EXPECT_EQ(r.stackCounter("stack.pass.records"),
                  ws[0].build().size());
        EXPECT_EQ(result.table.toString(), expected);
    }
}

TEST(IntraJobsPolicy, AutoShardsOnlyWhenCellsCannotFillJobs)
{
    namespace fs = std::filesystem;
    const std::string base = testing::TempDir() + "/intra_auto";
    fs::remove_all(base);

    // One cell, four jobs: auto routes the idle workers into the
    // window replay.
    {
        Runner r;
        SweepRequest req;
        req.workloads = {mvWorkload("MV-auto", 40)};
        req.configs = {core::presets().get("standard")};
        req.metric = harness::missRatioMetric();
        req.engine = EngineSelect::SampledLivepoint;
        req.sampling = sampling(128, 1024, 256);
        req.checkpointDir = base + "/ckpt-one";
        req.jobs = 4;
        r.run(req);
        EXPECT_GT(r.parallelCounter("parallel.windows"), 0u);
    }

    // Four cells, four jobs: the cells already saturate the pool.
    {
        Runner r;
        SweepRequest req;
        req.workloads = {mvWorkload("MV-auto-a", 40),
                         mvWorkload("MV-auto-b", 44)};
        req.configs = {core::presets().get("standard"),
                       core::presets().get("soft")};
        req.metric = harness::missRatioMetric();
        req.engine = EngineSelect::SampledLivepoint;
        req.sampling = sampling(128, 1024, 256);
        req.checkpointDir = base + "/ckpt-four";
        req.jobs = 4;
        r.run(req);
        EXPECT_EQ(r.parallelCounter("parallel.windows"), 0u);
    }
    fs::remove_all(base);
}

// ---------------------------------------------------------------------
// Stack passes of different workloads running side by side on the
// sweep pool.

/** A standard-family lattice: sizes x ways, all stack-eligible. */
std::vector<core::Config>
standardLattice()
{
    std::vector<core::Config> out;
    for (const std::uint64_t kb : {4, 16, 64}) {
        for (const std::uint32_t ways : {1u, 2u, 4u}) {
            auto cfg = core::presets().get("standard");
            cfg.name = std::to_string(kb) + "K-" +
                       std::to_string(ways) + "w";
            cfg.cacheSizeBytes = kb * 1024;
            cfg.assoc = ways;
            out.push_back(cfg);
        }
    }
    return out;
}

TEST(ParallelStackPasses, PoolRunIsBitIdenticalToSerial)
{
    namespace fs = std::filesystem;
    const std::string base = testing::TempDir() + "/stack_pool";
    fs::remove_all(base);

    std::vector<Workload> workloads;
    for (const int n : {24, 28, 32, 36, 40, 44})
        workloads.push_back(mvWorkload("MV-pool-" + std::to_string(n), n));

    const auto run = [&](unsigned jobs) {
        Runner r;
        SweepRequest req;
        req.workloads = workloads;
        req.configs = standardLattice();
        req.metric = harness::missRatioMetric();
        req.jobs = jobs;
        req.telemetry.manifestDir =
            base + "/manifests" + std::to_string(jobs);
        const auto result = r.run(req);
        EXPECT_EQ(r.stackCounter("stack.pass.traversals"),
                  workloads.size());
        EXPECT_EQ(r.stackCounter("stack.pass.fallback_cells"), 0u);
        EXPECT_EQ(r.runsExecuted(), 0u);
        return result.table.toString();
    };

    const auto serial = run(1);
    const auto pooled = run(4);
    EXPECT_EQ(pooled, serial);
    EXPECT_EQ(serial, oracle::exactTable(workloads, standardLattice(),
                                         harness::missRatioMetric())
                          .toString());
    EXPECT_EQ(oracle::readManifests(base + "/manifests4").size(),
              workloads.size() * standardLattice().size());
    expectManifestsEquivalent(base + "/manifests1",
                              base + "/manifests4");
    fs::remove_all(base);
}

} // namespace
