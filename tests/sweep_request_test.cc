/**
 * @file
 * Tests of the request-oriented sweep API (src/harness/sweep.hh):
 * SweepRequest validation, engine routing, and the differential
 * proofs that Runner::run() reproduces the serial oracle
 * (tests/sweep_oracle.hh: core::simulateTrace and SampledEngine run
 * directly, rendered through renderCellManifest) byte for byte —
 * tables exactly, manifests modulo the wall-clock "timing" object.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <optional>

#include "src/harness/sweep.hh"
#include "src/util/json.hh"
#include "src/workloads/workloads.hh"
#include "tests/sweep_oracle.hh"

namespace {

using namespace sac;
using harness::EngineSelect;
using harness::EngineTag;
using harness::Runner;
using harness::SweepRequest;
using harness::SweepResult;
using harness::Workload;
using util::Json;

Workload
mvWorkload(const std::string &name, int n)
{
    return {name,
            [name, n] {
                auto t = workloads::makeTaggedTrace(workloads::buildMv(n));
                t.setName(name);
                return t;
            },
            nullptr};
}

std::vector<Workload>
twoWorkloads()
{
    return {mvWorkload("MV-a", 28), mvWorkload("MV-b", 36)};
}

/** A stack-eligible lattice: plain LRU standard caches. */
std::vector<core::Config>
stackFamilyConfigs()
{
    auto small = core::presets().get("standard");
    auto large = core::presets().get("standard");
    large.name = "standard-64K";
    large.cacheSizeBytes = 64 * 1024;
    return {small, large};
}

/** A mixed lattice: two stack-eligible + one feature config. */
std::vector<core::Config>
mixedConfigs()
{
    auto out = stackFamilyConfigs();
    out.push_back(core::presets().get("soft"));
    return out;
}

sim::SamplingOptions
testSampling()
{
    sim::SamplingOptions opt;
    opt.window = 128;
    opt.stride = 1024;
    opt.warmup = 256;
    return opt;
}

TEST(SweepRequestValidation, CatchesContradictions)
{
    SweepRequest req;
    EXPECT_NE(req.validationError(), std::nullopt); // no workloads

    req.workloads = twoWorkloads();
    EXPECT_NE(req.validationError(), std::nullopt); // no configs
    req.configs = stackFamilyConfigs();
    EXPECT_EQ(req.validationError(), std::nullopt);

    req.engine = EngineSelect::SampledLivepoint;
    ASSERT_NE(req.validationError(), std::nullopt);
    EXPECT_NE(req.validationError()->find("checkpoint"),
              std::string::npos);
    req.checkpointDir = "ckpt";
    EXPECT_EQ(req.validationError(), std::nullopt);

    req.engine = EngineSelect::Sampled;
    EXPECT_NE(req.validationError(), std::nullopt); // dir + plain sampled
    req.checkpointDir.clear();
    EXPECT_EQ(req.validationError(), std::nullopt);

    req.telemetry.heatmap = true;
    EXPECT_NE(req.validationError(), std::nullopt); // instrument + sampled
    req.engine = EngineSelect::Auto;
    EXPECT_EQ(req.validationError(), std::nullopt);
    req.telemetry.heatmap = false;

    req.engine = EngineSelect::Stack;
    req.metric = harness::amatMetric(); // timing: not stack-derivable
    ASSERT_NE(req.validationError(), std::nullopt);
    EXPECT_NE(req.validationError()->find("stack"), std::string::npos);
    req.metric = harness::missRatioMetric();
    EXPECT_EQ(req.validationError(), std::nullopt);

    req.engine = EngineSelect::Sampled;
    req.sampling.window = 512;
    req.sampling.stride = 100; // stride < window
    ASSERT_NE(req.validationError(), std::nullopt);
    EXPECT_NE(req.validationError()->find("sampling"),
              std::string::npos);
}

TEST(SweepRequestValidation, EngineNamesRoundTrip)
{
    for (const EngineSelect e :
         {EngineSelect::Auto, EngineSelect::Exact, EngineSelect::Sampled,
          EngineSelect::SampledLivepoint, EngineSelect::Stack}) {
        const auto back =
            harness::engineSelectFromName(harness::engineSelectName(e));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, e);
    }
    EXPECT_FALSE(harness::engineSelectFromName("warp").has_value());
    EXPECT_STREQ(harness::engineName(EngineTag::SampledLivepoint),
                 "sampled-livepoint");
    EXPECT_STREQ(harness::engineName(EngineTag::StackSinglePass),
                 "stack-single-pass");
}

TEST(SweepRequestDifferential, ExactTableMatchesSerialOracle)
{
    const auto ws = twoWorkloads();
    const auto cfgs = mixedConfigs();
    const auto metric = harness::amatMetric();

    Runner fresh;
    SweepRequest req;
    req.workloads = ws;
    req.configs = cfgs;
    req.metric = metric;
    req.jobs = 2;
    const SweepResult result = fresh.run(req);
    EXPECT_EQ(result.table.toString(),
              oracle::exactTable(ws, cfgs, metric).toString());
    ASSERT_EQ(result.cells.size(), ws.size() * cfgs.size());
    for (const auto &cell : result.cells)
        EXPECT_EQ(cell.engine, EngineTag::ExactReplay); // AMAT: no stack
}

TEST(SweepRequestDifferential, ExactManifestsMatchLegacyWriters)
{
    // The manifests on disk are exactly what renderCellManifest()
    // makes of the oracle's stats, one file per cell, for exact and
    // stack-served cells.
    namespace fs = std::filesystem;
    const std::string dir = testing::TempDir() + "/sweepreq_exact_new";
    fs::remove_all(dir);

    const auto ws = twoWorkloads();
    const auto cfgs = mixedConfigs();

    for (const auto &metric :
         {harness::amatMetric(), harness::missRatioMetric()}) {
        SCOPED_TRACE(metric.name);
        fs::remove_all(dir);
        Runner fresh;
        SweepRequest req;
        req.workloads = ws;
        req.configs = cfgs;
        req.metric = metric;
        req.jobs = 2;
        req.telemetry.manifestDir = dir;
        const SweepResult result = fresh.run(req);
        EXPECT_EQ(result.manifestFailures, 0u);
        EXPECT_EQ(result.manifestsWritten, ws.size() * cfgs.size());

        const auto stats = oracle::exactStats(ws, cfgs);
        const auto on_disk = oracle::readManifests(dir);
        ASSERT_EQ(on_disk.size(), ws.size() * cfgs.size());
        for (std::size_t wi = 0; wi < ws.size(); ++wi) {
            for (std::size_t ci = 0; ci < cfgs.size(); ++ci) {
                const auto &r = result.cells[wi * cfgs.size() + ci];
                SCOPED_TRACE(r.workload + " / " + r.configName);
                const auto it =
                    on_disk.find(oracle::fileOf(ws[wi].name, cfgs[ci]));
                ASSERT_NE(it, on_disk.end());
                // Stack cells carry only the counts a pass yields.
                sim::RunStats want = stats[wi][ci];
                if (r.engine == EngineTag::StackSinglePass) {
                    sim::StackDistanceEngine eng(
                        {harness::stackPointOf(cfgs[ci])});
                    trace::MemoryTraceSource src(ws[wi].build());
                    eng.run(src);
                    want = harness::stackStatsFor(eng, cfgs[ci]);
                    EXPECT_EQ(want.misses, stats[wi][ci].misses);
                }
                EXPECT_EQ(oracle::stripTiming(it->second),
                          oracle::exactManifest(ws[wi].name, cfgs[ci],
                                                want, r.engine, 2));
            }
        }
    }
    fs::remove_all(dir);
}

TEST(SweepRequestDifferential, SampledMatchesSampledEngineOracle)
{
    namespace fs = std::filesystem;
    const std::string dir =
        testing::TempDir() + "/sweepreq_sampled_new";
    fs::remove_all(dir);

    const auto ws = twoWorkloads();
    const std::vector<core::Config> cfgs = {
        core::presets().get("standard"), core::presets().get("soft")};
    const auto metric = harness::missRatioMetric();
    const auto opt = testSampling();
    const auto reports = oracle::sampledReports(ws, cfgs, opt, false);

    Runner fresh;
    SweepRequest req;
    req.workloads = ws;
    req.configs = cfgs;
    req.metric = metric;
    req.engine = EngineSelect::Sampled;
    req.sampling = opt;
    req.jobs = 2;
    req.telemetry.manifestDir = dir;
    const SweepResult result = fresh.run(req);
    EXPECT_EQ(result.table.toString(),
              oracle::sampledTable(ws, cfgs, reports, metric).toString());
    for (const auto &cell : result.cells)
        EXPECT_EQ(cell.engine, EngineTag::Sampled);
    const auto on_disk = oracle::readManifests(dir);
    ASSERT_EQ(on_disk.size(), ws.size() * cfgs.size());
    for (std::size_t wi = 0; wi < ws.size(); ++wi) {
        for (std::size_t ci = 0; ci < cfgs.size(); ++ci) {
            const auto it =
                on_disk.find(oracle::fileOf(ws[wi].name, cfgs[ci]));
            ASSERT_NE(it, on_disk.end());
            EXPECT_EQ(oracle::stripTiming(it->second),
                      oracle::sampledManifest(ws[wi].name, cfgs[ci],
                                              reports[wi][ci], opt));
        }
    }
    fs::remove_all(dir);
}

TEST(SweepRequestDifferential, CellStatsAreWhatEachCellRendered)
{
    // Lazily built workloads outside the paper suite, as the benches'
    // derived tables use them: exact cells carry the serial replay's
    // stats, stack cells the stack store's, at any worker count.
    const std::vector<Workload> ws = {mvWorkload("MV-a", 28),
                                      mvWorkload("MV-b", 36),
                                      mvWorkload("MV-c", 44)};
    const auto cfgs = mixedConfigs(); // 2 stack-eligible + soft
    const auto exact = oracle::exactStats(ws, cfgs);
    for (const unsigned jobs : {1u, 4u}) {
        Runner r;
        SweepRequest req;
        req.workloads = ws;
        req.configs = cfgs;
        req.metric = harness::missRatioMetric();
        req.jobs = jobs;
        const SweepResult result = r.run(req);
        EXPECT_EQ(r.tracesGenerated(), ws.size());
        ASSERT_EQ(result.cells.size(), ws.size() * cfgs.size());
        std::size_t stacked = 0;
        for (std::size_t wi = 0; wi < ws.size(); ++wi) {
            for (std::size_t ci = 0; ci < cfgs.size(); ++ci) {
                const auto &cell = result.cells[wi * cfgs.size() + ci];
                if (cell.engine == EngineTag::StackSinglePass) {
                    ++stacked;
                    const sim::RunStats *stack =
                        r.stackStats(ws[wi], cfgs[ci]);
                    ASSERT_NE(stack, nullptr);
                    EXPECT_EQ(cell.stats, *stack);
                    EXPECT_EQ(cell.stats.misses, exact[wi][ci].misses);
                } else {
                    EXPECT_EQ(cell.engine, EngineTag::ExactReplay);
                    EXPECT_EQ(cell.stats, exact[wi][ci])
                        << cell.workload << " / " << cell.configName;
                }
            }
        }
        EXPECT_EQ(stacked, 2 * ws.size()) << "jobs " << jobs;
    }
}

TEST(SweepRequestRouting, AutoServesStackFamilyByOnePass)
{
    const auto ws = twoWorkloads();
    const auto cfgs = mixedConfigs(); // 2 stack-eligible + soft

    Runner r;
    SweepRequest req;
    req.workloads = ws;
    req.configs = cfgs;
    req.metric = harness::missRatioMetric();
    const SweepResult result = r.run(req);

    EXPECT_EQ(r.stackCounter("stack.pass.traversals"), ws.size());
    ASSERT_EQ(result.cells.size(), ws.size() * cfgs.size());
    for (const auto &cell : result.cells) {
        const bool expect_stack = cell.configName != "Soft.";
        EXPECT_EQ(cell.engine, expect_stack
                                   ? EngineTag::StackSinglePass
                                   : EngineTag::ExactReplay)
            << cell.workload << " / " << cell.configName;
    }
    // Only the fallback config was exact-replayed.
    EXPECT_EQ(r.runsExecuted(), ws.size());
}

TEST(SweepRequestRouting, ExactEngineDisablesStackDispatch)
{
    const auto ws = twoWorkloads();
    const auto cfgs = stackFamilyConfigs();

    Runner r;
    SweepRequest req;
    req.workloads = ws;
    req.configs = cfgs;
    req.metric = harness::missRatioMetric();
    req.engine = EngineSelect::Exact;
    const SweepResult result = r.run(req);

    EXPECT_EQ(r.stackCounter("stack.pass.traversals"), 0u);
    EXPECT_EQ(r.runsExecuted(), ws.size() * cfgs.size());
    for (const auto &cell : result.cells)
        EXPECT_EQ(cell.engine, EngineTag::ExactReplay);

    // Same table either way — the stack pass is bit-identical.
    Runner via_stack;
    SweepRequest stacked = req;
    stacked.engine = EngineSelect::Stack;
    EXPECT_EQ(via_stack.run(stacked).table.toString(),
              result.table.toString());
    EXPECT_GT(via_stack.stackCounter("stack.pass.traversals"), 0u);
}

TEST(SweepRequestRouting, SampledCellsAreSharedAcrossRequests)
{
    const auto ws = twoWorkloads();
    const std::vector<core::Config> cfgs = {
        core::presets().get("standard")};

    Runner r;
    SweepRequest req;
    req.workloads = ws;
    req.configs = cfgs;
    req.metric = harness::missRatioMetric();
    req.engine = EngineSelect::Sampled;
    req.sampling = testSampling();

    const SweepResult first = r.run(req);
    const std::size_t executed = r.runsExecuted();
    EXPECT_EQ(executed, ws.size());
    // A second identical request is served from the sampled store.
    const SweepResult second = r.run(req);
    EXPECT_EQ(r.runsExecuted(), executed);
    EXPECT_EQ(second.table.toString(), first.table.toString());
}

TEST(SweepRequestRouting, LivepointRequestsShareOneLibraryBuild)
{
    namespace fs = std::filesystem;
    const std::string dir =
        testing::TempDir() + "/sweepreq_livepoint_lib";
    fs::remove_all(dir);

    const auto ws = std::vector<Workload>{mvWorkload("MV-lp", 40)};
    const std::vector<core::Config> cfgs = {
        core::presets().get("standard")};

    Runner r;
    SweepRequest req;
    req.workloads = ws;
    req.configs = cfgs;
    req.metric = harness::missRatioMetric();
    req.engine = EngineSelect::SampledLivepoint;
    req.sampling = testSampling();
    req.checkpointDir = dir;

    const SweepResult first = r.run(req);
    ASSERT_EQ(first.cells.size(), 1u);
    EXPECT_EQ(first.cells[0].engine, EngineTag::SampledLivepoint);
    EXPECT_EQ(r.checkpointCounter("checkpoint.misses"), 1u);

    // Re-running the same request on the same runner re-serves the
    // latched cell: one library build total, no second warm.
    r.run(req);
    EXPECT_EQ(r.checkpointCounter("checkpoint.misses"), 1u);
    EXPECT_EQ(r.checkpointCounter("checkpoint.hits"), 0u);

    fs::remove_all(dir);
}

TEST(SweepRequestTelemetry, SinkStreamsTheExactFileBytes)
{
    namespace fs = std::filesystem;
    const std::string dir = testing::TempDir() + "/sweepreq_sink_dir";
    fs::remove_all(dir);

    const auto ws = std::vector<Workload>{mvWorkload("MV-sink", 24)};
    const std::vector<core::Config> cfgs = {
        core::presets().get("soft")};

    Runner r;
    SweepRequest req;
    req.workloads = ws;
    req.configs = cfgs;
    req.metric = harness::amatMetric();
    req.telemetry.manifestDir = dir;
    std::map<std::string, std::string> streamed;
    req.telemetry.sink = [&streamed](const std::string &file,
                                     const std::string &document) {
        streamed[file] = document;
    };
    const SweepResult result = r.run(req);
    EXPECT_EQ(result.manifestFailures, 0u);
    ASSERT_FALSE(streamed.empty());

    const auto on_disk = oracle::readManifests(dir);
    ASSERT_EQ(on_disk.size(), streamed.size());
    for (const auto &entry : streamed) {
        SCOPED_TRACE(entry.first);
        const auto it = on_disk.find(entry.first);
        ASSERT_NE(it, on_disk.end());
        EXPECT_EQ(entry.second, it->second); // byte-identical
    }
    fs::remove_all(dir);
}

TEST(SweepRequestTelemetry, CheckpointBlocksDescribeTheirOwnCell)
{
    // On one shared Runner (sacd's case) each manifest reports its
    // own cell's library outcome and window parallelism, never a
    // runner-wide running total.
    namespace fs = std::filesystem;
    const std::string dir = testing::TempDir() + "/sweepreq_own_blocks";
    fs::remove_all(dir);

    Runner r;
    SweepRequest req;
    req.workloads = {mvWorkload("MV-own-a", 40), mvWorkload("MV-own-b", 44)};
    req.configs = {core::presets().get("standard")};
    req.metric = harness::missRatioMetric();
    req.engine = EngineSelect::SampledLivepoint;
    req.sampling = testSampling();
    req.checkpointDir = dir;

    // Cold: a forced rebuild warms and writes every library with its
    // windows replayed in parallel. It bypasses the shared cell
    // store, so the warm request below really loads the libraries.
    SweepRequest cold = req;
    cold.checkpointRebuild = true;
    cold.intraJobs = 3;
    const auto first = oracle::runCaptured(r, cold);
    // Warm: the same runner, serial window replay.
    SweepRequest warm = req;
    warm.intraJobs = 1;
    const auto second = oracle::runCaptured(r, warm);
    EXPECT_EQ(r.checkpointCounter("checkpoint.misses"), 2u);
    EXPECT_EQ(r.checkpointCounter("checkpoint.hits"), 2u);

    const auto block = [](const std::string &doc, const char *section,
                          const char *name) {
        const auto parsed = Json::parse(doc);
        const Json *sec = parsed ? parsed->find(section) : nullptr;
        const Json *b = sec ? sec->find(name) : nullptr;
        return b ? std::optional<Json>(*b) : std::nullopt;
    };
    ASSERT_EQ(first.docs.size(), 2u);
    ASSERT_EQ(second.docs.size(), 2u);
    for (const auto &[file, doc] : first.docs) {
        SCOPED_TRACE("cold " + file);
        const auto ck = block(doc, "metrics", "checkpoint");
        ASSERT_TRUE(ck.has_value());
        EXPECT_EQ(ck->find("hits")->asUint(), 0u);
        EXPECT_EQ(ck->find("misses")->asUint(), 1u);
        EXPECT_EQ(ck->find("stale")->asUint(), 0u);
        const auto par = block(doc, "timing", "parallel");
        ASSERT_TRUE(par.has_value());
        EXPECT_EQ(par->find("intra_jobs")->asUint(), 3u);
        EXPECT_GT(par->find("windows")->asUint(), 0u);

        const auto again = second.docs.find(file);
        ASSERT_NE(again, second.docs.end());
        SCOPED_TRACE("warm " + file);
        const auto warm_ck = block(again->second, "metrics", "checkpoint");
        ASSERT_TRUE(warm_ck.has_value());
        EXPECT_EQ(warm_ck->find("hits")->asUint(), 1u);
        EXPECT_EQ(warm_ck->find("misses")->asUint(), 0u);
        EXPECT_EQ(warm_ck->find("stale")->asUint(), 0u);
        // The bytes one cell wrote are the bytes it later reads.
        EXPECT_EQ(warm_ck->find("bytes")->asUint(),
                  ck->find("bytes")->asUint());
        EXPECT_GT(warm_ck->find("bytes")->asUint(), 0u);
        EXPECT_FALSE(block(again->second, "timing", "parallel"))
            << "a serial replay carries no parallel block";
    }
    fs::remove_all(dir);
}

TEST(SweepRequestTelemetry, DedupSetSuppressesRepeatedCells)
{
    const auto ws = std::vector<Workload>{mvWorkload("MV-dedup", 24)};
    const std::vector<core::Config> cfgs = {
        core::presets().get("soft")};

    Runner r;
    SweepRequest req;
    req.workloads = ws;
    req.configs = cfgs;
    req.metric = harness::amatMetric();
    std::set<std::pair<std::string, std::string>> seen;
    req.telemetry.dedup = &seen;
    std::size_t frames = 0;
    req.telemetry.sink = [&frames](const std::string &,
                                   const std::string &) { ++frames; };

    r.run(req);
    const std::size_t first = frames;
    EXPECT_GT(first, 0u);
    r.run(req);
    EXPECT_EQ(frames, first) << "second run must dedup every cell";
}

} // namespace
