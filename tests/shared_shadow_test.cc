/**
 * @file
 * Tests of the shared three-C shadow pass: one sim::shadowPass() per
 * (trace, classifier geometry) classifies every exact sweep cell of
 * that geometry, and the statistics, tables and manifests it yields
 * are bit-identical to per-cell replay with a live classifier
 * (core::simulateTrace), at any worker count.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "src/check/trace_fuzzer.hh"
#include "src/core/soft_cache.hh"
#include "src/harness/sweep.hh"
#include "src/sim/miss_classifier.hh"
#include "src/telemetry/manifest.hh"
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

/** A workload over a trace built once, up front. */
Workload
fixedWorkload(trace::Trace t, const std::string &name)
{
    t.setName(name);
    auto shared = std::make_shared<const trace::Trace>(std::move(t));
    return {name, [shared] { return *shared; }, nullptr};
}

/** MV, SpMV and LIV at test sizes plus two adversarial fuzz traces. */
std::vector<Workload>
mixedWorkloads()
{
    std::vector<Workload> out;
    out.push_back(fixedWorkload(
        workloads::makeTaggedTrace(workloads::buildMv(40)), "MV"));
    out.push_back(fixedWorkload(
        workloads::makeTaggedTrace(workloads::buildSpMv(300, 10)),
        "SpMV"));
    out.push_back(fixedWorkload(
        workloads::makeTaggedTrace(workloads::buildLiv({0.05})), "LIV"));
    const check::TraceFuzzer fuzzer;
    for (std::uint64_t i = 0; i < 2; ++i) {
        out.push_back(fixedWorkload(fuzzer.makeCase(i).trace,
                                    "fuzz-" + std::to_string(i)));
    }
    return out;
}

/**
 * The 14 presets (one 8 KB / 32 B shadow geometry), a 16 KB variant
 * (a geometry of one: no pass), two 64 B variants (a second shared
 * geometry) and an unclassified copy (never shares).
 */
std::vector<core::Config>
mixedConfigs()
{
    std::vector<core::Config> out;
    for (const auto &key : core::presets().names())
        out.push_back(core::presets().get(key));
    core::Config big = core::presets().get("standard");
    big.name = "standard-16K";
    big.cacheSizeBytes = 16 * 1024;
    out.push_back(big);
    for (const char *key : {"standard", "victim"}) {
        core::Config wide = core::presets().get(key);
        wide.name = std::string(key) + "-64B";
        wide.lineBytes = 64;
        out.push_back(wide);
    }
    core::Config quiet = core::presets().get("soft");
    quiet.name = "soft-unclassified";
    quiet.classifyMisses = false;
    out.push_back(quiet);
    return out;
}

constexpr std::size_t kSharedGeometries = 2;  // 8 KB/32 B and 8 KB/64 B
constexpr std::size_t kSharedConfigs = 14 + 2; // their members

struct SweepRun
{
    SweepResult result;
    std::map<std::string, std::string> docs; //!< file -> document
};

SweepRun
runSweep(Runner &runner, const std::vector<Workload> &wls,
         const std::vector<core::Config> &configs, unsigned jobs)
{
    SweepRun run;
    SweepRequest req;
    req.workloads = wls;
    req.configs = configs;
    req.metric = harness::amatMetric();
    req.engine = EngineSelect::Exact;
    req.jobs = jobs;
    req.telemetry.sink = [&run](const std::string &file,
                                const std::string &doc) {
        run.docs[file] = doc;
    };
    run.result = runner.run(req);
    return run;
}

TEST(SharedShadow, SweepIsBitIdenticalToLiveClassifier)
{
    const auto wls = mixedWorkloads();
    const auto configs = mixedConfigs();
    const std::size_t n_c = configs.size();
    const std::size_t cells = wls.size() * n_c;

    // The oracle: per-cell replay with a live classifier.
    std::vector<trace::Trace> traces;
    for (const auto &w : wls)
        traces.push_back(w.build());
    std::vector<sim::RunStats> replayed;
    for (const auto &t : traces) {
        for (const auto &cfg : configs)
            replayed.push_back(core::simulateTrace(t, cfg));
    }
    const harness::Metric metric = harness::amatMetric();
    std::vector<std::string> headers{"Benchmark"};
    for (const auto &cfg : configs)
        headers.push_back(cfg.name);
    util::Table want_table(headers);
    for (std::size_t wi = 0; wi < wls.size(); ++wi) {
        const auto row = want_table.addRow();
        want_table.set(row, 0, wls[wi].name);
        for (std::size_t ci = 0; ci < n_c; ++ci) {
            want_table.setNumber(row, ci + 1,
                                 metric.extract(replayed[wi * n_c + ci]),
                                 metric.decimals);
        }
    }

    std::map<unsigned, SweepRun> runs;
    for (const unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE(testing::Message() << "jobs " << jobs);
        Runner runner;
        runner.warmup(wls);
        SweepRun run = runSweep(runner, wls, configs, jobs);
        EXPECT_EQ(runner.runsExecuted(), cells);
        EXPECT_EQ(runner.stackCounter("classifier.shadow.passes"),
                  wls.size() * kSharedGeometries);
        EXPECT_EQ(runner.stackCounter("classifier.shadow.cells"),
                  wls.size() * kSharedConfigs);
        EXPECT_EQ(run.result.table.toString(), want_table.toString());
        ASSERT_EQ(run.result.cells.size(), cells);
        ASSERT_EQ(run.docs.size(), cells);
        for (std::size_t i = 0; i < cells; ++i) {
            const SweepResult::Cell &c = run.result.cells[i];
            SCOPED_TRACE(c.workload + " x " + c.configName);
            const core::Config &cfg = configs[i % n_c];
            EXPECT_EQ(c.engine, EngineTag::ExactReplay);
            EXPECT_TRUE(runner.cell(wls[i / n_c], cfg).stats == replayed[i]);
            harness::ManifestCell mc;
            mc.workload = c.workload;
            mc.config = &cfg;
            mc.stats = &replayed[i];
            const std::string want = telemetry::manifestJson(
                harness::renderCellManifest(mc, EngineTag::ExactReplay))
                                         .dump(2);
            const auto doc = run.docs.find(c.manifestFile);
            ASSERT_NE(doc, run.docs.end()) << c.manifestFile;
            EXPECT_EQ(oracle::stripTiming(doc->second),
                      oracle::stripTiming(want));
        }
        runs.emplace(jobs, std::move(run));
    }

    // Serial and parallel sweeps emit the same bytes, modulo timing.
    EXPECT_EQ(runs[1].result.table.toString(),
              runs[4].result.table.toString());
    ASSERT_EQ(runs[1].docs.size(), runs[4].docs.size());
    for (const auto &[file, doc] : runs[1].docs) {
        const auto other = runs[4].docs.find(file);
        ASSERT_NE(other, runs[4].docs.end()) << file;
        EXPECT_EQ(oracle::stripTiming(doc),
                  oracle::stripTiming(other->second))
            << file;
    }
}

TEST(SharedShadow, CachedCellsAndLoneGeometriesBuildNoPass)
{
    const auto wls = mixedWorkloads();
    Runner runner;
    runner.warmup(wls);

    // One classified config per geometry: nothing to share.
    core::Config standard = core::presets().get("standard");
    core::Config big = standard;
    big.name = "standard-16K";
    big.cacheSizeBytes = 16 * 1024;
    runSweep(runner, wls, {standard, big}, 4);
    EXPECT_EQ(runner.stackCounter("classifier.shadow.passes"), 0u);
    EXPECT_EQ(runner.stackCounter("classifier.shadow.cells"), 0u);

    // A second member joins the 8 KB geometry, but its first member
    // is already cached: one uncached cell per workload, no pass.
    const core::Config victim = core::presets().get("victim");
    runSweep(runner, wls, {standard, victim}, 4);
    EXPECT_EQ(runner.stackCounter("classifier.shadow.passes"), 0u);

    // Two fresh members share one pass per workload; replaying the
    // same request again is served from the cell cache, pass-free.
    const std::vector<core::Config> pair{core::presets().get("soft"),
                                         core::presets().get("2way")};
    runSweep(runner, wls, pair, 4);
    EXPECT_EQ(runner.stackCounter("classifier.shadow.passes"),
              wls.size());
    EXPECT_EQ(runner.stackCounter("classifier.shadow.cells"),
              2 * wls.size());
    runSweep(runner, wls, pair, 4);
    EXPECT_EQ(runner.stackCounter("classifier.shadow.passes"),
              wls.size());
    EXPECT_EQ(runner.runsExecuted(), 5 * wls.size());
}

TEST(SharedShadow, FinishedPassesHoldNoCodes)
{
    // Every pass frees its codes as soon as its last cell (a
    // duplicate config included) is done, not when the request
    // returns, at any worker count.
    const auto wls = mixedWorkloads();
    auto configs = mixedConfigs();
    configs.push_back(configs.front());
    for (const unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE(testing::Message() << "jobs " << jobs);
        Runner runner;
        runner.warmup(wls);
        runSweep(runner, wls, configs, jobs);
        EXPECT_EQ(runner.stackCounter("classifier.shadow.passes"),
                  wls.size() * kSharedGeometries);
        EXPECT_EQ(runner.stackCounter("classifier.shadow.released"),
                  wls.size() * kSharedGeometries);
    }
}

TEST(SharedShadow, FuzzCorpusMatchesLiveClassifier)
{
    // Fuzzed configurations span line sizes, capacities and the
    // feature lattice; the codes of one pass must classify exactly
    // like the simulator's own classifier on every one.
    const check::TraceFuzzer fuzzer;
    for (std::uint64_t i = 0; i < 200; ++i) {
        const check::FuzzCase c = fuzzer.makeCase(i);
        SCOPED_TRACE(testing::Message() << "case seed 0x" << std::hex
                                        << c.seed);
        const auto codes = sim::shadowPass(
            c.trace,
            static_cast<std::uint32_t>(c.config.cacheSizeBytes /
                                       c.config.lineBytes),
            c.config.lineBytes);
        EXPECT_TRUE(core::simulateTrace(c.trace, c.config, codes) ==
                    core::simulateTrace(c.trace, c.config));
    }
}

TEST(SharedShadowDeathTest, ReplayMustConsumeEveryCode)
{
    const trace::Trace t =
        workloads::makeTaggedTrace(workloads::buildMv(8));
    const core::Config cfg = core::presets().get("standard");
    auto codes = sim::shadowPass(t, cfg.cacheSizeBytes / cfg.lineBytes,
                                 cfg.lineBytes);
    codes.push_back(sim::ShadowOutcome::ShadowHit);
    EXPECT_DEATH(core::simulateTrace(t, cfg, codes), "longer");
    codes.resize(t.size() / 2);
    EXPECT_DEATH(core::simulateTrace(t, cfg, codes), "shorter");
}

} // namespace
