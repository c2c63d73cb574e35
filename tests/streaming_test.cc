/**
 * @file
 * Tests of the streaming simulation engine and the Config API
 * redesign: chunked trace sources must replay bit-identically to
 * materialized traces (for any chunk size), the feature-specialized
 * dispatch paths must match the general path exactly, and the
 * Builder / preset registry must agree with the legacy factories and
 * reject the configurations validate() is documented to reject.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/check/trace_fuzzer.hh"
#include "src/core/config.hh"
#include "src/core/soft_cache.hh"
#include "src/harness/experiment.hh"
#include "src/sim/run_stats.hh"
#include "src/trace/trace_io.hh"
#include "src/trace/trace_source.hh"

namespace {

using namespace sac;
using core::Config;
using core::DispatchMode;
using core::FeatureSet;

/**
 * Wraps another source and clamps every next() call to a fixed chunk
 * size, so the replay loop is exercised at chunk sizes other than its
 * internal default.
 */
class ThrottledSource : public trace::TraceSource
{
  public:
    ThrottledSource(trace::TraceSource &inner, std::size_t chunk)
        : inner_(inner), chunk_(chunk)
    {
    }

    std::size_t
    next(trace::Record *out, std::size_t max) override
    {
        return inner_.next(out, max < chunk_ ? max : chunk_);
    }

    const std::string &name() const override { return inner_.name(); }

  private:
    trace::TraceSource &inner_;
    std::size_t chunk_;
};

/** A deterministic handful of adversarial (config, trace) cases. */
std::vector<check::FuzzCase>
fuzzCases(std::size_t n)
{
    const check::TraceFuzzer fuzzer;
    std::vector<check::FuzzCase> cases;
    cases.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        cases.push_back(fuzzer.makeCase(i));
    return cases;
}

// --- Streamed replay is bit-identical to materialized replay -------

TEST(Streaming, ChunkedReplayMatchesMaterializedExactly)
{
    // The ISSUE's differential requirement: streamed chunked replay
    // of seeded fuzz traces produces bit-identical RunStats to the
    // materialized replay, for chunk sizes 1, 7 and 4096.
    const std::size_t chunks[] = {1, 7, 4096};
    for (const auto &c : fuzzCases(24)) {
        const sim::RunStats materialized =
            core::simulateTrace(c.trace, c.config);
        for (const std::size_t chunk : chunks) {
            trace::MemoryTraceSource mem(c.trace);
            ThrottledSource throttled(mem, chunk);
            const sim::RunStats streamed =
                core::simulateSource(throttled, c.config);
            EXPECT_TRUE(streamed == materialized)
                << "case seed 0x" << std::hex << c.seed << std::dec
                << " chunk " << chunk << " diverged: "
                << sim::describeDivergence(sim::countsOf(materialized),
                                           sim::countsOf(streamed));
        }
    }
}

TEST(Streaming, FileSourceMatchesMaterializedExactly)
{
    const auto c = fuzzCases(1).front();
    const std::string path =
        testing::TempDir() + "sac_streaming_test.sactrace";
    ASSERT_TRUE(trace::writeTraceFile(c.trace, path));

    trace::FileTraceSource file(path);
    ASSERT_TRUE(file.ok());
    const sim::RunStats streamed =
        core::simulateSource(file, c.config);
    EXPECT_FALSE(file.failed());
    EXPECT_TRUE(streamed == core::simulateTrace(c.trace, c.config));
    std::remove(path.c_str());
}

TEST(Streaming, GeneratorSourceYieldsRecordsInOrder)
{
    const auto c = fuzzCases(1).front();
    trace::GeneratorTraceSource src(
        c.trace.name(),
        [&c](const trace::RecordSink &sink) {
            for (const auto &r : c.trace)
                sink(r);
        },
        /*chunk_records=*/7, /*max_chunks=*/2);
    const trace::Trace drained = trace::drainToTrace(src);
    ASSERT_EQ(drained.size(), c.trace.size());
    for (std::size_t i = 0; i < drained.size(); ++i)
        ASSERT_TRUE(drained[i] == c.trace[i]) << "record " << i;
}

TEST(Streaming, GeneratorSourceSkipPastEofReportsTruncatedCount)
{
    // The base-class skip() on a generator decodes and discards; a
    // request past the end of the produced stream must report only
    // what was actually there, after which the source stays drained.
    const auto c = fuzzCases(1).front();
    trace::GeneratorTraceSource src(
        c.trace.name(),
        [&c](const trace::RecordSink &sink) {
            for (const auto &r : c.trace)
                sink(r);
        },
        /*chunk_records=*/7, /*max_chunks=*/2);

    EXPECT_EQ(src.skip(c.trace.size() + 100), c.trace.size());
    trace::Record r;
    EXPECT_EQ(src.next(&r, 1), 0u);
    EXPECT_EQ(src.skip(1), 0u);
}

TEST(Streaming, RunStreamedMatchesCachedRunnerResults)
{
    const auto c = fuzzCases(2).back();
    const harness::Workload w{
        "stream-w", [&c] { return c.trace; },
        [&c](const trace::RecordSink &sink) {
            for (const auto &r : c.trace)
                sink(r);
        }};
    const std::vector<Config> configs = {
        core::presets().get("standard"), core::presets().get("victim"),
        core::presets().get("soft"),
        core::presets().get("soft-prefetch")};

    for (const unsigned jobs : {0u, 3u}) {
        harness::Runner runner;
        const auto streamed =
            runner.runStreamed(w, configs, jobs, /*chunk_records=*/64);
        ASSERT_EQ(streamed.size(), configs.size());
        for (std::size_t i = 0; i < configs.size(); ++i) {
            EXPECT_TRUE(streamed[i] == runner.cell(w, configs[i]).stats)
                << configs[i].name << " jobs=" << jobs;
        }
    }
}

TEST(Streaming, RunStreamedFallsBackToBuildWithoutStream)
{
    const auto c = fuzzCases(3).back();
    const harness::Workload w{"no-stream",
                              [&c] { return c.trace; },
                              nullptr};
    harness::Runner runner;
    const auto streamed =
        runner.runStreamed(w, {core::presets().get("soft")}, 0);
    ASSERT_EQ(streamed.size(), 1u);
    EXPECT_TRUE(streamed[0] ==
                runner.cell(w, core::presets().get("soft")).stats);
}

// --- Feature-specialized dispatch matches the general path ---------

TEST(Dispatch, FeatureSetOfMapsPresetsToLatticePoints)
{
    EXPECT_EQ(core::featureSetOf(core::presets().get("standard")),
              FeatureSet::Standard);
    EXPECT_EQ(core::featureSetOf(core::presets().get("victim")),
              FeatureSet::Victim);
    EXPECT_EQ(core::featureSetOf(core::presets().get("soft")),
              FeatureSet::Soft);
    EXPECT_EQ(core::featureSetOf(core::presets().get("soft-prefetch")),
              FeatureSet::SoftPrefetch);
    // Bypassing is not a specialized lattice point.
    EXPECT_EQ(core::featureSetOf(core::presets().get("bypass")),
              FeatureSet::General);
    // Prefetching without virtual lines is off the lattice too.
    EXPECT_EQ(
        core::featureSetOf(core::presets().get("standard-prefetch")),
        FeatureSet::General);
}

TEST(Dispatch, SimulatorReportsSelectedFeatureSet)
{
    core::SoftwareAssistedCache auto_sim(core::presets().get("soft"));
    EXPECT_EQ(auto_sim.featureSet(), FeatureSet::Soft);
    core::SoftwareAssistedCache forced(core::presets().get("soft"),
                                       DispatchMode::General);
    EXPECT_EQ(forced.featureSet(), FeatureSet::General);
    EXPECT_STRNE(toString(FeatureSet::Soft),
                 toString(FeatureSet::General));
}

TEST(Dispatch, SpecializedPathsMatchGeneralPathOnAllPresets)
{
    // The fuzz sweep covers the oracle's scope; this covers the rest
    // of the lattice (prefetching, bypassing, set-associativity) on
    // an adversarial trace: forced-general replay must be identical,
    // timing included.
    const auto c = fuzzCases(4).back();
    for (const auto &p : core::presets().all()) {
        const sim::RunStats fast =
            core::simulateTrace(c.trace, p.config);
        const sim::RunStats general = core::simulateTrace(
            c.trace, p.config, DispatchMode::General);
        EXPECT_TRUE(fast == general) << "preset " << p.key;
    }
}

TEST(Dispatch, FuzzCasesPassThroughBothPaths)
{
    for (const auto &c : fuzzCases(16)) {
        const auto out = check::runCase(c);
        EXPECT_FALSE(out.dispatchDiverged) << out.dispatchDivergence;
        EXPECT_TRUE(out.ok()) << "case seed 0x" << std::hex << c.seed;
    }
}

// --- Config::validationError rejects what validate() documents -----

TEST(ConfigValidation, RejectsVirtualLineNotMultipleOfLine)
{
    Config c = core::presets().get("standard");
    c.virtualLines = true;
    c.lineBytes = 32;
    c.virtualLineBytes = 48;
    ASSERT_TRUE(c.validationError().has_value());
}

TEST(ConfigValidation, RejectsVirtualLineSmallerThanLine)
{
    Config c = core::presets().get("standard");
    c.virtualLines = true;
    c.lineBytes = 32;
    c.virtualLineBytes = 16;
    ASSERT_TRUE(c.validationError().has_value());
}

TEST(ConfigValidation, RejectsNonPowerOfTwoLineMultiple)
{
    // 96 = 3 lines: a multiple, but handleMiss aligns virtual blocks
    // with a power-of-two mask, so 3-line blocks would misalign.
    Config c = core::presets().get("standard");
    c.virtualLines = true;
    c.lineBytes = 32;
    c.virtualLineBytes = 96;
    ASSERT_TRUE(c.validationError().has_value());
}

TEST(ConfigValidation, RejectsPrefetchWithZeroDegree)
{
    Config c = core::presets().get("soft-prefetch");
    c.prefetchDegree = 0;
    ASSERT_TRUE(c.validationError().has_value());
}

TEST(ConfigValidation, AcceptsEveryPreset)
{
    for (const auto &p : core::presets().all())
        EXPECT_FALSE(p.config.validationError().has_value())
            << p.key << ": " << p.config.validationError().value_or("");
}

// --- Builder and preset registry -----------------------------------

TEST(ConfigBuilder, BuildsTheSoftConfiguration)
{
    const Config built = Config::builder()
                             .name("Soft.")
                             .auxLines(8)
                             .victims()
                             .bounceBack()
                             .temporalBits()
                             .virtualLines(64)
                             .build();
    EXPECT_EQ(built.cacheKey(), core::presets().get("soft").cacheKey());
    EXPECT_EQ(built.name, core::presets().get("soft").name);
}

TEST(ConfigBuilder, BuildUncheckedSkipsValidation)
{
    // build() would fatal on this (prefetch needs an aux cache);
    // buildUnchecked() hands it back for validationError() to report.
    const Config c =
        Config::builder().prefetch().buildUnchecked();
    ASSERT_TRUE(c.validationError().has_value());
}

TEST(PresetRegistry, NamesAreStableAndResolvable)
{
    const auto &reg = core::presets();
    const std::vector<std::string> expected = {
        "standard",       "victim",
        "soft",           "soft-temporal",
        "soft-spatial",   "variable",
        "bypass",         "bypass-buffer",
        "2way",           "2way-victim",
        "soft-2way",      "simplified-soft-2way",
        "standard-prefetch", "soft-prefetch"};
    EXPECT_EQ(reg.names(), expected);
    for (const auto &key : expected) {
        EXPECT_TRUE(reg.contains(key));
        EXPECT_FALSE(reg.get(key).name.empty());
    }
    EXPECT_FALSE(reg.contains("no-such-preset"));
}

TEST(PresetRegistry, PresetsMatchLegacyFactories)
{
    const auto &reg = core::presets();
    EXPECT_EQ(reg.get("standard").cacheKey(),
              core::presets().get("standard").cacheKey());
    EXPECT_EQ(reg.get("victim").cacheKey(),
              core::presets().get("victim").cacheKey());
    EXPECT_EQ(reg.get("soft").cacheKey(),
              core::presets().get("soft").cacheKey());
    EXPECT_EQ(reg.get("variable").cacheKey(),
              core::presets().get("variable").cacheKey());
    EXPECT_EQ(reg.get("bypass").cacheKey(),
              core::presets().get("bypass").cacheKey());
    EXPECT_EQ(reg.get("bypass-buffer").cacheKey(),
              core::presets().get("bypass-buffer").cacheKey());
    EXPECT_EQ(reg.get("soft-prefetch").cacheKey(),
              core::presets().get("soft-prefetch").cacheKey());
    EXPECT_EQ(reg.get("simplified-soft-2way").cacheKey(),
              core::presets().get("simplified-soft-2way").cacheKey());
}

} // namespace
