/**
 * @file
 * Tests of the experiment harness: metric extraction, trace/result
 * caching, figure-table rendering and CSV export.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>

#include "src/harness/bench_options.hh"
#include "src/harness/sweep.hh"
#include "src/util/args.hh"
#include "src/workloads/workloads.hh"

namespace {

using namespace sac;
using harness::Runner;
using harness::Workload;

Workload
tinyWorkload(const std::string &name = "tiny")
{
    return {name,
            [] {
                return workloads::makeTaggedTrace(
                    workloads::buildMv(32));
            },
            nullptr};
}

TEST(HarnessMetrics, NamesAndExtraction)
{
    sim::RunStats s;
    s.accesses = 10;
    s.misses = 2;
    s.mainHits = 6;
    s.auxHits = 2;
    s.totalAccessCycles = 30;
    s.bytesFetched = 80;
    EXPECT_EQ(harness::amatMetric().name, "AMAT");
    EXPECT_DOUBLE_EQ(harness::amatMetric().extract(s), 3.0);
    EXPECT_DOUBLE_EQ(harness::missRatioMetric().extract(s), 0.2);
    EXPECT_DOUBLE_EQ(harness::wordsPerAccessMetric().extract(s), 2.0);
    EXPECT_DOUBLE_EQ(harness::mainHitShareMetric().extract(s), 0.75);
    EXPECT_DOUBLE_EQ(harness::auxHitShareMetric().extract(s), 0.25);
}

TEST(HarnessRunner, TracesAreGeneratedOnce)
{
    Runner r;
    const auto w = tinyWorkload();
    const auto &a = r.traceOf(w);
    const auto &b = r.traceOf(w);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(r.tracesGenerated(), 1u);
}

TEST(HarnessRunner, ResultsAreCachedPerConfig)
{
    Runner r;
    const auto w = tinyWorkload();
    r.cell(w, core::presets().get("standard"));
    r.cell(w, core::presets().get("standard"));
    r.cell(w, core::presets().get("soft"));
    EXPECT_EQ(r.runsExecuted(), 2u);
}

TEST(HarnessRunner, SameLabelDifferentConfigDoesNotAlias)
{
    // Results are keyed on the canonical serialized config, so two
    // configurations sharing a display name get separate cells.
    Runner r;
    const auto w = tinyWorkload();
    auto small = core::presets().get("standard");
    auto large = core::presets().get("standard");
    large.cacheSizeBytes = 64 * 1024;
    ASSERT_EQ(small.name, large.name);
    ASSERT_NE(small.cacheKey(), large.cacheKey());
    const auto &s = r.cell(w, small).stats;
    const auto &l = r.cell(w, large).stats;
    EXPECT_EQ(r.runsExecuted(), 2u);
    EXPECT_GT(s.misses, l.misses);
}

TEST(ConfigCacheKey, IgnoresNameAndCoversEveryKnob)
{
    auto a = core::presets().get("soft");
    auto b = core::presets().get("soft");
    b.name = "renamed";
    EXPECT_EQ(a.cacheKey(), b.cacheKey());

    // Any simulation-relevant field must change the key.
    auto c = a;
    c.virtualLineBytes = 128;
    EXPECT_NE(a.cacheKey(), c.cacheKey());
    auto d = a;
    d.timing.memoryLatency = 35;
    EXPECT_NE(a.cacheKey(), d.cacheKey());
    auto e = a;
    e.resetTemporalBitOnBounce = false;
    EXPECT_NE(a.cacheKey(), e.cacheKey());
    auto f = a;
    f.writeBufferEntries = 4;
    EXPECT_NE(a.cacheKey(), f.cacheKey());
}

TEST(HarnessRunner, MatrixShapeAndContents)
{
    Runner r;
    harness::SweepRequest req;
    req.workloads = {tinyWorkload("a"), tinyWorkload("b")};
    req.configs = {core::presets().get("standard"),
                   core::presets().get("soft")};
    req.metric = harness::amatMetric();
    const auto table = r.run(req).table;
    EXPECT_EQ(table.rows(), 2u);
    EXPECT_EQ(table.cols(), 3u);
    EXPECT_EQ(table.cell(0, 0), "a");
    EXPECT_EQ(table.header(1), "Stand.");
    EXPECT_GT(std::stod(table.cell(0, 1)), 1.0);
    EXPECT_EQ(r.runsExecuted(), 4u);
}

TEST(HarnessRunner, PaperWorkloadsMatchRegistry)
{
    const auto ws = harness::paperWorkloads();
    ASSERT_EQ(ws.size(), 9u);
    EXPECT_EQ(ws.front().name, "MDG");
    EXPECT_EQ(ws.back().name, "SpMV");
}

TEST(HarnessRunner, PaperWorkloadsUseTheirSeed)
{
    // Every workload builds and streams makeBenchmarkTrace(name, seed);
    // the default seed is makeBenchmarkTrace()'s own.
    const std::uint64_t seed = 1;
    const auto equal = [](const trace::Trace &a, const trace::Trace &b) {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
    };
    for (const auto &w : harness::paperWorkloads(seed)) {
        const auto expected = workloads::makeBenchmarkTrace(w.name, seed);
        EXPECT_TRUE(equal(w.build(), expected)) << w.name;
        trace::Trace streamed;
        w.stream([&streamed](const trace::Record &r) { streamed.push(r); });
        EXPECT_TRUE(equal(streamed, expected)) << w.name;
    }
    const auto mv = harness::paperWorkloads().at(7);
    ASSERT_EQ(mv.name, "MV");
    EXPECT_TRUE(equal(mv.build(), workloads::makeBenchmarkTrace("MV")));
    EXPECT_FALSE(
        equal(mv.build(), workloads::makeBenchmarkTrace("MV", seed)));
}

TEST(HarnessCsv, PlainTable)
{
    util::Table t({"a", "b"});
    t.addRow({"1", "2"});
    t.addRow({"3", "4"});
    EXPECT_EQ(harness::toCsv(t), "a,b\n1,2\n3,4\n");
}

TEST(HarnessCsv, QuotesSpecialCharacters)
{
    util::Table t({"name", "value"});
    t.addRow({"has,comma", "has\"quote"});
    EXPECT_EQ(harness::toCsv(t),
              "name,value\n\"has,comma\",\"has\"\"quote\"\n");
}

TEST(HarnessCsv, FileRoundTrip)
{
    util::Table t({"x"});
    t.addRow({"42"});
    const std::string path = "/tmp/sac_harness_csv_test.csv";
    ASSERT_TRUE(harness::writeCsvFile(t, path));
    std::ifstream is(path);
    std::string line;
    std::getline(is, line);
    EXPECT_EQ(line, "x");
    std::getline(is, line);
    EXPECT_EQ(line, "42");
}

TEST(HarnessCsv, UnwritablePathFails)
{
    util::Table t({"x"});
    EXPECT_FALSE(
        harness::writeCsvFile(t, "/nonexistent_dir/file.csv"));
}

TEST(BenchOptionsDeathTest, UnknownFlagIsRejected)
{
    const char *typo[] = {"prog", "--jobz", "3"};
    EXPECT_EXIT(harness::BenchOptions::parse(3, typo),
                testing::ExitedWithCode(2), "unknown flag --jobz");
    const char *removed[] = {"prog", "--jobs", "2", "--trace-chunk", "5"};
    EXPECT_EXIT(harness::BenchOptions::parse(5, removed),
                testing::ExitedWithCode(2), "unknown flag --trace-chunk");
}

TEST(BenchOptionsDeathTest, NoFormOfAValueFlagIsRejected)
{
    // --no-X parses as X=false, which is no directory or preset name.
    for (const char *flag :
         {"--no-emit-json", "--no-checkpoint-dir", "--no-preset"}) {
        SCOPED_TRACE(flag);
        const char *argv[] = {"prog", flag};
        EXPECT_EXIT(harness::BenchOptions::parse(2, argv),
                    testing::ExitedWithCode(2),
                    std::string(flag) + " is not a flag");
    }
}

TEST(BenchOptionsDeathTest, OnOffFlagRejectsAValue)
{
    const char *argv[] = {"prog", "--sample=often"};
    EXPECT_EXIT(harness::BenchOptions::parse(2, argv),
                testing::ExitedWithCode(2),
                "--sample takes no value \\(got 'often'\\)");
}

TEST(BenchOptions, EveryOwnFlagParses)
{
    const char *argv[] = {"prog",
                          "--jobs=2",
                          "--intra-jobs=1",
                          "--emit-json=out",
                          "--preset=soft",
                          "--trace-seed=5",
                          "--sample",
                          "--sample-window=64",
                          "--sample-stride=1024",
                          "--sample-warmup=0",
                          "--sample-ci=0.9",
                          "--sample-error=0",
                          "--checkpoint-dir=cp",
                          "--checkpoint-rebuild"};
    const auto opts = harness::BenchOptions::parse(
        static_cast<int>(std::size(argv)), argv);
    EXPECT_EQ(opts.jobs, 2u);
    EXPECT_EQ(opts.presetName, "soft");
    EXPECT_EQ(opts.traceSeed, 5u);
    EXPECT_TRUE(opts.sample);
    EXPECT_TRUE(opts.checkpointRebuild);

    // The instrumentation flags exclude sampling, so they go alone.
    const char *instrumented[] = {"prog", "--emit-json", "out",
                                  "--interval", "100", "--heatmap"};
    EXPECT_EQ(harness::BenchOptions::parse(6, instrumented).interval, 100u);

    // bench_simspeed forwards what is left once google-benchmark's
    // --benchmark_* flags are split off.
    const char *forwarded[] = {"bench_simspeed", "--jobs", "1",
                               "--emit-json", "dir"};
    EXPECT_EQ(harness::BenchOptions::parse(5, forwarded).emitJsonDir,
              "dir");

    // The --no-X form of an on/off flag turns it off.
    const char *off[] = {"prog", "--no-sample", "--no-heatmap",
                         "--no-checkpoint-rebuild"};
    const auto none = harness::BenchOptions::parse(4, off);
    EXPECT_FALSE(none.sample);
    EXPECT_FALSE(none.heatmap);
    EXPECT_FALSE(none.checkpointRebuild);
    const char *explicit_on[] = {"prog", "--sample=true"};
    EXPECT_TRUE(harness::BenchOptions::parse(2, explicit_on).sample);
}

TEST(BenchOptions, ArgsEntryLeavesCallerFlagsAlone)
{
    // sacsim reads its own flags from the same command line.
    const char *argv[] = {"sacsim", "--l1-kb", "16", "--jobs", "3"};
    util::Args args;
    ASSERT_TRUE(args.parse(5, argv));
    EXPECT_EQ(harness::BenchOptions::parse(args).jobs, 3u);
}

} // namespace
