/**
 * @file
 * The single-pass stack-distance engine's correctness story, in four
 * layers:
 *
 *  - StackEngine: unit tests of the profiler mechanics on hand-built
 *    traces (conflict thrash, truncated-depth reuse, coverage), and
 *    StackKernel: way-array edge cases (line 0 against empty ways,
 *    one-byte lines at the top of the address space, one-way
 *    profilers, distinct-line counts across a bitmap block).
 *  - StackDifferential: the engine against exact core::simulateTrace
 *    replay — bit-identical miss counts across size x assoc lattices
 *    for every standard-family preset and for the standard-config
 *    subset of the 5000-case differential fuzz corpus.
 *  - StackProperty: Mattson's inclusion property (miss counts
 *    monotone non-increasing in associativity at fixed sets, and in
 *    size at fixed associativity on the paper workloads).
 *  - StackAnalytic: convergence to the closed-form independent-
 *    reference-model miss ratio on long uniform-random traces — an
 *    oracle that shares no code with the simulator or the engine.
 *
 * Plus the harness integration (StackFamily): a SweepRequest
 * dispatching a standard family to ONE traversal, rendering the
 * serial-replay oracle's table, the stack.pass.* counters, and
 * the StackRegression guard that configurations differing only in
 * fields the stack pass folds away still occupy distinct cells.
 */

#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "src/check/trace_fuzzer.hh"
#include "src/core/config.hh"
#include "src/core/soft_cache.hh"
#include "src/harness/sweep.hh"
#include "src/sim/stack_engine.hh"
#include "src/telemetry/manifest.hh"
#include "src/trace/trace_source.hh"
#include "src/util/rng.hh"
#include "src/workloads/workloads.hh"
#include "tests/sweep_oracle.hh"

namespace {

using namespace sac;

const trace::Trace &
mvTrace()
{
    static const trace::Trace t =
        workloads::makeTaggedTrace(workloads::buildMv(48));
    return t;
}

harness::Workload
mvWorkload()
{
    return {"MV", [] { return mvTrace(); }, nullptr};
}

/** A standard-family lattice config: @p base rescaled and re-wayed. */
core::Config
latticePoint(core::Config base, std::uint64_t cache_bytes,
             std::uint32_t assoc)
{
    base = core::scaledConfig(std::move(base), cache_bytes,
                              base.lineBytes);
    base.assoc = assoc;
    base.name += " A=" + std::to_string(assoc);
    base.validate();
    return base;
}

/** The 8-cell standard family of the acceptance criterion. */
std::vector<core::Config>
eightCellFamily()
{
    std::vector<core::Config> out;
    for (const std::uint64_t kb : {4, 8, 16, 32}) {
        for (const std::uint32_t ways : {1u, 2u})
            out.push_back(latticePoint(core::presets().get("standard"),
                                       kb * 1024, ways));
    }
    return out;
}

// --- StackEngine: profiler mechanics --------------------------------

TEST(StackEngine, ConflictThrashMissesDirectMappedHitsTwoWay)
{
    // Two lines exactly one cache image apart alias to the same set:
    // alternating touches thrash a direct-mapped cache but fit in two
    // ways. Both geometries share sets=128, so one profiler answers
    // both.
    const sim::StackPoint one_way{4096, 32, 1};  // 128 sets
    const sim::StackPoint two_way{8192, 32, 2};  // 128 sets
    sim::StackDistanceEngine eng({one_way, two_way});

    trace::Trace t("thrash");
    for (int i = 0; i < 10; ++i) {
        t.push({.addr = 0x0});
        t.push({.addr = 0x1000}); // 4096 = one image apart
    }
    trace::MemoryTraceSource src(t);
    EXPECT_EQ(eng.run(src), 20u);

    EXPECT_EQ(eng.accesses(), 20u);
    EXPECT_EQ(eng.missCount(one_way), 20u); // every touch evicts
    EXPECT_EQ(eng.missCount(two_way), 2u);  // compulsory only
    EXPECT_DOUBLE_EQ(eng.missRatio(two_way), 0.1);
    EXPECT_EQ(eng.touchedLines(32), 2u);
}

TEST(StackEngine, ReuseBeyondTrackedDepthStaysAMiss)
{
    // Three aliasing lines cycled through a lattice tracking at most
    // 2 ways: every reuse has stack distance 3, a miss at both
    // associativities even though the lines were seen before.
    const sim::StackPoint one_way{4096, 32, 1};
    const sim::StackPoint two_way{8192, 32, 2};
    sim::StackDistanceEngine eng({one_way, two_way});

    trace::Trace t("cycle3");
    for (int rep = 0; rep < 4; ++rep) {
        for (Addr a : {Addr{0}, Addr{0x1000}, Addr{0x2000}})
            t.push({.addr = a});
    }
    eng.feed(t.data(), t.size());
    EXPECT_EQ(eng.missCount(one_way), 12u);
    EXPECT_EQ(eng.missCount(two_way), 12u);
    EXPECT_EQ(eng.touchedLines(32), 3u);
}

TEST(StackEngine, ReadWriteSplitFollowsTheRecords)
{
    sim::StackDistanceEngine eng({{1024, 32, 1}});
    trace::Trace t("rw");
    t.push({.addr = 0, .type = trace::AccessType::Read});
    t.push({.addr = 32, .type = trace::AccessType::Write});
    t.push({.addr = 0, .type = trace::AccessType::Write});
    eng.feed(t.data(), t.size());
    EXPECT_EQ(eng.reads(), 1u);
    EXPECT_EQ(eng.writes(), 2u);
    EXPECT_EQ(eng.accesses(), 3u);
}

TEST(StackEngine, CoversExactlyTheLatticeGeometries)
{
    sim::StackDistanceEngine eng({{8192, 32, 1}, {8192, 32, 2}});
    EXPECT_TRUE(eng.covers({8192, 32, 1}));
    EXPECT_TRUE(eng.covers({8192, 32, 2}));
    // Same sets (128) as the two-way point at half the size and one
    // way: covered, profilers key on (line, sets) up to max depth.
    EXPECT_TRUE(eng.covers({4096, 32, 1}));
    // Right set count (256), but deeper than the tracked depth there.
    EXPECT_FALSE(eng.covers({16384, 32, 2}));
    EXPECT_FALSE(eng.covers({32768, 32, 4}));
    EXPECT_FALSE(eng.covers({8192, 64, 1})); // other line size
    EXPECT_FALSE(eng.covers({8192, 48, 1})); // non-pow2 line
}

TEST(StackEngine, WellFormedRejectsNonPowerOfTwoGeometry)
{
    EXPECT_TRUE((sim::StackPoint{8192, 32, 1}).wellFormed());
    EXPECT_TRUE((sim::StackPoint{8192, 32, 2}).wellFormed());
    EXPECT_FALSE((sim::StackPoint{8192, 48, 1}).wellFormed());
    EXPECT_FALSE((sim::StackPoint{8192, 32, 0}).wellFormed());
    EXPECT_FALSE((sim::StackPoint{0, 32, 1}).wellFormed());
    // 8192 / (32 * 3) is not integral, let alone a power of two.
    EXPECT_FALSE((sim::StackPoint{8192, 32, 3}).wellFormed());
    // 96 sets: divisible but not a power of two.
    EXPECT_FALSE((sim::StackPoint{96 * 32, 32, 1}).wellFormed());
}

// --- StackDifferential: against exact replay ------------------------

/** Replay @p cfg exactly and diff every stack-derivable count. */
void
expectStackMatchesReplay(const sim::StackDistanceEngine &eng,
                         const trace::Trace &t,
                         const core::Config &cfg)
{
    const sim::RunStats exact = core::simulateTrace(t, cfg);
    const sim::RunStats stack = harness::stackStatsFor(eng, cfg);
    EXPECT_EQ(stack.misses, exact.misses) << cfg.name;
    EXPECT_EQ(stack.accesses, exact.accesses) << cfg.name;
    EXPECT_EQ(stack.reads, exact.reads) << cfg.name;
    EXPECT_EQ(stack.writes, exact.writes) << cfg.name;
    EXPECT_EQ(stack.mainHits, exact.mainHits) << cfg.name;
    EXPECT_EQ(stack.linesFetched, exact.linesFetched) << cfg.name;
    EXPECT_EQ(stack.bytesFetched, exact.bytesFetched) << cfg.name;
    // The derivable metrics are computed from the same integers, so
    // they match as doubles, bit for bit.
    EXPECT_EQ(stack.missRatio(), exact.missRatio()) << cfg.name;
    EXPECT_EQ(stack.wordsFetchedPerAccess(),
              exact.wordsFetchedPerAccess())
        << cfg.name;
    EXPECT_EQ(stack.mainHitShare(), exact.mainHitShare()) << cfg.name;
    EXPECT_EQ(stack.auxHitShare(), exact.auxHitShare()) << cfg.name;
}

TEST(StackDifferential, StandardFamilyPresetsAcrossTheLattice)
{
    const auto &t = mvTrace();
    // Every preset on the Standard feature path, plus the standard
    // baseline at the other physical line sizes of Fig 8b.
    const std::vector<core::Config> bases = {
        core::presets().get("standard"),
        core::presets().get("2way"),
        core::standardWithLineSize(16),
        core::standardWithLineSize(64),
    };
    for (const auto &base : bases) {
        ASSERT_TRUE(harness::stackFamilyEligible(base)) << base.name;
        std::vector<core::Config> cfgs;
        for (const std::uint64_t kb : {2, 4, 8, 16}) {
            for (const std::uint32_t ways : {1u, 2u, 4u})
                cfgs.push_back(latticePoint(base, kb * 1024, ways));
        }
        std::vector<sim::StackPoint> points;
        for (const auto &cfg : cfgs)
            points.push_back(harness::stackPointOf(cfg));
        sim::StackDistanceEngine eng(points);
        trace::MemoryTraceSource src(t);
        eng.run(src);
        for (const auto &cfg : cfgs)
            expectStackMatchesReplay(eng, t, cfg);
    }
}

TEST(StackDifferential, FuzzCorpusStandardSubset)
{
    // The standard-config subset of the fixed-seed 5000-case fuzz
    // corpus (the budget tools/check.sh address replays): for every
    // case whose configuration lands on the Standard feature path,
    // the stack pass must agree with exact replay across a small
    // sets x assoc lattice around the fuzzed geometry. The fuzzed
    // aux/temporal/write-buffer/classifier knobs vary freely, proving
    // the pass folds exactly the fields that cannot matter.
    const check::TraceFuzzer fuzzer;
    std::size_t eligible = 0;
    for (std::uint64_t i = 0; i < 5000; ++i) {
        const check::FuzzCase c = fuzzer.makeCase(i);
        if (!harness::stackFamilyEligible(c.config))
            continue;
        ++eligible;

        std::vector<core::Config> cfgs;
        for (const std::uint64_t size_mult : {1, 4}) {
            for (const std::uint32_t ways : {1u, 2u, 4u}) {
                core::Config cfg = c.config;
                // Keep the fuzzed set count (and 4x it) while the
                // associativity sweeps, so points share profilers.
                cfg.cacheSizeBytes =
                    c.config.cacheSizeBytes * size_mult * ways;
                cfg.assoc = ways;
                cfg.validate();
                cfgs.push_back(std::move(cfg));
            }
        }
        std::vector<sim::StackPoint> points;
        for (const auto &cfg : cfgs)
            points.push_back(harness::stackPointOf(cfg));
        sim::StackDistanceEngine eng(points);
        eng.feed(c.trace.data(), c.trace.size());
        for (const auto &cfg : cfgs)
            expectStackMatchesReplay(eng, c.trace, cfg);
        if (HasFatalFailure() || HasNonfatalFailure())
            FAIL() << "diverged at fuzz case " << i << " (seed "
                   << c.seed << ")";
    }
    // The subset must be a real corpus, not a vacuous filter.
    EXPECT_GE(eligible, 100u);
}

// --- StackKernel: way-array edge cases ------------------------------

/** A trace of one access per address in @p addrs. */
trace::Trace
addressTrace(const std::vector<Addr> &addrs)
{
    trace::Trace t("addrs");
    for (const Addr a : addrs)
        t.push({.addr = a});
    return t;
}

TEST(StackKernel, LineZeroNeverHitsAnEmptyWay)
{
    // A fresh set's way array is zero-filled, and line 0 is a real
    // line address: its first touch must still miss everywhere, as
    // must line 0 arriving in a set that holds only other lines.
    const sim::StackPoint one_way{4096, 32, 1}; // 128 sets
    const sim::StackPoint four_way{16384, 32, 4};
    sim::StackDistanceEngine first({one_way, four_way});
    const auto t0 = addressTrace({0});
    first.feed(t0.data(), t0.size());
    EXPECT_EQ(first.missCount(one_way), 1u);
    EXPECT_EQ(first.missCount(four_way), 1u);

    sim::StackDistanceEngine eng({one_way, four_way});
    // 0x1000 is line 128, set 0 like line 0.
    const auto t = addressTrace({0x1000, 0, 0, 0x1000});
    eng.feed(t.data(), t.size());
    EXPECT_EQ(eng.missCount(four_way), 2u); // two first touches
    EXPECT_EQ(eng.missCount(one_way), 3u);  // ... plus one conflict
    EXPECT_EQ(eng.touchedLines(32), 2u);
}

TEST(StackKernel, OneByteLinesAtTheTopOfTheAddressSpace)
{
    // lineBytes = 1: the line address is the byte address, up to
    // 2^64 - 1, and the highest lines sit in the last bitmap block.
    const sim::StackPoint one_way{8, 1, 1}; // 8 sets
    const sim::StackPoint two_way{16, 1, 2};
    const Addr top = ~Addr{0};
    // top, top - 8 and top - 16 all map to set 7.
    const auto t = addressTrace(
        {top, top - 8, top, top - 8, top - 16, top, top - 1});
    sim::StackDistanceEngine eng({one_way, two_way});
    eng.feed(t.data(), t.size());
    // Two ways: top and top - 8 hit once each; top - 16 evicts top,
    // whose reuse at distance 3 misses; top - 1 is new in set 6.
    EXPECT_EQ(eng.missCount(two_way), 5u);
    EXPECT_EQ(eng.missCount(one_way), 7u); // all alternate in set 7
    EXPECT_EQ(eng.touchedLines(1), 4u);

    // Exact replay agrees, though its empty-way sentinel tag equals
    // the topmost 1-byte line.
    auto cfg = core::presets().get("standard");
    cfg.cacheSizeBytes = 16;
    cfg.lineBytes = 1;
    cfg.assoc = 2;
    cfg.validate();
    ASSERT_TRUE(harness::stackFamilyEligible(cfg));
    expectStackMatchesReplay(eng, t, cfg);
}

TEST(StackKernel, CapOneProfilersMatchReplay)
{
    // Direct-mapped points only: every profiler tracks one way, so
    // every reuse is either the set's sole resident or a miss.
    const sim::StackPoint dm{4096, 32, 1};
    sim::StackDistanceEngine tiny({dm, {8192, 32, 1}});
    const auto t = addressTrace({0, 0, 0x1000, 0, 0x20, 0x20});
    tiny.feed(t.data(), t.size());
    EXPECT_EQ(tiny.missCount(dm), 4u);

    std::vector<core::Config> cfgs;
    for (const std::uint64_t kb : {1, 2, 4, 8, 16})
        cfgs.push_back(
            latticePoint(core::presets().get("standard"), kb * 1024, 1));
    std::vector<sim::StackPoint> points;
    for (const auto &cfg : cfgs)
        points.push_back(harness::stackPointOf(cfg));
    sim::StackDistanceEngine eng(points);
    trace::MemoryTraceSource src(mvTrace());
    eng.run(src);
    for (const auto &cfg : cfgs)
        expectStackMatchesReplay(eng, mvTrace(), cfg);
}

TEST(StackKernel, TouchedLinesAcrossABitmapBlockBoundary)
{
    // Lines 510..513 straddle the 512-line bitmap block boundary;
    // each is touched twice, in both orders across the boundary.
    std::vector<Addr> addrs;
    for (const Addr line : {510, 511, 512, 513, 513, 512, 511, 510})
        addrs.push_back(line * 32);
    const auto t = addressTrace(addrs);
    const std::vector<sim::StackPoint> points = {{1024, 32, 1},
                                                 {4096, 32, 2}};

    sim::StackDistanceEngine whole(points);
    whole.feed(t.data(), t.size());
    EXPECT_EQ(whole.touchedLines(32), 4u);

    for (const unsigned shards : {2u, 3u, 4u}) {
        SCOPED_TRACE("shards " + std::to_string(shards));
        std::vector<sim::StackDistanceEngine> slices;
        for (unsigned s = 0; s < shards; ++s) {
            slices.emplace_back(points, s, shards);
            slices.back().feed(t.data(), t.size());
        }
        for (unsigned s = 1; s < shards; ++s)
            slices[0].absorb(slices[s]);
        EXPECT_EQ(slices[0].touchedLines(32), 4u);
        for (const auto &p : points)
            EXPECT_EQ(slices[0].missCount(p), whole.missCount(p));
    }
}

// --- StackProperty: Mattson inclusion -------------------------------

TEST(StackProperty, MissesMonotoneNonIncreasingInAssocAtFixedSets)
{
    // The inclusion theorem proper: at a fixed set count, the A-way
    // LRU content is a subset of the (A+1)-way content, so misses
    // can only shrink as ways are added.
    const auto &t = mvTrace();
    std::vector<sim::StackPoint> points;
    for (const std::uint32_t ways : {1u, 2u, 4u, 8u})
        points.push_back({std::uint64_t{128} * 32 * ways, 32, ways});
    sim::StackDistanceEngine eng(points);
    trace::MemoryTraceSource src(t);
    eng.run(src);
    for (std::size_t i = 1; i < points.size(); ++i) {
        EXPECT_LE(eng.missCount(points[i]),
                  eng.missCount(points[i - 1]))
            << "assoc " << points[i].assoc;
    }
}

TEST(StackProperty, MissRatioMonotoneNonIncreasingInSizeAtFixedAssoc)
{
    // Mattson inclusion as the figures use it: growing the cache at
    // fixed associativity never hurts on the paper's workloads.
    const auto &t = mvTrace();
    for (const std::uint32_t ways : {1u, 2u}) {
        std::vector<sim::StackPoint> points;
        for (std::uint64_t kb = 1; kb <= 64; kb *= 2)
            points.push_back({kb * 1024, 32, ways});
        sim::StackDistanceEngine eng(points);
        trace::MemoryTraceSource src(t);
        eng.run(src);
        for (std::size_t i = 1; i < points.size(); ++i) {
            EXPECT_LE(eng.missCount(points[i]),
                      eng.missCount(points[i - 1]))
                << "assoc " << ways << ", size "
                << points[i].cacheSizeBytes;
        }
    }
}

// --- StackAnalytic: closed-form independent-reference oracle --------

/**
 * Steady-state miss ratio of an LRU cache of @p cache_lines lines
 * under the independent reference model with uniform references over
 * @p population_lines distinct lines (cache_lines <= population):
 * by symmetry the cache holds a uniform random subset, so a
 * reference hits with probability C/M and
 *
 *     miss ratio = 1 - C / M.
 *
 * (The set-associative bit-selected case factors: each set sees a
 * uniform stream over M/S lines with A ways, giving 1 - A/(M/S) =
 * 1 - C/M again.) This is the "Analytical Studies of Strategies for
 * Utilization of Cache Memory" closed form, reimplemented here from
 * the formula alone — it exercises no simulator or engine code.
 */
double
irmUniformMissRatio(std::uint64_t cache_lines,
                    std::uint64_t population_lines)
{
    return 1.0 - static_cast<double>(cache_lines) /
                     static_cast<double>(population_lines);
}

TEST(StackAnalytic, ConvergesToIndependentReferenceModel)
{
    constexpr std::uint64_t population = 4096; // distinct lines
    constexpr std::uint32_t line = 32;
    constexpr std::uint64_t records = 400000;

    trace::Trace t("uniform-irm");
    t.reserve(records);
    util::Rng rng(0x57ac4a11u);
    for (std::uint64_t i = 0; i < records; ++i)
        t.push({.addr = rng.nextBelow(population) * line});

    // Lattice spanning C = 256 .. 4096 cached lines, mixed sets and
    // ways. The last point holds the whole population: its steady-
    // state miss ratio is 0, measured misses are compulsory only.
    const std::vector<sim::StackPoint> points = {
        {8 * 1024, line, 1},   // C = 256
        {16 * 1024, line, 2},  // C = 512
        {32 * 1024, line, 1},  // C = 1024
        {64 * 1024, line, 4},  // C = 2048
        {128 * 1024, line, 1}, // C = 4096 = population
    };
    sim::StackDistanceEngine eng(points);
    eng.feed(t.data(), t.size());

    for (const auto &p : points) {
        const std::uint64_t cache_lines =
            p.cacheSizeBytes / p.lineBytes;
        const double expected =
            irmUniformMissRatio(cache_lines, population);
        EXPECT_NEAR(eng.missRatio(p), expected, 0.02)
            << "C = " << cache_lines;
    }
}

// --- StackRegression: cacheKey separates folded fields --------------

TEST(StackRegression, CacheKeySeparatesFieldsTheStackPassFolds)
{
    // A stack pass folds away the write buffer, timing and classifier
    // knobs (they cannot change standard-path miss counts). The
    // result caches and manifests must still keep such configs apart:
    // cacheKey() serializes every simulation-relevant field.
    const core::Config a = core::presets().get("standard");
    core::Config b = a;
    b.writeBufferEntries = 64;
    core::Config c = a;
    c.timing.memoryLatency += 10;
    core::Config d = a;
    d.classifyMisses = !a.classifyMisses;

    EXPECT_NE(a.cacheKey(), b.cacheKey());
    EXPECT_NE(a.cacheKey(), c.cacheKey());
    EXPECT_NE(a.cacheKey(), d.cacheKey());
    EXPECT_NE(b.cacheKey(), c.cacheKey());

    // Distinct keys mean distinct manifest cells (the filename hashes
    // the key), even though a stack pass served both from one
    // traversal.
    EXPECT_NE(telemetry::manifestFileName("MV", a.cacheKey()),
              telemetry::manifestFileName("MV", b.cacheKey()));
}

TEST(StackRegression, FoldedConfigsGetDistinctManifestCells)
{
    core::Config a = core::presets().get("standard");
    core::Config b = a;
    b.writeBufferEntries = 64;
    b.name = "Stand. wb=64";

    const std::string dir =
        testing::TempDir() + "sac_stack_manifest_test";
    std::filesystem::remove_all(dir);
    harness::Runner r;
    const auto w = mvWorkload();
    harness::SweepRequest req;
    req.workloads = {w};
    req.configs = {a, b};
    req.metric = harness::missRatioMetric();
    req.telemetry.manifestDir = dir;
    const auto result = r.run(req);
    // Same geometry: one traversal covers both cells.
    EXPECT_EQ(r.stackCounter("stack.pass.traversals"), 1u);
    EXPECT_EQ(r.stackCounter("stack.pass.cells"), 2u);
    EXPECT_EQ(r.runsExecuted(), 0u);

    ASSERT_EQ(result.cells.size(), 2u);
    const auto &pa = result.cells[0].manifestPath;
    const auto &pb = result.cells[1].manifestPath;
    ASSERT_FALSE(pa.empty());
    ASSERT_FALSE(pb.empty());
    EXPECT_NE(pa, pb); // distinct cells, not one overwritten file

    // Each file holds its own config's counts from an independent
    // stack pass, tagged with the engine and the family size.
    sim::StackDistanceEngine eng(
        {harness::stackPointOf(a), harness::stackPointOf(b)});
    trace::MemoryTraceSource src(mvTrace());
    eng.run(src);
    const auto docs = oracle::readManifests(dir);
    for (const auto *cfg : {&a, &b}) {
        SCOPED_TRACE(cfg->name);
        const auto it = docs.find(oracle::fileOf(w.name, *cfg));
        ASSERT_NE(it, docs.end());
        EXPECT_EQ(oracle::stripTiming(it->second),
                  oracle::exactManifest(
                      w.name, *cfg, harness::stackStatsFor(eng, *cfg),
                      harness::EngineTag::StackSinglePass, 2));
        EXPECT_NE(it->second.find("stack-single-pass"),
                  std::string::npos);
        EXPECT_NE(it->second.find("family_size"), std::string::npos);
    }
    std::filesystem::remove_all(dir);
}

// --- StackFamily: harness integration -------------------------------

/** Sweep @p configs over the MV workload on @p jobs workers. */
util::Table
sweepMv(harness::Runner &r, const std::vector<core::Config> &configs,
        const harness::Metric &metric, unsigned jobs)
{
    harness::SweepRequest req;
    req.workloads = {mvWorkload()};
    req.configs = configs;
    req.metric = metric;
    req.jobs = jobs;
    return r.run(req).table;
}

/** The serial-replay oracle table of @p configs over MV. */
std::string
oracleCsv(const std::vector<core::Config> &configs,
          const harness::Metric &metric)
{
    return harness::toCsv(
        oracle::exactTable({mvWorkload()}, configs, metric));
}

TEST(StackFamily, EligibilityFollowsTheStandardFeaturePath)
{
    EXPECT_TRUE(
        harness::stackFamilyEligible(core::presets().get("standard")));
    EXPECT_TRUE(
        harness::stackFamilyEligible(core::presets().get("2way")));
    EXPECT_FALSE(
        harness::stackFamilyEligible(core::presets().get("victim")));
    EXPECT_FALSE(
        harness::stackFamilyEligible(core::presets().get("soft")));
    EXPECT_FALSE(harness::stackFamilyEligible(
        core::presets().get("soft-prefetch")));
    EXPECT_FALSE(
        harness::stackFamilyEligible(core::presets().get("bypass")));
    // Standard feature path, but a different replacement policy: the
    // non-temporal preference must disqualify.
    EXPECT_FALSE(harness::stackFamilyEligible(
        core::presets().get("simplified-soft-2way")));
    // Every eligible preset is on the Standard path (sanity sweep).
    for (const auto &p : core::presets().all()) {
        if (harness::stackFamilyEligible(p.config)) {
            EXPECT_EQ(core::featureSetOf(p.config),
                      core::FeatureSet::Standard)
                << p.key;
        }
    }
}

TEST(StackFamily, OnlyCountMetricsAreStackDerivable)
{
    EXPECT_TRUE(
        harness::stackDerivableMetric(harness::missRatioMetric()));
    EXPECT_TRUE(harness::stackDerivableMetric(
        harness::wordsPerAccessMetric()));
    EXPECT_TRUE(
        harness::stackDerivableMetric(harness::mainHitShareMetric()));
    EXPECT_TRUE(
        harness::stackDerivableMetric(harness::auxHitShareMetric()));
    EXPECT_FALSE(harness::stackDerivableMetric(harness::amatMetric()));
}

TEST(StackFamily, EightCellSweepIsExactlyOneTraversal)
{
    // The acceptance criterion: a standard-family 8-cell sweep
    // performs ONE trace traversal, zero exact replays, and renders
    // byte-identically to the per-config replay path.
    const auto configs = eightCellFamily();
    ASSERT_EQ(configs.size(), 8u);

    harness::Runner stacked;
    const auto table =
        sweepMv(stacked, configs, harness::missRatioMetric(), 4);
    EXPECT_EQ(stacked.stackCounter("stack.pass.traversals"), 1u);
    EXPECT_EQ(stacked.stackCounter("stack.pass.records"),
              mvTrace().size());
    EXPECT_EQ(stacked.stackCounter("stack.pass.cells"), 8u);
    EXPECT_EQ(stacked.stackCounter("stack.pass.fallback_cells"), 0u);
    EXPECT_EQ(stacked.runsExecuted(), 0u);
    EXPECT_EQ(harness::toCsv(table),
              oracleCsv(configs, harness::missRatioMetric()));
}

TEST(StackFamily, SecondSweepServesFromTheStackStore)
{
    const auto configs = eightCellFamily();
    harness::Runner r;
    sweepMv(r, configs, harness::missRatioMetric(), 2);
    const auto words =
        sweepMv(r, configs, harness::wordsPerAccessMetric(), 2);
    // Still one traversal: the second sweep (even under a different
    // derivable metric) is served entirely from the stack store.
    EXPECT_EQ(r.stackCounter("stack.pass.traversals"), 1u);
    EXPECT_EQ(r.stackCounter("stack.pass.cached_cells"), 8u);
    EXPECT_EQ(r.runsExecuted(), 0u);
    EXPECT_EQ(harness::toCsv(words),
              oracleCsv(configs, harness::wordsPerAccessMetric()));
}

TEST(StackFamily, TimingMetricFallsBackToExactReplay)
{
    const auto configs = eightCellFamily();
    harness::Runner r;
    sweepMv(r, configs, harness::amatMetric(), 2);
    EXPECT_EQ(r.stackCounter("stack.pass.traversals"), 0u);
    EXPECT_EQ(r.runsExecuted(), 8u);
}

TEST(StackFamily, MixedSweepSplitsFamilyFromFallback)
{
    // Four standard cells ride the stack pass; the soft and victim
    // cells fall back to exact replay, and the rendered table is
    // byte-identical to the all-replay reference.
    std::vector<core::Config> configs;
    for (const std::uint64_t kb : {4, 8})
        for (const std::uint32_t ways : {1u, 2u})
            configs.push_back(
                latticePoint(core::presets().get("standard"), kb * 1024, ways));
    configs.push_back(core::presets().get("soft"));
    configs.push_back(core::presets().get("victim"));

    harness::Runner r;
    const auto table =
        sweepMv(r, configs, harness::missRatioMetric(), 2);
    EXPECT_EQ(r.stackCounter("stack.pass.traversals"), 1u);
    EXPECT_EQ(r.stackCounter("stack.pass.cells"), 4u);
    EXPECT_EQ(r.stackCounter("stack.pass.fallback_cells"), 2u);
    EXPECT_EQ(r.runsExecuted(), 2u);
    EXPECT_EQ(harness::toCsv(table),
              oracleCsv(configs, harness::missRatioMetric()));
}

TEST(StackFamily, SingleEligibleConfigIsNotWorthAPass)
{
    // A family of one gains nothing over a replay: no stack dispatch.
    harness::Runner r;
    sweepMv(r, {core::presets().get("standard")},
            harness::missRatioMetric(), 1);
    EXPECT_EQ(r.stackCounter("stack.pass.traversals"), 0u);
    EXPECT_EQ(r.runsExecuted(), 1u);
}

TEST(StackFamily, StackStatsNeverPoisonTheExactCellCache)
{
    // After a stack-dispatched sweep, an AMAT sweep over the same
    // cells must replay them exactly — the stack store and the exact
    // cell cache are separate by design.
    const auto configs = eightCellFamily();
    harness::Runner r;
    const auto miss_table =
        sweepMv(r, configs, harness::missRatioMetric(), 2);
    EXPECT_EQ(r.runsExecuted(), 0u);
    const auto amat_table = sweepMv(r, configs, harness::amatMetric(), 2);
    EXPECT_EQ(r.runsExecuted(), 8u); // exact replays really happened

    EXPECT_EQ(harness::toCsv(amat_table),
              oracleCsv(configs, harness::amatMetric()));
    EXPECT_EQ(harness::toCsv(miss_table),
              oracleCsv(configs, harness::missRatioMetric()));
}

} // namespace
