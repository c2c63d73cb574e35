/**
 * @file
 * Tests of the telemetry layer: counter registry semantics and
 * serialization, ring-buffer event tracing, phase timing, run
 * manifests, and the differential guarantee that registry totals
 * exactly match the legacy RunStats fields on real simulations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <sys/resource.h>
#include <vector>

#include "src/core/config.hh"
#include "src/core/soft_cache.hh"
#include "src/harness/sweep.hh"
#include "src/telemetry/counter_registry.hh"
#include "src/telemetry/event_trace.hh"
#include "src/telemetry/manifest.hh"
#include "src/telemetry/phase_timer.hh"
#include "src/util/json.hh"
#include "src/workloads/workloads.hh"

namespace {

using namespace sac;
using telemetry::CounterRegistry;
using telemetry::Event;
using telemetry::EventKind;
using telemetry::EventTracer;
using telemetry::PhaseTimer;

TEST(CounterRegistry, RegisterIncrementAndLookup)
{
    CounterRegistry reg;
    auto &hits = reg.counter("cache.main.hits", "main-cache hits");
    hits += 3;
    ++hits;
    EXPECT_EQ(reg.value("cache.main.hits"), 4u);
    EXPECT_EQ(reg.value("never.registered"), 0u);
    ASSERT_NE(reg.find("cache.main.hits"), nullptr);
    EXPECT_EQ(reg.find("cache.main.hits")->desc, "main-cache hits");
    EXPECT_EQ(reg.find("never.registered"), nullptr);
}

TEST(CounterRegistry, ReRegistrationSharesTheCounter)
{
    CounterRegistry reg;
    auto &a = reg.counter("bounce.done", "bounce-backs");
    auto &b = reg.counter("bounce.done");
    EXPECT_EQ(&a, &b);
    a += 2;
    EXPECT_EQ(b.value, 2u);
    // A later registration may supply the missing description.
    CounterRegistry reg2;
    reg2.counter("x.y");
    reg2.counter("x.y", "late description");
    EXPECT_EQ(reg2.find("x.y")->desc, "late description");
}

TEST(CounterRegistry, ReferencesSurviveManyRegistrations)
{
    CounterRegistry reg;
    auto &first = reg.counter("first", "kept");
    for (int i = 0; i < 1000; ++i)
        reg.counter("c" + std::to_string(i));
    first += 7;
    EXPECT_EQ(reg.value("first"), 7u);
}

TEST(CounterRegistryDeathTest, LeafVersusGroupClashPanics)
{
    CounterRegistry reg;
    reg.counter("cache.main.hits");
    EXPECT_DEATH(reg.counter("cache.main"), "leaf and a group");
    EXPECT_DEATH(reg.counter("cache.main.hits.fast"),
                 "leaf and a group");
}

TEST(CounterRegistry, PrefixTotals)
{
    CounterRegistry reg;
    reg.counter("cache.miss.compulsory") += 2;
    reg.counter("cache.miss.capacity") += 3;
    reg.counter("cache.miss.conflict") += 5;
    reg.counter("cache.main.hits") += 100;
    EXPECT_EQ(reg.total("cache.miss."), 10u);
    EXPECT_EQ(reg.total("cache."), 110u);
    EXPECT_EQ(reg.total("bounce."), 0u);
}

TEST(CounterRegistry, MergeSumsCountersAndHistograms)
{
    CounterRegistry a;
    a.counter("swap.total") += 4;
    a.histogram("lat").sample(3);
    CounterRegistry b;
    b.counter("swap.total") += 6;
    b.counter("only.in.b") += 1;
    b.histogram("lat").sample(5);
    a.merge(b);
    EXPECT_EQ(a.value("swap.total"), 10u);
    EXPECT_EQ(a.value("only.in.b"), 1u);
    EXPECT_EQ(a.findHistogram("lat")->samples, 2u);
    EXPECT_EQ(a.findHistogram("lat")->sum, 8u);
}

TEST(CounterRegistry, GaugesSetAndExportAsGauges)
{
    CounterRegistry reg;
    reg.gauge("queue.depth", "items waiting").set(7);
    reg.gauge("queue.depth").set(3); // a level, not a running total
    reg.counter("queue.pushed") += 10;
    EXPECT_EQ(reg.value("queue.depth"), 3u);
    EXPECT_EQ(reg.find("queue.depth")->kind, telemetry::CounterKind::Gauge);
    const std::string text = reg.toPrometheus("sac");
    EXPECT_NE(text.find("# TYPE sac_queue_depth gauge\nsac_queue_depth 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE sac_queue_pushed counter\n"),
              std::string::npos);

    // Merging takes the other registry's level; counters still add.
    CounterRegistry other;
    other.gauge("queue.depth").set(5);
    other.counter("queue.pushed") += 1;
    reg.merge(other);
    EXPECT_EQ(reg.value("queue.depth"), 5u);
    EXPECT_EQ(reg.value("queue.pushed"), 11u);
}

TEST(CounterRegistryDeathTest, CounterVersusGaugeClashPanics)
{
    CounterRegistry reg;
    reg.counter("queue.pushed");
    reg.gauge("queue.depth");
    EXPECT_DEATH(reg.gauge("queue.pushed"), "both a counter and a gauge");
    EXPECT_DEATH(reg.counter("queue.depth"), "both a counter and a gauge");
}

TEST(Histogram, Log2BucketsAndMean)
{
    telemetry::Histogram h;
    h.sample(0); // bucket 0: [0, 2)
    h.sample(1); // bucket 0
    h.sample(2); // bucket 1: [2, 4)
    h.sample(3); // bucket 1
    h.sample(8); // bucket 3: [8, 16)
    ASSERT_EQ(h.buckets.size(), 4u);
    EXPECT_EQ(h.buckets[0], 2u);
    EXPECT_EQ(h.buckets[1], 2u);
    EXPECT_EQ(h.buckets[2], 0u);
    EXPECT_EQ(h.buckets[3], 1u);
    EXPECT_EQ(h.samples, 5u);
    EXPECT_DOUBLE_EQ(h.mean(), 14.0 / 5.0);
    EXPECT_DOUBLE_EQ(telemetry::Histogram{}.mean(), 0.0);
}

TEST(CounterRegistry, JsonNestsByDottedPath)
{
    CounterRegistry reg;
    reg.counter("cache.main.hits") += 12;
    reg.counter("cache.miss.total") += 3;
    reg.counter("swap.total") += 1;
    const auto j = reg.toJson();
    const auto *cache = j.find("cache");
    ASSERT_NE(cache, nullptr);
    const auto *main = cache->find("main");
    ASSERT_NE(main, nullptr);
    ASSERT_NE(main->find("hits"), nullptr);
    EXPECT_EQ(main->find("hits")->dump(0), "12");
    EXPECT_EQ(j.find("swap")->find("total")->dump(0), "1");
    // Flat form keeps the dotted names literally.
    const auto flat = reg.toFlatJson();
    ASSERT_NE(flat.find("cache.main.hits"), nullptr);
    EXPECT_EQ(flat.find("cache.main.hits")->dump(0), "12");
}

TEST(CounterRegistry, SerializationIsByteStableAcrossRuns)
{
    auto build = [] {
        CounterRegistry reg;
        reg.counter("b.two", "second") += 2;
        reg.counter("a.one", "first") += 1;
        return reg;
    };
    EXPECT_EQ(build().toJson().dump(), build().toJson().dump());
    EXPECT_EQ(build().toCsv(), build().toCsv());
    // Registration order, not alphabetical order, is preserved.
    const auto csv = build().toCsv();
    EXPECT_LT(csv.find("b.two"), csv.find("a.one"));
}

TEST(CounterRegistry, CsvQuotesDescriptionsWithCommas)
{
    CounterRegistry reg;
    reg.counter("a", "plain") += 1;
    reg.counter("b", "with, comma") += 2;
    const auto csv = reg.toCsv();
    EXPECT_NE(csv.find("name,value,description\n"),
              std::string::npos);
    EXPECT_NE(csv.find("a,1,plain\n"), std::string::npos);
    EXPECT_NE(csv.find("b,2,\"with, comma\"\n"), std::string::npos);
}

TEST(Json, EscapesAndFormats)
{
    EXPECT_EQ(util::Json::quote("a\"b\\c\n\t"),
              "\"a\\\"b\\\\c\\n\\t\"");
    util::Json obj = util::Json::object();
    obj.set("s", "x");
    obj.set("n", std::uint64_t{18446744073709551615ull});
    obj.set("i", std::int64_t{-3});
    obj.set("b", true);
    obj.set("d", 0.5);
    EXPECT_EQ(obj.dump(0),
              "{\"s\":\"x\",\"n\":18446744073709551615,\"i\":-3,"
              "\"b\":true,\"d\":0.5}");
    // set() overwrites in place, preserving the member's position.
    obj.set("s", "y");
    EXPECT_EQ(obj.size(), 5u);
    EXPECT_EQ(obj.dump(0).find("\"s\":\"y\""), 1u);
}

TEST(EventTracer, RecordsAndSnapshotsInOrder)
{
    EventTracer tr(8);
    tr.record(EventKind::Access, 10, 0x40, 0);
    tr.record(EventKind::MainHit, 11, 0x40, 0);
    tr.record(EventKind::Miss, 20, 0x80, 2);
    EXPECT_EQ(tr.size(), 3u);
    EXPECT_EQ(tr.recorded(), 3u);
    EXPECT_EQ(tr.dropped(), 0u);
    const auto events = tr.snapshot();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].kind, EventKind::Access);
    EXPECT_EQ(events[0].cycle, 10u);
    EXPECT_EQ(events[2].kind, EventKind::Miss);
    EXPECT_EQ(events[2].arg, 2u);
}

TEST(EventTracer, WrapsAroundKeepingTheMostRecentWindow)
{
    EventTracer tr(4);
    EXPECT_EQ(tr.capacity(), 4u);
    for (std::uint32_t i = 0; i < 10; ++i)
        tr.record(EventKind::Access, i, i * 8, i);
    EXPECT_EQ(tr.size(), 4u);
    EXPECT_EQ(tr.recorded(), 10u);
    EXPECT_EQ(tr.dropped(), 6u);
    const auto events = tr.snapshot();
    ASSERT_EQ(events.size(), 4u);
    // Oldest-first, and only the newest four (cycles 6..9) survive.
    for (std::uint32_t i = 0; i < 4; ++i)
        EXPECT_EQ(events[i].cycle, 6u + i);
}

TEST(EventTracer, ClearAndTinyCapacity)
{
    EventTracer tr(1); // rounded up to the minimum of 2
    EXPECT_GE(tr.capacity(), 2u);
    tr.record(EventKind::Swap, 1, 0, 0);
    tr.clear();
    EXPECT_EQ(tr.size(), 0u);
    EXPECT_EQ(tr.recorded(), 0u);
    EXPECT_TRUE(tr.snapshot().empty());
}

TEST(EventTracer, KindTalliesCoverTheHeldWindow)
{
    EventTracer tr(16);
    tr.record(EventKind::Access, 1, 0, 0);
    tr.record(EventKind::Access, 2, 8, 0);
    tr.record(EventKind::Bounce, 3, 0, 0);
    const auto tallies = tr.kindTallies();
    ASSERT_EQ(tallies.size(), telemetry::numEventKinds);
    EXPECT_EQ(tallies[static_cast<std::size_t>(EventKind::Access)],
              2u);
    EXPECT_EQ(tallies[static_cast<std::size_t>(EventKind::Bounce)],
              1u);
    EXPECT_EQ(tallies[static_cast<std::size_t>(EventKind::Miss)], 0u);
}

TEST(EventTracer, KindNamesAreStable)
{
    EXPECT_STREQ(telemetry::kindName(EventKind::Access), "access");
    EXPECT_STREQ(telemetry::kindName(EventKind::MainHit), "mainHit");
    EXPECT_STREQ(telemetry::kindName(EventKind::Bypass), "bypass");
}

TEST(EventTracer, ChromeExportIsWellFormed)
{
    EventTracer tr(8);
    tr.record(EventKind::Access, 5, 0x100, 1);
    tr.record(EventKind::Miss, 6, 0x100, 1);
    std::ostringstream os;
    tr.exportChromeTrace(os);
    const auto out = os.str();
    EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(out.find("\"s\":\"t\""), std::string::npos);
    EXPECT_NE(out.find("thread_name"), std::string::npos);
    EXPECT_NE(out.find("\"access\""), std::string::npos);
    // Balanced braces/brackets as a cheap well-formedness check.
    EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
              std::count(out.begin(), out.end(), '}'));
    EXPECT_EQ(std::count(out.begin(), out.end(), '['),
              std::count(out.begin(), out.end(), ']'));
}

TEST(PhaseTimer, AccumulatesSecondsAndInvocationsInFirstUseOrder)
{
    PhaseTimer pt;
    pt.add("trace-gen", 0.5);
    pt.add("sim", 1.0);
    pt.add("trace-gen", 0.25);
    pt.count("sim");
    EXPECT_DOUBLE_EQ(pt.seconds("trace-gen"), 0.75);
    EXPECT_DOUBLE_EQ(pt.seconds("sim"), 1.0);
    EXPECT_DOUBLE_EQ(pt.seconds("absent"), 0.0);
    const auto phases = pt.phases();
    ASSERT_EQ(phases.size(), 2u);
    EXPECT_EQ(phases[0].name, "trace-gen");
    EXPECT_EQ(phases[0].invocations, 2u);
    EXPECT_EQ(phases[1].name, "sim");
    EXPECT_EQ(phases[1].invocations, 2u);
    const auto j = pt.toJson();
    ASSERT_NE(j.find("trace-gen"), nullptr);
    ASSERT_NE(j.find("trace-gen")->find("seconds"), nullptr);
}

TEST(PhaseTimer, ScopedPhaseReportsOnDestruction)
{
    PhaseTimer pt;
    {
        telemetry::ScopedPhase p(pt, "scope");
        EXPECT_GE(p.elapsed(), 0.0);
    }
    EXPECT_GT(pt.seconds("scope"), 0.0);
    EXPECT_EQ(pt.phases().at(0).invocations, 1u);
}

TEST(RunStats, PlusEqualsSumsCountersAndMaxesCompletion)
{
    sim::RunStats a;
    a.accesses = 10;
    a.reads = 6;
    a.writes = 4;
    a.mainHits = 7;
    a.misses = 3;
    a.compulsoryMisses = 1;
    a.capacityMisses = 1;
    a.conflictMisses = 1;
    a.bytesFetched = 96;
    a.totalAccessCycles = 40.0;
    a.completionCycle = 100;
    sim::RunStats b;
    b.accesses = 5;
    b.reads = 5;
    b.mainHits = 5;
    b.bytesFetched = 32;
    b.totalAccessCycles = 5.0;
    b.completionCycle = 60;
    a += b;
    EXPECT_EQ(a.accesses, 15u);
    EXPECT_EQ(a.reads, 11u);
    EXPECT_EQ(a.writes, 4u);
    EXPECT_EQ(a.mainHits, 12u);
    EXPECT_EQ(a.misses, 3u);
    EXPECT_EQ(a.bytesFetched, 128u);
    EXPECT_DOUBLE_EQ(a.totalAccessCycles, 45.0);
    EXPECT_EQ(a.completionCycle, 100u); // max, not sum
    // operator+ is += on a copy.
    const auto c = b + b;
    EXPECT_EQ(c.accesses, 10u);
    EXPECT_EQ(c.completionCycle, 60u);
}

TEST(RunStats, AggregateOfRealRunsPreservesDerivedMetricInputs)
{
    const auto t1 =
        workloads::makeTaggedTrace(workloads::buildMv(40));
    const auto t2 =
        workloads::makeTaggedTrace(workloads::buildMv(60));
    const auto s1 = core::simulateTrace(t1, core::presets().get("soft"));
    const auto s2 = core::simulateTrace(t2, core::presets().get("soft"));
    auto sum = s1;
    sum += s2;
    EXPECT_EQ(sum.accesses, s1.accesses + s2.accesses);
    EXPECT_EQ(sum.misses, s1.misses + s2.misses);
    EXPECT_DOUBLE_EQ(sum.totalAccessCycles,
                     s1.totalAccessCycles + s2.totalAccessCycles);
    // The aggregate AMAT is the access-weighted mean of the parts.
    const double expected =
        (s1.totalAccessCycles + s2.totalAccessCycles) /
        static_cast<double>(s1.accesses + s2.accesses);
    EXPECT_DOUBLE_EQ(sum.amat(), expected);
}

/**
 * The tentpole differential guarantee: for real simulations across
 * the paper's configurations, every registry counter equals the
 * legacy RunStats field it mirrors, and the registry group totals
 * recover the cross-field identities.
 */
TEST(RunStatsRegistry, RegistryTotalsMatchLegacyFields)
{
    const auto t =
        workloads::makeTaggedTrace(workloads::buildMv(80));
    const core::Config configs[] = {
        core::presets().get("standard"), core::presets().get("soft"),
        core::presets().get("soft-prefetch")};
    for (const auto &cfg : configs) {
        SCOPED_TRACE(cfg.name);
        const auto s = core::simulateTrace(t, cfg);
        CounterRegistry reg;
        s.registerInto(reg);
        const std::pair<const char *, std::uint64_t> expected[] = {
            {"access.total", s.accesses},
            {"access.reads", s.reads},
            {"access.writes", s.writes},
            {"cache.main.hits", s.mainHits},
            {"cache.aux.hits", s.auxHits},
            {"cache.aux.prefetch_hits", s.auxPrefetchHits},
            {"cache.miss.total", s.misses},
            {"cache.miss.compulsory", s.compulsoryMisses},
            {"cache.miss.capacity", s.capacityMisses},
            {"cache.miss.conflict", s.conflictMisses},
            {"bypass.total", s.bypasses},
            {"bypass.buffer_hits", s.bypassBufferHits},
            {"traffic.lines_fetched", s.linesFetched},
            {"traffic.bytes_fetched", s.bytesFetched},
            {"traffic.bytes_written_back", s.bytesWrittenBack},
            {"vline.fills", s.virtualLineFills},
            {"vline.extra_lines", s.extraLinesFetched},
            {"swap.total", s.swaps},
            {"bounce.done", s.bounces},
            {"bounce.cancelled", s.bouncesCancelled},
            {"bounce.aborted", s.bouncesAborted},
            {"coherence.invalidations", s.coherenceInvalidations},
            {"prefetch.issued", s.prefetchesIssued},
            {"prefetch.useful", s.prefetchesUseful},
            {"prefetch.avoided", s.prefetchesAvoided},
            {"write_buffer.full_stalls", s.writeBufferFullStalls},
            {"time.completion_cycle", s.completionCycle},
        };
        for (const auto &[name, value] : expected) {
            SCOPED_TRACE(name);
            ASSERT_NE(reg.find(name), nullptr);
            EXPECT_FALSE(reg.find(name)->desc.empty());
            EXPECT_EQ(reg.value(name), value);
        }
        // Group totals recover the structural identities.
        EXPECT_EQ(reg.total("access.reads") +
                      reg.total("access.writes"),
                  reg.value("access.total"));
        EXPECT_EQ(reg.total("cache.miss.compulsory") +
                      reg.total("cache.miss.capacity") +
                      reg.total("cache.miss.conflict"),
                  reg.value("cache.miss.total"));
        EXPECT_EQ(reg.value("cache.main.hits") +
                      reg.value("cache.aux.hits") +
                      reg.value("cache.miss.total") +
                      reg.value("bypass.total"),
                  reg.value("access.total"));
    }
}

TEST(RunStatsRegistry, PrefixAndMergeSupportSweepAggregation)
{
    const auto t =
        workloads::makeTaggedTrace(workloads::buildMv(40));
    const auto s1 = core::simulateTrace(t, core::presets().get("standard"));
    const auto s2 = core::simulateTrace(t, core::presets().get("soft"));
    // Merging per-cell registries equals registering the summed stats
    // (completionCycle is a max, so exclude the time group).
    CounterRegistry merged;
    {
        CounterRegistry r1, r2;
        s1.registerInto(r1);
        s2.registerInto(r2);
        merged.merge(r1);
        merged.merge(r2);
    }
    auto sum = s1;
    sum += s2;
    CounterRegistry direct;
    sum.registerInto(direct);
    for (const auto &c : direct.counters()) {
        if (c.name.rfind("time.", 0) == 0)
            continue;
        SCOPED_TRACE(c.name);
        EXPECT_EQ(merged.value(c.name), c.value);
    }
    // Prefixed registration namespaces two runs in one registry.
    CounterRegistry both;
    s1.registerInto(both, "standard.");
    s2.registerInto(both, "soft.");
    EXPECT_EQ(both.value("standard.access.total"), s1.accesses);
    EXPECT_EQ(both.value("soft.access.total"), s2.accesses);
}

/**
 * An observing tracer records exactly the events RunStats counts
 * (capacity chosen to hold the whole run).
 */
TEST(EventTracer, SimulatorEventsMatchRunStats)
{
    const auto t =
        workloads::makeTaggedTrace(workloads::buildMv(60));
    core::SoftwareAssistedCache sim(core::presets().get("soft"));
    EventTracer tr(1 << 22);
    sim.observe({.tracer = &tr});
    sim.run(t);
    sim.finish();
    const auto &s = sim.stats();
    ASSERT_EQ(tr.dropped(), 0u) << "capacity too small for the test";
    const auto tallies = tr.kindTallies();
    auto tally = [&](EventKind k) {
        return tallies[static_cast<std::size_t>(k)];
    };
    EXPECT_EQ(tally(EventKind::Access), s.accesses);
    EXPECT_EQ(tally(EventKind::MainHit), s.mainHits);
    EXPECT_EQ(tally(EventKind::AuxHit), s.auxHits);
    EXPECT_EQ(tally(EventKind::Miss), s.misses);
    EXPECT_EQ(tally(EventKind::Fill), s.linesFetched);
    EXPECT_EQ(tally(EventKind::Swap), s.swaps);
    EXPECT_EQ(tally(EventKind::Bounce), s.bounces);
    EXPECT_EQ(tally(EventKind::BounceCancelled),
              s.bouncesCancelled);
    EXPECT_EQ(tally(EventKind::BounceAborted), s.bouncesAborted);
    EXPECT_EQ(tally(EventKind::Bypass), s.bypasses);
    // Cycle stamps never decrease (accesses arrive in issue order).
    const auto events = tr.snapshot();
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_LE(events[i - 1].cycle, events[i].cycle);
}

TEST(EventTracer, DetachedTracerRecordsNothing)
{
    const auto t =
        workloads::makeTaggedTrace(workloads::buildMv(20));
    core::SoftwareAssistedCache sim(core::presets().get("soft"));
    EventTracer tr;
    sim.observe({.tracer = &tr});
    sim.observe({});
    sim.run(t);
    EXPECT_GT(sim.stats().accesses, 0u);
    EXPECT_EQ(tr.recorded(), 0u);
}

TEST(Manifest, FileNameIsSanitizedAndStable)
{
    const auto a = telemetry::manifestFileName("MV kernel/1",
                                               "key-one");
    const auto b = telemetry::manifestFileName("MV kernel/1",
                                               "key-one");
    const auto c = telemetry::manifestFileName("MV kernel/1",
                                               "key-two");
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_EQ(a.find("MV"), 0u);
    EXPECT_EQ(a.substr(a.size() - 5), ".json");
    EXPECT_EQ(a.find('/'), std::string::npos);
    EXPECT_EQ(a.find(' '), std::string::npos);
}

TEST(Manifest, Fnv1aMatchesReferenceValues)
{
    // Published FNV-1a 64-bit test vectors.
    EXPECT_EQ(telemetry::fnv1a(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(telemetry::fnv1a("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(telemetry::fnv1a("foobar"), 0x85944171f73967e8ull);
}

TEST(Manifest, DocumentCarriesSchemaAndComponents)
{
    telemetry::Manifest m;
    m.workload = "MV";
    m.configName = "Soft.";
    m.cacheKey = "key";
    m.counters.set("access.total", std::uint64_t{42});
    const auto j = telemetry::manifestJson(m);
    ASSERT_NE(j.find("schema"), nullptr);
    EXPECT_EQ(j.find("schema")->dump(0),
              util::Json::quote(telemetry::manifestSchema));
    ASSERT_NE(j.find("git_describe"), nullptr);
    EXPECT_EQ(j.find("workload")->dump(0), "\"MV\"");
    EXPECT_EQ(j.find("config_name")->dump(0), "\"Soft.\"");
    ASSERT_NE(j.find("counters"), nullptr);
    ASSERT_NE(j.find("config"), nullptr);
    ASSERT_NE(j.find("metrics"), nullptr);
    ASSERT_NE(j.find("timing"), nullptr);
}

TEST(Manifest, WritesOneFilePerCellUnderTheGivenDirectory)
{
    const std::string dir =
        testing::TempDir() + "sac_manifest_test";
    telemetry::Manifest m;
    m.workload = "MV";
    m.configName = "Stand.";
    m.cacheKey = "k1";
    const auto path = telemetry::writeManifestFile(dir, m);
    ASSERT_FALSE(path.empty());
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream content;
    content << in.rdbuf();
    EXPECT_NE(content.str().find(telemetry::manifestSchema),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(Manifest, FailedWriteKeepsThePreviousManifest)
{
    const std::filesystem::path dir =
        std::filesystem::path(testing::TempDir()) / "manifest_atomic";
    std::filesystem::remove_all(dir);
    telemetry::Manifest m;
    m.workload = "MV";
    m.configName = "Stand.";
    m.cacheKey = "k-atomic";
    const std::string path = telemetry::writeManifestFile(dir.string(), m);
    ASSERT_FALSE(path.empty());
    const std::string before = telemetry::manifestDocument(m);

    // Simulate a full disk: cap the size of any file this process
    // writes below the document's, so the rewrite fails mid-write
    // (EFBIG instead of SIGXFSZ), then lift the cap again.
    telemetry::Manifest changed = m;
    changed.configName = "Stand. (rewritten)";
    struct rlimit saved;
    ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
    const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
    struct rlimit capped = saved;
    capped.rlim_cur = 16;
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);
    const std::string failed =
        telemetry::writeManifestFile(dir.string(), changed);
    ::setrlimit(RLIMIT_FSIZE, &saved);
    std::signal(SIGXFSZ, old_handler);
    EXPECT_EQ(failed, "");

    // A target that cannot be replaced fails at the rename instead.
    telemetry::Manifest blocked = m;
    blocked.cacheKey = "k-blocked";
    const auto blocked_path =
        dir / telemetry::manifestFileName(blocked.workload,
                                          blocked.cacheKey);
    std::filesystem::create_directories(blocked_path / "occupied");
    EXPECT_EQ(telemetry::writeManifestFile(dir.string(), blocked), "");

    std::ifstream in(path);
    std::stringstream content;
    content << in.rdbuf();
    EXPECT_EQ(content.str(), before);
    std::vector<std::string> left;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        left.push_back(entry.path().filename().string());
    std::sort(left.begin(), left.end());
    std::vector<std::string> expected{
        std::filesystem::path(path).filename().string(),
        blocked_path.filename().string()};
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(left, expected) << "no temporary file may be left";
    std::filesystem::remove_all(dir);
}

TEST(Manifest, CellManifestRoundTripsCountersAndMetrics)
{
    const auto t =
        workloads::makeTaggedTrace(workloads::buildMv(40));
    const auto cfg = core::presets().get("soft");
    const auto s = core::simulateTrace(t, cfg);
    const std::string dir =
        testing::TempDir() + "sac_cell_manifest_test";
    util::Json extra = util::Json::object();
    extra.set("sweep_jobs", std::uint64_t{4});
    harness::ManifestCell cell;
    cell.workload = "MV";
    cell.config = &cfg;
    cell.stats = &s;
    cell.simSeconds = 0.125;
    cell.extraTiming = &extra;
    const auto path = harness::writeCellManifest(
        dir, cell, harness::EngineTag::ExactReplay);
    ASSERT_FALSE(path.empty());
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream content;
    content << in.rdbuf();
    const auto doc = content.str();
    // The document names the run and embeds the exact counter values.
    EXPECT_NE(doc.find("\"workload\": \"MV\""), std::string::npos);
    EXPECT_NE(doc.find(cfg.name), std::string::npos);
    EXPECT_NE(doc.find("\"total\": " + std::to_string(s.accesses)),
              std::string::npos);
    EXPECT_NE(doc.find("\"amat\""), std::string::npos);
    EXPECT_NE(doc.find("\"sim_seconds\": 0.125"), std::string::npos);
    EXPECT_NE(doc.find("\"sweep_jobs\": 4"), std::string::npos);
    EXPECT_NE(doc.find("\"line_bytes\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(Runner, PhasesAccountForTraceGenAndSim)
{
    harness::Runner r;
    std::vector<harness::Workload> ws{
        {"W",
         [] {
             return workloads::makeTaggedTrace(
                 workloads::buildMv(30));
         },
         nullptr}};
    r.warmup(ws);
    EXPECT_GT(r.phases().seconds("trace-gen"), 0.0);
    EXPECT_GT(r.phases().seconds("warmup"), 0.0);
    const auto &cell = r.cell(ws[0], core::presets().get("soft"));
    EXPECT_GT(cell.stats.accesses, 0u);
    EXPECT_GE(cell.simSeconds, 0.0);
    EXPECT_GT(r.phases().seconds("sim"), 0.0);
    harness::SweepRequest req;
    req.workloads = ws;
    req.configs = {core::presets().get("soft")};
    req.metric = harness::amatMetric();
    req.jobs = 2;
    const auto result = r.run(req);
    EXPECT_EQ(result.table.rows(), 1u);
    EXPECT_GT(r.phases().seconds("report"), 0.0);
    const auto &sweep = result.timing;
    EXPECT_EQ(sweep.jobs, 2u);
    EXPECT_GE(sweep.wallSeconds, 0.0);
    EXPECT_GE(sweep.utilization(), 0.0);
    EXPECT_LE(sweep.utilization(), 1.0 + 1e-9);
}

TEST(Histogram, PercentilesInterpolateWithinLog2Buckets)
{
    // 1024 uniform samples 0..1023: the median is the 512th rank,
    // which interpolation places exactly on a value of 512.
    telemetry::Histogram h;
    for (std::uint64_t v = 0; v < 1024; ++v)
        h.sample(v);
    EXPECT_DOUBLE_EQ(h.percentile(0.50), 512.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.95), 972.8);
    // Percentiles are monotone and bounded by the bucket range.
    EXPECT_LE(h.percentile(0.50), h.percentile(0.95));
    EXPECT_LE(h.percentile(0.95), h.percentile(0.99));
    EXPECT_LE(h.percentile(0.99), h.percentile(1.0));
    EXPECT_LE(h.percentile(1.0), 1024.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
    // Out-of-range p clamps instead of misbehaving.
    EXPECT_DOUBLE_EQ(h.percentile(-1.0), h.percentile(0.0));
    EXPECT_DOUBLE_EQ(h.percentile(2.0), h.percentile(1.0));
}

TEST(Histogram, PercentileEdgeCases)
{
    EXPECT_DOUBLE_EQ(telemetry::Histogram{}.percentile(0.5), 0.0);
    // A single sample stays inside its bucket: 7 lives in [4, 8).
    telemetry::Histogram one;
    one.sample(7);
    EXPECT_GT(one.percentile(0.5), 0.0);
    EXPECT_LE(one.percentile(0.5), 8.0);
    EXPECT_DOUBLE_EQ(one.percentile(1.0), 8.0);
    // A spike histogram reports the spike's bucket at every p.
    telemetry::Histogram spike;
    for (int i = 0; i < 100; ++i)
        spike.sample(16);
    EXPECT_GE(spike.percentile(0.01), 16.0);
    EXPECT_LE(spike.percentile(0.99), 32.0);
}

TEST(Histogram, JsonCarriesThePercentiles)
{
    CounterRegistry reg;
    for (std::uint64_t v = 0; v < 64; ++v)
        reg.histogram("lat", "latency").sample(v);
    const auto doc = reg.toJson().dump(0);
    EXPECT_NE(doc.find("\"p50\""), std::string::npos);
    EXPECT_NE(doc.find("\"p95\""), std::string::npos);
    EXPECT_NE(doc.find("\"p99\""), std::string::npos);
}

TEST(CounterRegistry, PrometheusExpositionFormat)
{
    CounterRegistry reg;
    reg.counter("cache.main.hits", "main-cache hits") += 42;
    reg.counter("9starts.with-digit") += 1;
    auto &h = reg.histogram("swap.latency", "swap cycles");
    h.sample(1); // bucket 0: le 1
    h.sample(2); // bucket 1: le 3
    h.sample(3); // bucket 1

    const std::string text = reg.toPrometheus("sac");
    EXPECT_NE(text.find("# HELP sac_cache_main_hits main-cache hits\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE sac_cache_main_hits counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("sac_cache_main_hits 42\n"),
              std::string::npos);
    // Sanitization: dots and dashes become underscores, and a name
    // that would start with a digit is prefixed.
    EXPECT_NE(text.find("_9starts_with_digit 1\n"), std::string::npos);
    // Histogram buckets are cumulative with inclusive le bounds.
    EXPECT_NE(text.find("# TYPE sac_swap_latency histogram\n"),
              std::string::npos);
    EXPECT_NE(text.find("sac_swap_latency_bucket{le=\"1\"} 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("sac_swap_latency_bucket{le=\"3\"} 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("sac_swap_latency_bucket{le=\"+Inf\"} 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("sac_swap_latency_sum 6\n"),
              std::string::npos);
    EXPECT_NE(text.find("sac_swap_latency_count 3\n"),
              std::string::npos);

    // An ostream and the string helper agree; empty prefix works.
    std::ostringstream os;
    reg.writePrometheus(os, "sac");
    EXPECT_EQ(os.str(), text);
    EXPECT_NE(reg.toPrometheus("").find("cache_main_hits 42\n"),
              std::string::npos);
}

TEST(EventTracer, WrapsCorrectlyAtARuntimeConfiguredBoundary)
{
    // Regression guard for the runtime-sized ring: an odd, small
    // capacity must still keep exactly the newest window in order.
    EXPECT_EQ(EventTracer().capacity(), EventTracer::defaultCapacity);
    EventTracer tr(5);
    ASSERT_EQ(tr.capacity(), 5u);
    for (std::uint32_t i = 0; i < 13; ++i)
        tr.record(EventKind::Access, i, i * 8, i);
    EXPECT_EQ(tr.size(), 5u);
    EXPECT_EQ(tr.recorded(), 13u);
    EXPECT_EQ(tr.dropped(), 8u);
    const auto events = tr.snapshot();
    ASSERT_EQ(events.size(), 5u);
    for (std::uint32_t i = 0; i < 5; ++i) {
        EXPECT_EQ(events[i].cycle, 8u + i);
        EXPECT_EQ(events[i].arg, 8u + i);
    }

    // The minimum capacity clamp holds for runtime values too.
    EXPECT_GE(EventTracer(1).capacity(), 2u);
}

TEST(PhaseTimer, NestedScopedPhasesAccumulateIndependently)
{
    PhaseTimer pt;
    {
        telemetry::ScopedPhase outer(pt, "outer");
        {
            telemetry::ScopedPhase inner(pt, "inner");
        }
        {
            telemetry::ScopedPhase inner(pt, "inner");
        }
    }
    // The outer scope covers both inner scopes, so its time
    // dominates; the inner phase saw two invocations.
    EXPECT_GE(pt.seconds("outer"), pt.seconds("inner"));
    const auto phases = pt.phases();
    ASSERT_EQ(phases.size(), 2u);
    EXPECT_EQ(phases[0].name, "inner"); // first to *finish* reports first
    EXPECT_EQ(phases[0].invocations, 2u);
    EXPECT_EQ(phases[1].name, "outer");
    EXPECT_EQ(phases[1].invocations, 1u);
}

TEST(PhaseTimer, SelfNestingAccumulatesEveryLevel)
{
    PhaseTimer pt;
    {
        telemetry::ScopedPhase a(pt, "sim");
        {
            telemetry::ScopedPhase b(pt, "sim");
        }
    }
    EXPECT_EQ(pt.phases().size(), 1u);
    EXPECT_EQ(pt.phases().at(0).invocations, 2u);
    EXPECT_GT(pt.seconds("sim"), 0.0);
}

TEST(Runner, WorkerUtilizationAccountsBusyTimeAgainstTheWall)
{
    harness::Runner r;
    std::vector<harness::Workload> ws{
        {"A",
         [] {
             return workloads::makeTaggedTrace(
                 workloads::buildMv(40));
         },
         nullptr},
        {"B",
         [] {
             return workloads::makeTaggedTrace(
                 workloads::buildMv(28));
         },
         nullptr}};
    r.warmup(ws);
    const std::vector<core::Config> cfgs{core::presets().get("soft"),
                                         core::presets().get("standard")};
    harness::SweepRequest req;
    req.workloads = ws;
    req.configs = cfgs;
    req.metric = harness::amatMetric();
    req.jobs = 2;
    const auto sweep = r.run(req).timing;
    EXPECT_EQ(sweep.jobs, 2u);
    EXPECT_GT(sweep.wallSeconds, 0.0);
    // Four cells were simulated, so workers accumulated busy time,
    // and summed busy time can never exceed jobs x wall time.
    EXPECT_GT(sweep.busySeconds, 0.0);
    EXPECT_LE(sweep.busySeconds,
              sweep.jobs * sweep.wallSeconds * (1.0 + 1e-9));
    EXPECT_GT(sweep.utilization(), 0.0);
    EXPECT_LE(sweep.utilization(), 1.0 + 1e-9);

    // A serial sweep accounts the same way with one worker.
    harness::Runner serial;
    serial.warmup(ws);
    req.jobs = 1;
    const auto s1 = serial.run(req).timing;
    EXPECT_EQ(s1.jobs, 1u);
    EXPECT_GT(s1.busySeconds, 0.0);
    EXPECT_LE(s1.utilization(), 1.0 + 1e-9);
}

} // namespace
