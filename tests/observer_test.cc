/**
 * @file
 * Tests of SoftwareAssistedCache::observe(): the four observers
 * (event tracer, auditor, interval recorder, set profiler) attached
 * together see exactly the detailed accesses made while they are
 * attached, never perturb the simulation on either dispatch path, and
 * a set profiler sized for another cache is rejected.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/check/auditor.hh"
#include "src/core/config.hh"
#include "src/core/soft_cache.hh"
#include "src/sim/run_stats.hh"
#include "src/telemetry/event_trace.hh"
#include "src/telemetry/interval.hh"
#include "src/telemetry/set_profile.hh"
#include "src/workloads/workloads.hh"

namespace {

using namespace sac;
using check::Auditor;
using core::DispatchMode;
using core::SoftwareAssistedCache;
using telemetry::EventKind;
using telemetry::EventTracer;
using telemetry::IntervalRecorder;
using telemetry::SetProfiler;

/** The counters of @p s, in IntervalRecorder::counterNames() order. */
std::vector<std::uint64_t>
counterValues(const sim::RunStats &s)
{
    std::vector<std::uint64_t> out;
    s.forEachCounter([&out](const char *, const char *,
                            std::uint64_t value) { out.push_back(value); });
    return out;
}

/** All four observers of one simulator. */
struct AllObservers
{
    explicit AllObservers(const SoftwareAssistedCache &sim,
                          std::uint64_t interval_records)
        : interval(interval_records),
          profiler(sim.mainArray().numSets())
    {
    }

    core::Observers pointers()
    {
        return {&tracer, &auditor, &interval, &profiler};
    }

    std::uint64_t tally(EventKind k) const
    {
        return tracer.kindTallies()[static_cast<std::size_t>(k)];
    }

    EventTracer tracer{1 << 22};
    Auditor auditor{Auditor::OnViolation::Record};
    IntervalRecorder interval;
    SetProfiler profiler;
};

/** Replay @p t detailed, warming, detailed in three equal parts. */
void
detailedWarmingDetailed(SoftwareAssistedCache &sim, const trace::Trace &t)
{
    const std::size_t third = t.size() / 3;
    sim.runDetailed(t.data(), third);
    sim.runWarming(t.data() + third, third);
    sim.runDetailed(t.data() + 2 * third, t.size() - 2 * third);
    sim.finish();
}

TEST(Observers, AllFourSeeExactlyTheDetailedAccesses)
{
    const auto t = workloads::makeTaggedTrace(workloads::buildMv(48));
    const std::size_t detailed = t.size() - t.size() / 3;
    for (const char *preset : {"soft", "soft-prefetch"}) {
        for (const auto dispatch :
             {DispatchMode::Auto, DispatchMode::General}) {
            SCOPED_TRACE(std::string(preset) +
                         (dispatch == DispatchMode::Auto ? " auto"
                                                         : " general"));
            const auto cfg = core::presets().get(preset);
            SoftwareAssistedCache plain(cfg, dispatch);
            detailedWarmingDetailed(plain, t);

            SoftwareAssistedCache sim(cfg, dispatch);
            AllObservers o(sim, 250);
            sim.observe(o.pointers());
            detailedWarmingDetailed(sim, t);
            const sim::RunStats &s = sim.stats();

            // Observing never changes the simulation.
            EXPECT_EQ(s, plain.stats());
            EXPECT_EQ(s.accesses, detailed);

            // The auditor ran on every detailed access, cleanly.
            EXPECT_EQ(o.auditor.accessesAudited(), detailed);
            EXPECT_EQ(o.auditor.violationCount(), 0u);

            // The tracer's tallies are the detailed counters.
            ASSERT_EQ(o.tracer.dropped(), 0u);
            EXPECT_EQ(o.tally(EventKind::Access), s.accesses);
            EXPECT_EQ(o.tally(EventKind::MainHit), s.mainHits);
            EXPECT_EQ(o.tally(EventKind::AuxHit), s.auxHits);
            EXPECT_EQ(o.tally(EventKind::Swap), s.swaps);
            EXPECT_EQ(o.tally(EventKind::Miss), s.misses);
            EXPECT_EQ(o.tally(EventKind::Bounce), s.bounces);
            EXPECT_EQ(o.tally(EventKind::BounceCancelled),
                      s.bouncesCancelled);
            EXPECT_EQ(o.tally(EventKind::BounceAborted),
                      s.bouncesAborted);
            EXPECT_EQ(o.tally(EventKind::Prefetch), s.prefetchesIssued);
            EXPECT_GT(s.bounces, 0u);

            // The set profiler's totals are the detailed counters.
            EXPECT_EQ(o.profiler.totalAccesses(), s.accesses);
            EXPECT_EQ(o.profiler.totalMisses(), s.misses);
            EXPECT_EQ(o.profiler.totalConflicts(), s.conflictMisses);
            EXPECT_GE(o.profiler.totalEvictions(),
                      o.tally(EventKind::Evict));

            // The interval series covers the detailed accesses and
            // ends on the final statistics.
            ASSERT_FALSE(o.interval.snapshots().empty());
            EXPECT_EQ(o.interval.snapshots().back().endRecord,
                      s.accesses);
            EXPECT_EQ(o.interval.snapshots().back().cumulative, s);
        }
    }
}

TEST(Observers, AttachAndDetachMidRunSeeOnlyTheAttachedAccesses)
{
    const auto t = workloads::makeTaggedTrace(workloads::buildMv(40));
    const auto cfg = core::presets().get("soft");
    const std::size_t third = t.size() / 3;
    const sim::RunStats plain = core::simulateTrace(t, cfg);

    SoftwareAssistedCache sim(cfg);
    AllObservers o(sim, 1);
    sim.replay(t.data(), third);
    const sim::RunStats attached = sim.stats();
    sim.observe(o.pointers());
    for (std::size_t i = third; i < 2 * third; ++i)
        sim.access(t[i]);
    const sim::RunStats detached = sim.stats();
    sim.observe({});
    sim.replay(t.data() + 2 * third, t.size() - 2 * third);
    sim.finish();

    EXPECT_EQ(sim.stats(), plain);
    EXPECT_EQ(o.auditor.accessesAudited(), third);
    EXPECT_EQ(o.auditor.violationCount(), 0u);
    EXPECT_EQ(o.tally(EventKind::Access), third);
    EXPECT_EQ(o.profiler.totalAccesses(), third);
    // One snapshot per observed access; finish() ran detached, so no
    // closing snapshot follows.
    ASSERT_EQ(o.interval.snapshots().size(), third);
    EXPECT_EQ(o.interval.snapshots().front().startRecord, third);
    EXPECT_EQ(o.interval.snapshots().front().endRecord, third + 1);
    EXPECT_EQ(o.interval.snapshots().back().endRecord, 2 * third);
    // The series holds the attached accesses' deltas and nothing
    // from before the attach.
    std::vector<std::uint64_t> observed;
    const auto before = counterValues(attached);
    const auto after = counterValues(detached);
    for (std::size_t i = 0; i < after.size(); ++i)
        observed.push_back(after[i] - before[i]);
    EXPECT_EQ(o.interval.deltaTotals(), observed);
}

TEST(ObserversDeathTest, SetProfilerSizedForAnotherCacheIsRejected)
{
    SoftwareAssistedCache sim(core::presets().get("soft"));
    SetProfiler wrong(sim.mainArray().numSets() / 2);
    EXPECT_DEATH(sim.observe({.setProfiler = &wrong}),
                 "set profiler sized for");
}

} // namespace
