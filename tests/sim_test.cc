/**
 * @file
 * Unit tests for src/sim: timing parameters, the write buffer, the
 * three-C miss classifier and the run statistics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <set>
#include <sstream>

#include "src/sim/miss_classifier.hh"
#include "src/sim/run_stats.hh"
#include "src/sim/timing.hh"
#include "src/sim/write_buffer.hh"
#include "src/util/rng.hh"

namespace {

using sac::sim::MissClass;
using sac::sim::MissClassifier;
using sac::sim::ShadowOutcome;
using sac::sim::RunStats;
using sac::sim::TimingParams;
using sac::sim::WriteBuffer;

TEST(TimingParams, PaperDefaults)
{
    const TimingParams t;
    EXPECT_EQ(t.memoryLatency, 20u);
    EXPECT_EQ(t.busBytesPerCycle, 16u);
    EXPECT_EQ(t.mainHitTime, 1u);
    EXPECT_EQ(t.auxHitTime, 3u);
}

TEST(TimingParams, TransferCyclesRoundUp)
{
    const TimingParams t;
    EXPECT_EQ(t.transferCycles(32), 2u);
    EXPECT_EQ(t.transferCycles(8), 1u);
    EXPECT_EQ(t.transferCycles(17), 2u);
    EXPECT_EQ(t.transferCycles(0), 0u);
}

TEST(TimingParams, MissPenaltyFormula)
{
    // Paper Section 2.1: tlat + n*LS/wb. Loading a 256-byte virtual
    // line takes 14 more cycles than a 32-byte physical line.
    const TimingParams t;
    EXPECT_EQ(t.missPenalty(1, 32), 22u);
    EXPECT_EQ(t.missPenalty(8, 32), 36u);
    EXPECT_EQ(t.missPenalty(8, 32) - t.missPenalty(1, 32), 14u);
}

TEST(WriteBufferTest, PushPopFifo)
{
    WriteBuffer wb(4);
    EXPECT_TRUE(wb.empty());
    wb.push(32);
    wb.push(8);
    EXPECT_EQ(wb.occupancy(), 2u);
    EXPECT_EQ(wb.pop(), 32u);
    EXPECT_EQ(wb.pop(), 8u);
    EXPECT_TRUE(wb.empty());
}

TEST(WriteBufferTest, FullDetection)
{
    WriteBuffer wb(2);
    wb.push(32);
    wb.push(32);
    EXPECT_TRUE(wb.full());
    wb.pop();
    EXPECT_FALSE(wb.full());
}

TEST(WriteBufferTest, DrainAllReturnsTotalBytes)
{
    WriteBuffer wb(8);
    wb.push(32);
    wb.push(32);
    wb.push(8);
    EXPECT_EQ(wb.drainAll(), 72u);
    EXPECT_TRUE(wb.empty());
    EXPECT_EQ(wb.totalBytesPushed(), 72u);
}

TEST(WriteBufferTest, WrapAround)
{
    WriteBuffer wb(3);
    for (int round = 0; round < 5; ++round) {
        wb.push(static_cast<std::uint32_t>(round + 1));
        EXPECT_EQ(wb.pop(), static_cast<std::uint32_t>(round + 1));
    }
}

TEST(WriteBufferTest, PushWhenFullPanics)
{
    WriteBuffer wb(1);
    wb.push(32);
    EXPECT_DEATH(wb.push(32), "full write buffer");
}

TEST(WriteBufferTest, PopWhenEmptyPanics)
{
    WriteBuffer wb(1);
    EXPECT_DEATH(wb.pop(), "empty write buffer");
}

TEST(WriteBufferTest, WrapAroundAtFullOccupancy)
{
    // Advance head_ to the last slot, then fill the whole ring so the
    // occupied region wraps past the end of the backing array.
    WriteBuffer wb(64);
    for (int i = 0; i < 63; ++i) {
        wb.push(1);
        wb.pop();
    }
    for (std::uint32_t i = 0; i < 64; ++i)
        wb.push(i + 1);
    EXPECT_TRUE(wb.full());
    EXPECT_EQ(wb.occupancy(), 64u);
    // FIFO order must survive the wraparound.
    for (std::uint32_t i = 0; i < 64; ++i)
        EXPECT_EQ(wb.pop(), i + 1);
    EXPECT_TRUE(wb.empty());
}

TEST(MissClassifierTest, FirstTouchIsCompulsory)
{
    MissClassifier mc(4, 32);
    EXPECT_EQ(mc.access(0, true), MissClass::Compulsory);
    EXPECT_EQ(mc.access(32, true), MissClass::Compulsory);
    EXPECT_EQ(mc.touchedLines(), 2u);
}

TEST(MissClassifierTest, SameLineNotCompulsoryTwice)
{
    MissClassifier mc(4, 32);
    mc.access(0, true);
    EXPECT_NE(mc.access(0, true), MissClass::Compulsory);
    // Two addresses in the same line count as one touched line.
    mc.access(40, true);
    mc.access(63, true);
    EXPECT_EQ(mc.touchedLines(), 2u);
}

TEST(MissClassifierTest, CapacityWhenShadowLruMisses)
{
    MissClassifier mc(2, 32); // 2-line fully-associative shadow
    mc.access(0, true);
    mc.access(32, true);
    mc.access(64, true); // shadow now {64, 32}; 0 evicted
    EXPECT_EQ(mc.access(0, true), MissClass::Capacity);
}

TEST(MissClassifierTest, ConflictWhenShadowLruHits)
{
    MissClassifier mc(4, 32);
    mc.access(0, true);
    mc.access(32, true);
    // Line 0 is still in the 4-line shadow: a real-cache miss on it
    // must be a mapping conflict.
    EXPECT_EQ(mc.access(0, true), MissClass::Conflict);
}

TEST(MissClassifierTest, HitsUpdateShadowRecency)
{
    MissClassifier mc(2, 32);
    mc.access(0, true);
    mc.access(32, true);
    mc.access(0, false); // hit refreshes line 0; 32 is now LRU
    mc.access(64, true); // evicts 32 from the shadow
    EXPECT_EQ(mc.access(0, true), MissClass::Conflict);
    EXPECT_EQ(mc.access(32, true), MissClass::Capacity);
}

TEST(MissClassifierTest, HitsAreNeverClassified)
{
    MissClassifier mc(4, 32);
    EXPECT_EQ(mc.access(0, true), MissClass::Compulsory);
    // A hit updates the shadow LRU but must produce no miss class;
    // counting it would inflate the conflict bucket.
    EXPECT_EQ(mc.access(0, false), std::nullopt);
    EXPECT_EQ(mc.access(32, false), std::nullopt);
}

/** Textbook shadow: a seen-set plus a std::list fully-assoc. LRU. */
class ReferenceShadow
{
  public:
    ReferenceShadow(std::size_t capacity, std::uint32_t line_bytes)
        : capacity_(capacity), lineBytes_(line_bytes)
    {
    }

    ShadowOutcome
    outcome(sac::Addr addr)
    {
        const sac::Addr line = addr / lineBytes_;
        const bool first = seen_.insert(line).second;
        const auto it = std::find(lru_.begin(), lru_.end(), line);
        const bool hit = it != lru_.end();
        if (hit)
            lru_.erase(it);
        else if (lru_.size() == capacity_)
            lru_.pop_back();
        lru_.push_front(line);
        if (first)
            return ShadowOutcome::FirstTouch;
        return hit ? ShadowOutcome::ShadowHit : ShadowOutcome::ShadowMiss;
    }

  private:
    std::size_t capacity_;
    std::uint32_t lineBytes_;
    std::set<sac::Addr> seen_;
    std::list<sac::Addr> lru_;
};

TEST(MissClassifierTest, OutcomeMatchesAccess)
{
    // Fuzzed streams over a small line footprint (so the shadow both
    // hits and evicts) plus far outliers (so the table grows). The
    // split classifier (outcome, then classOf) must agree with
    // access() and with a textbook shadow on every record, and the
    // batch shadowPass() with the per-access outcomes.
    sac::util::Rng rng(0x3c0de);
    for (const std::uint32_t capacity : {1u, 2u, 256u}) {
        for (const std::uint32_t line_bytes : {1u, 32u, 64u}) {
            SCOPED_TRACE(testing::Message() << "capacity " << capacity
                                            << " line " << line_bytes);
            MissClassifier split(capacity, line_bytes);
            MissClassifier whole(capacity, line_bytes);
            ReferenceShadow reference(capacity, line_bytes);
            sac::trace::Trace t("fuzz");
            std::vector<ShadowOutcome> live;
            const std::uint64_t footprint = 3ull * capacity * line_bytes;
            for (int i = 0; i < 20000; ++i) {
                sac::trace::Record rec;
                rec.addr = rng.nextBool(0.05)
                               ? rng.next() >> 8
                               : rng.nextBelow(footprint + line_bytes);
                const bool was_miss = rng.nextBool(0.5);
                const ShadowOutcome o = split.outcome(rec.addr);
                ASSERT_EQ(o, reference.outcome(rec.addr)) << "record " << i;
                ASSERT_EQ(sac::sim::classOf(o, was_miss),
                          whole.access(rec.addr, was_miss))
                    << "record " << i;
                live.push_back(o);
                t.push(rec);
            }
            EXPECT_EQ(split.touchedLines(), whole.touchedLines());
            EXPECT_EQ(sac::sim::shadowPass(t, capacity, line_bytes), live);
        }
    }
}

TEST(RunStatsTest, DerivedMetrics)
{
    RunStats s;
    s.accesses = 100;
    s.mainHits = 80;
    s.auxHits = 10;
    s.misses = 10;
    s.bytesFetched = 320; // 80 words
    s.totalAccessCycles = 250.0;
    EXPECT_DOUBLE_EQ(s.amat(), 2.5);
    EXPECT_DOUBLE_EQ(s.missRatio(), 0.1);
    EXPECT_DOUBLE_EQ(s.hitRatio(), 0.9);
    EXPECT_DOUBLE_EQ(s.mainHitShare(), 80.0 / 90.0);
    EXPECT_DOUBLE_EQ(s.auxHitShare(), 10.0 / 90.0);
    EXPECT_DOUBLE_EQ(s.wordsFetchedPerAccess(), 0.8);
}

TEST(RunStatsTest, EmptyStatsAreZero)
{
    const RunStats s;
    EXPECT_DOUBLE_EQ(s.amat(), 0.0);
    EXPECT_DOUBLE_EQ(s.missRatio(), 0.0);
    EXPECT_DOUBLE_EQ(s.wordsFetchedPerAccess(), 0.0);
}

TEST(RunStatsTest, BypassesCountTowardMissRatio)
{
    RunStats s;
    s.accesses = 10;
    s.misses = 1;
    s.bypasses = 2;
    EXPECT_DOUBLE_EQ(s.missRatio(), 0.3);
}

TEST(RunStatsTest, PrintMentionsKeyCounters)
{
    RunStats s;
    s.accesses = 42;
    s.mainHits = 40;
    s.misses = 2;
    std::ostringstream os;
    s.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("AMAT"), std::string::npos);
    EXPECT_NE(out.find("42"), std::string::npos);
    EXPECT_NE(out.find("bounce-backs"), std::string::npos);
}

} // namespace
