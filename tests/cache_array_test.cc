/**
 * @file
 * Unit tests for the set-associative cache storage and its
 * replacement policies.
 */

#include <gtest/gtest.h>

#include "src/cache/cache_array.hh"

namespace {

using sac::Addr;
using sac::cache::CacheArray;
using sac::cache::LineState;
using sac::cache::ReplacementPolicy;

TEST(CacheArray, GeometryDirectMapped)
{
    CacheArray c(8192, 32, 1);
    EXPECT_EQ(c.numSets(), 256u);
    EXPECT_EQ(c.assoc(), 1u);
    EXPECT_EQ(c.lineBytes(), 32u);
    EXPECT_EQ(c.sizeBytes(), 8192u);
}

TEST(CacheArray, GeometryFullyAssociative)
{
    CacheArray c(256, 32, 8);
    EXPECT_EQ(c.numSets(), 1u);
    EXPECT_EQ(c.assoc(), 8u);
}

TEST(CacheArray, AddressMapping)
{
    CacheArray c(8192, 32, 1);
    EXPECT_EQ(c.lineAddrOf(0), 0u);
    EXPECT_EQ(c.lineAddrOf(31), 0u);
    EXPECT_EQ(c.lineAddrOf(32), 1u);
    EXPECT_EQ(c.byteAddrOf(3), 96u);
    // Lines 0 and 256 share set 0 in a 256-set cache.
    EXPECT_EQ(c.setIndexOf(0), c.setIndexOf(256));
    EXPECT_NE(c.setIndexOf(0), c.setIndexOf(1));
}

TEST(CacheArray, InsertAndFind)
{
    CacheArray c(8192, 32, 1);
    EXPECT_FALSE(c.contains(5));
    const LineState evicted = c.insert(5, ReplacementPolicy::Lru);
    EXPECT_FALSE(evicted.valid);
    EXPECT_TRUE(c.contains(5));
    ASSERT_TRUE(c.find(5).has_value());
    EXPECT_EQ(c.find(5)->lineAddr(), 5u);
    EXPECT_FALSE(c.find(5)->dirty());
    EXPECT_EQ(c.validCount(), 1u);
}

TEST(CacheArray, TopmostOneByteLineIsNotAnEmptyWay)
{
    // With 1-byte lines, byte 2^64 - 1 is line 2^64 - 1, the same
    // value empty ways store as their tag: it must still miss until
    // inserted.
    CacheArray c(16, 1, 2);
    const Addr top = ~Addr{0};
    EXPECT_EQ(c.lineAddrOf(top), top);
    EXPECT_FALSE(c.contains(top));
    c.insert(top, ReplacementPolicy::Lru);
    ASSERT_TRUE(c.find(top).has_value());
    EXPECT_EQ(c.find(top)->lineAddr(), top);
    EXPECT_EQ(c.validCount(), 1u);
}

TEST(CacheArray, DirectMappedConflictEvicts)
{
    CacheArray c(8192, 32, 1);
    c.insert(0, ReplacementPolicy::Lru);
    c.find(0)->setDirty();
    const LineState evicted = c.insert(256, ReplacementPolicy::Lru);
    EXPECT_TRUE(evicted.valid);
    EXPECT_EQ(evicted.lineAddr, 0u);
    EXPECT_TRUE(evicted.dirty);
    EXPECT_FALSE(c.contains(0));
    EXPECT_TRUE(c.contains(256));
}

TEST(CacheArray, LruEvictsOldest)
{
    CacheArray c(128, 32, 4); // one set, 4 ways
    c.insert(1, ReplacementPolicy::Lru);
    c.insert(2, ReplacementPolicy::Lru);
    c.insert(3, ReplacementPolicy::Lru);
    c.insert(4, ReplacementPolicy::Lru);
    const LineState evicted = c.insert(5, ReplacementPolicy::Lru);
    EXPECT_EQ(evicted.lineAddr, 1u);
}

TEST(CacheArray, TouchRefreshesLru)
{
    CacheArray c(128, 32, 4);
    c.insert(1, ReplacementPolicy::Lru);
    c.insert(2, ReplacementPolicy::Lru);
    c.insert(3, ReplacementPolicy::Lru);
    c.insert(4, ReplacementPolicy::Lru);
    c.touch(0, *c.findWay(1)); // 1 becomes MRU; 2 is now LRU
    const LineState evicted = c.insert(5, ReplacementPolicy::Lru);
    EXPECT_EQ(evicted.lineAddr, 2u);
}

TEST(CacheArray, InvalidWaysPreferredOverEviction)
{
    CacheArray c(128, 32, 4);
    c.insert(1, ReplacementPolicy::Lru);
    c.invalidate(1);
    c.insert(2, ReplacementPolicy::Lru);
    EXPECT_EQ(c.validCount(), 1u);
    const LineState evicted = c.insert(3, ReplacementPolicy::Lru);
    EXPECT_FALSE(evicted.valid);
}

TEST(CacheArray, PreferNonTemporalReplacement)
{
    CacheArray c(128, 32, 4);
    c.insert(1, ReplacementPolicy::Lru);
    c.insert(2, ReplacementPolicy::Lru);
    c.insert(3, ReplacementPolicy::Lru);
    c.insert(4, ReplacementPolicy::Lru);
    // 1 and 2 (the LRU ones) are temporal; 3 is the LRU non-temporal.
    c.find(1)->setTemporal();
    c.find(2)->setTemporal();
    const LineState evicted =
        c.insert(5, ReplacementPolicy::LruPreferNonTemporal);
    EXPECT_EQ(evicted.lineAddr, 3u);
}

TEST(CacheArray, PreferNonTemporalFallsBackToLru)
{
    CacheArray c(128, 32, 4);
    for (Addr a = 1; a <= 4; ++a) {
        c.insert(a, ReplacementPolicy::Lru);
        c.find(a)->setTemporal();
    }
    const LineState evicted =
        c.insert(9, ReplacementPolicy::LruPreferNonTemporal);
    EXPECT_EQ(evicted.lineAddr, 1u); // plain LRU among all-temporal
}

TEST(CacheArray, PreferPrefetchedReplacement)
{
    CacheArray c(128, 32, 4);
    c.insert(1, ReplacementPolicy::Lru);
    c.insert(2, ReplacementPolicy::Lru);
    c.insert(3, ReplacementPolicy::Lru);
    c.insert(4, ReplacementPolicy::Lru);
    c.find(3)->setPrefetched();
    const LineState evicted =
        c.insert(5, ReplacementPolicy::LruPreferPrefetched);
    EXPECT_EQ(evicted.lineAddr, 3u);
}

TEST(CacheArray, InsertClearsAllBits)
{
    CacheArray c(128, 32, 4);
    c.insert(1, ReplacementPolicy::Lru);
    c.find(1)->setDirty();
    c.find(1)->setTemporal();
    c.invalidate(1);
    c.insert(1, ReplacementPolicy::Lru);
    EXPECT_FALSE(c.find(1)->dirty());
    EXPECT_FALSE(c.find(1)->temporal());
    EXPECT_FALSE(c.find(1)->prefetched());
}

TEST(CacheArray, InvalidateReturnsOldState)
{
    CacheArray c(8192, 32, 1);
    EXPECT_FALSE(c.invalidate(7).has_value());
    c.insert(7, ReplacementPolicy::Lru);
    c.find(7)->setDirty();
    const auto old = c.invalidate(7);
    ASSERT_TRUE(old.has_value());
    EXPECT_TRUE(old->dirty);
    EXPECT_FALSE(c.contains(7));
}

TEST(CacheArray, ResetClearsEverything)
{
    CacheArray c(8192, 32, 1);
    for (Addr a = 0; a < 100; ++a)
        c.insert(a, ReplacementPolicy::Lru);
    c.reset();
    EXPECT_EQ(c.validCount(), 0u);
    EXPECT_FALSE(c.contains(5));
}

TEST(CacheArray, PrefetchedCountTracksEveryMutationPath)
{
    CacheArray c(128, 32, 4);
    EXPECT_EQ(c.prefetchedCount(), 0u);
    c.insert(1, ReplacementPolicy::Lru);
    c.insert(2, ReplacementPolicy::Lru);
    c.find(1)->setPrefetched();
    c.find(2)->setPrefetched();
    EXPECT_EQ(c.prefetchedCount(), 2u);
    c.find(2)->setPrefetched(true); // idempotent
    EXPECT_EQ(c.prefetchedCount(), 2u);
    c.find(1)->setPrefetched(false);
    EXPECT_EQ(c.prefetchedCount(), 1u);
    c.invalidate(2);
    EXPECT_EQ(c.prefetchedCount(), 0u);

    c.find(1)->setPrefetched();
    LineState s;
    s.lineAddr = 1;
    s.valid = true;
    c.find(1)->assign(s); // assign overwrites the bit
    EXPECT_EQ(c.prefetchedCount(), 0u);
    s.prefetched = true;
    c.find(1)->assign(s);
    EXPECT_EQ(c.prefetchedCount(), 1u);
    c.insert(2, ReplacementPolicy::Lru);
    c.insert(3, ReplacementPolicy::Lru);
    c.insert(4, ReplacementPolicy::Lru); // set now full
    // Evicting the prefetched line drops the count.
    c.insert(5, ReplacementPolicy::LruPreferPrefetched);
    EXPECT_FALSE(c.contains(1));
    EXPECT_EQ(c.prefetchedCount(), 0u);

    c.find(5)->setPrefetched();
    c.reset();
    EXPECT_EQ(c.prefetchedCount(), 0u);
}

TEST(CacheArray, LineRefSnapshotRoundTrips)
{
    CacheArray c(128, 32, 4);
    c.insert(3, ReplacementPolicy::Lru);
    auto ref = c.line(0, *c.findWay(3));
    ref.setDirty();
    ref.setTemporal();
    const LineState snap = ref.state();
    EXPECT_EQ(snap.lineAddr, 3u);
    EXPECT_TRUE(snap.valid);
    EXPECT_TRUE(snap.dirty);
    EXPECT_TRUE(snap.temporal);
    EXPECT_EQ(snap.lruStamp, ref.lruStamp());

    // Assigning the snapshot into another slot replicates everything,
    // including the LRU stamp.
    c.line(0, 3).assign(snap);
    const LineState copy = static_cast<const CacheArray &>(c).line(0, 3);
    EXPECT_EQ(copy.lineAddr, snap.lineAddr);
    EXPECT_EQ(copy.dirty, snap.dirty);
    EXPECT_EQ(copy.temporal, snap.temporal);
    EXPECT_EQ(copy.lruStamp, snap.lruStamp);

    ref.clear();
    EXPECT_FALSE(ref.valid());
    EXPECT_TRUE(c.contains(3)); // the copy at way 3 survives
}

TEST(CacheArray, SetAssociativeNoFalseConflicts)
{
    CacheArray c(8192, 32, 2); // 128 sets, 2 ways
    // Lines 0 and 128 share a set but coexist with 2 ways.
    c.insert(0, ReplacementPolicy::Lru);
    c.insert(128, ReplacementPolicy::Lru);
    EXPECT_TRUE(c.contains(0));
    EXPECT_TRUE(c.contains(128));
    const LineState evicted = c.insert(256, ReplacementPolicy::Lru);
    EXPECT_EQ(evicted.lineAddr, 0u);
}

} // namespace
