/**
 * @file
 * Generic set-associative cache storage with the per-line state the
 * software-assisted design needs: valid, dirty, the temporal bit
 * (Section 2.2) and the prefetched bit (Section 4.4). The array holds
 * state only — all timing, bounce-back and virtual-line policy lives
 * in the simulators built on top (src/core).
 *
 * Storage is structure-of-arrays: tags, flag bits and LRU stamps live
 * in separate vectors so the hot residency probe (findWay) touches
 * exactly 8 bytes per way instead of a whole line-state struct. The
 * AoS LineState struct remains the exchange type — snapshots,
 * victims and full-state installs — and every mutation goes through
 * the LineRef proxy so the tag vector and the derived prefetched-line
 * count can never fall out of sync with the flags.
 */

#ifndef SAC_CACHE_CACHE_ARRAY_HH
#define SAC_CACHE_CACHE_ARRAY_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/util/types.hh"

namespace sac {
namespace cache {

/** Snapshot of one physical cache line (the SoA exchange type). */
struct LineState
{
    /** Line address (byte address >> log2(lineBytes)); meaningful only
     *  when valid. */
    Addr lineAddr = 0;
    bool valid = false;
    bool dirty = false;
    /** Temporal bit, set by accesses whose instruction is tagged. */
    bool temporal = false;
    /** Line was brought in by the prefetcher and not yet demanded. */
    bool prefetched = false;
    /** LRU stamp: larger is more recently used. */
    std::uint64_t lruStamp = 0;
};

/** Victim-selection policy within a set. */
enum class ReplacementPolicy
{
    /** Plain least-recently-used. */
    Lru,
    /**
     * Prefer evicting lines without the temporal bit (the paper's
     * cheaper software control for set-associative caches, Fig 9b):
     * LRU among non-temporal lines; fall back to LRU over all lines.
     */
    LruPreferNonTemporal,
    /**
     * Prefer evicting prefetched lines (used by the bounce-back cache
     * when it doubles as a prefetch buffer, Section 4.4): LRU among
     * prefetched lines first, then plain LRU.
     */
    LruPreferPrefetched,
};

/**
 * A set-associative array of physical lines. A direct-mapped cache is
 * assoc == 1; a fully-associative buffer is sets == 1.
 */
class CacheArray
{
  public:
    /**
     * Mutable view of one (set, way) slot. All writes funnel through
     * the owning array so the SoA columns stay consistent. Copies are
     * cheap (pointer + index) and stay valid for the array's lifetime;
     * they view the slot, not the line, so an eviction re-targets
     * them to the new occupant.
     */
    class LineRef
    {
      public:
        Addr lineAddr() const { return arr_->tags_[idx_]; }
        bool valid() const { return arr_->flagged(idx_, kValid); }
        bool dirty() const { return arr_->flagged(idx_, kDirty); }
        bool temporal() const { return arr_->flagged(idx_, kTemporal); }
        bool prefetched() const
        {
            return arr_->flagged(idx_, kPrefetched);
        }
        std::uint64_t lruStamp() const { return arr_->stamps_[idx_]; }

        void setDirty(bool v = true) { arr_->setFlag(idx_, kDirty, v); }
        void setTemporal(bool v = true)
        {
            arr_->setFlag(idx_, kTemporal, v);
        }
        void setPrefetched(bool v = true)
        {
            arr_->setPrefetched(idx_, v);
        }

        /** Materialize the slot as an AoS snapshot. */
        LineState state() const { return arr_->stateAt(idx_); }

        /** Install a full line state (tag, flags and stamp). */
        void assign(const LineState &s) { arr_->assignAt(idx_, s); }

        /** Invalidate the slot. */
        void clear() { arr_->clearAt(idx_); }

      private:
        friend class CacheArray;
        LineRef(CacheArray &a, std::size_t i) : arr_(&a), idx_(i) {}

        CacheArray *arr_;
        std::size_t idx_;
    };

    /**
     * @param size_bytes total capacity; must be sets * assoc * line
     * @param line_bytes physical line size (power of two)
     * @param assoc associativity (>= 1)
     */
    CacheArray(std::uint64_t size_bytes, std::uint32_t line_bytes,
               std::uint32_t assoc);

    /** Line size in bytes. */
    std::uint32_t lineBytes() const { return lineBytes_; }

    /** Number of sets. */
    std::uint32_t numSets() const { return sets_; }

    /** Associativity. */
    std::uint32_t assoc() const { return assoc_; }

    /** Total capacity in bytes. */
    std::uint64_t sizeBytes() const;

    /** Line address of a byte address. */
    Addr lineAddrOf(Addr byte_addr) const
    {
        return byte_addr >> lineShift_;
    }

    /** First byte address of a line address. */
    Addr byteAddrOf(Addr line_addr) const
    {
        return line_addr << lineShift_;
    }

    /** Set index of a line address. */
    std::uint32_t setIndexOf(Addr line_addr) const
    {
        return static_cast<std::uint32_t>(line_addr & (sets_ - 1));
    }

    /**
     * Find the way holding @p line_addr. Scans only the packed tag
     * column; invalid ways hold a sentinel tag, which only the
     * topmost line of a 1-byte-line array (byte 2^64 - 1) can equal,
     * so a sentinel match also needs the valid bit.
     * @retval way index when present, std::nullopt on miss
     */
    std::optional<std::uint32_t>
    findWay(Addr line_addr) const
    {
        const std::size_t base =
            static_cast<std::size_t>(line_addr & (sets_ - 1)) * assoc_;
        const Addr *t = &tags_[base];
        for (std::uint32_t w = 0; w < assoc_; ++w) {
            if (t[w] == line_addr &&
                (line_addr != invalidTag || flagged(base + w, kValid)))
                return w;
        }
        return std::nullopt;
    }

    /** True when @p line_addr is resident. */
    bool contains(Addr line_addr) const
    {
        return findWay(line_addr).has_value();
    }

    /** Mutable view of the slot at (set, way). */
    LineRef line(std::uint32_t set, std::uint32_t way);

    /** Snapshot of the slot at (set, way). */
    LineState line(std::uint32_t set, std::uint32_t way) const;

    /** Mutable view of the resident line for @p line_addr, if any. */
    std::optional<LineRef> find(Addr line_addr);

    /** Mark (set, way) most recently used. */
    void touch(std::uint32_t set, std::uint32_t way);

    /**
     * Choose a victim way in @p set under @p policy. Invalid ways are
     * always preferred.
     */
    std::uint32_t victimWay(std::uint32_t set,
                            ReplacementPolicy policy) const;

    /**
     * Install @p line_addr into (set computed from the address, way
     * from @p policy), returning the previous contents of the slot.
     * The installed line is valid, clean, non-temporal,
     * non-prefetched and most recently used.
     *
     * @return the evicted line state (valid == false if none)
     */
    LineState insert(Addr line_addr, ReplacementPolicy policy);

    /** Invalidate @p line_addr if present; returns the old state. */
    std::optional<LineState> invalidate(Addr line_addr);

    /** Invalidate every line. */
    void reset();

    /** Count of currently valid lines. */
    std::uint32_t validCount() const;

    /**
     * Snapshot every slot in set-major order (sets * assoc entries).
     * Together with lruClock() this captures the array's complete
     * architectural state for checkpointing.
     */
    std::vector<LineState> snapshotLines() const;

    /** Monotonic LRU stamp source; pair with snapshotLines(). */
    std::uint64_t lruClock() const { return stampCounter_; }

    /**
     * Restore a snapshotLines() image onto an identically shaped
     * array. @p lines must hold exactly sets * assoc entries in
     * set-major order; @p lru_clock reseeds the stamp counter so
     * later touches keep strictly increasing stamps.
     */
    void restoreLines(const std::vector<LineState> &lines,
                      std::uint64_t lru_clock);

    /**
     * Count of resident lines with the prefetched bit, maintained
     * incrementally (the prefetch-budget check of Section 4.4 used to
     * rescan the whole array per install).
     */
    std::uint32_t prefetchedCount() const { return prefetchedCount_; }

  private:
    friend class LineRef;

    /** Flag bits packed into one byte per line. */
    static constexpr std::uint8_t kValid = 1u << 0;
    static constexpr std::uint8_t kDirty = 1u << 1;
    static constexpr std::uint8_t kTemporal = 1u << 2;
    static constexpr std::uint8_t kPrefetched = 1u << 3;

    /**
     * Tag stored in empty ways. Only line 2^64 - 1 of a 1-byte-line
     * array equals it; findWay() checks the valid bit for that one.
     */
    static constexpr Addr invalidTag = ~static_cast<Addr>(0);

    std::size_t flatIndex(std::uint32_t set, std::uint32_t way) const;
    bool flagged(std::size_t idx, std::uint8_t bit) const
    {
        return (flags_[idx] & bit) != 0;
    }
    void setFlag(std::size_t idx, std::uint8_t bit, bool v);
    void setPrefetched(std::size_t idx, bool v);
    LineState stateAt(std::size_t idx) const;
    void assignAt(std::size_t idx, const LineState &s);
    void clearAt(std::size_t idx);

    std::uint32_t lineBytes_;
    std::uint32_t lineShift_;
    std::uint32_t sets_;
    std::uint32_t assoc_;
    // SoA columns, sets_ * assoc_ entries each, set-major.
    std::vector<Addr> tags_;           //!< line addr, or invalidTag
    std::vector<std::uint8_t> flags_;  //!< kValid|kDirty|... bits
    std::vector<std::uint64_t> stamps_; //!< LRU stamps
    std::uint64_t stampCounter_ = 0;
    std::uint32_t prefetchedCount_ = 0;
};

} // namespace cache
} // namespace sac

#endif // SAC_CACHE_CACHE_ARRAY_HH
