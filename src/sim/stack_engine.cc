#include "src/sim/stack_engine.hh"

#include <algorithm>

#include "src/trace/trace_source.hh"
#include "src/util/logging.hh"

namespace sac {
namespace sim {

namespace {

inline bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

inline std::uint32_t
log2Of(std::uint64_t v)
{
    std::uint32_t shift = 0;
    while ((std::uint64_t{1} << shift) < v)
        ++shift;
    return shift;
}

/** splitmix64 finalizer: a full-avalanche mix for table probing. */
inline std::size_t
mixBlock(std::uint64_t block)
{
    std::uint64_t x = block;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return static_cast<std::size_t>(x ^ (x >> 31));
}

} // namespace

bool
StackPoint::wellFormed() const
{
    if (!isPowerOfTwo(lineBytes) || assoc == 0)
        return false;
    const std::uint64_t way_bytes =
        static_cast<std::uint64_t>(lineBytes) * assoc;
    if (cacheSizeBytes == 0 || cacheSizeBytes % way_bytes != 0)
        return false;
    return isPowerOfTwo(cacheSizeBytes / way_bytes);
}

/**
 * The recency tracker of one (lineBytes, sets) pair: per set, a way
 * array of the maxAssoc most recently used line addresses in MRU
 * order plus its fill length. A hit at array position d (1-based
 * from the MRU end) lands in depthCount_[d]; a line not in the array
 * — a first touch, or a reuse at stack distance > maxAssoc — lands
 * in beyond_, a miss at every tracked associativity. Only the first
 * length_ slots of a set are ever compared, so the zero-filled tail
 * of a partly filled set never reads as a resident line 0.
 */
class StackDistanceEngine::Profiler
{
  public:
    Profiler(std::uint32_t line_bytes, std::uint64_t sets,
             std::uint32_t max_assoc)
        : lineBytes_(line_bytes),
          sets_(sets),
          maxAssoc_(max_assoc),
          setMask_(sets - 1),
          shift_(log2Of(line_bytes)),
          ways_(static_cast<std::size_t>(sets) * max_assoc, 0),
          length_(static_cast<std::size_t>(sets), 0),
          depthCount_(static_cast<std::size_t>(max_assoc) + 1, 0)
    {
        SAC_ASSERT(isPowerOfTwo(line_bytes),
                   "line size must be a power of two");
        SAC_ASSERT(isPowerOfTwo(sets),
                   "set count must be a power of two");
        SAC_ASSERT(max_assoc >= 1, "need at least one way");
    }

    std::uint32_t lineBytes() const { return lineBytes_; }
    std::uint64_t sets() const { return sets_; }
    std::uint32_t maxAssoc() const { return maxAssoc_; }
    std::uint32_t shift() const { return shift_; }

    /** Raise the tracked depth (pre-pass only: nothing fed yet). */
    void
    widen(std::uint32_t max_assoc)
    {
        if (max_assoc > maxAssoc_) {
            maxAssoc_ = max_assoc;
            ways_.assign(static_cast<std::size_t>(sets_) * max_assoc, 0);
            depthCount_.assign(static_cast<std::size_t>(max_assoc) + 1,
                               0);
        }
    }

    /**
     * Restrict this profiler to the sets with index % @p shards ==
     * @p shard (pre-pass only). Accesses to other sets are ignored
     * entirely.
     */
    void
    restrictToShard(unsigned shard, unsigned shards)
    {
        SAC_ASSERT(shards >= 1 && shard < shards,
                   "shard index outside the shard count");
        shard_ = shard;
        shards_ = shards;
    }

    /**
     * Sum @p o's histograms into this profiler. Valid only between
     * shards of one pass over one stream: disjoint sets mean the
     * counts are independent tallies of disjoint access subsets.
     */
    void
    absorb(const Profiler &o)
    {
        SAC_ASSERT(lineBytes_ == o.lineBytes_ && sets_ == o.sets_ &&
                       maxAssoc_ == o.maxAssoc_,
                   "absorb() across different profiler geometries");
        beyond_ += o.beyond_;
        for (std::size_t d = 0; d < depthCount_.size(); ++d)
            depthCount_[d] += o.depthCount_[d];
    }

    /** Profile one reference to line address @p line. */
    void
    access(Addr line)
    {
        const std::uint64_t set = line & setMask_;
        // Sharded pass: sets outside this slice belong to another
        // worker's profiler; skipping them here is the whole
        // decomposition (per-set stacks never interact).
        if (shards_ > 1 && set % shards_ != shard_)
            return;
        Addr *const way = &ways_[set * maxAssoc_];
        std::uint32_t &len = length_[set];
        std::uint32_t pos = 0;
        while (pos < len && way[pos] != line)
            ++pos;
        if (pos < len) {
            // Resident within the top maxAssoc_: its 1-based position
            // in the way array is the stack distance.
            ++depthCount_[pos + 1];
        } else {
            // First touch or distance > maxAssoc_: a miss at every
            // associativity this profiler answers. A full set drops
            // its LRU way below.
            ++beyond_;
            if (len < maxAssoc_)
                ++len;
            pos = len - 1;
        }
        for (; pos > 0; --pos)
            way[pos] = way[pos - 1];
        way[0] = line;
    }

    /** Misses of an @p assoc-way cache (assoc <= maxAssoc()). */
    std::uint64_t
    missCount(std::uint32_t assoc) const
    {
        SAC_ASSERT(assoc >= 1 && assoc <= maxAssoc_,
                   "associativity outside the tracked depth");
        std::uint64_t misses = beyond_;
        for (std::uint32_t d = assoc + 1; d <= maxAssoc_; ++d)
            misses += depthCount_[d];
        return misses;
    }

  private:
    std::uint32_t lineBytes_;
    std::uint64_t sets_;
    std::uint32_t maxAssoc_;
    std::uint64_t setMask_;
    std::uint32_t shift_;

    std::vector<Addr> ways_;                //!< sets x maxAssoc_, MRU first
    std::vector<std::uint32_t> length_;     //!< filled ways per set
    std::vector<std::uint64_t> depthCount_; //!< hits at distance d
    std::uint64_t beyond_ = 0; //!< first touches + distance > maxAssoc_

    // Set-shard slice (restrictToShard); 0-of-1 profiles every set.
    unsigned shard_ = 0;
    unsigned shards_ = 1;
};

/**
 * Exact distinct-line count at one line size, shared by every
 * profiler at that size: a bitmap over the line address space in
 * 512-line blocks, the blocks found through an open-addressing table
 * keyed by block number, with the most recent block cached because
 * consecutive references mostly fall in the same block. In a sharded
 * pass it counts only the lines whose set, in the first profiler's
 * set space at this line size, belongs to the slice, so the slices'
 * counts sum to the unsharded count.
 */
class StackDistanceEngine::LineCounter
{
  public:
    LineCounter(std::uint32_t line_bytes, std::uint64_t sets)
        : lineBytes_(line_bytes),
          shift_(log2Of(line_bytes)),
          setMask_(sets - 1),
          table_(64)
    {
    }

    std::uint32_t lineBytes() const { return lineBytes_; }
    std::uint32_t shift() const { return shift_; }
    std::uint64_t touched() const { return touched_; }

    void
    restrictToShard(unsigned shard, unsigned shards)
    {
        shard_ = shard;
        shards_ = shards;
    }

    void absorb(const LineCounter &o) { touched_ += o.touched_; }

    /** Count @p line if this is its first reference. */
    void
    touch(Addr line)
    {
        if (shards_ > 1 && (line & setMask_) % shards_ != shard_)
            return;
        const std::uint64_t block = line >> blockShift;
        if (block != lastBlock_) {
            lastWords_ = wordsOf(block);
            lastBlock_ = block;
        }
        std::uint64_t &word = bits_[lastWords_ + ((line >> 6) & 7)];
        const std::uint64_t bit = std::uint64_t{1} << (line & 63);
        if (!(word & bit)) {
            word |= bit;
            ++touched_;
        }
    }

  private:
    static constexpr std::uint32_t blockShift = 9; //!< 512 lines
    static constexpr std::size_t blockWords = 8;   //!< 512 bits
    /** Never a block number: line >> blockShift < 2^55. */
    static constexpr std::uint64_t emptyBlock = ~std::uint64_t{0};

    /** One table slot: a block number and its first bitmap word. */
    struct Entry
    {
        std::uint64_t block = emptyBlock;
        std::size_t words = 0;
    };

    /** Index of @p block's first bitmap word, allocating on miss. */
    std::size_t
    wordsOf(std::uint64_t block)
    {
        std::size_t i = slotOf(block);
        if (table_[i].block == block)
            return table_[i].words;
        if ((blocks_ + 1) * 4 > table_.size() * 3) {
            grow();
            i = slotOf(block);
        }
        table_[i] = {block, bits_.size()};
        bits_.resize(bits_.size() + blockWords, 0);
        ++blocks_;
        return table_[i].words;
    }

    /** @p block's table slot, or the empty slot it would take. */
    std::size_t
    slotOf(std::uint64_t block) const
    {
        const std::size_t mask = table_.size() - 1;
        std::size_t i = mixBlock(block) & mask;
        while (table_[i].block != emptyBlock && table_[i].block != block)
            i = (i + 1) & mask;
        return i;
    }

    void
    grow()
    {
        std::vector<Entry> old(table_.size() * 2);
        old.swap(table_);
        for (const Entry &e : old) {
            if (e.block != emptyBlock)
                table_[slotOf(e.block)] = e;
        }
    }

    std::uint32_t lineBytes_;
    std::uint32_t shift_;
    std::uint64_t setMask_;

    std::vector<Entry> table_;        //!< power-of-two open addressing
    std::vector<std::uint64_t> bits_; //!< blockWords per block
    std::size_t blocks_ = 0;
    std::uint64_t lastBlock_ = emptyBlock;
    std::size_t lastWords_ = 0;
    std::uint64_t touched_ = 0;

    // Set-shard slice (restrictToShard); 0-of-1 counts every line.
    unsigned shard_ = 0;
    unsigned shards_ = 1;
};

StackDistanceEngine::StackDistanceEngine(
    const std::vector<StackPoint> &points)
{
    SAC_ASSERT(!points.empty(), "a stack pass needs lattice points");
    for (const StackPoint &p : points) {
        SAC_ASSERT(p.wellFormed(),
                   "stack lattice point is not a power-of-two LRU "
                   "geometry");
        Profiler *existing = nullptr;
        for (Profiler &prof : profilers_) {
            if (prof.lineBytes() == p.lineBytes &&
                prof.sets() == p.sets()) {
                existing = &prof;
                break;
            }
        }
        if (existing)
            existing->widen(p.assoc);
        else
            profilers_.emplace_back(p.lineBytes, p.sets(), p.assoc);
        if (!lineCounterOf(p.lineBytes))
            counters_.emplace_back(p.lineBytes, p.sets());
    }
}

StackDistanceEngine::StackDistanceEngine(
    const std::vector<StackPoint> &points, unsigned shard,
    unsigned shards)
    : StackDistanceEngine(points)
{
    SAC_ASSERT(shards >= 1 && shard < shards,
               "shard index outside the shard count");
    shard_ = shard;
    shards_ = shards;
    for (Profiler &prof : profilers_)
        prof.restrictToShard(shard, shards);
    for (LineCounter &counter : counters_)
        counter.restrictToShard(shard, shards);
}

void
StackDistanceEngine::absorb(const StackDistanceEngine &other)
{
    SAC_ASSERT(shards_ == other.shards_,
               "absorb() across different shard counts");
    SAC_ASSERT(accesses_ == other.accesses_ &&
                   reads_ == other.reads_ &&
                   writes_ == other.writes_,
               "absorb() of shards fed different streams");
    SAC_ASSERT(profilers_.size() == other.profilers_.size(),
               "absorb() across different lattices");
    for (std::size_t i = 0; i < profilers_.size(); ++i)
        profilers_[i].absorb(other.profilers_[i]);
    for (std::size_t i = 0; i < counters_.size(); ++i)
        counters_[i].absorb(other.counters_[i]);
}

StackDistanceEngine::~StackDistanceEngine() = default;
StackDistanceEngine::StackDistanceEngine(StackDistanceEngine &&) noexcept =
    default;
StackDistanceEngine &
StackDistanceEngine::operator=(StackDistanceEngine &&) noexcept = default;

void
StackDistanceEngine::feed(const trace::Record *recs, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        if (recs[i].isRead())
            ++reads_;
    }
    accesses_ += n;
    writes_ = accesses_ - reads_;
    // Profiler-major over the chunk: one tracker's way arrays stay hot
    // for all n records instead of every tracker being revisited per
    // record. Trackers never interact, so the order changes nothing.
    for (LineCounter &counter : counters_) {
        const std::uint32_t shift = counter.shift();
        for (std::size_t i = 0; i < n; ++i)
            counter.touch(recs[i].addr >> shift);
    }
    for (Profiler &prof : profilers_) {
        const std::uint32_t shift = prof.shift();
        for (std::size_t i = 0; i < n; ++i)
            prof.access(recs[i].addr >> shift);
    }
}

std::uint64_t
StackDistanceEngine::run(trace::TraceSource &src)
{
    std::vector<trace::Record> buf(
        trace::TraceSource::defaultChunkRecords);
    std::uint64_t total = 0;
    while (const std::size_t n = src.next(buf.data(), buf.size())) {
        feed(buf.data(), n);
        total += n;
    }
    return total;
}

const StackDistanceEngine::Profiler *
StackDistanceEngine::profilerOf(std::uint32_t line_bytes,
                                std::uint64_t sets) const
{
    for (const Profiler &prof : profilers_) {
        if (prof.lineBytes() == line_bytes && prof.sets() == sets)
            return &prof;
    }
    return nullptr;
}

const StackDistanceEngine::LineCounter *
StackDistanceEngine::lineCounterOf(std::uint32_t line_bytes) const
{
    for (const LineCounter &counter : counters_) {
        if (counter.lineBytes() == line_bytes)
            return &counter;
    }
    return nullptr;
}

bool
StackDistanceEngine::covers(const StackPoint &p) const
{
    if (!p.wellFormed())
        return false;
    const Profiler *prof = profilerOf(p.lineBytes, p.sets());
    return prof && p.assoc <= prof->maxAssoc();
}

std::uint64_t
StackDistanceEngine::missCount(const StackPoint &p) const
{
    const Profiler *prof = profilerOf(p.lineBytes, p.sets());
    SAC_ASSERT(prof && p.assoc <= prof->maxAssoc(),
               "point is not covered by this stack pass");
    return prof->missCount(p.assoc);
}

double
StackDistanceEngine::missRatio(const StackPoint &p) const
{
    return accesses_ > 0 ? static_cast<double>(missCount(p)) /
                               static_cast<double>(accesses_)
                         : 0.0;
}

std::uint64_t
StackDistanceEngine::touchedLines(std::uint32_t line_bytes) const
{
    const LineCounter *counter = lineCounterOf(line_bytes);
    SAC_ASSERT(counter, "no profiler at this line granularity");
    return counter->touched();
}

} // namespace sim
} // namespace sac
