/**
 * @file
 * The classical three-C miss classifier: a miss is *compulsory* on the
 * first touch of a line, *capacity* when a fully-associative LRU cache
 * of equal size would also have missed, and *conflict* otherwise. The
 * shadow LRU is updated on every access, hit or miss.
 *
 * Classification is two steps. The shadow produces a one-byte
 * ShadowOutcome per access that depends only on the address stream
 * and the shadow geometry (capacity in lines, line size), never on
 * the simulated cache; classOf() then maps (outcome, was_miss) onto a
 * miss class. Because the outcome is cache-independent, one
 * shadowPass() over a trace serves every configuration sharing the
 * geometry (the sweep harness's shared shadow pass), while a live
 * MissClassifier computes the same outcomes access by access.
 *
 * The classifier sits on the simulator's per-access hot path, so the
 * shadow state is a single flat open-addressing hash table (line ->
 * seen + LRU-node index) plus an intrusive doubly-linked LRU list
 * over a fixed node pool: one probe sequence per access and no
 * allocation in steady state, where the textbook
 * unordered_map/std::list version dominated the whole simulation.
 */

#ifndef SAC_SIM_MISS_CLASSIFIER_HH
#define SAC_SIM_MISS_CLASSIFIER_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "src/trace/trace.hh"
#include "src/util/types.hh"

namespace sac {
namespace sim {

/** Kind of cache miss, per the classical three-C model. */
enum class MissClass { Compulsory, Capacity, Conflict };

/** What the shadow fully-associative LRU saw for one access. */
enum class ShadowOutcome : std::uint8_t
{
    FirstTouch, //!< the line was never touched before
    ShadowHit,  //!< the line is resident in the shadow
    ShadowMiss, //!< touched before, but evicted from the shadow
};

/**
 * The three-C rules: the class of an access whose shadow outcome was
 * @p o. A hit has no class (nullopt), so it can never be mistaken for
 * a classified miss.
 */
inline std::optional<MissClass>
classOf(ShadowOutcome o, bool was_miss)
{
    if (!was_miss)
        return std::nullopt;
    switch (o) {
      case ShadowOutcome::FirstTouch:
        return MissClass::Compulsory;
      case ShadowOutcome::ShadowMiss:
        return MissClass::Capacity;
      case ShadowOutcome::ShadowHit:
        break;
    }
    return MissClass::Conflict;
}

/**
 * Tracks the shadow state needed to classify misses at physical-line
 * granularity.
 */
class MissClassifier
{
  public:
    /**
     * @param capacity_lines number of lines a fully-associative cache
     *        of the modeled capacity would hold
     * @param line_bytes physical line size (power of two)
     */
    MissClassifier(std::uint32_t capacity_lines,
                   std::uint32_t line_bytes);

    /**
     * Record an access to @p byte_addr in the shadow and return what
     * the shadow saw. Must be called for every demand access in order.
     */
    ShadowOutcome outcome(Addr byte_addr);

    /**
     * Record an access to @p byte_addr and, when @p was_miss, return
     * its class: outcome() followed by classOf().
     */
    std::optional<MissClass> access(Addr byte_addr, bool was_miss)
    {
        return classOf(outcome(byte_addr), was_miss);
    }

    /** Number of distinct lines ever touched. */
    std::size_t touchedLines() const { return seenCount_; }

  private:
    /** No LRU node: the line was touched but has since been evicted. */
    static constexpr std::uint32_t npos = 0xffffffffu;

    /** One table slot: a touched line and its LRU residence. */
    struct Slot
    {
        Addr line = 0;
        std::uint32_t node = npos;
        bool used = false;
    };

    /** One pool entry of the intrusive LRU list. */
    struct Node
    {
        Addr line = 0;
        std::uint32_t prev = npos;
        std::uint32_t next = npos;
    };

    Addr lineOf(Addr byte_addr) const { return byte_addr >> shift_; }

    /**
     * Slot of @p line, inserting an unused slot when absent (may
     * rehash). @p inserted reports a first touch.
     */
    std::size_t findOrInsert(Addr line, bool &inserted);

    /** Slot of @p line, which must be present. */
    std::size_t find(Addr line) const;

    void grow();
    void linkFront(std::uint32_t n);
    void unlink(std::uint32_t n);

    std::uint32_t capacityLines_;
    std::uint32_t shift_;
    std::vector<Slot> table_; //!< power-of-two open addressing
    std::size_t mask_ = 0;
    std::size_t seenCount_ = 0;
    std::vector<Node> nodes_; //!< LRU pool, grown up to capacityLines_
    std::uint32_t head_ = npos; //!< most recently used
    std::uint32_t tail_ = npos; //!< least recently used
};

/**
 * The shadow outcome of every record of @p t, in order, under a
 * MissClassifier(@p capacity_lines, @p line_bytes): one byte per
 * record. Any simulator whose classifier has that geometry and that
 * replays @p t in detail classifies from these codes exactly as it
 * would from a live classifier.
 */
std::vector<ShadowOutcome> shadowPass(const trace::Trace &t,
                                      std::uint32_t capacity_lines,
                                      std::uint32_t line_bytes);

} // namespace sim
} // namespace sac

#endif // SAC_SIM_MISS_CLASSIFIER_HH
