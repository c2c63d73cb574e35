/**
 * @file
 * Low-overhead per-access event tracer: a fixed-capacity ring buffer
 * of (cycle, kind, address, arg) tuples recorded by the simulator and
 * exportable as Chrome trace_event JSON for visual inspection of a
 * window of a run in chrome://tracing or Perfetto.
 *
 * The simulator records into a tracer passed to
 * core::SoftwareAssistedCache::observe(); its event sites exist only
 * in the Observed instantiation of the access path, so a run without
 * observers pays nothing for them.
 */

#ifndef SAC_TELEMETRY_EVENT_TRACE_HH
#define SAC_TELEMETRY_EVENT_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/util/types.hh"

namespace sac {
namespace telemetry {

/** Kind of simulator event. Keep kindName() in sync. */
enum class EventKind : std::uint8_t
{
    Access,          //!< reference issued (arg: 0 read, 1 write)
    MainHit,         //!< hit in the main cache
    AuxHit,          //!< hit in the bounce-back / victim / pf buffer
    Miss,            //!< demand miss (arg: physical lines fetched)
    Fill,            //!< one physical line installed by a miss
    Swap,            //!< aux hit swapped with the main resident
    Bounce,          //!< temporal bounce-back performed
    BounceCancelled, //!< bounce aimed at an in-flight fill target
    BounceAborted,   //!< bounce onto dirty line, write buffer full
    Evict,           //!< valid line displaced from the main cache
    Writeback,       //!< line queued to the write buffer (arg: bytes)
    Prefetch,        //!< prefetch request issued (arg: degree)
    PrefetchInstall, //!< prefetched line landed in the aux cache
    Bypass,          //!< non-temporal reference bypassed the cache
};

/** Number of EventKind values (for per-kind rows/tallies). */
inline constexpr std::size_t numEventKinds = 14;

/** Stable lower-camel name of @p kind ("mainHit"). */
const char *kindName(EventKind kind);

/** One recorded simulator event. */
struct Event
{
    Cycle cycle = 0;
    Addr addr = 0;
    std::uint32_t arg = 0;
    EventKind kind = EventKind::Access;
};

/**
 * Fixed-capacity ring buffer of simulator events. When full, new
 * events overwrite the oldest, so the buffer always holds the most
 * recent window of the run — the interesting part when diagnosing an
 * end-of-run anomaly, and a bounded cost for arbitrarily long traces.
 */
class EventTracer
{
  public:
    /** Ring capacity, in events, of a default-constructed tracer. */
    static constexpr std::size_t defaultCapacity = std::size_t{1} << 16;

    /** A tracer of defaultCapacity events. */
    EventTracer() : EventTracer(defaultCapacity) {}

    /** @param capacity ring size in events (rounded up to >= 2). */
    explicit EventTracer(std::size_t capacity);

    /** Record one event (overwrites the oldest when full). */
    void
    record(EventKind kind, Cycle cycle, Addr addr,
           std::uint32_t arg = 0) noexcept
    {
        Event &e = ring_[head_];
        e.cycle = cycle;
        e.addr = addr;
        e.arg = arg;
        e.kind = kind;
        head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
        ++recorded_;
    }

    /** Events currently held (<= capacity()). */
    std::size_t size() const;

    /** Ring capacity in events. */
    std::size_t capacity() const { return ring_.size(); }

    /** Total events ever recorded (including overwritten ones). */
    std::uint64_t recorded() const { return recorded_; }

    /** Events lost to overwriting. */
    std::uint64_t dropped() const { return recorded_ - size(); }

    /** Forget everything (capacity is retained). */
    void clear();

    /** Held events, oldest first. */
    std::vector<Event> snapshot() const;

    /** Per-kind tallies over the held window, indexed by EventKind. */
    std::vector<std::uint64_t> kindTallies() const;

    /**
     * Export the held window in Chrome trace_event JSON format: one
     * instant event per record, one track (tid) per event kind, ts =
     * simulated cycle (displayed as microseconds). Load the file in
     * chrome://tracing or https://ui.perfetto.dev.
     */
    void exportChromeTrace(std::ostream &os) const;

    /** exportChromeTrace() to a file; false on I/O failure. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::vector<Event> ring_;
    std::size_t head_ = 0;        //!< next slot to write
    std::uint64_t recorded_ = 0;  //!< lifetime event count
};

} // namespace telemetry
} // namespace sac

#endif // SAC_TELEMETRY_EVENT_TRACE_HH
