/**
 * @file
 * The software-assisted cache simulator — the paper's primary
 * contribution (Section 2) as an executable timing model.
 *
 * One class covers the whole design space of the evaluation:
 *  - a set-associative (default direct-mapped) write-back,
 *    write-allocate main cache with per-line temporal bits;
 *  - an optional auxiliary fully-associative LRU cache that acts as a
 *    victim cache, as the bounce-back cache, and as the prefetch
 *    buffer, depending on the configuration;
 *  - virtual-line fills on spatially tagged misses with pipelined
 *    coherence checks;
 *  - cache bypassing of non-temporal references (baseline);
 *  - progressive software-assisted next-line prefetching;
 *  - a bounded write buffer drained over the shared bus;
 *  - AMAT accounting and three-C miss classification.
 *
 * The model is trace-driven and blocking (a miss stalls the processor
 * until the last physical line arrives), exactly as in the paper.
 */

#ifndef SAC_CORE_SOFT_CACHE_HH
#define SAC_CORE_SOFT_CACHE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "src/cache/cache_array.hh"
#include "src/core/config.hh"
#include "src/sim/checkpoint.hh"
#include "src/sim/miss_classifier.hh"
#include "src/sim/run_stats.hh"
#include "src/sim/write_buffer.hh"
#include "src/trace/trace.hh"

namespace sac {
namespace trace {
class TraceSource;
} // namespace trace

namespace telemetry {
class EventTracer;
enum class EventKind : std::uint8_t;
class IntervalRecorder;
class SetProfiler;
} // namespace telemetry

namespace core {

class SoftwareAssistedCache;

/**
 * The common configuration lattice points served by a compile-time
 * specialized access path. Each named set compiles out the runtime
 * checks for the features it excludes; General keeps every check and
 * is bit-identical to the pre-specialization simulator.
 */
enum class FeatureSet
{
    Standard,     //!< plain cache: no aux, no virtual lines, no prefetch
    Victim,       //!< aux buffer only (victim / bounce-back)
    Soft,         //!< aux + virtual lines (the paper's soft cache)
    SoftPrefetch, //!< aux + virtual lines + progressive prefetch
    General,      //!< fully general fallback (bypass, exotic combos)
};

/** Human-readable name of a feature set. */
const char *toString(FeatureSet fs);

/**
 * Classify @p cfg into the most specialized FeatureSet whose compiled
 * path handles it exactly. Anything with bypassing or an unusual
 * feature combination falls back to General.
 */
FeatureSet featureSetOf(const Config &cfg);

/** How the simulator picks its access path. */
enum class DispatchMode
{
    Auto,    //!< featureSetOf(config): specialized when possible
    General, //!< force the general path (differential testing)
};

/**
 * Fidelity of statistics collection. Warming is the functional-
 * warming mode of the sampled engine (sim::SampledEngine): every
 * architectural state transition — cache arrays, LRU stamps, temporal
 * and prefetched bits, bounce-backs, write buffer, clocks — is
 * bit-identical to Detailed (proven by the warming-state differential
 * tests), but RunStats counters, the three-C miss classifier and the
 * observer hooks compile out of the access path, making warming
 * replay about twice as fast as full detail.
 */
enum class StatsMode
{
    Detailed, //!< full statistics (the default)
    Warming,  //!< state only: counters/classifier/hooks compiled out
};

/**
 * Post-access audit hook: an observing auditor is called after every
 * detailed access so it can re-derive structural invariants from the
 * exposed state. Implemented by check::Auditor; the abstract interface
 * lives here so src/core never depends on src/check.
 */
class AccessAuditor
{
  public:
    virtual ~AccessAuditor() = default;

    /** Called after every detailed access while observing. */
    virtual void afterAccess(const SoftwareAssistedCache &cache,
                             const trace::Record &rec) = 0;
};

/**
 * The observers of one simulator (SoftwareAssistedCache::observe()).
 * Any subset may be set; null members are not called. Observers see
 * detailed-mode accesses only and never change the simulation.
 */
struct Observers
{
    /** Access/fill/swap/bounce/evict/prefetch events, cycle-stamped. */
    telemetry::EventTracer *tracer = nullptr;
    /** Structural invariant auditor, called after every access. */
    AccessAuditor *auditor = nullptr;
    /** Periodic RunStats snapshots; finish() flushes the tail. */
    telemetry::IntervalRecorder *interval = nullptr;
    /** Per-set heat, sized for the main cache's numSets(). */
    telemetry::SetProfiler *setProfiler = nullptr;

    /** Is any observer set? */
    bool any() const
    {
        return tracer || auditor || interval || setProfiler;
    }
};

/** Trace-driven simulator of one cache organization. */
class SoftwareAssistedCache
{
  public:
    /**
     * Build the simulator for configuration @p cfg (validated).
     * @param dispatch Auto selects the specialized access path
     *        matching the config; General forces the fully general
     *        path (used by the differential fuzzer to prove the two
     *        never diverge)
     */
    explicit SoftwareAssistedCache(Config cfg,
                                   DispatchMode dispatch =
                                       DispatchMode::Auto);

    /** Simulate one reference. References must arrive in issue order. */
    void access(const trace::Record &rec) { replay(&rec, 1); }

    /** Simulate a whole trace (appends to the current state). */
    void run(const trace::Trace &t);

    /** Streamed replay: drain @p src in chunks, then finish(). */
    void run(trace::TraceSource &src);

    /**
     * Replay @p n records in the current stats mode without sealing
     * the run (no finish()); the building block of windowed replay.
     */
    void replay(const trace::Record *recs, std::size_t n)
    {
        runBatch(recs, n);
    }

    /**
     * Replace the attached observers with @p obs (pass {} to detach
     * them all). While any is set, detailed replay runs the Observed
     * instantiation of the access path, which calls them; otherwise it
     * runs one with no hook code at all. A set profiler must be sized
     * for mainArray().numSets() (asserted). A newly attached interval
     * recorder counts from the current stats (startFrom()).
     */
    void observe(const Observers &obs);

    /**
     * Switch statistics fidelity mid-run (reselects the access path).
     * Architectural state carries over untouched; in Warming mode the
     * stats counters simply stop advancing.
     */
    void setStatsMode(StatsMode m);

    /** The active statistics fidelity. */
    StatsMode statsMode() const { return statsMode_; }

    // --- sim::SampledEngine's Sim concept ------------------------

    /** Replay @p n records with full statistics (a detailed window). */
    void runDetailed(const trace::Record *recs, std::size_t n)
    {
        setStatsMode(StatsMode::Detailed);
        runBatch(recs, n);
    }

    /** Replay @p n records updating state only (functional warming). */
    void runWarming(const trace::Record *recs, std::size_t n)
    {
        setStatsMode(StatsMode::Warming);
        runBatch(recs, n);
    }

    /** The access path selected at construction. */
    FeatureSet featureSet() const { return featureSet_; }

    /**
     * Final bookkeeping: drain the write buffer and seal the
     * completion cycle. Idempotent.
     */
    void finish();

    /** Statistics accumulated so far. */
    const sim::RunStats &stats() const { return stats_; }

    /** The active configuration. */
    const Config &config() const { return cfg_; }

    // --- Introspection (used by tests and check::Auditor) --------

    /** The main cache array (read-only). */
    const cache::CacheArray &mainArray() const { return main_; }

    /** The aux cache array, or nullptr when the config has none. */
    const cache::CacheArray *auxArray() const
    {
        return aux_ ? &*aux_ : nullptr;
    }

    /** The write buffer (read-only). */
    const sim::WriteBuffer &writeBuffer() const { return writeBuffer_; }

    /** Is the line containing @p addr resident in the main cache? */
    bool mainContains(Addr addr) const;

    /** Is the line containing @p addr resident in the aux cache? */
    bool auxContains(Addr addr) const;

    /** Temporal bit of the main-cache line holding @p addr. */
    bool mainTemporalBit(Addr addr) const;

    /** Temporal bit of the aux-cache line holding @p addr. */
    bool auxTemporalBit(Addr addr) const;

    /** Current issue clock (cycle of the last issued reference). */
    Cycle now() const { return now_; }

    /** Cycle at which the cache becomes free. */
    Cycle cacheFreeAt() const { return cacheFreeAt_; }

    /** Cycle at which the bus becomes free. */
    Cycle busFreeAt() const { return busFreeAt_; }

    /** Cycle at which the processor resumes after the last access. */
    Cycle procReadyAt() const { return procReadyAt_; }

    /** Write-buffer occupancy. */
    std::uint32_t writeBufferOccupancy() const
    {
        return writeBuffer_.occupancy();
    }

    /** Line held by the single-line bypass buffer, if any. */
    std::optional<Addr> bypassBufferLine() const
    {
        if (!bypassBufferValid_)
            return std::nullopt;
        return bypassBufferLine_;
    }

    /** Snapshot of the in-flight progressive prefetch. */
    struct PrefetchProbe
    {
        Addr line;
        std::uint32_t count;
        Cycle readyAt;
    };

    /** The outstanding progressive prefetch, if any. */
    std::optional<PrefetchProbe> pendingPrefetch() const
    {
        if (!pending_.valid)
            return std::nullopt;
        return PrefetchProbe{pending_.line, pending_.count,
                             pending_.readyAt};
    }

    // --- Live-point checkpointing (sim::CheckpointLibrary) -------

    /**
     * Capture the complete architectural state — cache arrays with
     * LRU clocks, write buffer, timing clocks, bypass buffer and the
     * in-flight prefetch: exactly the state check::stateDifference
     * compares, plus the private LRU counters needed to continue
     * replay bit-identically. Statistics are not included (they only
     * advance during detailed windows and are reproduced by replay).
     */
    sim::ArchState exportState() const;

    /**
     * Restore a state captured by exportState() on an identically
     * configured simulator. RunStats and the miss classifier are left
     * untouched, and the run is unsealed so finish() runs again.
     */
    void importState(const sim::ArchState &s);

    /**
     * The three-C classifier's shadow state, or nullptr when
     * classification is disabled. The shadow evolves identically on
     * hits and misses — it is a pure function of the detailed address
     * stream — which is what lets parallel replay reconstruct it.
     */
    const sim::MissClassifier *classifier() const
    {
        return classifier_ ? &*classifier_ : nullptr;
    }

    /**
     * Replace the classifier's shadow state with @p c. Parallel
     * window replay seeds each worker with the state a serial run
     * would have reached at the worker's first window; a no-op when
     * classification is disabled.
     */
    void seedClassifier(const sim::MissClassifier &c)
    {
        if (classifier_)
            *classifier_ = c;
    }

    /**
     * Classify from a precomputed shadow pass instead of the private
     * classifier, which is dropped. @p codes must be
     * sim::shadowPass() of the trace this simulator is about to
     * replay in full detail, at this config's classifier geometry
     * (cacheSizeBytes / lineBytes lines of lineBytes); each detailed
     * access consumes one code, so RunStats come out exactly as with
     * the live classifier. @p codes must outlive the run, and
     * finish() asserts that every code was consumed. A no-op when
     * classification is disabled.
     */
    void useShadowOutcomes(const std::vector<sim::ShadowOutcome> &codes);

  private:
    /**
     * The instantiation of the access path in use. Warming and
     * Detailed are the two StatsMode fidelities; Observed is Detailed
     * plus the observer hooks, selected only while an observer is set.
     */
    enum class Mode : std::uint8_t
    {
        Warming,
        Detailed,
        Observed,
    };

    /** Does mode @p m count statistics? */
    static constexpr bool detailed(Mode m) { return m != Mode::Warming; }

    /** A main-cache slot filled by the in-flight miss. */
    struct FillTarget
    {
        std::uint32_t set;
        std::uint32_t way;
    };

    /**
     * The per-reference simulation, templated over which features MAY
     * be enabled. A true parameter keeps the runtime config check (so
     * the all-true instantiation is the general path, behaviorally
     * identical to the untemplated original); a false parameter
     * compiles the check out, which is only selected when the config
     * provably never takes that branch.
     *
     * M selects the instantiation: Warming performs the same
     * architectural state transitions as Detailed but compiles out
     * every stats counter and the miss classifier; only Observed
     * contains the observer hooks.
     */
    template <Mode M, bool MayAux, bool MayVirtual, bool MayPrefetch,
              bool MayBypass>
    void accessTmpl(const trace::Record &rec);

    /**
     * Replay @p n records through the accessTmpl instantiation of the
     * template arguments. In Observed mode this is the one place the
     * post-access observers (auditor, interval recorder) are called.
     */
    template <Mode M, bool MayAux, bool MayVirtual, bool MayPrefetch,
              bool MayBypass>
    void runBatchTmpl(const trace::Record *recs, std::size_t n);

    /** Dispatch once on the feature set in mode @p M. */
    template <Mode M>
    void runBatchDispatch(const trace::Record *recs, std::size_t n);

    /** Dispatch once on mode_ and featureSet_, then replay @p n. */
    void runBatch(const trace::Record *recs, std::size_t n);

    /** Recompute mode_ from statsMode_ and the observers. */
    void selectMode();

    /** Record a tracer event (Observed mode only). */
    template <Mode M>
    void event(telemetry::EventKind kind, Cycle cycle, Addr addr,
               std::uint32_t arg);

    /** Serve a hit in the main cache. */
    template <Mode M>
    void handleMainHit(const trace::Record &rec, std::uint32_t way,
                       Cycle start);

    /** Serve a hit in the aux (bounce-back / victim) cache. */
    template <Mode M, bool MayPrefetch>
    void handleAuxHit(const trace::Record &rec, std::uint32_t way,
                      Cycle start);

    /** Serve a bypassed non-temporal reference. */
    template <Mode M>
    void handleBypass(const trace::Record &rec, Cycle start);

    /** Serve a demand miss (possibly a virtual-line fill). */
    template <Mode M, bool MayAux, bool MayVirtual, bool MayPrefetch>
    void handleMiss(const trace::Record &rec, Cycle start);

    /**
     * Install @p line_addr into the main cache, moving the victim to
     * the aux cache or the write buffer. Returns the filled slot.
     * @param transfer_cost accumulates hidden transfer cycles
     * @param fill_targets slots already filled by this miss
     */
    template <Mode M>
    FillTarget insertIntoMain(Addr line_addr, Cycle &transfer_cost,
                              std::vector<FillTarget> &fill_targets);

    /**
     * Move a main-cache victim into the aux cache, bouncing the aux
     * victim back to the main cache when the bounce-back mechanism is
     * active and its temporal bit is set.
     */
    template <Mode M>
    void victimToAux(const cache::LineState &victim, Cycle &transfer_cost,
                     const std::vector<FillTarget> &fill_targets);

    /** Bounce an aux victim back into the main cache (Section 2.2). */
    template <Mode M>
    void bounceBack(const cache::LineState &victim, Cycle &transfer_cost,
                    const std::vector<FillTarget> &fill_targets);

    /** Queue a line writeback, forcing a drain when the buffer is full. */
    template <Mode M>
    void pushWriteback(std::uint32_t bytes, Cycle &transfer_cost);

    /** Drain the whole write buffer over the bus (post-miss). */
    template <Mode M>
    void drainWriteBuffer();

    /** Issue a progressive next-line prefetch for @p pf_line. */
    template <Mode M>
    void issuePrefetch(Addr pf_line);

    /** Install the pending prefetched line into the aux cache. */
    template <Mode M>
    void installPendingPrefetch();

    /** Record a classified demand miss. */
    template <Mode M>
    void classify(Addr addr, bool was_miss);

    /** Update the per-line temporal bit from the instruction tag. */
    static void applyTemporalTag(cache::CacheArray::LineRef line,
                                 bool tagged,
                                 bool temporal_bits_enabled);

    /** Finish one access: accounting and cache-busy update. */
    template <Mode M>
    void complete(Cycle completion, Cycle lock_until);

    /** Replacement policy for main-cache fills. */
    cache::ReplacementPolicy mainPolicy() const;

    Config cfg_;
    cache::CacheArray main_;
    std::optional<cache::CacheArray> aux_;
    sim::WriteBuffer writeBuffer_;
    std::optional<sim::MissClassifier> classifier_;
    /**
     * Read cursor into a shared shadow pass (useShadowOutcomes());
     * null = classify with classifier_.
     */
    const sim::ShadowOutcome *shadowCursor_ = nullptr;
    const sim::ShadowOutcome *shadowEnd_ = nullptr;
    sim::RunStats stats_;

    Cycle now_ = 0;
    /** Completion cycle of the previous access (processor resumes). */
    Cycle procReadyAt_ = 1;
    Cycle cacheFreeAt_ = 0;
    Cycle busFreeAt_ = 0;

    // Single-line bypass buffer (BypassMode::NonTemporalBuffered).
    Addr bypassBufferLine_ = 0;
    bool bypassBufferValid_ = false;

    // One outstanding progressive prefetch (Section 4.4).
    struct PendingPrefetch
    {
        Addr line = 0;
        std::uint32_t count = 1;
        Cycle readyAt = 0;
        bool valid = false;
    };
    PendingPrefetch pending_;
    bool finished_ = false;

    // Per-miss scratch, members so the hot path does not allocate.
    std::vector<Addr> fetchScratch_;
    std::vector<FillTarget> fillScratch_;

    /** Access path chosen at construction (fixed for the run). */
    FeatureSet featureSet_ = FeatureSet::General;
    /** Statistics fidelity (switchable mid-run by the sampler). */
    StatsMode statsMode_ = StatsMode::Detailed;
    /** Access-path instantiation: statsMode_ plus the observers. */
    Mode mode_ = Mode::Detailed;

    /** Attached observers; all null in the common, fast case. */
    Observers obs_;
};

/** Simulate @p t under @p cfg and return the statistics. */
sim::RunStats simulateTrace(const trace::Trace &t, const Config &cfg,
                            DispatchMode dispatch = DispatchMode::Auto);

/**
 * simulateTrace() classifying from @p shadow, the sim::shadowPass()
 * of @p t at @p cfg's classifier geometry (see useShadowOutcomes()).
 * Bit-identical statistics to the live-classifier overload.
 */
sim::RunStats simulateTrace(const trace::Trace &t, const Config &cfg,
                            const std::vector<sim::ShadowOutcome> &shadow);

/** Simulate a streamed trace under @p cfg and return the statistics. */
sim::RunStats simulateSource(trace::TraceSource &src, const Config &cfg,
                             DispatchMode dispatch = DispatchMode::Auto);

} // namespace core
} // namespace sac

#endif // SAC_CORE_SOFT_CACHE_HH
