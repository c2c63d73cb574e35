/**
 * @file
 * SMARTS-style statistical sampling of trace simulations: instead of
 * simulating every record at full fidelity, the sampled engine
 * measures U detailed windows of W records at a stride of S records,
 * functionally warms the cache state for a bounded number of records
 * before each window, and fast-forwards (skips) the rest. Per-window
 * miss ratio / AMAT / traffic samples feed a running mean/variance
 * from which CLT confidence intervals are derived, so every estimate
 * is reported together with its own +/- error bound.
 *
 * The pieces:
 *  - SampleStats: Welford-accumulated scalar samples with
 *    confidence-interval math (normal quantiles, half-width,
 *    relative error);
 *  - SamplingOptions: window/stride/warmup geometry plus confidence
 *    and an optional adaptive stopping rule, with Config-style
 *    validationError();
 *  - SampleReport: the per-metric SampleStats, the record accounting
 *    and the exact-fallback flag of one sampled run;
 *  - SampledEngine: drives any trace::TraceSource through a simulator
 *    (core::SoftwareAssistedCache with its warming-specialized access
 *    path) with one period walker in three modes: warmed (run),
 *    build (buildLibrary) and restore (runCheckpointed and every
 *    worker of runCheckpointedParallel).
 *
 * The engine is a template over the simulator so src/sim never links
 * against src/core (sac_core links sac_sim; the reverse edge would be
 * a cycle). What a simulator must model, per entry point:
 *
 *   run:              void runDetailed(const trace::Record *, size_t);
 *                     void runWarming(const trace::Record *, size_t);
 *                     const sim::RunStats &stats() const;
 *                     void finish();
 *   buildLibrary:     runWarming, stats, and
 *                     ArchState exportState() const;
 *   runCheckpointed:  runDetailed, stats, finish, and
 *                     void importState(const ArchState &);
 *   runCheckpointedParallel: what runCheckpointed needs, plus
 *                     const MissClassifier *classifier() const;
 *                     void seedClassifier(const MissClassifier &);
 *
 * Warming must update all architectural state (arrays, LRU, temporal
 * bits, write buffer, clocks) exactly as the detailed path does —
 * bit-for-bit, proven by the warming-state differential tests — while
 * statistics collection is compiled out.
 */

#ifndef SAC_SIM_SAMPLING_HH
#define SAC_SIM_SAMPLING_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/checkpoint.hh"
#include "src/sim/miss_classifier.hh"
#include "src/sim/run_stats.hh"
#include "src/trace/record.hh"
#include "src/trace/trace_source.hh"
#include "src/util/thread_pool.hh"
#include "src/util/types.hh"

namespace sac {
namespace sim {

/**
 * Two-sided normal quantile for a confidence level in (0, 1): the z
 * with P(|N(0,1)| <= z) = confidence (1.96 for 95%, 2.576 for 99%).
 */
double confidenceZ(double confidence);

/** Format "mean +/-half" with @p decimals digits (table cells). */
std::string formatWithCi(double mean, double half_width, int decimals);

/**
 * Running scalar sample accumulator (Welford) with CLT interval math.
 * One instance per sampled metric; samples are per-window means of
 * equal-sized windows, so their average equals the aggregate ratio.
 */
class SampleStats
{
  public:
    /** Record one per-window sample. */
    void add(double x);

    /** Number of windows sampled. */
    std::uint64_t count() const { return n_; }

    /** Sample mean (0 when empty). */
    double mean() const { return n_ ? mean_ : 0.0; }

    /** Unbiased sample variance (0 when fewer than 2 samples). */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

    /**
     * CLT half-width of the two-sided confidence interval:
     * z * sqrt(variance / n). Infinite when fewer than 2 samples
     * (one window says nothing about its own error).
     */
    double halfWidth(double confidence) const;

    /**
     * Half-width relative to |mean|: the adaptive stopping metric.
     * Infinite when the half-width is unknown; 0 when the half-width
     * is 0 (a constant sequence estimates itself exactly). A zero
     * mean with nonzero half-width is infinite.
     */
    double relativeError(double confidence) const;

    /**
     * Bit-exact accumulator equality (count, mean, m2) — the
     * differential tests' definition of "same samples in the same
     * order", which is what the parallel replay merge guarantees.
     */
    bool operator==(const SampleStats &) const = default;

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0; //!< sum of squared deviations (Welford)
};

/** Geometry and stopping rule of one sampled run. */
struct SamplingOptions
{
    /** Detailed records per measurement window. */
    std::uint64_t window = 1024;

    /** Records from one window start to the next (period). */
    std::uint64_t stride = 16384;

    /**
     * Records functionally warmed immediately before each window;
     * the first stride - window - warmup records of each period are
     * skipped outright (fast-forward). Clamped to stride - window, so
     * any value >= that (e.g. the stride itself) disables skipping
     * entirely: pure SMARTS functional warming.
     */
    std::uint64_t warmup = 4096;

    /** Two-sided confidence level of the reported intervals. */
    double confidence = 0.95;

    /**
     * Adaptive mode: when > 0, stop sampling (and skip the rest of
     * the stream) once the miss-ratio estimate's relative error at
     * the configured confidence reaches this target and at least
     * minWindows windows were measured.
     */
    double targetRelativeError = 0.0;

    /** Windows required before the adaptive rule may stop. */
    std::uint64_t minWindows = 8;

    /** Hard cap on measured windows; 0 = unlimited. */
    std::uint64_t maxWindows = 0;

    /**
     * The first constraint this geometry violates, or nullopt when it
     * is valid (the Config::validationError() convention).
     */
    std::optional<std::string> validationError() const;

    /** fatal() on an invalid geometry (mirrors Config::validate). */
    void validate() const;
};

/** Everything one sampled run produced. */
struct SampleReport
{
    /** Per-window miss-ratio samples. */
    SampleStats missRatio;
    /** Per-window AMAT (cycles per access) samples. */
    SampleStats amat;
    /** Per-window memory-traffic samples (4-byte words / access). */
    SampleStats wordsPerAccess;

    /** Confidence level the intervals below are quoted at. */
    double confidence = 0.95;

    /** Complete measurement windows taken. */
    std::uint64_t windows = 0;

    // Record accounting: total = detailed + warmed + skipped.
    std::uint64_t recordsTotal = 0;
    std::uint64_t recordsDetailed = 0;
    std::uint64_t recordsWarmed = 0;
    std::uint64_t recordsSkipped = 0;

    /**
     * True when every record was simulated at full detail (nothing
     * warmed or skipped): the estimates are exact, not statistical,
     * and their half-widths are 0. Short streams fall back to this.
     */
    bool exact = false;

    /**
     * Cumulative simulator statistics over the detailed records (the
     * full-run statistics when exact).
     */
    RunStats detailed;

    /** Point estimate of the miss ratio. */
    double missRatioEstimate() const
    {
        return exact ? detailed.missRatio() : missRatio.mean();
    }

    /** Point estimate of the AMAT. */
    double amatEstimate() const
    {
        return exact ? detailed.amat() : amat.mean();
    }

    /** Point estimate of words fetched per access. */
    double wordsPerAccessEstimate() const
    {
        return exact ? detailed.wordsFetchedPerAccess()
                     : wordsPerAccess.mean();
    }

    /** Half-width of @p s at the report's confidence (0 when exact). */
    double halfWidthOf(const SampleStats &s) const
    {
        return exact ? 0.0 : s.halfWidth(confidence);
    }

    /** Bit-exact report equality (every field, RunStats included). */
    bool operator==(const SampleReport &) const = default;
};

/**
 * What the parallel replay path actually did — exposed so the harness
 * can account intra-trace parallelism (the parallel.* counters)
 * without re-deriving the partitioning.
 */
struct ParallelReplayStats
{
    /** Did the parallel path run (false = serial fallback)? */
    bool parallel = false;
    /** Detailed windows replayed concurrently. */
    std::uint64_t windows = 0;
    /** Worker shards the windows were partitioned over. */
    std::uint64_t workers = 0;
    /** Nanoseconds spent in the ordered merge of worker results. */
    std::uint64_t mergeNanos = 0;
};
/**
 * The windowed sampler. Stateless apart from its options; every entry
 * point may be called any number of times (each call is one
 * independent sampled replay). All four walk the same period schedule
 * through walk(), in one of its three modes.
 */
class SampledEngine
{
  public:
    using Options = SamplingOptions;

    /** @param opt validated on construction (fatal on bad geometry) */
    explicit SampledEngine(Options opt) : opt_(opt) { opt_.validate(); }

    const Options &options() const { return opt_; }

    /**
     * Drain @p src through @p sim: each period of opt.stride records
     * starts with opt.window detailed records (one sample), then
     * skips, then functionally warms opt.warmup records leading into
     * the next window. Ends when the source does (or early, in
     * adaptive mode, once the target error is met — the remainder of
     * the stream is then skipped without simulation). Calls
     * sim.finish() before returning.
     */
    template <class Sim>
    SampleReport
    run(trace::TraceSource &src, Sim &sim) const
    {
        return sampled<Mode::Warmed>(src, sim, nullptr);
    }

    /**
     * True when this geometry benefits from a checkpoint library: a
     * gap of warm/skip records exists between windows. When stride ==
     * window every record is simulated in full detail anyway (the
     * exact fallback), so there is no warming to persist and callers
     * should run() directly.
     */
    bool checkpointable() const { return opt_.stride > opt_.window; }

    /**
     * One warming pass that fills @p lib with the live-point at the
     * start of every detailed window, mirroring run()'s replay/skip
     * pattern exactly: window-position records and warmup records are
     * replayed in warming mode (architecturally bit-identical to the
     * detailed path), skip-position records are skipped. The sim must
     * be freshly constructed. The builder never stops early — it has
     * no statistics to converge on — so the library covers every
     * window any later run() or runCheckpointed() can reach,
     * including adaptive runs that stop sooner. A stream that ends
     * inside a gap gets one more, trailing live-point.
     */
    template <class Sim>
    void
    buildLibrary(trace::TraceSource &src, Sim &sim,
                 CheckpointLibrary &lib) const
    {
        lib.clear();
        walk<Mode::Build>(src, sim, &lib, 0, noLimit,
                          [](const WindowSample &) { return false; });
    }

    /**
     * run() with the functional warming replaced by live-point
     * restores: before detailed window k the simulator's architectural
     * state is overwritten with checkpoint k, and the whole inter-
     * window gap (skip + warmup) is fast-forwarded without touching
     * the simulator. Statistics advance only inside detailed windows
     * in both paths, so the resulting RunStats (and every per-window
     * sample) are bit-identical to run() over the same source — at
     * warming cost zero. @p lib must have loaded as Hit for the
     * matching key (or been built by buildLibrary over the same
     * source).
     */
    template <class Sim>
    SampleReport
    runCheckpointed(trace::TraceSource &src, Sim &sim,
                    const CheckpointLibrary &lib) const
    {
        return sampled<Mode::Restore>(src, sim, &lib);
    }

    /**
     * runCheckpointed() fanned out over @p workers pool shards. The
     * library makes every detailed window state-independent — window k
     * is a pure function of (checkpoint k, the window's records) — so
     * the windows are partitioned into contiguous per-worker batches,
     * each worker replays its batch on a private simulator from
     * @p make_sim over a private src.clone(), and the per-window
     * results are merged in window order. The merge is bit-identical
     * to the serial path by construction:
     *
     *  - every RunStats counter is an exact integer (the cycle total
     *    is a double summing integer latencies, far below 2^53), so
     *    summing per-worker stats in worker order reproduces the
     *    serial totals exactly; the completion cycle merges by max,
     *    which equals the serial run's final (largest) value because
     *    checkpoint clocks advance monotonically with window index;
     *  - the per-window sample triples are computed from identical
     *    operands (same restored state, same records) and re-fed into
     *    Welford accumulation in global window order, so every mean,
     *    m2 and confidence interval matches to the last bit;
     *  - the two pieces of whole-stream state that summation cannot
     *    reproduce are handled explicitly: the three-C classifier is
     *    re-seeded per worker from a cheap address-only shadow
     *    pre-pass (its state is a pure function of the detailed
     *    address stream), and writeBufferFullStalls — which finish()
     *    overwrites with the write buffer's checkpoint-restored
     *    absolute counter — is taken from the last worker alone.
     *
     * The last worker additionally replicates the serial tail: the
     * trailing partial window, the builder's trailing live-point on a
     * short gap skip, and the one finish() of the run. The original
     * @p src is consumed only on the serial fallback path — taken for
     * adaptive geometries (the stopping rule is inherently
     * sequential), unknown stream lengths, un-clonable sources, or
     * fewer than two full windows — so a failed parallel attempt can
     * always re-run serially on the pristine source. @p out, when
     * given, reports what actually happened.
     */
    template <class SimFactory>
    SampleReport
    runCheckpointedParallel(trace::TraceSource &src,
                            SimFactory &&make_sim,
                            const CheckpointLibrary &lib,
                            util::ThreadPool &pool, unsigned workers,
                            ParallelReplayStats *out = nullptr) const
    {
        const auto serial = [&]() {
            auto sim = make_sim();
            return runCheckpointed(src, sim, lib);
        };
        if (out)
            *out = ParallelReplayStats{};

        const std::uint64_t W = opt_.window;
        const std::uint64_t S = opt_.stride;
        const auto hint = src.sizeHint();
        if (workers <= 1 || S <= W || !hint || opt_.targetRelativeError > 0.0)
            return serial();

        const std::uint64_t N = *hint;
        // Full windows the stream holds; the plan honors maxWindows
        // exactly as the serial loop does (cap, then drain the rest
        // as skipped records with the early-stop flag set).
        const std::uint64_t full = N >= W ? (N - W) / S + 1 : 0;
        const bool capped = opt_.maxWindows > 0 && full >= opt_.maxWindows;
        const std::uint64_t planned = capped ? opt_.maxWindows : full;
        // The uncapped tail needs checkpoint `full` (the next-window
        // or trailing live-point); a library built over this source
        // always has it, but a foreign prefix falls back to serial.
        if (planned < 2 || lib.size() < (capped ? planned : full + 1))
            return serial();
        if (workers > planned)
            workers = static_cast<unsigned>(planned);

        auto first_clone = src.clone();
        if (!first_clone)
            return serial();

        const std::uint64_t base = planned / workers;
        const std::uint64_t extra = planned % workers;
        std::vector<std::uint64_t> begins(workers);
        for (unsigned w = 0, next = 0; w < workers; ++w) {
            begins[w] = next;
            next += static_cast<unsigned>(base) +
                    (w < extra ? 1u : 0u);
        }

        // The three-C classifier is whole-stream shadow state that is
        // deliberately absent from ArchState: the serial replay
        // reproduces it by feeding the detailed windows in order on
        // one simulator. Its evolution is a pure function of the
        // detailed *address* stream (hits and misses mutate the
        // seen-set and shadow LRU identically), so a classifier-only
        // pre-pass over the windows reconstructs, at a small fraction
        // of full replay cost, the exact state a serial run holds
        // when each worker's first window begins.
        std::vector<MissClassifier> seeds;
        {
            auto probe = make_sim();
            if (const MissClassifier *fresh = probe.classifier()) {
                auto pre = src.clone();
                if (!pre)
                    return serial();
                ShadowSim shadow{*fresh, {}};
                seeds.reserve(workers - 1);
                std::uint64_t done = 0;
                walk<Mode::Restore>(
                    *pre, shadow, &lib, 0, begins.back(),
                    [&](const WindowSample &) {
                        if (++done == begins[seeds.size() + 1])
                            seeds.push_back(shadow.classifier);
                        return false;
                    });
                if (seeds.size() + 1 < workers)
                    return serial(); // short stream
            }
        }

        struct WorkerResult
        {
            bool ok = false;
            std::uint64_t detailed = 0;
            RunStats stats;
            std::vector<WindowSample> samples;
        };
        std::vector<WorkerResult> results(workers);

        const auto replay = [&](std::unique_ptr<trace::TraceSource>
                                    own,
                                std::uint64_t begin, std::uint64_t end,
                                const MissClassifier *seed,
                                WorkerResult &res) {
            if (!own || own->skip(begin * S) != begin * S)
                return;
            auto sim = make_sim();
            if (seed)
                sim.seedClassifier(*seed);
            // The last worker of an uncapped plan walks on into the
            // serial tail; every other batch ends with its window.
            const bool last = end == planned;
            const Walked walked = walk<Mode::Restore>(
                *own, sim, &lib, begin, last && !capped ? noLimit : end,
                [&res](const WindowSample &s) {
                    res.samples.push_back(s);
                    return false;
                });
            res.detailed = walked.detailed;
            if (last) {
                // The run's one finish(), exactly where the serial
                // walk seals: its write-buffer drain lands in this
                // worker's (the last) stats segment.
                sim.finish();
                res.stats = sim.stats();
            } else {
                // Snapshot before sealing: intermediate workers have
                // no serial-path finish, but the simulator is sealed
                // for destruction after the copy.
                res.stats = sim.stats();
                sim.finish();
            }
            // A stream shorter or longer than its size hint moved the
            // windows: the plan was built on a lie.
            res.ok = res.samples.size() == end - begin;
        };

        std::vector<std::future<void>> futures;
        futures.reserve(workers);
        for (unsigned w = 0; w < workers; ++w) {
            const std::uint64_t begin = begins[w];
            const std::uint64_t end =
                w + 1 < workers ? begins[w + 1] : planned;
            const MissClassifier *seed =
                w > 0 && !seeds.empty() ? &seeds[w - 1] : nullptr;
            auto own = w == 0 ? std::move(first_clone) : src.clone();
            futures.push_back(pool.submit(
                [&replay, own = std::move(own), begin, end, seed,
                 &res = results[w]]() mutable {
                    replay(std::move(own), begin, end, seed, res);
                }));
        }
        // Help-wait: this may itself be running on a pool task (a
        // sweep cell), and a plain get() with every worker parked
        // would deadlock the pool.
        for (auto &f : futures)
            pool.helpWait(f);

        for (const auto &res : results) {
            if (!res.ok)
                return serial(); // src untouched: clean re-run
        }

        const auto merge_start = std::chrono::steady_clock::now();
        SampleReport rep;
        rep.confidence = opt_.confidence;
        RunStats total;
        for (std::size_t i = 0; i < results.size(); ++i) {
            RunStats stats = results[i].stats;
            // finish() REPLACES writeBufferFullStalls with the write
            // buffer's absolute counter, which importState restores
            // from the live-point (it carries the builder's count up
            // to that window). The serial run therefore reports
            // lib(last checkpoint) + tail stalls — exactly the last
            // worker's post-finish value. Intermediate workers never
            // reach that overwrite, so their incremental counts are
            // noise the serial path discards: drop them.
            if (i + 1 < results.size())
                stats.writeBufferFullStalls = 0;
            total += stats;
            for (const auto &s : results[i].samples)
                addSample(rep, s);
            rep.recordsDetailed += results[i].detailed;
        }
        rep.recordsSkipped = N - rep.recordsDetailed;
        rep.recordsTotal = N;
        rep.exact = !capped && rep.recordsSkipped == 0;
        rep.detailed = total;
        const auto merge_ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - merge_start)
                .count();
        if (out) {
            out->parallel = true;
            out->windows = rep.windows;
            out->workers = workers;
            out->mergeNanos = static_cast<std::uint64_t>(merge_ns);
        }
        return rep;
    }

  private:
    /** What walk() does with each period (see walk()). */
    enum class Mode
    {
        Warmed,  //!< run(): detailed windows, functionally warmed gaps
        Build,   //!< buildLibrary(): export a live-point per window
        Restore, //!< runCheckpointed() and the parallel workers
    };

    /** The library a mode writes (Build) or reads (the others). */
    template <Mode M>
    using LibraryFor = std::conditional_t<M == Mode::Build,
                                          CheckpointLibrary,
                                          const CheckpointLibrary>;

    /** One complete window's measurements. */
    struct WindowSample
    {
        double missRatio, amat, words;
    };

    /** Record accounting of one walk. */
    struct Walked
    {
        std::uint64_t detailed = 0;
        std::uint64_t warmed = 0;
        std::uint64_t skipped = 0;
        /** The window callback asked to stop. */
        bool stopped = false;
    };

    /**
     * The classifier alone, as a simulator: walked over the detailed
     * windows, it yields the classifier state each parallel worker is
     * seeded with. Restores and statistics are no-ops.
     */
    struct ShadowSim
    {
        MissClassifier classifier;
        RunStats none;

        void importState(const ArchState &) {}
        void runDetailed(const trace::Record *recs, std::size_t n)
        {
            for (std::size_t i = 0; i < n; ++i)
                classifier.access(recs[i].addr, false);
        }
        const RunStats &stats() const { return none; }
    };

    static constexpr std::uint64_t noLimit =
        std::numeric_limits<std::uint64_t>::max();

    /**
     * The one period walker behind every entry point. @p src starts
     * at window @p first; each period of opt.stride records is a
     * window of opt.window records and then a gap, handled per mode:
     *
     *  - Warmed: the window runs in detail; the gap skips, then
     *    functionally warms opt.warmup records into the next window;
     *  - Build: each window start exports a live-point into @p lib;
     *    window and warmup records replay in warming mode, the skip
     *    is skipped, and a stream that ends inside the gap appends a
     *    trailing live-point;
     *  - Restore: checkpoint k of @p lib is imported before window k,
     *    the window runs in detail, and the whole gap is skipped (the
     *    next live-point replaces its warming). A stream that ends
     *    inside the gap adopts the trailing live-point, so finish()
     *    seals the state a warmed run reaches through the trailing
     *    warm records. A library without checkpoint k ends the walk
     *    like an ended stream.
     *
     * Each complete detailed window's sample goes to @p on_window,
     * which returns true to stop (Walked::stopped; @p src is then just
     * past that window). Otherwise the walk ends with the stream, or
     * after window @p last - 1 without its gap. The mode is a template
     * parameter so that no per-record branch is added.
     */
    template <Mode M, class Sim, class OnWindow>
    Walked
    walk(trace::TraceSource &src, Sim &sim, LibraryFor<M> *lib,
         std::uint64_t first, std::uint64_t last,
         OnWindow &&on_window) const
    {
        const std::uint64_t gap = opt_.stride - opt_.window;
        const std::uint64_t warm =
            M == Mode::Restore ? 0 : std::min(opt_.warmup, gap);
        const std::uint64_t skip = gap - warm;

        std::vector<trace::Record> buf(static_cast<std::size_t>(
            std::min<std::uint64_t>(trace::TraceSource::defaultChunkRecords,
                                    opt_.window)));
        // Feed up to n records to `step` in chunks; returns how many
        // the stream had (fewer than n = it ended).
        const auto feed = [&](std::uint64_t n, auto &&step) {
            std::uint64_t got = 0;
            while (got < n) {
                const std::size_t chunk = src.next(
                    buf.data(), static_cast<std::size_t>(
                                    std::min<std::uint64_t>(buf.size(),
                                                            n - got)));
                if (chunk == 0)
                    break;
                step(buf.data(), chunk);
                got += chunk;
            }
            return got;
        };

        Walked w;
        RunStats prev; // stats snapshot at the last window boundary
        for (std::uint64_t k = first;; ++k) {
            if constexpr (M == Mode::Build) {
                // The first one is the fresh simulator; restoring it
                // is what makes window 0 identical between the warmed
                // and restored runs.
                lib->append(sim.exportState());
            } else if constexpr (M == Mode::Restore) {
                const ArchState *cp = lib->checkpointAt(k);
                if (!cp)
                    break;
                sim.importState(*cp);
            }

            // 1. The window: detailed, or warmed when building.
            const std::uint64_t got =
                feed(opt_.window, [&sim](const trace::Record *r,
                                         std::size_t n) {
                    if constexpr (M == Mode::Build)
                        sim.runWarming(r, n);
                    else
                        sim.runDetailed(r, n);
                });
            (M == Mode::Build ? w.warmed : w.detailed) += got;
            if (got < opt_.window)
                break;
            if constexpr (M != Mode::Build) {
                if (on_window(sampleOf(prev, sim.stats()))) {
                    w.stopped = true;
                    break;
                }
            }
            if (k + 1 == last)
                break;

            // 2. The gap: skip, then warm into the next window.
            const std::uint64_t skipped = skip > 0 ? src.skip(skip) : 0;
            w.skipped += skipped;
            bool ended = skipped < skip;
            if constexpr (M != Mode::Restore) {
                if (!ended) {
                    const std::uint64_t warmed =
                        feed(warm, [&sim](const trace::Record *r,
                                          std::size_t n) {
                            sim.runWarming(r, n);
                        });
                    w.warmed += warmed;
                    ended = warmed < warm;
                }
            }
            if (ended) {
                if constexpr (M == Mode::Build) {
                    lib->append(sim.exportState());
                } else if constexpr (M == Mode::Restore) {
                    if (const ArchState *tail = lib->checkpointAt(k + 1))
                        sim.importState(*tail);
                }
                break;
            }
            // Warmed records moved architectural state but not the
            // statistics; resnapshot so the next window's delta
            // covers exactly its own records.
            prev = sim.stats();
        }
        return w;
    }

    /**
     * run() and runCheckpointed(): one serial walk, the stopping rule
     * applied per window, then the report.
     */
    template <Mode M, class Sim>
    SampleReport
    sampled(trace::TraceSource &src, Sim &sim,
            const CheckpointLibrary *lib) const
    {
        SampleReport rep;
        rep.confidence = opt_.confidence;
        const Walked w =
            walk<M>(src, sim, lib, 0, noLimit,
                    [&](const WindowSample &s) { return addSample(rep, s); });
        rep.recordsDetailed = w.detailed;
        rep.recordsWarmed = w.warmed;
        // Enough windows: the rest of the stream is skipped unseen.
        rep.recordsSkipped = w.skipped + (w.stopped ? drainSkip(src) : 0);
        sim.finish();
        rep.recordsTotal = rep.recordsDetailed + rep.recordsWarmed +
                           rep.recordsSkipped;
        rep.exact = !w.stopped && rep.recordsWarmed == 0 &&
                    rep.recordsSkipped == 0;
        rep.detailed = sim.stats();
        return rep;
    }

    /** The sample of the window between snapshots @p prev and @p cur. */
    static WindowSample sampleOf(const RunStats &prev, const RunStats &cur);

    /**
     * Add @p s to @p rep's samples; returns whether the stopping rule
     * (maxWindows, or the adaptive error target) now holds.
     */
    bool addSample(SampleReport &rep, const WindowSample &s) const;

    /** Skip the rest of @p src; returns the records discarded. */
    static std::uint64_t drainSkip(trace::TraceSource &src);

    Options opt_;
};

} // namespace sim
} // namespace sac

#endif // SAC_SIM_SAMPLING_HH
