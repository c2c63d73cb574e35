#include "src/harness/experiment.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <fstream>
#include <future>
#include <optional>
#include <set>
#include <sstream>

#include "src/telemetry/counter_registry.hh"
#include "src/util/thread_pool.hh"
#include "src/workloads/workloads.hh"

namespace sac {
namespace harness {

Metric
amatMetric()
{
    return {"AMAT", [](const sim::RunStats &s) { return s.amat(); }, 3};
}

Metric
missRatioMetric()
{
    return {"miss ratio",
            [](const sim::RunStats &s) { return s.missRatio(); }, 4};
}

Metric
wordsPerAccessMetric()
{
    return {"words/ref",
            [](const sim::RunStats &s) {
                return s.wordsFetchedPerAccess();
            },
            3};
}

Metric
mainHitShareMetric()
{
    return {"main-hit share",
            [](const sim::RunStats &s) { return s.mainHitShare(); },
            3};
}

Metric
auxHitShareMetric()
{
    return {"aux-hit share",
            [](const sim::RunStats &s) { return s.auxHitShare(); }, 3};
}

const trace::Trace &
Runner::traceOf(const Workload &w)
{
    Slot<trace::Trace> *slot = nullptr;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto &entry = traces_[w.name];
        if (!entry)
            entry = std::make_unique<Slot<trace::Trace>>();
        slot = entry.get(); // stable: the map holds pointers
    }
    std::call_once(slot->once, [&] {
        const telemetry::ScopedPhase phase(phases_, "trace-gen");
        slot->value = w.build();
        tracesGenerated_.fetch_add(1);
    });
    return slot->value;
}

void
Runner::warmup(const std::vector<Workload> &workloads)
{
    const telemetry::ScopedPhase phase(phases_, "warmup");
    for (const auto &w : workloads)
        traceOf(w);
}

struct Runner::ShadowPass
{
    const Workload *workload = nullptr;
    std::uint32_t capacityLines = 0;
    std::uint32_t lineBytes = 0;
    std::once_flag once;
    std::vector<sim::ShadowOutcome> codes;
    /** Tasks still to finish with codes: its cells plus the pass. */
    std::atomic<std::size_t> users{0};
};

const std::vector<sim::ShadowOutcome> &
Runner::shadowCodes(ShadowPass &pass)
{
    std::call_once(pass.once, [&] {
        const trace::Trace &t = traceOf(*pass.workload);
        {
            const telemetry::ScopedPhase phase(phases_, "shadow-pass");
            pass.codes =
                sim::shadowPass(t, pass.capacityLines, pass.lineBytes);
        }
        std::lock_guard<std::mutex> lock(stackMutex_);
        ++stackCounters_.counter("classifier.shadow.passes",
                                 "shared three-C shadow passes built");
    });
    return pass.codes;
}

void
Runner::doneWithShadow(ShadowPass &pass)
{
    // The last user frees the codes (1 byte per record) at once
    // rather than when the sweep returns. Every earlier user has
    // finished reading them, and the pass task itself is a user, so
    // the build is complete too.
    if (pass.users.fetch_sub(1) != 1)
        return;
    pass.codes.clear();
    pass.codes.shrink_to_fit();
    std::lock_guard<std::mutex> lock(stackMutex_);
    ++stackCounters_.counter("classifier.shadow.released",
                             "shared shadow passes freed after their "
                             "last cell");
}

const Runner::CellResult &
Runner::cell(const Workload &w, const core::Config &cfg)
{
    return cellWith(w, cfg, nullptr);
}

const Runner::CellResult &
Runner::cellWith(const Workload &w, const core::Config &cfg,
                 ShadowPass *pass)
{
    const auto key = std::make_pair(w.name, cfg.cacheKey());
    Slot<CellResult> *slot = nullptr;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto &entry = results_[key];
        if (!entry)
            entry = std::make_unique<Slot<CellResult>>();
        slot = entry.get();
    }
    std::call_once(slot->once, [&] {
        const trace::Trace &t = traceOf(w);
        const std::vector<sim::ShadowOutcome> *codes =
            pass ? &shadowCodes(*pass) : nullptr;
        const telemetry::ScopedPhase phase(phases_, "sim");
        slot->value.stats = codes ? core::simulateTrace(t, cfg, *codes)
                                  : core::simulateTrace(t, cfg);
        slot->value.simSeconds = phase.elapsed();
        runsExecuted_.fetch_add(1);
        if (codes) {
            std::lock_guard<std::mutex> lock(stackMutex_);
            ++stackCounters_.counter(
                "classifier.shadow.cells",
                "exact cells classified from a shared shadow pass");
        }
    });
    return slot->value;
}

bool
stackFamilyEligible(const core::Config &cfg)
{
    // Only the Standard feature path is a plain LRU cache the stack
    // model reproduces. featureSetOf() does not look at
    // preferNonTemporalReplacement (it changes the victim choice, not
    // the feature lattice), so it is excluded here explicitly.
    return core::featureSetOf(cfg) == core::FeatureSet::Standard &&
           !cfg.preferNonTemporalReplacement &&
           stackPointOf(cfg).wellFormed();
}

bool
stackDerivableMetric(const Metric &metric)
{
    return metric.name == "miss ratio" ||
           metric.name == "words/ref" ||
           metric.name == "main-hit share" ||
           metric.name == "aux-hit share";
}

sim::StackPoint
stackPointOf(const core::Config &cfg)
{
    return {cfg.cacheSizeBytes, cfg.lineBytes, cfg.assoc};
}

sim::RunStats
stackStatsFor(const sim::StackDistanceEngine &eng,
              const core::Config &cfg)
{
    sim::RunStats s;
    s.accesses = eng.accesses();
    s.reads = eng.reads();
    s.writes = eng.writes();
    s.misses = eng.missCount(stackPointOf(cfg));
    // Standard path: every non-miss hits the main array, and every
    // miss fetches exactly one physical line (write-allocate).
    s.mainHits = s.accesses - s.misses;
    s.linesFetched = s.misses;
    s.bytesFetched = s.misses * cfg.lineBytes;
    return s;
}

void
Runner::runStackFamily(const Workload &w,
                       const std::vector<const core::Config *> &family)
{
    // Serialize passes per workload: a concurrent sweep requesting
    // the same family waits here, then finds the store filled and
    // skips its own traversal (cells shared, one pass total).
    std::mutex *pass_mutex = nullptr;
    {
        std::lock_guard<std::mutex> lock(stackMutex_);
        auto &slot = stackPassMutexes_[w.name];
        if (!slot)
            slot = std::make_unique<std::mutex>();
        pass_mutex = slot.get();
    }
    std::lock_guard<std::mutex> pass_lock(*pass_mutex);

    std::size_t missing = 0;
    {
        std::lock_guard<std::mutex> lock(stackMutex_);
        for (const core::Config *cfg : family) {
            if (!stackResults_.count({w.name, cfg->cacheKey()}))
                ++missing;
        }
        stackCounters_.counter("stack.pass.cached_cells",
                               "sweep cells served from the stack "
                               "store") += family.size() - missing;
    }
    if (missing == 0)
        return;

    // One traversal covers the whole family, so even a sweep that
    // adds a single new point to a mostly-cached family costs one
    // pass, never per-point replays.
    std::vector<sim::StackPoint> points;
    points.reserve(family.size());
    for (const core::Config *cfg : family)
        points.push_back(stackPointOf(*cfg));

    sim::StackDistanceEngine eng(points);
    std::uint64_t records = 0;
    {
        const trace::Trace &t = traceOf(w);
        const telemetry::ScopedPhase phase(phases_, "stack-pass");
        trace::MemoryTraceSource src(t);
        records = eng.run(src);
    }

    std::lock_guard<std::mutex> lock(stackMutex_);
    for (const core::Config *cfg : family) {
        stackResults_.try_emplace({w.name, cfg->cacheKey()},
                                  stackStatsFor(eng, *cfg));
    }
    ++stackCounters_.counter("stack.pass.traversals",
                             "single-pass stack traversals executed");
    stackCounters_.counter("stack.pass.records",
                           "records profiled by stack traversals") +=
        records;
    stackCounters_.counter("stack.pass.cells",
                           "sweep cells served fresh from a stack "
                           "pass") += missing;
}

const sim::RunStats *
Runner::stackStats(const Workload &w, const core::Config &cfg) const
{
    std::lock_guard<std::mutex> lock(stackMutex_);
    const auto it = stackResults_.find({w.name, cfg.cacheKey()});
    return it == stackResults_.end() ? nullptr : &it->second;
}

std::uint64_t
Runner::stackCounter(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(stackMutex_);
    return stackCounters_.value(name);
}

std::uint64_t
Runner::checkpointCounter(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(checkpointMutex_);
    return checkpointCounters_.value(name);
}

std::uint64_t
Runner::parallelCounter(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(parallelMutex_);
    return parallelCounters_.value(name);
}

Runner::SweepTiming
Runner::sweepExact(const std::vector<Workload> &workloads,
                   const std::vector<core::Config> &configs,
                   const std::vector<const core::Config *> &family,
                   unsigned jobs)
{
    const auto sweep_start = std::chrono::steady_clock::now();
    // Per-worker busy time: summed wall time of the pass and cell
    // tasks (nanoseconds so workers can accumulate without a double
    // CAS).
    std::atomic<std::uint64_t> busy_ns{0};
    const auto timed = [&busy_ns](const auto &work) {
        const auto t0 = std::chrono::steady_clock::now();
        work();
        busy_ns.fetch_add(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()));
    };
    const auto timed_cell = [this, &timed](const Workload &w,
                                           const core::Config &cfg,
                                           ShadowPass *pass) {
        timed([&] { cellWith(w, cfg, pass); });
        if (pass)
            doneWithShadow(*pass);
    };

    // Everything outside the stack family is exact-replayed.
    std::vector<const core::Config *> exact;
    for (const auto &cfg : configs) {
        if (std::find(family.begin(), family.end(), &cfg) == family.end())
            exact.push_back(&cfg);
    }

    if (!family.empty() && !exact.empty()) {
        std::lock_guard<std::mutex> lock(stackMutex_);
        stackCounters_.counter("stack.pass.fallback_cells",
                               "cells exact-replayed in "
                               "stack-dispatched sweeps") +=
            workloads.size() * exact.size();
    }
    const auto timed_pass = [this, &timed, &family](const Workload &w) {
        timed([&] { runStackFamily(w, family); });
    };

    // Shared shadow passes. The three-C shadow is a pure function of
    // (trace, classifier geometry), so the uncached exact cells of
    // one workload that classify at one geometry can share a single
    // pass; a group with fewer than two distinct cells gains nothing
    // over its own live classifier. The codes are freed as soon as
    // the pass's last cell finishes.
    const std::size_t n_exact = workloads.size() * exact.size();
    std::vector<std::string> exact_keys;
    for (const core::Config *cfg : exact)
        exact_keys.push_back(cfg->cacheKey());
    std::deque<ShadowPass> shadows; // stable addresses for the cells
    std::vector<ShadowPass *> cell_shadow(n_exact, nullptr);
    for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
        const Workload &w = workloads[wi];
        std::map<std::pair<std::uint32_t, std::uint32_t>,
                 std::vector<std::size_t>>
            groups;
        for (std::size_t ci = 0; ci < exact.size(); ++ci) {
            const core::Config &cfg = *exact[ci];
            if (!cfg.classifyMisses)
                continue;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                if (results_.count({w.name, exact_keys[ci]}))
                    continue;
            }
            groups[{static_cast<std::uint32_t>(cfg.cacheSizeBytes /
                                               cfg.lineBytes),
                    cfg.lineBytes}]
                .push_back(ci);
        }
        for (const auto &[geometry, members] : groups) {
            std::set<std::string> keys;
            for (const std::size_t ci : members)
                keys.insert(exact_keys[ci]);
            if (keys.size() < 2)
                continue;
            ShadowPass &pass = shadows.emplace_back();
            pass.workload = &w;
            pass.capacityLines = geometry.first;
            pass.lineBytes = geometry.second;
            pass.users = members.size() + 1;
            for (const std::size_t ci : members)
                cell_shadow[wi * exact.size() + ci] = &pass;
        }
    }
    const auto timed_shadow = [this, &timed](ShadowPass &pass) {
        timed([&] { shadowCodes(pass); });
        doneWithShadow(pass);
    };

    const std::size_t n_passes = family.empty() ? 0 : workloads.size();
    if (jobs > 1 && n_passes + shadows.size() + n_exact > 1) {
        // One pool runs the stack passes (one task per workload,
        // submitted first so the longest trace starts at once), the
        // shadow passes and every exact cell. Passes over different
        // workloads share nothing but the mutex-guarded stores;
        // run() latches each trace and each result exactly once, and
        // shadowCodes() each pass, so racing tasks block on the
        // first producer instead of duplicating work. The futures
        // re-raise any exception a task threw.
        util::ThreadPool pool(jobs);
        std::vector<std::future<void>> tasks;
        tasks.reserve(n_passes + shadows.size() + n_exact);
        for (std::size_t i = 0; i < n_passes; ++i) {
            const Workload &w = workloads[i];
            tasks.push_back(
                pool.submit([&timed_pass, &w] { timed_pass(w); }));
        }
        for (ShadowPass &pass : shadows) {
            tasks.push_back(pool.submit(
                [&timed_shadow, &pass] { timed_shadow(pass); }));
        }
        for (std::size_t i = 0; i < n_exact; ++i) {
            const Workload &w = workloads[i / exact.size()];
            const core::Config *cfg = exact[i % exact.size()];
            ShadowPass *pass = cell_shadow[i];
            tasks.push_back(pool.submit([&timed_cell, &w, cfg, pass] {
                timed_cell(w, *cfg, pass);
            }));
        }
        for (auto &task : tasks)
            task.get();
    } else {
        for (std::size_t i = 0; i < n_passes; ++i)
            timed_pass(workloads[i]);
        // Each shadow pass runs just before its first cell, so only
        // the passes of the workload being replayed hold codes.
        std::set<const ShadowPass *> started;
        for (std::size_t i = 0; i < n_exact; ++i) {
            ShadowPass *pass = cell_shadow[i];
            if (pass && started.insert(pass).second)
                timed_shadow(*pass);
            timed_cell(workloads[i / exact.size()],
                       *exact[i % exact.size()], pass);
        }
    }

    const double sweep_wall =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - sweep_start)
            .count();
    phases_.add("sweep", sweep_wall);
    SweepTiming timing;
    timing.wallSeconds = sweep_wall;
    timing.busySeconds = static_cast<double>(busy_ns.load()) * 1e-9;
    timing.jobs = std::max(1u, jobs);
    return timing;
}

std::vector<sim::RunStats>
Runner::runStreamed(const Workload &w,
                    const std::vector<core::Config> &configs,
                    unsigned jobs, std::size_t chunk_records)
{
    const telemetry::ScopedPhase phase(phases_, "sweep-streamed");
    std::vector<std::unique_ptr<core::SoftwareAssistedCache>> sims;
    sims.reserve(configs.size());
    for (const auto &cfg : configs)
        sims.push_back(
            std::make_unique<core::SoftwareAssistedCache>(cfg));

    // Producer: the workload's native streaming entry when it has
    // one; otherwise generate the full trace and replay it (still
    // correct, but memory then scales with the trace length).
    const auto produce =
        w.stream ? w.stream
                 : std::function<void(const trace::RecordSink &)>(
                       [&w](const trace::RecordSink &sink) {
                           const trace::Trace t = w.build();
                           for (const auto &rec : t)
                               sink(rec);
                       });
    // One bounded queue between the producer thread and this thread;
    // the per-config fan-out below is a barrier per chunk, so no
    // simulator can fall behind and no per-config queue can fill up
    // while its consumer is unscheduled (the deadlock a per-config
    // queue design would allow when pool threads < configs).
    trace::GeneratorTraceSource src(w.name, produce, chunk_records);

    // More workers than simulators can never help: each simulator is
    // sequential over its records.
    const std::size_t groups =
        std::min<std::size_t>(jobs, configs.size());
    std::optional<util::ThreadPool> pool;
    if (groups > 1)
        pool.emplace(static_cast<unsigned>(groups));

    // Double-buffered chunks: while the pool replays one chunk, this
    // thread already pulls the next from the producer queue, so the
    // queue handoff overlaps simulation instead of serializing with
    // it at every barrier.
    std::vector<trace::Record> batches[2] = {
        std::vector<trace::Record>(chunk_records),
        std::vector<trace::Record>(chunk_records)};
    std::vector<std::future<void>> tasks;
    tasks.reserve(groups);

    std::size_t cur = 0;
    std::size_t n = src.next(batches[cur].data(), chunk_records);
    while (n > 0) {
        if (pool) {
            // Fan the chunk out as `groups` contiguous simulator
            // groups — one task per worker, not per config, so the
            // per-chunk submit/notify overhead does not scale with
            // the sweep width.
            tasks.clear();
            const std::size_t per = (sims.size() + groups - 1) / groups;
            const trace::Record *data = batches[cur].data();
            for (std::size_t g0 = 0; g0 < sims.size(); g0 += per) {
                const std::size_t g1 =
                    std::min(sims.size(), g0 + per);
                tasks.push_back(pool->submit([&sims, g0, g1, data, n] {
                    for (std::size_t s = g0; s < g1; ++s)
                        sims[s]->replay(data, n);
                }));
            }
            const std::size_t nxt = 1 - cur;
            const std::size_t n_next =
                src.next(batches[nxt].data(), chunk_records);
            // Barrier: re-raises any worker exception; after it the
            // just-replayed buffer is free to be overwritten.
            for (auto &t : tasks)
                t.get();
            cur = nxt;
            n = n_next;
        } else {
            for (auto &sim : sims)
                sim->replay(batches[cur].data(), n);
            n = src.next(batches[cur].data(), chunk_records);
        }
    }

    std::vector<sim::RunStats> out;
    out.reserve(sims.size());
    for (auto &sim : sims) {
        sim->finish();
        out.push_back(sim->stats());
    }
    runsExecuted_.fetch_add(sims.size());
    return out;
}

Runner::SampledCell
Runner::computeSampledCell(const Workload &w, const core::Config &cfg,
                           const sim::SamplingOptions &opt,
                           const std::string &checkpoint_dir,
                           bool rebuild, std::uint64_t trace_hash,
                           util::ThreadPool *intra_pool,
                           unsigned intra_jobs)
{
    const sim::SampledEngine engine(opt);
    SampledCell out;
    const auto t0 = std::chrono::steady_clock::now();
    const trace::Trace &t = traceOf(w);
    core::SoftwareAssistedCache sim(cfg);
    if (!checkpoint_dir.empty()) {
        sim::CheckpointKey key;
        key.traceHash = trace_hash;
        key.configKey = cfg.cacheKey();
        key.window = opt.window;
        key.stride = opt.stride;
        key.warmup = opt.warmup;
        const std::string path = sim::CheckpointLibrary::pathFor(
            checkpoint_dir, t.name(), key);

        sim::CheckpointLibrary lib;
        using LoadResult = sim::CheckpointLibrary::LoadResult;
        const LoadResult r =
            rebuild ? LoadResult::Missing : lib.load(path, key);
        if (r == LoadResult::Hit) {
            out.libraryBytes = lib.loadedBytes();
        } else {
            // Warm once through the builder (a warming-only mirror of
            // the sampled replay), persist, then run the same restore
            // path a hit takes.
            core::SoftwareAssistedCache warmer(cfg);
            trace::MemoryTraceSource warm_src(t);
            engine.buildLibrary(warm_src, warmer, lib);
            out.libraryBytes = lib.save(path, key);
        }
        out.library = r;
        {
            std::lock_guard<std::mutex> lock(checkpointMutex_);
            if (r == LoadResult::Hit) {
                ++checkpointCounters_.counter(
                    "checkpoint.hits",
                    "sampled cells served from a live-point "
                    "library");
            } else {
                if (r == LoadResult::Stale)
                    ++checkpointCounters_.counter(
                        "checkpoint.stale",
                        "libraries rejected as stale (key, "
                        "version or file mismatch)");
                ++checkpointCounters_.counter(
                    "checkpoint.misses",
                    "sampled cells that warmed and wrote a "
                    "library");
            }
            checkpointCounters_.counter(
                "checkpoint.bytes",
                "bytes moved through .saclp files") += out.libraryBytes;
        }
        trace::MemoryTraceSource src(t);
        if (intra_pool && intra_jobs > 1) {
            out.intraJobs = intra_jobs;
            out.report = engine.runCheckpointedParallel(
                src,
                [&cfg] { return core::SoftwareAssistedCache(cfg); },
                lib, *intra_pool, intra_jobs, &out.parallel);
            const sim::ParallelReplayStats &ps = out.parallel;
            if (ps.parallel) {
                std::lock_guard<std::mutex> lock(parallelMutex_);
                parallelCounters_.counter(
                    "parallel.windows",
                    "detailed windows replayed concurrently") +=
                    ps.windows;
                parallelCounters_.counter(
                    "parallel.merge_ns",
                    "nanoseconds merging parallel partial "
                    "results") += ps.mergeNanos;
            }
        } else {
            out.report = engine.runCheckpointed(src, sim, lib);
        }
        out.fromCheckpoints = true;
    } else {
        trace::MemoryTraceSource src(t);
        out.report = engine.run(src, sim);
    }
    out.simSeconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    runsExecuted_.fetch_add(1);
    return out;
}

namespace {

/** Cache key of one sampled cell: identity + geometry + library. */
std::string
sampledCellKey(const std::string &workload,
               const std::string &cache_key,
               const sim::SamplingOptions &opt,
               const std::string &checkpoint_dir)
{
    std::ostringstream os;
    os << workload << '\x1f' << cache_key << '\x1f' << opt.window
       << ',' << opt.stride << ',' << opt.warmup << ','
       << opt.confidence << ',' << opt.targetRelativeError << ','
       << opt.minWindows << ',' << opt.maxWindows << '\x1f'
       << checkpoint_dir;
    return os.str();
}

} // namespace

const Runner::SampledCell &
Runner::sampledCellShared(const Workload &w, const core::Config &cfg,
                          const sim::SamplingOptions &opt,
                          const std::string &checkpoint_dir,
                          std::uint64_t trace_hash,
                          util::ThreadPool *intra_pool,
                          unsigned intra_jobs)
{
    const std::string key =
        sampledCellKey(w.name, cfg.cacheKey(), opt, checkpoint_dir);
    Slot<SampledCell> *slot = nullptr;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto &entry = sampledResults_[key];
        if (!entry)
            entry = std::make_unique<Slot<SampledCell>>();
        slot = entry.get();
    }
    std::call_once(slot->once, [&] {
        slot->value =
            computeSampledCell(w, cfg, opt, checkpoint_dir, false,
                               trace_hash, intra_pool, intra_jobs);
    });
    return slot->value;
}

std::vector<std::vector<Runner::SampledCell>>
Runner::sampleCells(const std::vector<Workload> &workloads,
                    const std::vector<core::Config> &configs,
                    const sim::SamplingOptions &opt, unsigned jobs,
                    const std::string &checkpoint_dir, bool rebuild,
                    unsigned intra_jobs)
{
    const telemetry::ScopedPhase phase(phases_, "sweep-sampled");
    const sim::SampledEngine engine(opt); // validates opt up front
    const bool use_library =
        !checkpoint_dir.empty() && engine.checkpointable();
    const std::string library_dir =
        use_library ? checkpoint_dir : std::string();
    // Intra-cell window replay needs a live-point library to slice;
    // plain sampled runs are a single sequential stream.
    const unsigned intra =
        use_library ? std::max(1u, intra_jobs) : 1u;

    // Latch every trace first so the parallel phase below measures
    // sampled replay alone (and workers never race a generation).
    for (const auto &w : workloads)
        traceOf(w);

    // Library identity is the trace *content*, not its name: hash
    // once per workload, outside the parallel phase.
    std::vector<std::uint64_t> trace_hashes(workloads.size(), 0);
    if (use_library) {
        for (std::size_t wi = 0; wi < workloads.size(); ++wi)
            trace_hashes[wi] = sim::hashTrace(traceOf(workloads[wi]));
    }

    std::vector<std::vector<SampledCell>> cells(
        workloads.size(), std::vector<SampledCell>(configs.size()));

    // --checkpoint-rebuild must warm-and-rewrite, so it bypasses the
    // shared cell store (and never poisons it with its fresh result —
    // a later plain run should still latch its own).
    // One pool serves both levels of parallelism: cell tasks fan out
    // across it, and each checkpointed cell may additionally shard
    // its window replay onto the same workers (the replay waits with
    // helpWait(), so nested submission cannot deadlock).
    const std::size_t n_cells = workloads.size() * configs.size();
    const unsigned pool_threads = std::max(jobs, intra);
    std::optional<util::ThreadPool> pool;
    if (pool_threads > 1 && (n_cells > 1 || intra > 1))
        pool.emplace(pool_threads);
    util::ThreadPool *intra_pool =
        (intra > 1 && pool) ? &*pool : nullptr;

    const auto run_cell = [&](std::size_t wi, std::size_t ci) {
        cells[wi][ci] =
            rebuild ? computeSampledCell(workloads[wi], configs[ci],
                                         opt, library_dir, true,
                                         trace_hashes[wi],
                                         intra_pool, intra)
                    : sampledCellShared(workloads[wi], configs[ci],
                                        opt, library_dir,
                                        trace_hashes[wi],
                                        intra_pool, intra);
    };

    if (pool && jobs > 1 && n_cells > 1) {
        std::vector<std::future<void>> tasks;
        tasks.reserve(n_cells);
        for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
            for (std::size_t ci = 0; ci < configs.size(); ++ci) {
                tasks.push_back(pool->submit(
                    [&run_cell, wi, ci] { run_cell(wi, ci); }));
            }
        }
        for (auto &t : tasks)
            pool->helpWait(t);
    } else {
        for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
            for (std::size_t ci = 0; ci < configs.size(); ++ci)
                run_cell(wi, ci);
        }
    }
    return cells;
}

namespace {

/** The report's sampled series matching @p metric, if any. */
const sim::SampleStats *
sampleSeriesOf(const Metric &metric, const sim::SampleReport &rep)
{
    if (metric.name == "miss ratio")
        return &rep.missRatio;
    if (metric.name == "AMAT")
        return &rep.amat;
    if (metric.name == "words/ref")
        return &rep.wordsPerAccess;
    return nullptr;
}

/** Point estimate matching @p series (one of the report's three). */
double
sampleEstimateOf(const sim::SampleStats *series,
                 const sim::SampleReport &rep)
{
    if (series == &rep.missRatio)
        return rep.missRatioEstimate();
    if (series == &rep.amat)
        return rep.amatEstimate();
    return rep.wordsPerAccessEstimate();
}

} // namespace

util::Table
sampledMatrix(const std::vector<Workload> &workloads,
              const std::vector<core::Config> &configs,
              const std::vector<std::vector<Runner::SampledCell>> &cells,
              const Metric &metric)
{
    std::vector<std::string> headers{"Benchmark"};
    for (const auto &cfg : configs)
        headers.push_back(cfg.name);
    util::Table table(std::move(headers));
    for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
        const auto row = table.addRow();
        table.set(row, 0, workloads[wi].name);
        for (std::size_t ci = 0; ci < configs.size(); ++ci) {
            const sim::SampleReport &rep = cells[wi][ci].report;
            if (const auto *series = sampleSeriesOf(metric, rep)) {
                table.set(row, ci + 1,
                          sim::formatWithCi(
                              sampleEstimateOf(series, rep),
                              rep.halfWidthOf(*series),
                              metric.decimals));
            } else {
                table.setNumber(row, ci + 1,
                                metric.extract(rep.detailed),
                                metric.decimals);
            }
        }
    }
    return table;
}

std::vector<Workload>
paperWorkloads(std::uint64_t seed)
{
    std::vector<Workload> out;
    for (const auto &b : workloads::paperBenchmarks()) {
        out.push_back(
            {b.name,
             [name = b.name, seed] {
                 return workloads::makeBenchmarkTrace(name, seed);
             },
             [name = b.name, seed](const trace::RecordSink &sink) {
                 workloads::streamBenchmarkTrace(name, sink, seed);
             }});
    }
    return out;
}

namespace {

/** Quote a CSV field when it contains separators or quotes. */
std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

std::string
toCsv(const util::Table &table)
{
    std::ostringstream os;
    for (std::size_t c = 0; c < table.cols(); ++c) {
        if (c)
            os << ',';
        os << csvField(table.header(c));
    }
    os << '\n';
    for (std::size_t r = 0; r < table.rows(); ++r) {
        for (std::size_t c = 0; c < table.cols(); ++c) {
            if (c)
                os << ',';
            os << csvField(table.cell(r, c));
        }
        os << '\n';
    }
    return os.str();
}

bool
writeCsvFile(const util::Table &table, const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << toCsv(table);
    return static_cast<bool>(os);
}

} // namespace harness
} // namespace sac
