#include "src/core/soft_cache.hh"

#include <algorithm>

#include "src/telemetry/event_trace.hh"
#include "src/telemetry/interval.hh"
#include "src/telemetry/set_profile.hh"
#include "src/trace/trace_source.hh"
#include "src/util/logging.hh"

namespace sac {
namespace core {

using telemetry::EventKind;

const char *
toString(FeatureSet fs)
{
    switch (fs) {
      case FeatureSet::Standard:
        return "standard";
      case FeatureSet::Victim:
        return "victim";
      case FeatureSet::Soft:
        return "soft";
      case FeatureSet::SoftPrefetch:
        return "soft-prefetch";
      case FeatureSet::General:
        return "general";
    }
    return "?";
}

FeatureSet
featureSetOf(const Config &cfg)
{
    // Bypassing interleaves with every other mechanism; leave it to
    // the general path rather than doubling the lattice.
    if (cfg.bypass != BypassMode::None)
        return FeatureSet::General;
    const bool aux = cfg.auxLines > 0;
    const bool virt = cfg.virtualLines;
    const bool pf = cfg.prefetch;
    if (!aux && !virt && !pf)
        return FeatureSet::Standard;
    if (aux && !virt && !pf)
        return FeatureSet::Victim;
    if (aux && virt && !pf)
        return FeatureSet::Soft;
    if (aux && virt && pf)
        return FeatureSet::SoftPrefetch;
    return FeatureSet::General;
}

SoftwareAssistedCache::SoftwareAssistedCache(Config cfg,
                                             DispatchMode dispatch)
    : cfg_(std::move(cfg)),
      main_((cfg_.validate(), cfg_.cacheSizeBytes), cfg_.lineBytes,
            cfg_.assoc),
      writeBuffer_(cfg_.writeBufferEntries)
{
    if (cfg_.auxLines > 0) {
        const std::uint32_t aux_assoc =
            cfg_.auxAssoc == 0 ? cfg_.auxLines : cfg_.auxAssoc;
        aux_.emplace(static_cast<std::uint64_t>(cfg_.auxLines) *
                         cfg_.lineBytes,
                     cfg_.lineBytes, aux_assoc);
    }
    if (cfg_.classifyMisses) {
        classifier_.emplace(
            static_cast<std::uint32_t>(cfg_.cacheSizeBytes /
                                       cfg_.lineBytes),
            cfg_.lineBytes);
    }
    featureSet_ = dispatch == DispatchMode::General
                      ? FeatureSet::General
                      : featureSetOf(cfg_);
}

void
SoftwareAssistedCache::observe(const Observers &obs)
{
    SAC_ASSERT(!obs.setProfiler ||
                   obs.setProfiler->numSets() == main_.numSets(),
               "set profiler sized for ",
               obs.setProfiler ? obs.setProfiler->numSets() : 0,
               " sets, main cache has ", main_.numSets());
    // A recorder attached mid-run counts from the current state, not
    // from zero, so its first snapshot holds only observed accesses.
    if (obs.interval && obs.interval != obs_.interval)
        obs.interval->startFrom(stats_);
    obs_ = obs;
    selectMode();
}

void
SoftwareAssistedCache::setStatsMode(StatsMode m)
{
    statsMode_ = m;
    selectMode();
}

void
SoftwareAssistedCache::selectMode()
{
    if (statsMode_ == StatsMode::Warming)
        mode_ = Mode::Warming;
    else
        mode_ = obs_.any() ? Mode::Observed : Mode::Detailed;
}

void
SoftwareAssistedCache::run(const trace::Trace &t)
{
    runBatch(t.data(), t.size());
    finish();
}

void
SoftwareAssistedCache::run(trace::TraceSource &src)
{
    std::vector<trace::Record> batch(trace::TraceSource::defaultChunkRecords);
    std::size_t n;
    while ((n = src.next(batch.data(), batch.size())) > 0)
        runBatch(batch.data(), n);
    finish();
}

template <SoftwareAssistedCache::Mode M, bool MayAux, bool MayVirtual,
          bool MayPrefetch, bool MayBypass>
void
SoftwareAssistedCache::runBatchTmpl(const trace::Record *recs,
                                    std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        accessTmpl<M, MayAux, MayVirtual, MayPrefetch, MayBypass>(recs[i]);
        if constexpr (M == Mode::Observed) {
            if (obs_.auditor)
                obs_.auditor->afterAccess(*this, recs[i]);
            if (obs_.interval)
                obs_.interval->afterAccess(stats_, writeBuffer_.occupancy());
        }
    }
}

template <SoftwareAssistedCache::Mode M>
void
SoftwareAssistedCache::runBatchDispatch(const trace::Record *recs,
                                        std::size_t n)
{
    switch (featureSet_) {
      case FeatureSet::Standard:
        runBatchTmpl<M, false, false, false, false>(recs, n);
        return;
      case FeatureSet::Victim:
        runBatchTmpl<M, true, false, false, false>(recs, n);
        return;
      case FeatureSet::Soft:
        runBatchTmpl<M, true, true, false, false>(recs, n);
        return;
      case FeatureSet::SoftPrefetch:
        runBatchTmpl<M, true, true, true, false>(recs, n);
        return;
      case FeatureSet::General:
        break;
    }
    runBatchTmpl<M, true, true, true, true>(recs, n);
}

void
SoftwareAssistedCache::runBatch(const trace::Record *recs,
                                std::size_t n)
{
    switch (mode_) {
      case Mode::Warming:
        runBatchDispatch<Mode::Warming>(recs, n);
        return;
      case Mode::Detailed:
        runBatchDispatch<Mode::Detailed>(recs, n);
        return;
      case Mode::Observed:
        runBatchDispatch<Mode::Observed>(recs, n);
        return;
    }
}

template <SoftwareAssistedCache::Mode M>
void
SoftwareAssistedCache::event(EventKind kind, Cycle cycle, Addr addr,
                             std::uint32_t arg)
{
    if constexpr (M == Mode::Observed) {
        if (obs_.tracer)
            obs_.tracer->record(kind, cycle, addr, arg);
    }
}

template <SoftwareAssistedCache::Mode M, bool MayAux, bool MayVirtual,
          bool MayPrefetch, bool MayBypass>
void
SoftwareAssistedCache::accessTmpl(const trace::Record &rec)
{
    SAC_ASSERT(!finished_, "access() after finish()");
    // Blocking processor: the reference issues rec.delta cycles of
    // instruction work after the previous access completed (the
    // completing cycle overlaps the first work cycle).
    now_ = procReadyAt_ + rec.delta - 1;
    if constexpr (detailed(M)) {
        ++stats_.accesses;
        if (rec.isRead())
            ++stats_.reads;
        else
            ++stats_.writes;
        event<M>(EventKind::Access, now_, rec.addr, rec.isWrite());
    }

    Cycle start = std::max(now_, cacheFreeAt_);
    const Addr line = main_.lineAddrOf(rec.addr);

    if constexpr (M == Mode::Observed) {
        if (obs_.setProfiler)
            obs_.setProfiler->onAccess(main_.setIndexOf(line));
    }

    // Land a pending prefetch that has arrived; if this very access
    // wants the in-flight line, stall until it lands. pending_.valid
    // is only ever set by issuePrefetch, which requires cfg_.prefetch.
    if constexpr (MayPrefetch) {
        if (pending_.valid) {
            if (pending_.readyAt <= start) {
                installPendingPrefetch<M>();
            } else if (aux_ && pending_.line <= line &&
                       line < pending_.line + pending_.count) {
                start = pending_.readyAt;
                installPendingPrefetch<M>();
            }
        }
    }

    // 1. Main cache lookup.
    if (const auto way = main_.findWay(line)) {
        handleMainHit<M>(rec, *way, start);
        return;
    }

    // 2. Bypassing of non-temporal references (Fig 3a baselines).
    if constexpr (MayBypass) {
        if (cfg_.bypass != BypassMode::None && !rec.temporal) {
            handleBypass<M>(rec, start);
            return;
        }
    }

    // 3. Aux (bounce-back / victim / prefetch buffer) lookup.
    if constexpr (MayAux) {
        if (aux_) {
            if (const auto way = aux_->findWay(line)) {
                handleAuxHit<M, MayPrefetch>(rec, *way, start);
                return;
            }
        }
    }

    // 4. Demand miss.
    handleMiss<M, MayAux, MayVirtual, MayPrefetch>(rec, start);
}

template <SoftwareAssistedCache::Mode M>
void
SoftwareAssistedCache::handleMainHit(const trace::Record &rec,
                                     std::uint32_t way, Cycle start)
{
    const std::uint32_t set = main_.setIndexOf(main_.lineAddrOf(rec.addr));
    cache::CacheArray::LineRef l = main_.line(set, way);
    main_.touch(set, way);
    if (rec.isWrite())
        l.setDirty();
    applyTemporalTag(l, rec.temporal, cfg_.temporalBits);
    l.setPrefetched(false);
    if constexpr (detailed(M)) {
        ++stats_.mainHits;
        event<M>(EventKind::MainHit, start, rec.addr, 0);
        classify<M>(rec.addr, false);
    }
    const Cycle completion = start + cfg_.timing.mainHitTime;
    complete<M>(completion, completion);
}

template <SoftwareAssistedCache::Mode M, bool MayPrefetch>
void
SoftwareAssistedCache::handleAuxHit(const trace::Record &rec,
                                    std::uint32_t way, Cycle start)
{
    SAC_ASSERT(aux_, "aux hit without an aux cache");
    const Addr line = main_.lineAddrOf(rec.addr);
    const std::uint32_t aux_set = aux_->setIndexOf(line);
    cache::CacheArray::LineRef a = aux_->line(aux_set, way);
    // The prefetched bit is only ever set while installing a prefetch,
    // which requires cfg_.prefetch: compile the check out otherwise.
    const bool was_prefetched = MayPrefetch && a.prefetched();

    if constexpr (detailed(M)) {
        ++stats_.auxHits;
        ++stats_.swaps;
        event<M>(EventKind::AuxHit, start, rec.addr, was_prefetched);
        event<M>(EventKind::Swap, start, rec.addr, 0);
        if (was_prefetched) {
            ++stats_.auxPrefetchHits;
            ++stats_.prefetchesUseful;
        }
        classify<M>(rec.addr, false);
    }

    // Swap with the resident main-cache line: the aux line moves to
    // its home set; the displaced main line takes the vacated aux
    // slot (no aux eviction happens on a swap).
    const std::uint32_t set = main_.setIndexOf(line);
    const std::uint32_t mway = main_.victimWay(set, mainPolicy());
    cache::CacheArray::LineRef m = main_.line(set, mway);
    const cache::LineState displaced = m.state();

    m.assign(a.state());
    m.setPrefetched(false);
    if (rec.isWrite())
        m.setDirty();
    applyTemporalTag(m, rec.temporal, cfg_.temporalBits);
    main_.touch(set, mway);

    if (displaced.valid &&
        aux_->setIndexOf(displaced.lineAddr) == aux_set) {
        a.assign(displaced);
        aux_->touch(aux_set, way);
    } else {
        // The displaced line cannot live in this aux set (only
        // possible with a set-associative aux cache): discard it.
        if (displaced.valid && displaced.dirty) {
            Cycle hidden = 0;
            pushWriteback<M>(cfg_.lineBytes, hidden);
        }
        a.clear();
    }

    const Cycle completion = start + cfg_.timing.auxHitTime;
    Cycle lock = completion + cfg_.timing.swapLockCycles;
    if constexpr (MayPrefetch) {
        if (was_prefetched) {
            // After the swap the main cache stays stalled one extra
            // cycle to check for the next prefetched line's presence.
            lock += cfg_.timing.prefetchHitExtraStall;
            issuePrefetch<M>(line + 1);
        }
    }
    complete<M>(completion, lock);
}

template <SoftwareAssistedCache::Mode M>
void
SoftwareAssistedCache::handleBypass(const trace::Record &rec, Cycle start)
{
    const Addr line = main_.lineAddrOf(rec.addr);
    const bool buffer_hit =
        cfg_.bypass == BypassMode::NonTemporalBuffered && rec.isRead() &&
        bypassBufferValid_ && bypassBufferLine_ == line;
    if constexpr (detailed(M)) {
        event<M>(EventKind::Bypass, start, rec.addr, buffer_hit);
        classify<M>(rec.addr, !buffer_hit);
    }

    if (rec.isWrite()) {
        // Non-allocating write: write-through via the write buffer.
        Cycle transfer_cost = 0;
        pushWriteback<M>(rec.size, transfer_cost);
        if constexpr (detailed(M))
            ++stats_.bypasses;
        const Cycle completion =
            start + cfg_.timing.mainHitTime + transfer_cost;
        complete<M>(completion, completion);
        return;
    }

    if (buffer_hit) {
        if constexpr (detailed(M))
            ++stats_.bypassBufferHits;
        const Cycle completion = start + cfg_.timing.mainHitTime;
        complete<M>(completion, completion);
        return;
    }

    if constexpr (detailed(M))
        ++stats_.bypasses;
    const Cycle request_sent = start + cfg_.timing.mainHitTime;
    const Cycle mem_start = std::max(request_sent, busFreeAt_);
    const std::uint64_t bytes =
        cfg_.bypass == BypassMode::NonTemporalBuffered ? cfg_.lineBytes
                                                       : rec.size;
    const Cycle data_done = mem_start + cfg_.timing.memoryLatency +
                            cfg_.timing.transferCycles(bytes);
    busFreeAt_ = data_done;
    if constexpr (detailed(M))
        stats_.bytesFetched += bytes;
    if (cfg_.bypass == BypassMode::NonTemporalBuffered) {
        if constexpr (detailed(M))
            ++stats_.linesFetched;
        bypassBufferLine_ = line;
        bypassBufferValid_ = true;
    }
    complete<M>(data_done, data_done);
}

template <SoftwareAssistedCache::Mode M, bool MayAux, bool MayVirtual,
          bool MayPrefetch>
void
SoftwareAssistedCache::handleMiss(const trace::Record &rec, Cycle start)
{
    const Addr line = main_.lineAddrOf(rec.addr);
    if constexpr (detailed(M)) {
        ++stats_.misses;
        classify<M>(rec.addr, true);
        if constexpr (M == Mode::Observed) {
            if (obs_.setProfiler)
                obs_.setProfiler->onMiss(main_.setIndexOf(line));
        }
    }

    // Which physical lines must be fetched? For a spatially tagged
    // miss with virtual lines enabled, the whole aligned virtual
    // block, skipping lines already resident (the pipelined, hidden
    // coherence check of Section 2.1). The scratch vector is a member
    // so the hot path allocates only on the first miss.
    std::vector<Addr> &fetch_lines = fetchScratch_;
    fetch_lines.clear();
    if (MayVirtual && cfg_.virtualLines && rec.spatial) {
        std::uint32_t n = cfg_.linesPerVirtualLine();
        if (cfg_.variableVirtualLines) {
            // Section 3.2 extension: the virtual line spans
            // 2^spatialLevel physical lines, capped by the config.
            const std::uint32_t wanted =
                1u << std::min<std::uint32_t>(rec.spatialLevel, 8);
            n = std::min(n, wanted);
        }
        const Addr block = line & ~static_cast<Addr>(n - 1);
        for (Addr l = block; l < block + n; ++l) {
            if (cfg_.virtualLineCoherenceCheck && main_.contains(l) &&
                l != line) {
                continue;
            }
            fetch_lines.push_back(l);
        }
    } else {
        fetch_lines.push_back(line);
    }
    SAC_ASSERT(!fetch_lines.empty() &&
                   std::find(fetch_lines.begin(), fetch_lines.end(),
                             line) != fetch_lines.end(),
               "the missed line must be fetched");

    const auto n_fetched = static_cast<std::uint32_t>(fetch_lines.size());
    const Cycle request_sent = start + cfg_.timing.mainHitTime;
    const Cycle mem_start = std::max(request_sent, busFreeAt_);
    const Cycle data_done =
        mem_start + cfg_.timing.missPenalty(n_fetched, cfg_.lineBytes);
    busFreeAt_ = data_done;

    if constexpr (detailed(M)) {
        stats_.linesFetched += n_fetched;
        stats_.bytesFetched +=
            static_cast<std::uint64_t>(n_fetched) * cfg_.lineBytes;
        stats_.extraLinesFetched += n_fetched - 1;
        if (n_fetched > 1)
            ++stats_.virtualLineFills;
        event<M>(EventKind::Miss, start, rec.addr, n_fetched);
    }

    // Install the fetched lines; victim transfers and bounce-backs
    // proceed while the miss is outstanding and only lengthen the
    // stall when they exceed the hidden budget.
    Cycle transfer_cost = 0;
    std::vector<FillTarget> &fill_targets = fillScratch_;
    fill_targets.clear();
    for (const Addr l : fetch_lines) {
        // Intra-fill checks only apply when the miss fetches more
        // than one line, which requires a virtual-line fill.
        if constexpr (MayVirtual) {
            // Bounce-back cache coherence (Section 2.2): if another
            // line of the virtual block already sits in the aux
            // cache, the fetch cannot be aborted; its main-cache
            // slot is simply not filled (tagged invalid).
            if (MayAux && l != line && aux_ && aux_->contains(l)) {
                if constexpr (detailed(M))
                    ++stats_.coherenceInvalidations;
                continue;
            }
            // A bounce-back triggered by an earlier fill of this
            // very miss can have re-installed a pending line
            // already; filling it again would duplicate it.
            if (l != line && main_.contains(l))
                continue;
        }
        if constexpr (detailed(M)) {
            event<M>(EventKind::Fill, start, l * cfg_.lineBytes,
                     l == line);
        }
        const FillTarget target =
            insertIntoMain<M>(l, transfer_cost, fill_targets);
        if (l == line) {
            cache::CacheArray::LineRef m =
                main_.line(target.set, target.way);
            if (rec.isWrite())
                m.setDirty();
            applyTemporalTag(m, rec.temporal, cfg_.temporalBits);
        }
    }

    const Cycle hidden_budget = data_done - request_sent;
    const Cycle extra =
        transfer_cost > hidden_budget ? transfer_cost - hidden_budget : 0;
    const Cycle completion = data_done + extra;

    drainWriteBuffer<M>();
    complete<M>(completion, completion);

    // Software-assisted progressive prefetching (Section 4.4): fetch
    // the physical line following the (virtual) block as well.
    if constexpr (MayPrefetch) {
        if (cfg_.prefetch &&
            (!cfg_.prefetchSpatialOnly || rec.spatial)) {
            Addr last = line;
            for (const Addr l : fetch_lines)
                last = std::max(last, l);
            issuePrefetch<M>(last + 1);
        }
    }
}

template <SoftwareAssistedCache::Mode M>
SoftwareAssistedCache::FillTarget
SoftwareAssistedCache::insertIntoMain(
    Addr line_addr, Cycle &transfer_cost,
    std::vector<FillTarget> &fill_targets)
{
    const std::uint32_t set = main_.setIndexOf(line_addr);
    const std::uint32_t way = main_.victimWay(set, mainPolicy());

    // Second-chance aging for the replacement-priority scheme: a
    // temporal line that was skipped in favor of a younger
    // non-temporal victim consumes its protection, so dead reusable
    // data cannot pin a way forever (the set-associative analogue of
    // the bounce-back bit reset).
    if (cfg_.preferNonTemporalReplacement) {
        const std::uint64_t chosen = main_.line(set, way).lruStamp();
        for (std::uint32_t w = 0; w < main_.assoc(); ++w) {
            cache::CacheArray::LineRef l = main_.line(set, w);
            if (w != way && l.valid() && l.temporal() &&
                l.lruStamp() < chosen) {
                l.setTemporal(false);
            }
        }
    }

    cache::CacheArray::LineRef slot = main_.line(set, way);
    const cache::LineState victim = slot.state();

    // Register the slot before handling the victim, so a bounce-back
    // triggered by this very fill sees it as a miss target.
    fill_targets.push_back({set, way});

    cache::LineState fresh;
    fresh.lineAddr = line_addr;
    fresh.valid = true;
    slot.assign(fresh);
    main_.touch(set, way);

    if (victim.valid) {
        if constexpr (detailed(M)) {
            event<M>(EventKind::Evict, now_,
                     victim.lineAddr * cfg_.lineBytes, victim.dirty);
            if constexpr (M == Mode::Observed) {
                if (obs_.setProfiler)
                    obs_.setProfiler->onEviction(set);
            }
        }
        if (aux_ && cfg_.auxReceivesVictims) {
            victimToAux<M>(victim, transfer_cost, fill_targets);
        } else if (victim.dirty) {
            pushWriteback<M>(cfg_.lineBytes, transfer_cost);
            transfer_cost += cfg_.timing.dirtyTransferCycles;
        }
    }
    return {set, way};
}

template <SoftwareAssistedCache::Mode M>
void
SoftwareAssistedCache::victimToAux(
    const cache::LineState &victim, Cycle &transfer_cost,
    const std::vector<FillTarget> &fill_targets)
{
    SAC_ASSERT(aux_, "victimToAux without an aux cache");
    transfer_cost += cfg_.timing.dirtyTransferCycles;

    const cache::LineState aux_victim =
        aux_->insert(victim.lineAddr, cache::ReplacementPolicy::Lru);
    auto slot = aux_->find(victim.lineAddr);
    SAC_ASSERT(slot.has_value(), "freshly inserted aux line vanished");
    slot->setDirty(victim.dirty);
    slot->setTemporal(victim.temporal);

    if (!aux_victim.valid)
        return;

    if (cfg_.bounceBack && aux_victim.temporal) {
        bounceBack<M>(aux_victim, transfer_cost, fill_targets);
    } else if (aux_victim.dirty) {
        pushWriteback<M>(cfg_.lineBytes, transfer_cost);
    }
}

template <SoftwareAssistedCache::Mode M>
void
SoftwareAssistedCache::bounceBack(
    const cache::LineState &victim, Cycle &transfer_cost,
    const std::vector<FillTarget> &fill_targets)
{
    const std::uint32_t set = main_.setIndexOf(victim.lineAddr);
    const std::uint32_t way =
        main_.victimWay(set, cache::ReplacementPolicy::Lru);

    // A bounce aimed at a slot the in-flight miss fills would be
    // overwritten anyway: cancel it so no ping-pong can occur.
    for (const auto &t : fill_targets) {
        if (t.set == set && t.way == way) {
            if constexpr (detailed(M)) {
                ++stats_.bouncesCancelled;
                event<M>(EventKind::BounceCancelled, now_,
                         victim.lineAddr * cfg_.lineBytes, 0);
            }
            if (victim.dirty)
                pushWriteback<M>(cfg_.lineBytes, transfer_cost);
            return;
        }
    }

    cache::CacheArray::LineRef resident = main_.line(set, way);
    if (resident.valid() && resident.dirty() && writeBuffer_.full()) {
        // Bouncing onto a dirty line with a full write buffer is
        // aborted (Section 2.2); the victim still needs writing back.
        if constexpr (detailed(M)) {
            ++stats_.bouncesAborted;
            event<M>(EventKind::BounceAborted, now_,
                     victim.lineAddr * cfg_.lineBytes, 0);
        }
        if (victim.dirty)
            pushWriteback<M>(cfg_.lineBytes, transfer_cost);
        return;
    }

    if (resident.valid() && resident.dirty())
        pushWriteback<M>(cfg_.lineBytes, transfer_cost);

    if constexpr (M == Mode::Observed) {
        // The bounce displaces whatever the chosen way held: an
        // eviction from the profiler's point of view.
        if (obs_.setProfiler && resident.valid())
            obs_.setProfiler->onEviction(set);
    }
    resident.assign(victim);
    // The "dynamic adjustment" of Section 2.2: the bit must be set
    // again by a tagged reference before the line may bounce again.
    if (cfg_.resetTemporalBitOnBounce)
        resident.setTemporal(false);
    resident.setPrefetched(false);
    main_.touch(set, way);
    transfer_cost += cfg_.timing.dirtyTransferCycles;
    if constexpr (detailed(M)) {
        ++stats_.bounces;
        event<M>(EventKind::Bounce, now_,
                 victim.lineAddr * cfg_.lineBytes, 0);
    }
}

template <SoftwareAssistedCache::Mode M>
void
SoftwareAssistedCache::pushWriteback(std::uint32_t bytes,
                                     Cycle &transfer_cost)
{
    if (writeBuffer_.full()) {
        // Forced drain on the critical path. The buffer's own stall
        // counter advances in both fidelities (it is object state the
        // warming differential compares); only the RunStats mirror is
        // fidelity-gated.
        writeBuffer_.noteFullStall();
        if constexpr (detailed(M))
            ++stats_.writeBufferFullStalls;
        const std::uint32_t drained = writeBuffer_.pop();
        if constexpr (detailed(M))
            stats_.bytesWrittenBack += drained;
        transfer_cost += cfg_.timing.transferCycles(drained);
        busFreeAt_ += cfg_.timing.transferCycles(drained);
    }
    writeBuffer_.push(bytes);
    if constexpr (detailed(M)) {
        event<M>(EventKind::Writeback, now_, 0, bytes);
    }
}

template <SoftwareAssistedCache::Mode M>
void
SoftwareAssistedCache::drainWriteBuffer()
{
    while (writeBuffer_.occupancy() > 0) {
        const std::uint32_t bytes = writeBuffer_.pop();
        if constexpr (detailed(M))
            stats_.bytesWrittenBack += bytes;
        busFreeAt_ += cfg_.timing.transferCycles(bytes);
    }
}

template <SoftwareAssistedCache::Mode M>
void
SoftwareAssistedCache::issuePrefetch(Addr pf_line)
{
    if (!cfg_.prefetch || !aux_)
        return;
    const std::uint32_t degree = cfg_.prefetchDegree;

    // Software instrumentation makes prefetch-on-miss unnecessary:
    // skip requests whose lines are all already around.
    bool all_resident = true;
    for (Addr l = pf_line; l < pf_line + degree; ++l) {
        if (!main_.contains(l) && !aux_->contains(l) &&
            !(pending_.valid && pending_.line <= l &&
              l < pending_.line + pending_.count)) {
            all_resident = false;
            break;
        }
    }
    if (all_resident) {
        if constexpr (detailed(M))
            ++stats_.prefetchesAvoided;
        return;
    }

    if (pending_.valid) {
        // Only one progressive prefetch is outstanding; land the old
        // one now if it has arrived, otherwise drop it.
        if (pending_.readyAt <= busFreeAt_)
            installPendingPrefetch<M>();
        else
            pending_.valid = false;
    }
    pending_.line = pf_line;
    pending_.count = degree;
    pending_.readyAt =
        busFreeAt_ + cfg_.timing.memoryLatency +
        cfg_.timing.transferCycles(
            static_cast<std::uint64_t>(degree) * cfg_.lineBytes);
    pending_.valid = true;
    busFreeAt_ = pending_.readyAt;
    if constexpr (detailed(M)) {
        ++stats_.prefetchesIssued;
        event<M>(EventKind::Prefetch, now_, pf_line * cfg_.lineBytes,
                 degree);
        stats_.bytesFetched +=
            static_cast<std::uint64_t>(degree) * cfg_.lineBytes;
        stats_.linesFetched += degree;
    }
}

template <SoftwareAssistedCache::Mode M>
void
SoftwareAssistedCache::installPendingPrefetch()
{
    SAC_ASSERT(pending_.valid, "no pending prefetch to install");
    pending_.valid = false;
    if (!aux_)
        return;

    for (Addr l = pending_.line; l < pending_.line + pending_.count;
         ++l) {
        if (main_.contains(l) || aux_->contains(l))
            continue;

        // Resident prefetched lines enforce the limit: once it is
        // reached, a prefetched line preferably replaces another
        // prefetched line (Section 4.4). The array maintains the
        // count incrementally, so no rescan per install.
        const auto policy =
            aux_->prefetchedCount() >= cfg_.maxPrefetchedInAux
                ? cache::ReplacementPolicy::LruPreferPrefetched
                : cache::ReplacementPolicy::Lru;

        const cache::LineState aux_victim = aux_->insert(l, policy);
        auto slot = aux_->find(l);
        SAC_ASSERT(slot.has_value(),
                   "freshly installed prefetch line vanished");
        slot->setPrefetched(true);
        if constexpr (detailed(M)) {
            event<M>(EventKind::PrefetchInstall, now_,
                     l * cfg_.lineBytes, 0);
        }

        if (aux_victim.valid) {
            Cycle hidden = 0; // off the critical path
            if (cfg_.bounceBack && aux_victim.temporal)
                bounceBack<M>(aux_victim, hidden, {});
            else if (aux_victim.dirty)
                pushWriteback<M>(cfg_.lineBytes, hidden);
        }
    }
}

void
SoftwareAssistedCache::useShadowOutcomes(
    const std::vector<sim::ShadowOutcome> &codes)
{
    if (!cfg_.classifyMisses)
        return;
    classifier_.reset();
    shadowCursor_ = codes.data();
    shadowEnd_ = codes.data() + codes.size();
}

template <SoftwareAssistedCache::Mode M>
void
SoftwareAssistedCache::classify(Addr addr, bool was_miss)
{
    sim::ShadowOutcome outcome;
    if (shadowCursor_) {
        SAC_ASSERT(shadowCursor_ != shadowEnd_,
                   "shared shadow pass shorter than the replay");
        outcome = *shadowCursor_++;
    } else if (classifier_) {
        outcome = classifier_->outcome(addr);
    } else {
        return;
    }
    const auto cls = sim::classOf(outcome, was_miss);
    if (!cls)
        return; // hit: no miss class, nothing to count
    switch (*cls) {
      case sim::MissClass::Compulsory:
        ++stats_.compulsoryMisses;
        break;
      case sim::MissClass::Capacity:
        ++stats_.capacityMisses;
        break;
      case sim::MissClass::Conflict:
        ++stats_.conflictMisses;
        if constexpr (M == Mode::Observed) {
            if (obs_.setProfiler) {
                obs_.setProfiler->onConflict(
                    main_.setIndexOf(main_.lineAddrOf(addr)));
            }
        }
        break;
    }
}

void
SoftwareAssistedCache::applyTemporalTag(cache::CacheArray::LineRef line,
                                        bool tagged,
                                        bool temporal_bits_enabled)
{
    // The temporal bit is only ever set by a tagged reference; an
    // untagged reference leaves it unchanged (Section 2.2).
    if (temporal_bits_enabled && tagged)
        line.setTemporal(true);
}

template <SoftwareAssistedCache::Mode M>
void
SoftwareAssistedCache::complete(Cycle completion, Cycle lock_until)
{
    procReadyAt_ = completion;
    cacheFreeAt_ = std::max(cacheFreeAt_, lock_until);
    if constexpr (detailed(M)) {
        stats_.totalAccessCycles +=
            static_cast<double>(completion - now_);
        stats_.completionCycle =
            std::max(stats_.completionCycle, completion);
    }
}

cache::ReplacementPolicy
SoftwareAssistedCache::mainPolicy() const
{
    return cfg_.preferNonTemporalReplacement
               ? cache::ReplacementPolicy::LruPreferNonTemporal
               : cache::ReplacementPolicy::Lru;
}

void
SoftwareAssistedCache::finish()
{
    if (finished_)
        return;
    SAC_ASSERT(shadowCursor_ == shadowEnd_,
               "shared shadow pass longer than the replay");
    drainWriteBuffer<Mode::Detailed>();
    stats_.writeBufferFullStalls = writeBuffer_.fullStalls();
    finished_ = true;
    if (obs_.interval && statsMode_ == StatsMode::Detailed)
        obs_.interval->finish(stats_, writeBuffer_.occupancy());
}

sim::ArchState
SoftwareAssistedCache::exportState() const
{
    sim::ArchState s;
    s.mainLines = main_.snapshotLines();
    s.mainLruClock = main_.lruClock();
    s.hasAux = aux_.has_value();
    if (aux_) {
        s.auxLines = aux_->snapshotLines();
        s.auxLruClock = aux_->lruClock();
    }
    s.writeBuffer = writeBuffer_.snapshot();
    s.now = now_;
    s.procReadyAt = procReadyAt_;
    s.cacheFreeAt = cacheFreeAt_;
    s.busFreeAt = busFreeAt_;
    s.bypassBufferLine = bypassBufferLine_;
    s.bypassBufferValid = bypassBufferValid_;
    s.prefetchLine = pending_.line;
    s.prefetchCount = pending_.count;
    s.prefetchReadyAt = pending_.readyAt;
    s.prefetchValid = pending_.valid;
    return s;
}

void
SoftwareAssistedCache::importState(const sim::ArchState &s)
{
    SAC_ASSERT(s.hasAux == aux_.has_value(),
               "live-point aux presence does not match the config");
    main_.restoreLines(s.mainLines, s.mainLruClock);
    if (aux_)
        aux_->restoreLines(s.auxLines, s.auxLruClock);
    writeBuffer_.restore(s.writeBuffer);
    now_ = s.now;
    procReadyAt_ = s.procReadyAt;
    cacheFreeAt_ = s.cacheFreeAt;
    busFreeAt_ = s.busFreeAt;
    bypassBufferLine_ = s.bypassBufferLine;
    bypassBufferValid_ = s.bypassBufferValid;
    pending_.line = s.prefetchLine;
    pending_.count = s.prefetchCount;
    pending_.readyAt = s.prefetchReadyAt;
    pending_.valid = s.prefetchValid;
    finished_ = false;
}

bool
SoftwareAssistedCache::mainContains(Addr addr) const
{
    return main_.contains(main_.lineAddrOf(addr));
}

bool
SoftwareAssistedCache::auxContains(Addr addr) const
{
    return aux_ && aux_->contains(main_.lineAddrOf(addr));
}

bool
SoftwareAssistedCache::mainTemporalBit(Addr addr) const
{
    const auto line = main_.lineAddrOf(addr);
    const auto way = main_.findWay(line);
    if (!way)
        return false;
    return main_.line(main_.setIndexOf(line), *way).temporal;
}

bool
SoftwareAssistedCache::auxTemporalBit(Addr addr) const
{
    if (!aux_)
        return false;
    const auto line = main_.lineAddrOf(addr);
    const auto way = aux_->findWay(line);
    if (!way)
        return false;
    return aux_->line(aux_->setIndexOf(line), *way).temporal;
}

sim::RunStats
simulateTrace(const trace::Trace &t, const Config &cfg,
              DispatchMode dispatch)
{
    SoftwareAssistedCache sim(cfg, dispatch);
    sim.run(t);
    return sim.stats();
}

sim::RunStats
simulateTrace(const trace::Trace &t, const Config &cfg,
              const std::vector<sim::ShadowOutcome> &shadow)
{
    SoftwareAssistedCache sim(cfg);
    sim.useShadowOutcomes(shadow);
    sim.run(t);
    return sim.stats();
}

sim::RunStats
simulateSource(trace::TraceSource &src, const Config &cfg,
               DispatchMode dispatch)
{
    SoftwareAssistedCache sim(cfg, dispatch);
    sim.run(src);
    return sim.stats();
}

} // namespace core
} // namespace sac
