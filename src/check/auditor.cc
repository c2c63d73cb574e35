#include "src/check/auditor.hh"

#include <sstream>

#include "src/util/logging.hh"

namespace sac {
namespace check {

namespace {

std::string
hexAddr(Addr a)
{
    std::ostringstream os;
    os << "0x" << std::hex << a;
    return os.str();
}

} // namespace

Auditor::Auditor(OnViolation mode) : mode_(mode) {}

void
Auditor::report(const char *kind, Cycle cycle, Addr addr,
                const std::string &message)
{
    ++counters_.counter(std::string("audit.violation.") + kind,
                        "structural invariant violations");
    if (mode_ == OnViolation::Panic) {
        util::panic("audit violation '", kind, "' at cycle ", cycle,
                    " addr ", hexAddr(addr), ": ", message);
    }
    violations_.push_back({kind, message, cycle, addr});
}

void
Auditor::auditArrays(const cache::CacheArray &main,
                     const cache::CacheArray *aux,
                     const core::Config &cfg, Cycle cycle)
{
    const auto audit_one = [&](const cache::CacheArray &arr,
                               const char *which) {
        for (std::uint32_t set = 0; set < arr.numSets(); ++set) {
            for (std::uint32_t way = 0; way < arr.assoc(); ++way) {
                const cache::LineState &l = arr.line(set, way);
                if (!l.valid)
                    continue;
                if (arr.setIndexOf(l.lineAddr) != set) {
                    report("set_mismatch", cycle, l.lineAddr,
                           util::detail::format(
                               which, " line ", hexAddr(l.lineAddr),
                               " sits in set ", set, " but maps to set ",
                               arr.setIndexOf(l.lineAddr)));
                }
                if (!cfg.temporalBits && l.temporal) {
                    report("temporal_without_tags", cycle, l.lineAddr,
                           util::detail::format(
                               which, " line ", hexAddr(l.lineAddr),
                               " has a temporal bit but the config has "
                               "temporalBits off"));
                }
                if (!cfg.prefetch && l.prefetched) {
                    report("prefetched_without_prefetch", cycle,
                           l.lineAddr,
                           util::detail::format(
                               which, " line ", hexAddr(l.lineAddr),
                               " is marked prefetched but the config "
                               "has prefetch off"));
                }
                for (std::uint32_t other = way + 1; other < arr.assoc();
                     ++other) {
                    const cache::LineState &o = arr.line(set, other);
                    if (!o.valid)
                        continue;
                    if (o.lineAddr == l.lineAddr) {
                        report("duplicate_way", cycle, l.lineAddr,
                               util::detail::format(
                                   which, " set ", set, " holds line ",
                                   hexAddr(l.lineAddr), " in ways ", way,
                                   " and ", other));
                    }
                    if (o.lruStamp == l.lruStamp) {
                        report("lru_stamp_clash", cycle, l.lineAddr,
                               util::detail::format(
                                   which, " set ", set, " ways ", way,
                                   " and ", other,
                                   " share LRU stamp ", l.lruStamp));
                    }
                }
            }
        }
    };

    audit_one(main, "main");
    if (aux != nullptr) {
        audit_one(*aux, "aux");
        if (aux->validCount() > cfg.auxLines) {
            report("aux_overflow", cycle, 0,
                   util::detail::format("aux cache holds ",
                                        aux->validCount(),
                                        " valid lines, capacity ",
                                        cfg.auxLines));
        }
        // The flagship bounce-back invariant: a physical line lives in
        // the main cache or the aux cache, never both (a swap moves,
        // it does not copy).
        for (std::uint32_t set = 0; set < aux->numSets(); ++set) {
            for (std::uint32_t way = 0; way < aux->assoc(); ++way) {
                const cache::LineState &l = aux->line(set, way);
                if (l.valid && main.contains(l.lineAddr)) {
                    report("duplicate_line", cycle, l.lineAddr,
                           util::detail::format(
                               "line ", hexAddr(l.lineAddr),
                               " is resident in both the main and the "
                               "aux cache"));
                }
            }
        }
    }
}

void
Auditor::auditStats(const sim::RunStats &stats, const core::Config &cfg,
                    Cycle cycle)
{
    const std::uint64_t served = stats.mainHits + stats.auxHits +
                                 stats.misses + stats.bypasses +
                                 stats.bypassBufferHits;
    if (served != stats.accesses) {
        report("access_accounting", cycle, 0,
               util::detail::format(
                   "hits+misses+bypasses = ", served, " but accesses = ",
                   stats.accesses));
    }
    if (stats.reads + stats.writes != stats.accesses) {
        report("access_accounting", cycle, 0,
               util::detail::format("reads+writes = ",
                                    stats.reads + stats.writes,
                                    " but accesses = ", stats.accesses));
    }
    if (cfg.classifyMisses) {
        const std::uint64_t classified = stats.compulsoryMisses +
                                         stats.capacityMisses +
                                         stats.conflictMisses;
        if (classified != stats.misses) {
            report("miss_class_accounting", cycle, 0,
                   util::detail::format("miss classes sum to ",
                                        classified, " but misses = ",
                                        stats.misses));
        }
    }

    // Traffic conservation: every fetched byte belongs to a fetched
    // physical line. Unbuffered non-temporal bypasses fetch partial
    // lines, so only a lower bound holds there.
    const std::uint64_t line_bytes =
        stats.linesFetched * cfg.lineBytes;
    const bool partial_fetches = cfg.bypass == core::BypassMode::NonTemporal;
    if (partial_fetches ? stats.bytesFetched < line_bytes
                        : stats.bytesFetched != line_bytes) {
        report("traffic_mismatch", cycle, 0,
               util::detail::format(
                   "bytes_fetched = ", stats.bytesFetched, " but ",
                   stats.linesFetched, " fetched lines account for ",
                   line_bytes, " bytes"));
    }
    // Writebacks drain whole lines unless bypassed writes enqueue
    // partial (write-through) entries.
    if (cfg.bypass == core::BypassMode::None &&
        stats.bytesWrittenBack % cfg.lineBytes != 0) {
        report("traffic_mismatch", cycle, 0,
               util::detail::format("bytes_written_back = ",
                                    stats.bytesWrittenBack,
                                    " is not a whole number of ",
                                    cfg.lineBytes, "-byte lines"));
    }
}

void
Auditor::auditNow(const core::SoftwareAssistedCache &cache)
{
    const core::Config &cfg = cache.config();
    const Cycle cycle = cache.now();

    auditArrays(cache.mainArray(), cache.auxArray(), cfg, cycle);
    auditStats(cache.stats(), cfg, cycle);

    if (cache.writeBufferOccupancy() > cfg.writeBufferEntries) {
        report("write_buffer_overflow", cycle, 0,
               util::detail::format("write buffer holds ",
                                    cache.writeBufferOccupancy(),
                                    " entries, capacity ",
                                    cfg.writeBufferEntries));
    }
}

void
Auditor::afterAccess(const core::SoftwareAssistedCache &cache,
                     const trace::Record &rec)
{
    ++audited_;
    auditNow(cache);

    const sim::RunStats &stats = cache.stats();
    const Cycle cycle = cache.now();
    // The counter step is measured from the previous audited access;
    // an auditor attached mid-run has none before its first.
    if (audited_ > 1 && stats.accesses != lastAccesses_ + 1) {
        report("access_counter_skip", cycle, rec.addr,
               util::detail::format("access counter moved ",
                                    lastAccesses_, " -> ",
                                    stats.accesses,
                                    " across one access"));
    }
    if (stats.completionCycle < lastCompletion_) {
        report("clock_regression", cycle, rec.addr,
               util::detail::format("completion cycle moved backwards ",
                                    lastCompletion_, " -> ",
                                    stats.completionCycle));
    }
    if (cache.busFreeAt() < lastBusFree_) {
        report("clock_regression", cycle, rec.addr,
               util::detail::format("bus-free cycle moved backwards ",
                                    lastBusFree_, " -> ",
                                    cache.busFreeAt()));
    }
    lastAccesses_ = stats.accesses;
    lastCompletion_ = stats.completionCycle;
    lastBusFree_ = cache.busFreeAt();
}

namespace {

/** Compare two cache arrays line by line; empty string when equal. */
std::string
arrayDifference(const char *which, const cache::CacheArray &a,
                const cache::CacheArray &b)
{
    if (a.numSets() != b.numSets() || a.assoc() != b.assoc()) {
        return util::detail::format(which, " geometry differs: ",
                                    a.numSets(), "x", a.assoc(), " vs ",
                                    b.numSets(), "x", b.assoc());
    }
    for (std::uint32_t s = 0; s < a.numSets(); ++s) {
        for (std::uint32_t w = 0; w < a.assoc(); ++w) {
            const cache::LineState la = a.line(s, w);
            const cache::LineState lb = b.line(s, w);
            if (la.valid != lb.valid || la.lineAddr != lb.lineAddr ||
                la.dirty != lb.dirty || la.temporal != lb.temporal ||
                la.prefetched != lb.prefetched ||
                la.lruStamp != lb.lruStamp) {
                return util::detail::format(
                    which, " line [set ", s, " way ", w,
                    "] differs: addr ", la.lineAddr, "/", lb.lineAddr,
                    " valid ", la.valid, "/", lb.valid, " dirty ",
                    la.dirty, "/", lb.dirty, " temporal ", la.temporal,
                    "/", lb.temporal, " prefetched ", la.prefetched,
                    "/", lb.prefetched, " lru ", la.lruStamp, "/",
                    lb.lruStamp);
            }
        }
    }
    return {};
}

} // namespace

std::string
stateDifference(const core::SoftwareAssistedCache &a,
                const core::SoftwareAssistedCache &b)
{
    if (std::string d = arrayDifference("main", a.mainArray(),
                                        b.mainArray());
        !d.empty()) {
        return d;
    }
    const cache::CacheArray *aux_a = a.auxArray();
    const cache::CacheArray *aux_b = b.auxArray();
    if ((aux_a == nullptr) != (aux_b == nullptr))
        return "one simulator has an aux cache, the other does not";
    if (aux_a) {
        if (std::string d = arrayDifference("aux", *aux_a, *aux_b);
            !d.empty()) {
            return d;
        }
    }

    const sim::WriteBuffer &wa = a.writeBuffer();
    const sim::WriteBuffer &wb = b.writeBuffer();
    if (wa.occupancy() != wb.occupancy() ||
        wa.totalBytesPushed() != wb.totalBytesPushed() ||
        wa.fullStalls() != wb.fullStalls()) {
        return util::detail::format(
            "write buffer differs: occupancy ", wa.occupancy(), "/",
            wb.occupancy(), " bytes pushed ", wa.totalBytesPushed(),
            "/", wb.totalBytesPushed(), " full stalls ",
            wa.fullStalls(), "/", wb.fullStalls());
    }

    if (a.now() != b.now() || a.procReadyAt() != b.procReadyAt() ||
        a.cacheFreeAt() != b.cacheFreeAt() ||
        a.busFreeAt() != b.busFreeAt()) {
        return util::detail::format(
            "clocks differ: now ", a.now(), "/", b.now(),
            " proc-ready ", a.procReadyAt(), "/", b.procReadyAt(),
            " cache-free ", a.cacheFreeAt(), "/", b.cacheFreeAt(),
            " bus-free ", a.busFreeAt(), "/", b.busFreeAt());
    }

    const auto bypass_a = a.bypassBufferLine();
    const auto bypass_b = b.bypassBufferLine();
    if (bypass_a != bypass_b) {
        return util::detail::format(
            "bypass buffer differs: ",
            bypass_a ? util::detail::format("line ", *bypass_a)
                     : std::string("empty"),
            " vs ",
            bypass_b ? util::detail::format("line ", *bypass_b)
                     : std::string("empty"));
    }

    const auto pf_a = a.pendingPrefetch();
    const auto pf_b = b.pendingPrefetch();
    if (pf_a.has_value() != pf_b.has_value()) {
        return "one simulator has an in-flight prefetch, the other "
               "does not";
    }
    if (pf_a &&
        (pf_a->line != pf_b->line || pf_a->count != pf_b->count ||
         pf_a->readyAt != pf_b->readyAt)) {
        return util::detail::format(
            "pending prefetch differs: line ", pf_a->line, "/",
            pf_b->line, " count ", pf_a->count, "/", pf_b->count,
            " ready ", pf_a->readyAt, "/", pf_b->readyAt);
    }
    return {};
}

} // namespace check
} // namespace sac
