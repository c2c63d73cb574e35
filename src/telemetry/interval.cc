#include "src/telemetry/interval.hh"

#include <fstream>
#include <ostream>

#include "src/telemetry/manifest.hh"
#include "src/util/stats.hh"

namespace sac {
namespace telemetry {

namespace {

std::vector<std::uint64_t>
counterValues(const sim::RunStats &s)
{
    std::vector<std::uint64_t> out;
    out.reserve(IntervalRecorder::counterNames().size());
    s.forEachCounter(
        [&](const char *, const char *, std::uint64_t value) {
            out.push_back(value);
        });
    return out;
}

} // namespace

IntervalRecorder::IntervalRecorder(std::uint64_t interval_records)
    : every_(interval_records == 0 ? 1 : interval_records),
      countdown_(every_), lastValues_(counterValues(last_))
{
}

void
IntervalRecorder::startFrom(const sim::RunStats &stats)
{
    last_ = stats;
    lastValues_ = counterValues(stats);
}

void
IntervalRecorder::finish(const sim::RunStats &stats,
                         std::uint32_t wb_occupancy)
{
    if (finished_)
        return;
    finished_ = true;
    countdown_ = every_;
    bool dirty = stats.totalAccessCycles != last_.totalAccessCycles;
    const auto cur = counterValues(stats);
    for (std::size_t i = 0; i < cur.size() && !dirty; ++i)
        dirty = cur[i] != lastValues_[i];
    if (dirty)
        capture(stats, wb_occupancy, true);
}

void
IntervalRecorder::capture(const sim::RunStats &stats,
                          std::uint32_t wb_occupancy, bool closing)
{
    const auto cur = counterValues(stats);
    IntervalSnapshot s;
    s.index = snapshots_.size();
    s.startRecord = last_.accesses;
    s.endRecord = stats.accesses;
    s.writeBufferOccupancy = wb_occupancy;
    s.closing = closing;
    s.deltas.resize(cur.size());
    for (std::size_t i = 0; i < cur.size(); ++i)
        s.deltas[i] = cur[i] - lastValues_[i];
    s.deltaAccessCycles =
        stats.totalAccessCycles - last_.totalAccessCycles;
    s.cumulative = stats;
    snapshots_.push_back(std::move(s));
    last_ = stats;
    lastValues_ = cur;
}

std::vector<std::uint64_t>
IntervalRecorder::deltaTotals() const
{
    std::vector<std::uint64_t> out(counterNames().size(), 0);
    for (const auto &s : snapshots_) {
        for (std::size_t i = 0; i < s.deltas.size(); ++i)
            out[i] += s.deltas[i];
    }
    return out;
}

double
IntervalRecorder::deltaAccessCyclesTotal() const
{
    double out = 0.0;
    for (const auto &s : snapshots_)
        out += s.deltaAccessCycles;
    return out;
}

const std::vector<std::string> &
IntervalRecorder::counterNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        sim::RunStats{}.forEachCounter(
            [&](const char *name, const char *, std::uint64_t) {
                out.emplace_back(name);
            });
        return out;
    }();
    return names;
}

std::size_t
IntervalRecorder::counterIndex(const std::string &name)
{
    const auto &names = counterNames();
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (names[i] == name)
            return i;
    }
    return names.size();
}

util::Json
IntervalRecorder::headerJson(const std::string &workload,
                             const std::string &config_name,
                             const std::string &cache_key) const
{
    util::Json h = util::Json::object();
    h.set("schema", intervalSchema);
    h.set("git_describe", gitDescribe());
    h.set("workload", workload);
    h.set("config_name", config_name);
    h.set("cache_key", cache_key);
    h.set("interval_records", every_);
    return h;
}

util::Json
IntervalRecorder::snapshotJson(const IntervalSnapshot &s) const
{
    // Interval-local derived metrics; field arithmetic stays inline
    // (RunStats::missRatio()/amat() live in sac_sim, which this
    // library must not link).
    static const std::size_t idx_access = counterIndex("access.total");
    static const std::size_t idx_miss =
        counterIndex("cache.miss.total");
    static const std::size_t idx_bypass = counterIndex("bypass.total");
    const double d_accesses = static_cast<double>(s.deltas[idx_access]);

    util::Json j = util::Json::object();
    j.set("i", s.index);
    j.set("start", s.startRecord);
    j.set("end", s.endRecord);
    if (s.closing)
        j.set("closing", true);
    j.set("wb_occupancy",
          static_cast<std::uint64_t>(s.writeBufferOccupancy));
    j.set("miss_ratio",
          util::safeRatio(static_cast<double>(s.deltas[idx_miss] +
                                              s.deltas[idx_bypass]),
                          d_accesses));
    j.set("amat", util::safeRatio(s.deltaAccessCycles, d_accesses));

    util::Json delta = util::Json::object();
    const auto &names = counterNames();
    for (std::size_t i = 0; i < names.size(); ++i)
        delta.set(names[i], s.deltas[i]);
    delta.set("time.access_cycles", s.deltaAccessCycles);
    j.set("delta", std::move(delta));

    const sim::RunStats &c = s.cumulative;
    util::Json cum = util::Json::object();
    cum.set("accesses", c.accesses);
    cum.set("misses", c.misses);
    cum.set("miss_ratio",
            util::safeRatio(static_cast<double>(c.misses + c.bypasses),
                            static_cast<double>(c.accesses)));
    cum.set("amat", util::safeRatio(c.totalAccessCycles,
                                    static_cast<double>(c.accesses)));
    cum.set("completion_cycle",
            static_cast<std::uint64_t>(c.completionCycle));
    j.set("cum", std::move(cum));
    return j;
}

bool
IntervalRecorder::writeJsonl(const std::string &path,
                             const std::string &workload,
                             const std::string &config_name,
                             const std::string &cache_key) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << headerJson(workload, config_name, cache_key).dump(0) << '\n';
    for (const auto &s : snapshots_)
        os << snapshotJson(s).dump(0) << '\n';
    return static_cast<bool>(os);
}

} // namespace telemetry
} // namespace sac
