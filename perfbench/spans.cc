#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <fstream>

#include "src/util/json.hh"

namespace sacbench {

namespace {

/** Open spans of the calling thread, innermost last (parent chain). */
thread_local std::vector<std::int64_t> t_open;

std::uint32_t
threadNumber()
{
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t mine = next.fetch_add(1);
    return mine;
}

std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

} // namespace

std::int64_t
SpanRecorder::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

SpanRecorder::Scope
SpanRecorder::span(const std::string &name, std::uint64_t request)
{
    if (!enabled_)
        return Scope(nullptr, 0);
    Span s;
    s.name = name;
    s.parent = t_open.empty() ? -1 : t_open.back();
    s.request = request;
    s.thread = threadNumber();
    std::size_t index = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        index = spans_.size();
        s.startNs = nowNs();
        spans_.push_back(std::move(s));
    }
    t_open.push_back(static_cast<std::int64_t>(index));
    return Scope(this, index);
}

void
SpanRecorder::close(std::size_t index)
{
    const std::int64_t end = nowNs();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[index].endNs = end;
    }
    if (!t_open.empty() &&
        t_open.back() == static_cast<std::int64_t>(index))
        t_open.pop_back();
}

std::map<std::string, double>
SpanRecorder::selfSecondsByLayer() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<std::size_t>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].parent >= 0)
            children[static_cast<std::size_t>(spans_[i].parent)]
                .push_back(i);
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.endNs < 0)
            continue;
        // Union of the children's intervals, clipped to the parent.
        std::vector<std::pair<std::int64_t, std::int64_t>> iv;
        for (const std::size_t c : children[i]) {
            const Span &k = spans_[c];
            if (k.endNs < 0)
                continue;
            iv.emplace_back(std::max(k.startNs, s.startNs),
                            std::min(k.endNs, s.endNs));
        }
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t reach = s.startNs;
        for (const auto &[a, b] : iv) {
            const std::int64_t from = std::max(a, reach);
            if (b > from) {
                covered += b - from;
                reach = b;
            }
        }
        self[layerOf(s.name)] +=
            static_cast<double>(s.endNs - s.startNs - covered) * 1e-9;
    }
    return self;
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    using sac::util::Json;
    Json events = Json::array();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            if (s.endNs < 0)
                continue;
            Json e = Json::object();
            e.set("name", s.name);
            e.set("cat", layerOf(s.name));
            e.set("ph", "X");
            e.set("ts", static_cast<double>(s.startNs) * 1e-3);
            e.set("dur", static_cast<double>(s.endNs - s.startNs) * 1e-3);
            e.set("pid", 1);
            e.set("tid", static_cast<std::uint64_t>(s.thread));
            Json args = Json::object();
            args.set("id", static_cast<std::uint64_t>(i));
            args.set("parent", s.parent);
            args.set("request", s.request);
            e.set("args", std::move(args));
            events.push(std::move(e));
        }
    }
    Json doc = Json::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", "ms");
    std::ofstream os(path);
    os << doc.dump(0) << '\n';
    return static_cast<bool>(os);
}

} // namespace sacbench
