#include "src/telemetry/event_trace.hh"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>

#include "src/util/json.hh"
#include "src/util/logging.hh"

namespace sac {
namespace telemetry {

const char *
kindName(EventKind kind)
{
    switch (kind) {
      case EventKind::Access:
        return "access";
      case EventKind::MainHit:
        return "mainHit";
      case EventKind::AuxHit:
        return "auxHit";
      case EventKind::Miss:
        return "miss";
      case EventKind::Fill:
        return "fill";
      case EventKind::Swap:
        return "swap";
      case EventKind::Bounce:
        return "bounce";
      case EventKind::BounceCancelled:
        return "bounceCancelled";
      case EventKind::BounceAborted:
        return "bounceAborted";
      case EventKind::Evict:
        return "evict";
      case EventKind::Writeback:
        return "writeback";
      case EventKind::Prefetch:
        return "prefetch";
      case EventKind::PrefetchInstall:
        return "prefetchInstall";
      case EventKind::Bypass:
        return "bypass";
    }
    util::panic("unknown EventKind ",
                static_cast<unsigned>(kind));
}

EventTracer::EventTracer(std::size_t capacity)
    : ring_(std::max<std::size_t>(capacity, 2))
{
}

std::size_t
EventTracer::size() const
{
    return recorded_ < ring_.size()
               ? static_cast<std::size_t>(recorded_)
               : ring_.size();
}

void
EventTracer::clear()
{
    head_ = 0;
    recorded_ = 0;
}

std::vector<Event>
EventTracer::snapshot() const
{
    std::vector<Event> out;
    const std::size_t n = size();
    out.reserve(n);
    // Oldest first: when the ring has wrapped, the oldest entry sits
    // at head_ (the next slot to be overwritten).
    const std::size_t start =
        recorded_ < ring_.size() ? 0 : head_;
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(ring_[(start + i) % ring_.size()]);
    return out;
}

std::vector<std::uint64_t>
EventTracer::kindTallies() const
{
    std::vector<std::uint64_t> tallies(numEventKinds, 0);
    for (const Event &e : snapshot())
        ++tallies[static_cast<std::size_t>(e.kind)];
    return tallies;
}

namespace {

std::string
hexAddr(Addr addr)
{
    std::ostringstream os;
    os << "0x" << std::hex << addr;
    return os.str();
}

} // namespace

void
EventTracer::exportChromeTrace(std::ostream &os) const
{
    util::Json events = util::Json::array();

    // One named track per event kind so chrome://tracing / Perfetto
    // render each mechanism as its own row.
    for (std::size_t k = 0; k < numEventKinds; ++k) {
        util::Json meta = util::Json::object();
        meta.set("name", "thread_name");
        meta.set("ph", "M");
        meta.set("pid", 1);
        meta.set("tid", static_cast<std::int64_t>(k));
        util::Json args = util::Json::object();
        args.set("name", kindName(static_cast<EventKind>(k)));
        meta.set("args", std::move(args));
        events.push(std::move(meta));
    }

    for (const Event &e : snapshot()) {
        util::Json j = util::Json::object();
        j.set("name", kindName(e.kind));
        j.set("ph", "i");
        j.set("s", "t");
        j.set("ts", e.cycle);
        j.set("pid", 1);
        j.set("tid",
              static_cast<std::int64_t>(
                  static_cast<std::size_t>(e.kind)));
        util::Json args = util::Json::object();
        args.set("addr", hexAddr(e.addr));
        args.set("arg", static_cast<std::uint64_t>(e.arg));
        j.set("args", std::move(args));
        events.push(std::move(j));
    }

    util::Json doc = util::Json::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", "ns");
    doc.write(os, 0);
}

bool
EventTracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    exportChromeTrace(os);
    return static_cast<bool>(os);
}

} // namespace telemetry
} // namespace sac
