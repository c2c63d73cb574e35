#include "src/telemetry/counter_registry.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <ostream>
#include <sstream>

#include "src/util/logging.hh"

namespace sac {
namespace telemetry {

void
Histogram::sample(std::uint64_t v)
{
    std::size_t bucket = 0;
    while ((1ull << (bucket + 1)) <= v && bucket < 63)
        ++bucket;
    if (bucket >= buckets.size())
        buckets.resize(bucket + 1, 0);
    ++buckets[bucket];
    ++samples;
    sum += v;
}

double
Histogram::mean() const
{
    if (samples == 0)
        return 0.0;
    return static_cast<double>(sum) / static_cast<double>(samples);
}

double
Histogram::percentile(double p) const
{
    if (samples == 0)
        return 0.0;
    p = std::clamp(p, 0.0, 1.0);
    const double target = p * static_cast<double>(samples);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        if (buckets[i] == 0)
            continue;
        if (static_cast<double>(cum + buckets[i]) >= target) {
            // Interpolate within [lo, hi): bucket 0 holds 0 and 1,
            // bucket i >= 1 holds [2^i, 2^(i+1)). Samples are assumed
            // uniform inside the bucket, so an exact boundary rank
            // (e.g. the median of uniform 0..1023) lands exactly on
            // the boundary value.
            const double lo = i == 0 ? 0.0 : std::ldexp(1.0, i);
            const double hi = std::ldexp(1.0, i + 1);
            const double frac = (target - static_cast<double>(cum)) /
                                static_cast<double>(buckets[i]);
            return lo + frac * (hi - lo);
        }
        cum += buckets[i];
    }
    // p rounded past the last sample: the top of the last bucket.
    for (std::size_t i = buckets.size(); i-- > 0;) {
        if (buckets[i] != 0)
            return std::ldexp(1.0, i + 1);
    }
    return 0.0;
}

Counter &
CounterRegistry::counter(const std::string &name,
                         const std::string &desc)
{
    return entry(name, desc, CounterKind::Counter);
}

Counter &
CounterRegistry::gauge(const std::string &name, const std::string &desc)
{
    return entry(name, desc, CounterKind::Gauge);
}

Counter &
CounterRegistry::entry(const std::string &name, const std::string &desc,
                       CounterKind kind)
{
    SAC_ASSERT(!name.empty(), "counter names must be non-empty");
    for (auto &c : counters_) {
        if (c.name == name) {
            if (c.kind != kind) {
                util::panic("'", name,
                            "' is registered as both a counter and a "
                            "gauge");
            }
            if (c.desc.empty() && !desc.empty())
                c.desc = desc;
            return c;
        }
    }
    // Enforce the tree shape: a leaf may not also be a group.
    const std::string as_group = name + ".";
    for (const auto &c : counters_) {
        if (c.name.rfind(as_group, 0) == 0 ||
            name.rfind(c.name + ".", 0) == 0) {
            util::panic("counter name '", name,
                        "' clashes with existing counter '", c.name,
                        "': a path cannot be both a leaf and a group");
        }
    }
    counters_.push_back(Counter{name, desc, 0, kind});
    return counters_.back();
}

Histogram &
CounterRegistry::histogram(const std::string &name,
                           const std::string &desc)
{
    SAC_ASSERT(!name.empty(), "histogram names must be non-empty");
    for (auto &h : histograms_) {
        if (h.name == name)
            return h;
    }
    histograms_.push_back(Histogram{name, desc, {}, 0, 0});
    return histograms_.back();
}

const Counter *
CounterRegistry::find(const std::string &name) const
{
    for (const auto &c : counters_) {
        if (c.name == name)
            return &c;
    }
    return nullptr;
}

const Histogram *
CounterRegistry::findHistogram(const std::string &name) const
{
    for (const auto &h : histograms_) {
        if (h.name == name)
            return &h;
    }
    return nullptr;
}

std::uint64_t
CounterRegistry::value(const std::string &name) const
{
    const Counter *c = find(name);
    return c ? c->value : 0;
}

std::uint64_t
CounterRegistry::total(const std::string &prefix) const
{
    std::uint64_t sum = 0;
    for (const auto &c : counters_) {
        if (c.name.rfind(prefix, 0) == 0)
            sum += c.value;
    }
    return sum;
}

void
CounterRegistry::merge(const CounterRegistry &other)
{
    for (const auto &c : other.counters_) {
        if (c.kind == CounterKind::Gauge)
            gauge(c.name, c.desc).set(c.value);
        else
            counter(c.name, c.desc) += c.value;
    }
    for (const auto &h : other.histograms_) {
        Histogram &mine = histogram(h.name, h.desc);
        if (mine.buckets.size() < h.buckets.size())
            mine.buckets.resize(h.buckets.size(), 0);
        for (std::size_t i = 0; i < h.buckets.size(); ++i)
            mine.buckets[i] += h.buckets[i];
        mine.samples += h.samples;
        mine.sum += h.sum;
    }
}

namespace {

/** Insert @p value at dotted @p path below object @p root. */
void
setByPath(util::Json &root, const std::string &path, util::Json value)
{
    util::Json *node = &root;
    std::size_t start = 0;
    for (;;) {
        const std::size_t dot = path.find('.', start);
        const std::string segment =
            path.substr(start, dot == std::string::npos
                                   ? std::string::npos
                                   : dot - start);
        if (dot == std::string::npos) {
            node->set(segment, std::move(value));
            return;
        }
        if (!node->find(segment))
            node->set(segment, util::Json::object());
        node = node->find(segment);
        start = dot + 1;
    }
}

util::Json
histogramJson(const Histogram &h)
{
    util::Json buckets = util::Json::array();
    for (const auto b : h.buckets)
        buckets.push(b);
    util::Json j = util::Json::object();
    j.set("samples", h.samples);
    j.set("sum", h.sum);
    j.set("mean", h.mean());
    j.set("p50", h.percentile(0.50));
    j.set("p95", h.percentile(0.95));
    j.set("p99", h.percentile(0.99));
    j.set("log2_buckets", std::move(buckets));
    return j;
}

/** Map a dotted counter path onto a Prometheus metric name. */
std::string
promName(const std::string &prefix, const std::string &name)
{
    std::string out = prefix.empty() ? name : prefix + "_" + name;
    for (char &ch : out) {
        const bool ok =
            std::isalnum(static_cast<unsigned char>(ch)) != 0 ||
            ch == '_' || ch == ':';
        if (!ok)
            ch = '_';
    }
    if (!out.empty() &&
        std::isdigit(static_cast<unsigned char>(out[0])) != 0)
        out.insert(out.begin(), '_');
    return out;
}

/** Escape a description for a single-line # HELP comment. */
std::string
promHelp(const std::string &desc)
{
    std::string out;
    out.reserve(desc.size());
    for (const char ch : desc) {
        if (ch == '\\')
            out += "\\\\";
        else if (ch == '\n')
            out += "\\n";
        else
            out += ch;
    }
    return out;
}

} // namespace

util::Json
CounterRegistry::toJson() const
{
    util::Json root = util::Json::object();
    for (const auto &c : counters_)
        setByPath(root, c.name, c.value);
    for (const auto &h : histograms_)
        setByPath(root, h.name, histogramJson(h));
    return root;
}

util::Json
CounterRegistry::toFlatJson() const
{
    util::Json root = util::Json::object();
    for (const auto &c : counters_)
        root.set(c.name, c.value);
    for (const auto &h : histograms_)
        root.set(h.name, histogramJson(h));
    return root;
}

void
CounterRegistry::writePrometheus(std::ostream &os,
                                 const std::string &prefix) const
{
    for (const auto &c : counters_) {
        const std::string n = promName(prefix, c.name);
        if (!c.desc.empty())
            os << "# HELP " << n << ' ' << promHelp(c.desc) << '\n';
        os << "# TYPE " << n
           << (c.kind == CounterKind::Gauge ? " gauge\n" : " counter\n");
        os << n << ' ' << c.value << '\n';
    }
    for (const auto &h : histograms_) {
        const std::string n = promName(prefix, h.name);
        if (!h.desc.empty())
            os << "# HELP " << n << ' ' << promHelp(h.desc) << '\n';
        os << "# TYPE " << n << " histogram\n";
        // le is inclusive, so log2 bucket i ([2^i, 2^(i+1))) maps to
        // le = 2^(i+1) - 1; counts are cumulative per the exposition
        // format.
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < h.buckets.size(); ++i) {
            cum += h.buckets[i];
            os << n << "_bucket{le=\"" << ((1ull << (i + 1)) - 1)
               << "\"} " << cum << '\n';
        }
        os << n << "_bucket{le=\"+Inf\"} " << h.samples << '\n';
        os << n << "_sum " << h.sum << '\n';
        os << n << "_count " << h.samples << '\n';
    }
}

std::string
CounterRegistry::toPrometheus(const std::string &prefix) const
{
    std::ostringstream os;
    writePrometheus(os, prefix);
    return os.str();
}

std::string
CounterRegistry::toCsv() const
{
    std::ostringstream os;
    os << "name,value,description\n";
    for (const auto &c : counters_) {
        std::string desc = c.desc;
        const bool needs_quotes =
            desc.find_first_of(",\"\n") != std::string::npos;
        if (needs_quotes) {
            std::string quoted = "\"";
            for (const char ch : desc) {
                if (ch == '"')
                    quoted += '"';
                quoted += ch;
            }
            quoted += '"';
            desc = quoted;
        }
        os << c.name << ',' << c.value << ',' << desc << '\n';
    }
    return os.str();
}

} // namespace telemetry
} // namespace sac
