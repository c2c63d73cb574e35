/**
 * @file
 * Named hierarchical statistics registry in the gem5 stats style:
 * every counter carries a dotted path ("cache.main.hits"), a
 * description, and serializes uniformly to JSON (nested by path
 * segment) and CSV. sim::RunStats registers its fields here so run
 * manifests and tools observe one schema instead of ad-hoc printing.
 *
 * Naming convention: lower_snake_case segments joined by dots,
 * subsystem first ("bounce.aborted", "traffic.bytes_fetched"). A path
 * must not be both a leaf counter and a group prefix of another
 * counter; registration enforces this.
 */

#ifndef SAC_TELEMETRY_COUNTER_REGISTRY_HH
#define SAC_TELEMETRY_COUNTER_REGISTRY_HH

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/util/json.hh"

namespace sac {
namespace telemetry {

/** What a registry entry measures (its Prometheus metric type). */
enum class CounterKind
{
    Counter, //!< a monotonic event total, accumulated with +=
    Gauge,   //!< a current level (queue depth), replaced with set()
};

/** One named event counter or gauge. */
struct Counter
{
    std::string name; //!< dotted path, e.g. "cache.main.hits"
    std::string desc; //!< one-line human description
    std::uint64_t value = 0;
    CounterKind kind = CounterKind::Counter;

    Counter &operator+=(std::uint64_t n)
    {
        value += n;
        return *this;
    }
    Counter &operator++()
    {
        ++value;
        return *this;
    }
    /** Gauge semantics: the value becomes @p v. */
    Counter &set(std::uint64_t v)
    {
        value = v;
        return *this;
    }
};

/** A histogram with power-of-two buckets: bucket i counts [2^i, 2^(i+1)). */
struct Histogram
{
    std::string name;
    std::string desc;
    std::vector<std::uint64_t> buckets; //!< log2 buckets, grown on demand
    std::uint64_t samples = 0;
    std::uint64_t sum = 0;

    /** Record one sample of magnitude @p v (v = 0 lands in bucket 0). */
    void sample(std::uint64_t v);

    /** Mean of all samples (0 when empty). */
    double mean() const;

    /**
     * The @p p quantile (p in [0, 1], e.g. 0.5/0.95/0.99) estimated
     * by linear interpolation within the log2 bucket that crosses the
     * target rank; exact bucket boundaries are recovered exactly
     * (uniform 0..1023 reports p50 = 512). 0 when empty.
     */
    double percentile(double p) const;
};

/**
 * Registry of named counters and histograms. Registration returns a
 * stable reference (entries are never removed); re-registering a name
 * returns the existing entry so independent components can share a
 * counter. Lookup and serialization respect registration order, which
 * keeps emitted documents byte-stable.
 *
 * Not thread-safe: each simulation owns its registry (matching the
 * one-RunStats-per-run design); merge across runs with merge().
 */
class CounterRegistry
{
  public:
    /**
     * Register (or fetch) counter @p name. Panics on a group/leaf
     * clash, or when @p name is registered as a gauge.
     */
    Counter &counter(const std::string &name,
                     const std::string &desc = "");

    /**
     * Register (or fetch) gauge @p name: an entry of kind
     * CounterKind::Gauge, meant to be set(), exported with
     * "# TYPE ... gauge". Panics like counter(), and when @p name is
     * registered as a counter.
     */
    Counter &gauge(const std::string &name,
                   const std::string &desc = "");

    /** Register (or fetch) histogram @p name. */
    Histogram &histogram(const std::string &name,
                         const std::string &desc = "");

    /** Lookup; nullptr when @p name was never registered. */
    const Counter *find(const std::string &name) const;
    const Histogram *findHistogram(const std::string &name) const;

    /** Value of counter @p name; 0 when absent. */
    std::uint64_t value(const std::string &name) const;

    /** Sum of every counter whose name starts with @p prefix. */
    std::uint64_t total(const std::string &prefix) const;

    /** All counters in registration order. */
    const std::deque<Counter> &counters() const { return counters_; }

    /** All histograms in registration order. */
    const std::deque<Histogram> &histograms() const
    {
        return histograms_;
    }

    /**
     * Add every counter/histogram of @p other into this registry;
     * a gauge takes @p other's value (set semantics).
     */
    void merge(const CounterRegistry &other);

    /**
     * Counters as a JSON object nested by dotted-path segment:
     * {"cache": {"main": {"hits": 12}}}. Histograms appear under
     * their path as {"buckets": [...], "samples": n, "mean": x}.
     */
    util::Json toJson() const;

    /**
     * Flat JSON object ("cache.main.hits": 12), for diff-friendly
     * machine consumption in manifests.
     */
    util::Json toFlatJson() const;

    /** CSV with header "name,value,description", one counter per row. */
    std::string toCsv() const;

    /**
     * Prometheus text exposition (version 0.0.4) of the registry:
     * every counter or gauge becomes `<prefix>_<name>` (dots and
     * other non-metric characters mapped to '_') with # HELP / # TYPE
     * comments (TYPE counter or gauge, after the entry's kind);
     * histograms expand to the conventional cumulative
     * _bucket{le="..."} series (le = inclusive upper bound of each
     * log2 bucket) plus _sum and _count. Groundwork for the sweep
     * service's /metrics endpoint.
     */
    void writePrometheus(std::ostream &os,
                         const std::string &prefix = "sac") const;

    /** writePrometheus() into a string. */
    std::string toPrometheus(const std::string &prefix = "sac") const;

  private:
    /** counter()/gauge(): register or fetch @p name as @p kind. */
    Counter &entry(const std::string &name, const std::string &desc,
                   CounterKind kind);

    // Deques: registration hands out references that must survive
    // later registrations.
    std::deque<Counter> counters_;
    std::deque<Histogram> histograms_;
};

} // namespace telemetry
} // namespace sac

#endif // SAC_TELEMETRY_COUNTER_REGISTRY_HH
