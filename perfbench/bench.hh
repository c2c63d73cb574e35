/**
 * @file
 * Shared pieces of the sacbench program: options, the result being
 * assembled, timing helpers and the entry points of the workload
 * files (batch.cc, sacd_session.cc, layers.cc).
 */

#ifndef SACBENCH_BENCH_HH
#define SACBENCH_BENCH_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <sys/types.h>
#include <vector>

#include "spans.hh"
#include "src/core/config.hh"
#include "src/harness/sweep.hh"
#include "src/loopnest/program.hh"
#include "src/sim/run_stats.hh"
#include "src/trace/trace.hh"
#include "src/util/thread_pool.hh"

namespace sacbench {

using Clock = std::chrono::steady_clock;

/** Command line of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string sacd;    //!< path of the sacd binary
    std::string workdir; //!< scratch directory of this run
    std::string traceFile; //!< Chrome trace output (traced run)
    bool injectFault = false; //!< corrupt one expected value
};

/** The result object printed as the last line of standard output. */
struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** name -> (value, unit), in insertion order. */
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, {value, unit}});
    }
};

/** Everything one benchmark run shares between its parts. */
struct Context
{
    Options opt;
    unsigned nproc = 1;
    SpanRecorder spans;
    Result result;
};

double secondsSince(Clock::time_point t0);
/** User + system CPU seconds of this process so far. */
double cpuSeconds();
/** Linear-interpolated quantile @p q in [0,1] (0 when empty). */
double quantile(std::vector<double> v, double q);
inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** VmRSS, VmHWM (MB) and thread count from /proc/<pid>/status. */
struct ProcStatus
{
    double rssMb = 0.0;
    double hwmMb = 0.0;
    double threads = 0.0;
};
ProcStatus readProcStatus(pid_t pid); //!< pid 0 = this process

/**
 * Run @p fn(i) for i in [0, n) on @p threads pool workers; rethrows
 * the first task's exception.
 */
template <class Fn>
void
parallelFor(std::size_t n, unsigned threads, Fn &&fn)
{
    sac::util::ThreadPool pool(std::max(1u, threads));
    std::vector<std::future<void>> done;
    for (std::size_t i = 0; i < n; ++i)
        done.push_back(pool.submit([&fn, i] { fn(i); }));
    for (auto &f : done)
        f.get();
}

/** SplitMix64: derives every seeded input from --seed. */
std::uint64_t mix64(std::uint64_t x);

/** Trace-generation seed of the timing model for benchmark seed @p s. */
inline std::uint64_t
timingSeed(std::uint64_t s)
{
    return mix64(s ^ 0x7ac3ull);
}

/** A workload's traces plus the programs that produced them. */
struct TraceSet
{
    std::vector<std::shared_ptr<const sac::trace::Trace>> traces;
    /** Builders of the traced programs, in trace order. */
    std::vector<std::function<sac::loopnest::Program()>> programs;
    std::uint64_t seed = 0;   //!< timing-model seed used
    double genSeconds = 0.0;  //!< wall time of the generation
    std::uint64_t records() const;
    /** The longest trace (the sampling probes' input). */
    const sac::trace::Trace &longest() const;
};

/** The nine paper traces at timing seed @p seed, timed and spanned. */
TraceSet paperTraces(Context &ctx, std::uint64_t seed);

/** Harness workloads serving copies of @p set's traces. */
std::vector<sac::harness::Workload> workloadsOver(const TraceSet &set);

/**
 * Manifest document text without its "timing" member: the part of a
 * manifest that must repeat exactly.
 */
std::string stripTiming(const std::string &doc);

/** The harness-level account of one Runner::run, for the layer metrics. */
struct HarnessAccount
{
    double wallSeconds = 0.0;
    double cpuSeconds = 0.0;
    double cellRecords = 0.0;
    sac::harness::Runner::SweepTiming timing;
    unsigned jobs = 1;
    std::size_t cells = 0;
    std::size_t stackCells = 0;
    std::uint64_t runsExecuted = 0;
    std::uint64_t tracesGenerated = 0;
    double stackCellsPerPass = 0.0; //!< 0 when no pass ran
    double checkpointHitRatio = -1.0; //!< -1 when no library was used
};

/** One timed Runner::run with its manifests captured through the sink. */
struct MeasuredRun
{
    sac::harness::SweepResult result;
    /** (file, document) of every streamed manifest, in order. */
    std::vector<std::pair<std::string, std::string>> docs;
    HarnessAccount account;
};

/**
 * Run @p req on @p runner (whose traces are already generated) inside
 * a "harness.Runner.run" span, accounting it from the runner's
 * counters. @p req's sink is replaced by one that captures manifests.
 */
MeasuredRun measuredRun(Context &ctx, sac::harness::Runner &runner,
                        sac::harness::SweepRequest req);

/** What the layer probes read from the workload that ran. */
struct LayerInput
{
    const TraceSet *traces = nullptr;
    /** Oracle statistics of the workload's cells (model.* metrics). */
    std::vector<sac::sim::RunStats> modelStats;
    /** Configs and workload names of those cells (render probe). */
    std::vector<std::pair<std::string, sac::core::Config>> cells;
    HarnessAccount nprocJobs; //!< the sweep at nproc jobs
    HarnessAccount oneJob;    //!< the same sweep at one job
    /** Service-layer metrics of a sacd session. */
    std::vector<std::pair<std::string, double>> service;
    /** Untraced and traced median sweep wall time (ms). */
    double untracedSweepMs = 0.0;
    double tracedSweepMs = 0.0;
};

/** The 56-point standard-family lattice of the lattice-stack workload. */
std::vector<sac::core::Config> stackLattice();

/** Run the named workload (suite-exact, lattice-stack, hot-sampled). */
void runWorkload(Context &ctx);

/**
 * A sacd session (start, prime, closed loop for @p seconds, stop)
 * whose service metrics every traced run reports.
 */
std::vector<std::pair<std::string, double>>
sacdServiceProbe(Context &ctx, double seconds);

/** Every per-layer metric, measured by direct calls into each layer. */
void runLayerProbes(Context &ctx, const LayerInput &in);

} // namespace sacbench

#endif // SACBENCH_BENCH_HH
