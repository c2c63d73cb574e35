/**
 * @file
 * sacbench — the repo benchmark's program. One run executes one
 * workload for a fixed time, checks every output against the serial
 * replay oracle, and prints one JSON result line:
 *
 *   sacbench --workload W --seed N --seconds S --trace 0|1
 *            --sacd PATH --workdir DIR [--trace-file PATH]
 *            [--inject-fault]
 *
 * With --trace 0 the result holds the end-to-end metrics; with
 * --trace 1 it holds the per-layer metrics, measured by calling each
 * layer directly and recording spans around the calls. perfbench/run.py
 * builds this binary and is the command the benchmark is run with.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <sys/resource.h>

#include "bench.hh"
#include "src/util/json.hh"
#include "src/workloads/workloads.hh"

namespace sacbench {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

ProcStatus
readProcStatus(pid_t pid)
{
    const std::string path = pid == 0
                                 ? std::string("/proc/self/status")
                                 : "/proc/" + std::to_string(pid) +
                                       "/status";
    std::ifstream in(path);
    ProcStatus st;
    std::string key;
    while (in >> key) {
        double value = 0.0;
        if (key == "VmRSS:" && in >> value)
            st.rssMb = value / 1024.0;
        else if (key == "VmHWM:" && in >> value)
            st.hwmMb = value / 1024.0;
        else if (key == "Threads:" && in >> value)
            st.threads = value;
        std::string rest;
        std::getline(in, rest);
    }
    return st;
}

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::uint64_t
TraceSet::records() const
{
    std::uint64_t n = 0;
    for (const auto &t : traces)
        n += t->size();
    return n;
}

const sac::trace::Trace &
TraceSet::longest() const
{
    const sac::trace::Trace *best = traces.front().get();
    for (const auto &t : traces) {
        if (t->size() > best->size())
            best = t.get();
    }
    return *best;
}

TraceSet
paperTraces(Context &ctx, std::uint64_t seed)
{
    TraceSet set;
    set.seed = seed;
    const auto t0 = Clock::now();
    for (const auto &b : sac::workloads::paperBenchmarks()) {
        const auto s = ctx.spans.span("workloads.makeBenchmarkTrace." +
                                      b.name);
        set.traces.push_back(std::make_shared<const sac::trace::Trace>(
            sac::workloads::makeBenchmarkTrace(b.name, seed)));
        set.programs.push_back(b.build);
    }
    set.genSeconds = secondsSince(t0);
    return set;
}

std::vector<sac::harness::Workload>
workloadsOver(const TraceSet &set)
{
    std::vector<sac::harness::Workload> out;
    for (const auto &t : set.traces)
        out.push_back({t->name(), [t] { return *t; }, nullptr});
    return out;
}

std::string
stripTiming(const std::string &doc)
{
    // Manifests are written with two-space indentation, so the
    // top-level member after "timing" starts a line with exactly two
    // spaces and a quote, and the document ends with "\n}".
    const std::string key = "\n  \"timing\": ";
    const std::size_t begin = doc.find(key);
    if (begin == std::string::npos)
        return doc;
    const std::size_t from = begin + key.size();
    const std::size_t end =
        std::min(doc.find("\n  \"", from), doc.find("\n}", from));
    return doc.substr(0, begin) +
           (end == std::string::npos ? std::string() : doc.substr(end));
}

std::vector<sac::core::Config>
stackLattice()
{
    std::vector<sac::core::Config> out;
    for (const std::uint32_t line : {32u, 64u}) {
        for (std::uint64_t kb = 2; kb <= 128; kb *= 2) {
            for (const std::uint32_t ways : {1u, 2u, 4u, 8u}) {
                sac::core::Config c =
                    sac::core::presets().get("standard");
                c.name = std::to_string(kb) + "K-" +
                         std::to_string(ways) + "w-" +
                         std::to_string(line) + "B";
                c.cacheSizeBytes = kb * 1024;
                c.lineBytes = line;
                c.assoc = ways;
                out.push_back(c);
            }
        }
    }
    return out;
}

namespace {

void
usage()
{
    std::cerr << "usage: sacbench --workload "
                 "suite-exact|lattice-stack|hot-sampled\n"
                 "                --seed N --seconds S --trace 0|1\n"
                 "                --sacd PATH --workdir DIR\n"
                 "                [--trace-file PATH] [--inject-fault]\n";
}

/** CPU model and MHz of the first processor in /proc/cpuinfo. */
std::pair<std::string, double>
cpuInfo()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    std::string model = "unknown";
    double mhz = 0.0;
    while (std::getline(in, line)) {
        const auto colon = line.find(':');
        if (colon == std::string::npos)
            continue;
        std::string key = line.substr(0, colon);
        key.erase(key.find_last_not_of(" \t") + 1);
        const std::string value =
            colon + 2 <= line.size() ? line.substr(colon + 2) : "";
        if (key == "model name" && model == "unknown")
            model = value;
        else if (key == "cpu MHz" && mhz == 0.0)
            mhz = std::atof(value.c_str());
    }
    return {model, mhz};
}

/** The host and build this result was measured on. */
sac::util::Json
fingerprint(unsigned nproc)
{
    const auto [model, mhz] = cpuInfo();
    sac::util::Json fp = sac::util::Json::object();
    fp.set("nproc", static_cast<std::uint64_t>(nproc));
    fp.set("cpu_model", model);
    fp.set("cpu_mhz", mhz);
    fp.set("build_type", SACBENCH_BUILD_TYPE);
    fp.set("compiler", SACBENCH_COMPILER);
    fp.set("SAC_TRACE_EVENTS", SAC_TRACE_EVENTS_ENABLED);
    fp.set("SAC_AUDIT", SAC_AUDIT_ENABLED);
    fp.set("SAC_INTERVAL", SAC_INTERVAL_ENABLED);
    return fp;
}

std::string
formatNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.15g", v);
    return buf;
}

/** The result line: exactly correct, attempted, failed and metrics. */
std::string
resultLine(const Result &r)
{
    std::ostringstream os;
    os << "{\"correct\": " << (r.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << r.attempted
       << ", \"failed\": " << r.failed << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, vu] : r.metrics) {
        os << (first ? "" : ", ") << sac::util::Json::quote(name)
           << ": {\"value\": " << formatNumber(vu.first)
           << ", \"unit\": " << sac::util::Json::quote(vu.second) << "}";
        first = false;
    }
    os << "}}";
    return os.str();
}

bool
parseOptions(int argc, char **argv, Options &opt)
{
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](std::string &out) {
            if (i + 1 >= argc)
                return false;
            out = argv[++i];
            return true;
        };
        std::string v;
        if (arg == "--inject-fault") {
            opt.injectFault = true;
        } else if (arg == "--workload" && value(v)) {
            opt.workload = v;
        } else if (arg == "--seed" && value(v)) {
            opt.seed = std::strtoull(v.c_str(), nullptr, 10);
            have_seed = true;
        } else if (arg == "--seconds" && value(v)) {
            opt.seconds = std::atof(v.c_str());
            have_seconds = opt.seconds > 0.0;
        } else if (arg == "--trace" && value(v)) {
            if (v != "0" && v != "1")
                return false;
            opt.trace = v == "1";
            have_trace = true;
        } else if (arg == "--sacd" && value(v)) {
            opt.sacd = v;
        } else if (arg == "--workdir" && value(v)) {
            opt.workdir = v;
        } else if (arg == "--trace-file" && value(v)) {
            opt.traceFile = v;
        } else {
            return false;
        }
    }
    const bool known =
        opt.workload == "suite-exact" || opt.workload == "lattice-stack" ||
        opt.workload == "hot-sampled";
    return known && have_seed && have_seconds && have_trace &&
           !opt.sacd.empty() && !opt.workdir.empty();
}

} // namespace

} // namespace sacbench

int
main(int argc, char **argv)
{
    using namespace sacbench;
    auto ctx = std::make_unique<Context>();
    if (!parseOptions(argc, argv, ctx->opt)) {
        usage();
        return 2;
    }
    ctx->nproc = sac::util::ThreadPool::defaultThreads();
    ctx->spans.enable(ctx->opt.trace);
    std::filesystem::create_directories(ctx->opt.workdir);

    try {
        runWorkload(*ctx);
    } catch (const std::exception &e) {
        std::cerr << "sacbench: " << e.what() << "\n";
        return 1;
    }

    if (ctx->opt.trace) {
        const auto self = ctx->spans.selfSecondsByLayer();
        for (const char *layer :
             {"workloads", "loopnest", "locality", "trace", "core", "sim",
              "harness", "telemetry", "service"}) {
            const auto it = self.find(layer);
            ctx->result.add(std::string("self_ms.") + layer,
                            it == self.end() ? 0.0 : it->second * 1e3,
                            "ms");
        }
        if (!ctx->opt.traceFile.empty()) {
            std::filesystem::create_directories(
                std::filesystem::path(ctx->opt.traceFile).parent_path());
            if (!ctx->spans.writeChromeTrace(ctx->opt.traceFile))
                std::cerr << "sacbench: cannot write "
                          << ctx->opt.traceFile << "\n";
        }
    }
    for (const auto &[name, vu] : ctx->result.metrics) {
        if (!std::isfinite(vu.first)) {
            std::cerr << "sacbench: metric " << name
                      << " is not finite\n";
            return 1;
        }
    }
    std::cout << "fingerprint " << fingerprint(ctx->nproc).dump(0)
              << "\n"
              << resultLine(ctx->result) << std::endl;
    return 0;
}
