/**
 * @file
 * The serial oracle the sweep tests compare harness::Runner::run()
 * against: every exact cell replayed with core::simulateTrace, every
 * sampled cell estimated with sim::SampledEngine::run (or, for
 * live-point cells, runCheckpointed over a library built in memory),
 * rendered into the same util::Table and manifest documents a
 * SweepRequest produces. Nothing here goes through a Runner, so a
 * routing or caching defect in the runner cannot hide behind a
 * shared code path.
 */

#ifndef SAC_TESTS_SWEEP_ORACLE_HH
#define SAC_TESTS_SWEEP_ORACLE_HH

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/soft_cache.hh"
#include "src/harness/sweep.hh"
#include "src/sim/sampling.hh"
#include "src/telemetry/manifest.hh"
#include "src/trace/trace_source.hh"
#include "src/util/json.hh"

namespace sac {
namespace oracle {

/** One workload x config grid of values, indexed [workload][config]. */
template <typename T> using Grid = std::vector<std::vector<T>>;

/** Every cell's RunStats by serial core::simulateTrace replay. */
inline Grid<sim::RunStats>
exactStats(const std::vector<harness::Workload> &workloads,
           const std::vector<core::Config> &configs)
{
    Grid<sim::RunStats> out;
    for (const auto &w : workloads) {
        const trace::Trace t = w.build();
        auto &row = out.emplace_back();
        for (const auto &cfg : configs)
            row.push_back(core::simulateTrace(t, cfg));
    }
    return out;
}

/** The figure table of the exactStats() cells: workloads x configs. */
inline util::Table
exactTable(const std::vector<harness::Workload> &workloads,
           const std::vector<core::Config> &configs,
           const harness::Metric &metric)
{
    const auto stats = exactStats(workloads, configs);
    std::vector<std::string> headers{"Benchmark"};
    for (const auto &cfg : configs)
        headers.push_back(cfg.name);
    util::Table table(std::move(headers));
    for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
        const auto row = table.addRow();
        table.set(row, 0, workloads[wi].name);
        for (std::size_t ci = 0; ci < configs.size(); ++ci) {
            table.setNumber(row, ci + 1, metric.extract(stats[wi][ci]),
                            metric.decimals);
        }
    }
    return table;
}

/**
 * The sampled report of @p cfg over @p t: plain windowed sampling,
 * or (@p livepoint) a restore-path replay over a live-point library
 * built in memory — what a live-point cell computes on a cold miss.
 */
inline sim::SampleReport
sampledReport(const trace::Trace &t, const core::Config &cfg,
              const sim::SamplingOptions &opt, bool livepoint)
{
    const sim::SampledEngine engine(opt);
    core::SoftwareAssistedCache sim(cfg);
    trace::MemoryTraceSource src(t);
    if (!livepoint)
        return engine.run(src, sim);
    sim::CheckpointLibrary lib;
    core::SoftwareAssistedCache warmer(cfg);
    trace::MemoryTraceSource warm_src(t);
    engine.buildLibrary(warm_src, warmer, lib);
    return engine.runCheckpointed(src, sim, lib);
}

/** Every cell's sampledReport(). */
inline Grid<sim::SampleReport>
sampledReports(const std::vector<harness::Workload> &workloads,
               const std::vector<core::Config> &configs,
               const sim::SamplingOptions &opt, bool livepoint)
{
    Grid<sim::SampleReport> out;
    for (const auto &w : workloads) {
        const trace::Trace t = w.build();
        auto &row = out.emplace_back();
        for (const auto &cfg : configs)
            row.push_back(sampledReport(t, cfg, opt, livepoint));
    }
    return out;
}

/** The sampled figure table of @p reports. */
inline util::Table
sampledTable(const std::vector<harness::Workload> &workloads,
             const std::vector<core::Config> &configs,
             const Grid<sim::SampleReport> &reports,
             const harness::Metric &metric)
{
    Grid<harness::Runner::SampledCell> cells(workloads.size());
    for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
        for (const auto &rep : reports[wi])
            cells[wi].push_back({rep, 0.0, false});
    }
    return harness::sampledMatrix(workloads, configs, cells, metric);
}

/**
 * Drop the wall-clock "timing" member (sim_seconds, phases and the
 * "parallel" block all live there) before comparing documents.
 */
inline std::string
stripTiming(const std::string &document)
{
    std::string err;
    auto parsed = util::Json::parse(document, &err);
    EXPECT_TRUE(parsed.has_value()) << err;
    if (!parsed)
        return "";
    util::Json out = util::Json::object();
    for (const auto &member : parsed->members()) {
        if (member.first != "timing")
            out.set(member.first, member.second);
    }
    return out.dump(2);
}

/** stripTiming() of the document renderCellManifest() makes of @p cell. */
inline std::string
manifest(const harness::ManifestCell &cell, harness::EngineTag tag)
{
    return stripTiming(telemetry::manifestDocument(
        harness::renderCellManifest(cell, tag)));
}

/** The manifest of an exact (or, with @p tag, stack-served) cell. */
inline std::string
exactManifest(const std::string &workload, const core::Config &cfg,
              const sim::RunStats &stats,
              harness::EngineTag tag = harness::EngineTag::ExactReplay,
              std::size_t family_size = 0)
{
    harness::ManifestCell cell;
    cell.workload = workload;
    cell.config = &cfg;
    cell.stats = &stats;
    cell.stackFamilySize = family_size;
    return manifest(cell, tag);
}

/**
 * The manifest of a sampled cell; a non-null @p checkpoint makes it a
 * live-point cell carrying that "checkpoint" block.
 */
inline std::string
sampledManifest(const std::string &workload, const core::Config &cfg,
                const sim::SampleReport &report,
                const sim::SamplingOptions &opt,
                const util::Json *checkpoint = nullptr)
{
    harness::ManifestCell cell;
    cell.workload = workload;
    cell.config = &cfg;
    cell.report = &report;
    cell.sampling = &opt;
    cell.checkpoint = checkpoint;
    return manifest(cell, checkpoint ? harness::EngineTag::SampledLivepoint
                                     : harness::EngineTag::Sampled);
}

/** All manifest documents under @p dir, keyed by file name. */
inline std::map<std::string, std::string>
readManifests(const std::string &dir)
{
    std::map<std::string, std::string> out;
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        if (e.path().extension() != ".json")
            continue;
        std::ifstream is(e.path());
        std::ostringstream os;
        os << is.rdbuf();
        out[e.path().filename().string()] = os.str();
    }
    return out;
}

/** One Runner::run() with every streamed manifest captured. */
struct CapturedRun
{
    harness::SweepResult result;
    std::map<std::string, std::string> docs; //!< file -> document
};

inline CapturedRun
runCaptured(harness::Runner &runner, harness::SweepRequest request)
{
    CapturedRun run;
    request.telemetry.sink = [&run](const std::string &file,
                                    const std::string &doc) {
        run.docs[file] = doc;
    };
    run.result = runner.run(request);
    return run;
}

/** Manifest file name of (workload, cfg), as a SweepRequest names it. */
inline std::string
fileOf(const std::string &workload, const core::Config &cfg)
{
    return telemetry::manifestFileName(workload, cfg.cacheKey());
}

} // namespace oracle
} // namespace sac

#endif // SAC_TESTS_SWEEP_ORACLE_HH
