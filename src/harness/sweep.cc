#include "src/harness/sweep.hh"

#include <algorithm>

#include "src/telemetry/counter_registry.hh"
#include "src/telemetry/interval.hh"
#include "src/telemetry/set_profile.hh"
#include "src/util/logging.hh"

namespace sac {
namespace harness {

const char *
engineSelectName(EngineSelect engine)
{
    switch (engine) {
    case EngineSelect::Auto:
        return "auto";
    case EngineSelect::Exact:
        return "exact";
    case EngineSelect::Sampled:
        return "sampled";
    case EngineSelect::SampledLivepoint:
        return "sampled-livepoint";
    case EngineSelect::Stack:
        return "stack";
    }
    return "auto";
}

std::optional<EngineSelect>
engineSelectFromName(const std::string &name)
{
    for (const EngineSelect e :
         {EngineSelect::Auto, EngineSelect::Exact, EngineSelect::Sampled,
          EngineSelect::SampledLivepoint, EngineSelect::Stack}) {
        if (name == engineSelectName(e))
            return e;
    }
    return std::nullopt;
}

const char *
engineName(EngineTag tag)
{
    switch (tag) {
    case EngineTag::ExactReplay:
        return "exact-replay";
    case EngineTag::Sampled:
        return "sampled";
    case EngineTag::SampledLivepoint:
        return "sampled-livepoint";
    case EngineTag::StackSinglePass:
        return "stack-single-pass";
    }
    return "exact-replay";
}

namespace {

/** Shared head of every cell manifest: identity, config, counters. */
telemetry::Manifest
manifestHead(const ManifestCell &cell, EngineTag tag,
             const sim::RunStats &counted)
{
    telemetry::Manifest m;
    m.workload = cell.workload;
    m.configName = cell.config->name;
    m.cacheKey = cell.config->cacheKey();
    m.engine = engineName(tag);
    m.config = cell.config->toJson();

    telemetry::CounterRegistry reg;
    counted.registerInto(reg);
    m.counters = reg.toJson();
    return m;
}

/**
 * Render @p cell, running the instrumented re-replay when requested
 * (exact cells with a trace); @p recorder receives the interval
 * recorder so writeCellManifest() can emit the sidecar series.
 */
telemetry::Manifest
renderCell(const ManifestCell &cell, EngineTag tag,
           std::optional<telemetry::IntervalRecorder> &recorder)
{
    SAC_ASSERT(cell.config != nullptr,
               "ManifestCell without a configuration");

    if (tag == EngineTag::Sampled || tag == EngineTag::SampledLivepoint) {
        SAC_ASSERT(cell.report != nullptr && cell.sampling != nullptr,
                   "sampled ManifestCell needs report + sampling");
        const sim::SampleReport &report = *cell.report;
        const sim::SamplingOptions &opt = *cell.sampling;
        telemetry::Manifest m = manifestHead(cell, tag, report.detailed);

        const auto interval = [&report](double estimate,
                                        const sim::SampleStats &s) {
            util::Json j = util::Json::object();
            j.set("estimate", estimate);
            j.set("half_width", report.halfWidthOf(s));
            j.set("windows", s.count());
            return j;
        };

        util::Json sampling = util::Json::object();
        sampling.set("window", opt.window);
        sampling.set("stride", opt.stride);
        sampling.set("warmup", opt.warmup);
        sampling.set("confidence", report.confidence);
        sampling.set("windows", report.windows);
        sampling.set("records_total", report.recordsTotal);
        sampling.set("records_detailed", report.recordsDetailed);
        sampling.set("records_warmed", report.recordsWarmed);
        sampling.set("records_skipped", report.recordsSkipped);
        sampling.set("exact", report.exact);
        sampling.set("miss_ratio", interval(report.missRatioEstimate(),
                                            report.missRatio));
        sampling.set("amat",
                     interval(report.amatEstimate(), report.amat));
        sampling.set("words_per_access",
                     interval(report.wordsPerAccessEstimate(),
                              report.wordsPerAccess));

        m.metrics = util::Json::object();
        m.metrics.set("amat", report.amatEstimate());
        m.metrics.set("miss_ratio", report.missRatioEstimate());
        m.metrics.set("words_per_access",
                      report.wordsPerAccessEstimate());
        m.metrics.set("sampling", std::move(sampling));
        if (cell.checkpoint)
            m.metrics.set("checkpoint", *cell.checkpoint);

        m.timing = util::Json::object();
        if (cell.simSeconds > 0.0)
            m.timing.set("sim_seconds", cell.simSeconds);
        if (cell.parallel)
            m.timing.set("parallel", *cell.parallel);
        return m;
    }

    SAC_ASSERT(cell.stats != nullptr,
               "exact/stack ManifestCell needs stats");
    const sim::RunStats &stats = *cell.stats;

    if (tag == EngineTag::StackSinglePass) {
        telemetry::Manifest m = manifestHead(cell, tag, stats);
        // Count-derived metrics only: a stack pass yields no cycles,
        // so amat/total_access_cycles would be bogus zeros.
        m.metrics = util::Json::object();
        m.metrics.set("miss_ratio", stats.missRatio());
        m.metrics.set("hit_ratio", stats.hitRatio());
        m.metrics.set("main_hit_share", stats.mainHitShare());
        m.metrics.set("aux_hit_share", stats.auxHitShare());
        m.metrics.set("words_per_access",
                      stats.wordsFetchedPerAccess());
        util::Json stack = util::Json::object();
        stack.set("family_size",
                  static_cast<std::uint64_t>(cell.stackFamilySize));
        m.metrics.set("stack", std::move(stack));

        m.timing = util::Json::object();
        if (cell.simSeconds > 0.0)
            m.timing.set("pass_seconds", cell.simSeconds);
        return m;
    }

    // Exact replay, optionally with the instrumented re-replay.
    telemetry::Manifest m = manifestHead(cell, tag, stats);
    m.metrics = util::Json::object();
    m.metrics.set("amat", stats.amat());
    m.metrics.set("miss_ratio", stats.missRatio());
    m.metrics.set("hit_ratio", stats.hitRatio());
    m.metrics.set("main_hit_share", stats.mainHitShare());
    m.metrics.set("aux_hit_share", stats.auxHitShare());
    m.metrics.set("words_per_access", stats.wordsFetchedPerAccess());
    m.metrics.set("total_access_cycles", stats.totalAccessCycles);

    m.timing = util::Json::object();
    if (cell.simSeconds > 0.0)
        m.timing.set("sim_seconds", cell.simSeconds);
    if (cell.extraTiming &&
        cell.extraTiming->type() == util::Json::Type::Object)
        m.timing.set("phases", *cell.extraTiming);

    const bool wants = cell.trace != nullptr &&
                       (cell.instrument.intervalRecords > 0 ||
                        cell.instrument.heatmap);
    if (!wants)
        return m;

    // Instrumented re-replay. The hooks observe without perturbing,
    // so the result must reproduce the recorded run bit-for-bit.
    core::SoftwareAssistedCache sim(*cell.config);
    std::optional<telemetry::SetProfiler> profiler;
    core::Observers obs;
    if (cell.instrument.intervalRecords > 0)
        obs.interval = &recorder.emplace(cell.instrument.intervalRecords);
    if (cell.instrument.heatmap)
        obs.setProfiler = &profiler.emplace(sim.mainArray().numSets());
    sim.observe(obs);
    sim.run(*cell.trace);
    SAC_ASSERT(sim.stats() == stats,
               "instrumented replay diverged from the recorded run");
    if (profiler)
        m.profile = profiler->toJson();
    return m;
}

} // namespace

telemetry::Manifest
renderCellManifest(const ManifestCell &cell, EngineTag tag)
{
    std::optional<telemetry::IntervalRecorder> recorder;
    return renderCell(cell, tag, recorder);
}

std::string
writeCellManifest(const std::string &dir, const ManifestCell &cell,
                  EngineTag tag, std::string *document)
{
    std::optional<telemetry::IntervalRecorder> recorder;
    const telemetry::Manifest m = renderCell(cell, tag, recorder);
    if (document)
        *document = telemetry::manifestDocument(m);
    const std::string path = telemetry::writeManifestFile(dir, m);
    if (path.empty() || !recorder)
        return path;

    // The interval series rides next to the manifest:
    // <workload>_<hash>.json -> <workload>_<hash>.intervals.jsonl.
    std::string jsonl = path;
    const std::string suffix = ".json";
    jsonl.replace(jsonl.size() - suffix.size(), suffix.size(),
                  ".intervals.jsonl");
    if (!recorder->writeJsonl(jsonl, cell.workload, cell.config->name,
                              cell.config->cacheKey()))
        return "";
    return path;
}

std::optional<std::string>
SweepRequest::validationError() const
{
    if (workloads.empty())
        return std::string("request has no workloads");
    if (configs.empty())
        return std::string("request has no configurations");
    if (!metric.extract)
        return std::string("request has no metric");
    const bool sampled = engine == EngineSelect::Sampled ||
                         engine == EngineSelect::SampledLivepoint;
    if (engine == EngineSelect::SampledLivepoint &&
        checkpointDir.empty()) {
        return std::string(
            "engine sampled-livepoint requires a checkpoint directory");
    }
    if (engine == EngineSelect::Sampled && !checkpointDir.empty()) {
        return std::string("engine sampled ignores the checkpoint "
                           "directory; use sampled-livepoint");
    }
    if (!checkpointDir.empty() && !sampled) {
        return std::string(
            "a checkpoint directory requires a sampled engine");
    }
    if (checkpointRebuild && checkpointDir.empty()) {
        return std::string(
            "checkpoint rebuild requires a checkpoint directory");
    }
    if ((telemetry.intervalRecords > 0 || telemetry.heatmap) &&
        sampled) {
        return std::string("interval/heatmap instrumentation replays "
                           "exactly and cannot combine with a sampled "
                           "engine");
    }
    if (engine == EngineSelect::Stack &&
        !stackDerivableMetric(metric)) {
        return "metric '" + metric.name +
               "' is not stack-derivable; use engine auto or exact";
    }
    if (sampled) {
        if (const auto err = sampling.validationError())
            return "sampling: " + *err;
    }
    return std::nullopt;
}

SweepRequest
SweepRequest::fromBenchOptions(const BenchOptions &options,
                               std::vector<Workload> workloads,
                               std::vector<core::Config> configs,
                               Metric metric)
{
    SweepRequest req;
    req.workloads = std::move(workloads);
    req.configs = std::move(configs);
    req.metric = std::move(metric);
    req.jobs = options.jobs;
    req.intraJobs = options.intraJobs;
    if (options.sample) {
        req.engine = options.checkpointDir.empty()
                         ? EngineSelect::Sampled
                         : EngineSelect::SampledLivepoint;
    }
    req.sampling = options.sampling;
    req.checkpointDir = options.checkpointDir;
    req.checkpointRebuild = options.checkpointRebuild;
    req.telemetry.manifestDir = options.emitJsonDir;
    req.telemetry.intervalRecords = options.interval;
    req.telemetry.heatmap = options.heatmap;
    req.telemetry.suiteTotals = true;
    return req;
}

namespace {

/** Per-run emission state shared by the engine-specific paths. */
struct Emitter
{
    const SweepTelemetry &telemetry;
    SweepResult &result;

    bool
    active() const
    {
        return !telemetry.manifestDir.empty() ||
               static_cast<bool>(telemetry.sink);
    }

    /** Claim (workload, cacheKey) in the dedup set (true = emit). */
    bool
    claim(const std::string &workload, const std::string &cache_key)
    {
        return !telemetry.dedup ||
               telemetry.dedup->emplace(workload, cache_key).second;
    }

    /**
     * Emit one cell: write under manifestDir and/or stream through
     * the sink. @p record (when given) receives the file/path.
     */
    void
    emit(const ManifestCell &cell, EngineTag tag,
         SweepResult::Cell *record)
    {
        const std::string file = telemetry::manifestFileName(
            cell.workload, cell.config->cacheKey());
        // Render once: the sink streams the exact bytes the file
        // holds.
        std::string doc;
        std::string path;
        if (!telemetry.manifestDir.empty()) {
            path = writeCellManifest(telemetry.manifestDir, cell, tag,
                                     telemetry.sink ? &doc : nullptr);
        } else {
            doc = telemetry::manifestDocument(
                renderCellManifest(cell, tag));
            path = file; // streamed only; count as written
        }
        if (telemetry.sink)
            telemetry.sink(file, doc);
        if (path.empty())
            ++result.manifestFailures;
        else
            ++result.manifestsWritten;
        if (record) {
            record->manifestFile = file;
            if (path != file)
                record->manifestPath = path;
        }
    }
};

/**
 * The "checkpoint" manifest block of one live-point cell: how its own
 * library was obtained (a stale library is also a miss, as in the
 * "checkpoint.*" counters) and the bytes moved through its file.
 */
util::Json
checkpointBlock(const Runner::SampledCell &cell)
{
    using LoadResult = sim::CheckpointLibrary::LoadResult;
    util::Json ck = util::Json::object();
    ck.set("hits", std::uint64_t{cell.library == LoadResult::Hit});
    ck.set("misses", std::uint64_t{cell.library != LoadResult::Hit});
    ck.set("stale", std::uint64_t{cell.library == LoadResult::Stale});
    ck.set("bytes", cell.libraryBytes);
    return ck;
}

/** The "parallel" timing block of a cell whose windows ran in parallel. */
util::Json
parallelBlock(const Runner::SampledCell &cell)
{
    util::Json par = util::Json::object();
    par.set("intra_jobs", static_cast<std::uint64_t>(cell.intraJobs));
    par.set("windows", cell.parallel.windows);
    par.set("merge_ns", cell.parallel.mergeNanos);
    return par;
}

} // namespace

SweepResult
Runner::run(const SweepRequest &request)
{
    if (const auto err = request.validationError())
        SAC_ASSERT(false, "invalid SweepRequest: ", *err);

    SweepResult out;
    Emitter emitter{request.telemetry, out};
    const bool sampled =
        request.engine == EngineSelect::Sampled ||
        request.engine == EngineSelect::SampledLivepoint;
    const std::size_t n_w = request.workloads.size();
    const std::size_t n_c = request.configs.size();
    out.cells.resize(n_w * n_c);
    const auto record = [&](std::size_t wi,
                            std::size_t ci) -> SweepResult::Cell & {
        SweepResult::Cell &r = out.cells[wi * n_c + ci];
        r.workload = request.workloads[wi].name;
        r.configName = request.configs[ci].name;
        r.cacheKey = request.configs[ci].cacheKey();
        return r;
    };

    if (sampled) {
        // Window-replay workers per cell: an explicit request wins;
        // auto shards only when the cell count cannot keep every
        // sweep worker busy, splitting the leftover concurrency
        // across cells.
        const std::size_t n_cells = n_w * n_c;
        const unsigned intra =
            request.intraJobs > 0
                ? request.intraJobs
                : ((request.jobs > 1 && n_cells < request.jobs)
                       ? request.jobs / static_cast<unsigned>(n_cells)
                       : 1);
        const auto cells = sampleCells(
            request.workloads, request.configs, request.sampling,
            request.jobs,
            request.engine == EngineSelect::SampledLivepoint
                ? request.checkpointDir
                : std::string(),
            request.checkpointRebuild, intra);
        out.table = sampledMatrix(request.workloads, request.configs,
                                  cells, request.metric);

        for (std::size_t wi = 0; wi < n_w; ++wi) {
            for (std::size_t ci = 0; ci < n_c; ++ci) {
                const SampledCell &cell = cells[wi][ci];
                const EngineTag tag =
                    cell.fromCheckpoints ? EngineTag::SampledLivepoint
                                         : EngineTag::Sampled;
                SweepResult::Cell &r = record(wi, ci);
                r.engine = tag;
                if (!emitter.active() ||
                    !emitter.claim(r.workload, r.cacheKey))
                    continue;
                // Library-served cells carry a "checkpoint" block so a
                // reader can tell an instant re-sweep from a cold
                // warm, and a "parallel" block inside "timing" when
                // their windows ran sharded.
                const util::Json ck = checkpointBlock(cell);
                const util::Json par = parallelBlock(cell);
                ManifestCell mc;
                mc.workload = r.workload;
                mc.config = &request.configs[ci];
                mc.report = &cell.report;
                mc.sampling = &request.sampling;
                mc.checkpoint = cell.fromCheckpoints ? &ck : nullptr;
                mc.parallel = cell.fromCheckpoints && cell.parallel.parallel
                                  ? &par
                                  : nullptr;
                mc.simSeconds = cell.simSeconds;
                emitter.emit(mc, tag, &r);
            }
        }
        return out;
    }

    // Exact path. Auto and Stack split off the stack family — served
    // by one single-pass traversal per workload — from the exact
    // remainder; Exact forbids stack dispatch. A family of one gains
    // nothing over a replay, so dispatch needs two members.
    std::vector<const core::Config *> family;
    if (request.engine != EngineSelect::Exact &&
        stackDerivableMetric(request.metric)) {
        for (const auto &cfg : request.configs) {
            if (stackFamilyEligible(cfg))
                family.push_back(&cfg);
        }
    }
    if (family.size() < 2)
        family.clear();
    std::vector<bool> stacked(n_c, false);
    for (std::size_t ci = 0; ci < n_c; ++ci) {
        stacked[ci] = std::find(family.begin(), family.end(),
                                &request.configs[ci]) != family.end();
    }

    out.timing = sweepExact(request.workloads, request.configs, family,
                            request.jobs);

    // Render serially: ordering, rounding and therefore bytes are
    // independent of the worker count (stack-served cells extract the
    // same integer counts replay would produce, so the rendered
    // doubles match bit for bit).
    {
        const telemetry::ScopedPhase render(phases_, "report");
        std::vector<std::string> headers{"Benchmark"};
        for (const auto &cfg : request.configs)
            headers.push_back(cfg.name);
        out.table = util::Table(std::move(headers));
        for (std::size_t wi = 0; wi < n_w; ++wi) {
            const Workload &w = request.workloads[wi];
            const auto row = out.table.addRow();
            out.table.set(row, 0, w.name);
            for (std::size_t ci = 0; ci < n_c; ++ci) {
                const core::Config &cfg = request.configs[ci];
                SweepResult::Cell &r = record(wi, ci);
                r.stats = stacked[ci] ? *stackStats(w, cfg)
                                      : cell(w, cfg).stats;
                out.table.setNumber(row, ci + 1,
                                    request.metric.extract(r.stats),
                                    request.metric.decimals);
            }
        }
    }

    const bool instrument = request.telemetry.intervalRecords > 0 ||
                            request.telemetry.heatmap;
    util::Json phases;
    if (emitter.active() && request.telemetry.suiteTotals) {
        phases = phases_.toJson();
        phases.set("sweep_jobs",
                   static_cast<std::uint64_t>(out.timing.jobs));
        phases.set("worker_utilization", out.timing.utilization());
    }

    for (std::size_t ci = 0; ci < n_c; ++ci) {
        const core::Config &cfg = request.configs[ci];
        sim::RunStats suite_total;
        double suite_seconds = 0.0;
        for (std::size_t wi = 0; wi < n_w; ++wi) {
            const Workload &w = request.workloads[wi];
            SweepResult::Cell &r = record(wi, ci);
            if (stacked[ci]) {
                r.engine = EngineTag::StackSinglePass;
                if (emitter.active() &&
                    emitter.claim(r.workload, r.cacheKey)) {
                    ManifestCell mc;
                    mc.workload = r.workload;
                    mc.config = &cfg;
                    mc.stats = stackStats(w, cfg);
                    mc.stackFamilySize = family.size();
                    emitter.emit(mc, EngineTag::StackSinglePass, &r);
                }
                continue;
            }
            r.engine = EngineTag::ExactReplay;
            if (!emitter.active())
                continue;
            const CellResult &cell = this->cell(w, cfg);
            if (emitter.claim(r.workload, r.cacheKey)) {
                ManifestCell mc;
                mc.workload = r.workload;
                mc.config = &cfg;
                mc.stats = &cell.stats;
                mc.simSeconds = cell.simSeconds;
                if (instrument)
                    mc.trace = &traceOf(w);
                mc.instrument = {request.telemetry.intervalRecords,
                                 request.telemetry.heatmap};
                emitter.emit(mc, EngineTag::ExactReplay, &r);
            }
            suite_total += cell.stats;
            suite_seconds += cell.simSeconds;
        }
        if (emitter.active() && request.telemetry.suiteTotals &&
            !stacked[ci] &&
            emitter.claim("suite-total", cfg.cacheKey())) {
            ManifestCell mc;
            mc.workload = "suite-total";
            mc.config = &cfg;
            mc.stats = &suite_total;
            mc.simSeconds = suite_seconds;
            mc.extraTiming = &phases;
            emitter.emit(mc, EngineTag::ExactReplay, nullptr);
        }
    }
    return out;
}

} // namespace harness
} // namespace sac
