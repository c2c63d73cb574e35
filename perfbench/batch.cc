/**
 * @file
 * The three workloads: one SweepRequest served in-process by
 * harness::Runner::run, repeated on a fresh Runner for the whole run.
 *
 *  - suite-exact:   9 paper traces x 14 presets, AMAT, exact replay
 *  - lattice-stack: 9 paper traces x 56 standard-family configs, miss
 *                   ratio, auto routing (every cell stack-served)
 *  - hot-sampled:   one MV n=2000 trace x soft, sampled over a
 *                   live-point library built in set-up
 *
 * Each repetition checks every cell against the serial oracle:
 * core::simulateTrace for exact and stack cells, runCheckpointed for
 * the sampled cell.
 */

#include <algorithm>
#include <iostream>
#include <stdexcept>

#include "bench.hh"
#include "src/core/soft_cache.hh"
#include "src/sim/checkpoint.hh"
#include "src/sim/sampling.hh"
#include "src/telemetry/manifest.hh"
#include "src/workloads/workloads.hh"

namespace sacbench {

using namespace sac;

namespace {

/** Set-up output: the traces and the request the workload repeats. */
struct Plan
{
    TraceSet set;
    std::vector<core::Config> configs;
    harness::Metric metric;
    harness::EngineSelect engine = harness::EngineSelect::Exact;
    sim::SamplingOptions sampling;
    std::string checkpointDir;
    sim::CheckpointKey libraryKey; //!< hot-sampled only
    std::string libraryPath;       //!< hot-sampled only
};

/** The expected outputs of every cell. */
struct Oracle
{
    std::vector<sim::RunStats> stats; //!< exact/stack cells, cell order
    sim::SampleReport report;         //!< sampled cell
    std::string table;
};

bool
sampledPlan(const Plan &p)
{
    return p.engine == harness::EngineSelect::SampledLivepoint;
}

Plan
makePlan(Context &ctx)
{
    Plan p;
    const std::string &w = ctx.opt.workload;
    const std::uint64_t seed = timingSeed(ctx.opt.seed);
    if (w == "suite-exact") {
        p.set = paperTraces(ctx, seed);
        for (const auto &key : core::presets().names())
            p.configs.push_back(core::presets().get(key));
        p.metric = harness::amatMetric();
        p.engine = harness::EngineSelect::Exact;
    } else if (w == "lattice-stack") {
        p.set = paperTraces(ctx, seed);
        p.configs = stackLattice();
        p.metric = harness::missRatioMetric();
        p.engine = harness::EngineSelect::Auto;
    } else {
        const auto t0 = Clock::now();
        {
            const auto s = ctx.spans.span("workloads.makeTaggedTrace.MV2000");
            p.set.traces.push_back(std::make_shared<const trace::Trace>(
                workloads::makeTaggedTrace(workloads::buildMv(2000),
                                           seed)));
        }
        p.set.programs.push_back([] { return workloads::buildMv(2000); });
        p.set.seed = seed;
        p.set.genSeconds = secondsSince(t0);
        p.configs.push_back(core::presets().get("soft"));
        p.metric = harness::amatMetric();
        p.engine = harness::EngineSelect::SampledLivepoint;
        p.sampling.window = 512;
        p.sampling.stride = 8192;
        p.sampling.warmup = 4096;
        p.checkpointDir = ctx.opt.workdir + "/livepoints";

        // Build the live-point library the timed repetitions load,
        // at the path and key the runner derives for this cell.
        const trace::Trace &t = *p.set.traces.front();
        p.libraryKey.traceHash = sim::hashTrace(t);
        p.libraryKey.configKey = p.configs.front().cacheKey();
        p.libraryKey.window = p.sampling.window;
        p.libraryKey.stride = p.sampling.stride;
        p.libraryKey.warmup = p.sampling.warmup;
        p.libraryPath = sim::CheckpointLibrary::pathFor(
            p.checkpointDir, t.name(), p.libraryKey);
        const auto s = ctx.spans.span("sim.buildLibrary");
        const sim::SampledEngine engine(p.sampling);
        core::SoftwareAssistedCache warmer(p.configs.front());
        trace::MemoryTraceSource src(t);
        sim::CheckpointLibrary lib;
        engine.buildLibrary(src, warmer, lib);
        if (lib.save(p.libraryPath, p.libraryKey) == 0)
            throw std::runtime_error("cannot write " + p.libraryPath);
    }
    return p;
}

Oracle
makeOracle(Context &ctx, const Plan &p)
{
    Oracle o;
    const auto s = ctx.spans.span("oracle.build");
    const std::size_t n_w = p.set.traces.size();
    const std::size_t n_c = p.configs.size();
    std::vector<std::string> headers{"Benchmark"};
    for (const auto &cfg : p.configs)
        headers.push_back(cfg.name);
    util::Table table(headers);
    if (sampledPlan(p)) {
        const trace::Trace &t = *p.set.traces.front();
        sim::CheckpointLibrary lib;
        if (lib.load(p.libraryPath, p.libraryKey) !=
            sim::CheckpointLibrary::LoadResult::Hit)
            throw std::runtime_error("live-point library did not load");
        const sim::SampledEngine engine(p.sampling);
        core::SoftwareAssistedCache sim(p.configs.front());
        trace::MemoryTraceSource src(t);
        o.report = engine.runCheckpointed(src, sim, lib);
        o.stats.push_back(o.report.detailed);
        std::vector<std::vector<harness::Runner::SampledCell>> cells(1);
        cells[0].push_back({o.report, 0.0, true});
        o.table = harness::sampledMatrix(workloadsOver(p.set), p.configs,
                                         cells, p.metric)
                      .toString();
        return o;
    }
    o.stats.resize(n_w * n_c);
    parallelFor(o.stats.size(), ctx.nproc, [&](std::size_t i) {
        o.stats[i] = core::simulateTrace(*p.set.traces[i / n_c],
                                         p.configs[i % n_c]);
    });
    for (std::size_t wi = 0; wi < n_w; ++wi) {
        const auto row = table.addRow();
        table.set(row, 0, p.set.traces[wi]->name());
        for (std::size_t ci = 0; ci < n_c; ++ci)
            table.setNumber(row, ci + 1,
                            p.metric.extract(o.stats[wi * n_c + ci]),
                            p.metric.decimals);
    }
    o.table = table.toString();
    return o;
}

/** One timed repetition's measurements and check outcome. */
struct Rep
{
    HarnessAccount account;
    std::uint64_t checked = 0;
    std::uint64_t failed = 0;
};

/** Do a stack cell's counts match the exact replay's? */
bool
sameCounts(const sim::RunStats &a, const sim::RunStats &b)
{
    return a.accesses == b.accesses && a.reads == b.reads &&
           a.writes == b.writes && a.misses == b.misses &&
           a.mainHits == b.mainHits;
}

/**
 * Check one repetition's cells and table against the oracle. Every
 * mismatching cell is one failure; a table that differs although
 * every cell matched is one more.
 */
void
checkRep(const Plan &p, const Oracle &o, harness::Runner &runner,
         const harness::SweepResult &res,
         const std::vector<std::pair<std::string, std::string>> &docs,
         const std::vector<harness::Workload> &wls, Rep &rep)
{
    const std::size_t n_c = p.configs.size();
    rep.checked += res.cells.size();
    if (res.cells.size() != wls.size() * n_c) {
        rep.failed += wls.size() * n_c;
        return;
    }
    std::uint64_t bad = 0;
    if (sampledPlan(p)) {
        util::Json ck = util::Json::object();
        for (const char *key : {"checkpoint.hits", "checkpoint.misses",
                                "checkpoint.stale", "checkpoint.bytes"})
            ck.set(std::string(key).substr(11),
                   runner.checkpointCounter(key));
        harness::ManifestCell mc;
        mc.workload = wls.front().name;
        mc.config = &p.configs.front();
        mc.report = &o.report;
        mc.sampling = &p.sampling;
        mc.checkpoint = &ck;
        // Streamed documents end in a newline; dump() does not.
        const std::string want =
            stripTiming(telemetry::manifestJson(
                            harness::renderCellManifest(
                                mc, harness::EngineTag::SampledLivepoint))
                            .dump(2) +
                        "\n");
        if (docs.size() != 1 || stripTiming(docs.front().second) != want)
            ++bad;
    } else {
        for (std::size_t i = 0; i < res.cells.size(); ++i) {
            const harness::Workload &w = wls[i / n_c];
            const core::Config &cfg = p.configs[i % n_c];
            if (res.cells[i].engine ==
                harness::EngineTag::StackSinglePass) {
                const sim::RunStats *got = runner.stackStats(w, cfg);
                bad += got == nullptr || !sameCounts(*got, o.stats[i]);
            } else {
                bad += !(runner.cell(w, cfg).stats == o.stats[i]);
            }
        }
    }
    if (bad == 0 && res.table.toString() != o.table)
        bad = 1;
    if (bad)
        std::cerr << "sacbench: " << bad
                  << " cells differ from the oracle\n";
    rep.failed += bad;
}

Rep
runRep(Context &ctx, const Plan &p, const Oracle &o, unsigned jobs)
{
    harness::Runner runner;
    const std::vector<harness::Workload> wls = workloadsOver(p.set);
    runner.warmup(wls);

    harness::SweepRequest req;
    req.workloads = wls;
    req.configs = p.configs;
    req.metric = p.metric;
    req.jobs = jobs;
    req.engine = p.engine;
    req.sampling = p.sampling;
    req.checkpointDir = p.checkpointDir;
    const MeasuredRun run = measuredRun(ctx, runner, std::move(req));

    Rep rep;
    rep.account = run.account;
    const auto s = ctx.spans.span("oracle.check");
    checkRep(p, o, runner, run.result, run.docs, wls, rep);
    // Guards: every cell computed fresh, no trace generated inside
    // the timed region, the set-up library served the sampled cell.
    const HarnessAccount &a = run.account;
    const std::uint64_t guards =
        (a.runsExecuted != a.cells) + (a.tracesGenerated != 0) +
        (!p.checkpointDir.empty() && a.checkpointHitRatio != 1.0);
    if (guards)
        std::cerr << "sacbench: guard failed: runs " << a.runsExecuted
                  << " of " << a.cells << " cells, " << a.tracesGenerated
                  << " traces generated, live-point hit ratio "
                  << a.checkpointHitRatio << "\n";
    rep.failed += guards;
    return rep;
}

/** Repeat runRep for @p seconds (at least @p min_reps times). */
std::vector<Rep>
timedLoop(Context &ctx, const Plan &p, const Oracle &o, double seconds,
          std::size_t min_reps)
{
    std::vector<Rep> reps;
    const auto t0 = Clock::now();
    while (reps.size() < min_reps || secondsSince(t0) < seconds) {
        reps.push_back(runRep(ctx, p, o, ctx.nproc));
        ctx.result.attempted += reps.back().checked;
        ctx.result.failed += reps.back().failed;
    }
    return reps;
}

double
medianSweepSeconds(const std::vector<Rep> &reps)
{
    std::vector<double> walls;
    for (const auto &r : reps)
        walls.push_back(r.account.wallSeconds);
    return median(walls);
}

} // namespace

MeasuredRun
measuredRun(Context &ctx, harness::Runner &runner, harness::SweepRequest req)
{
    MeasuredRun run;
    req.telemetry.sink = [&](const std::string &file,
                             const std::string &doc) {
        run.docs.emplace_back(file, doc);
    };
    const auto traces0 = runner.tracesGenerated();
    const auto runs0 = runner.runsExecuted();
    const auto stack0 = runner.stackCounter("stack.pass.cells");
    const auto passes0 = runner.stackCounter("stack.pass.traversals");
    const auto hits0 = runner.checkpointCounter("checkpoint.hits");
    const auto misses0 = runner.checkpointCounter("checkpoint.misses");
    const auto cpu0 = cpuSeconds();
    const auto t0 = Clock::now();
    {
        const auto s = ctx.spans.span("harness.Runner.run");
        run.result = runner.run(req);
    }
    HarnessAccount &a = run.account;
    a.wallSeconds = secondsSince(t0);
    a.cpuSeconds = cpuSeconds() - cpu0;
    for (const auto &w : req.workloads)
        a.cellRecords += static_cast<double>(runner.traceOf(w).size() *
                                             req.configs.size());
    a.timing = run.result.timing;
    a.jobs = req.jobs;
    a.cells = run.result.cells.size();
    for (const auto &c : run.result.cells)
        a.stackCells += c.engine == harness::EngineTag::StackSinglePass;
    const auto stack_cells = runner.stackCounter("stack.pass.cells") - stack0;
    const auto passes =
        runner.stackCounter("stack.pass.traversals") - passes0;
    a.runsExecuted = runner.runsExecuted() - runs0 + stack_cells;
    a.tracesGenerated = runner.tracesGenerated() - traces0;
    a.stackCellsPerPass = passes > 0 ? static_cast<double>(stack_cells) /
                                           static_cast<double>(passes)
                                     : 0.0;
    const auto hits = runner.checkpointCounter("checkpoint.hits") - hits0;
    const auto misses =
        runner.checkpointCounter("checkpoint.misses") - misses0;
    if (hits + misses > 0)
        a.checkpointHitRatio = static_cast<double>(hits) /
                               static_cast<double>(hits + misses);
    return run;
}

void
runWorkload(Context &ctx)
{
    // Set-up, several times so its time is a median; the last plan
    // stays. A traced run sets up once.
    const int setups = ctx.opt.trace ? 1 : 3;
    std::vector<double> setup_s;
    std::unique_ptr<Plan> plan;
    for (int i = 0; i < setups; ++i) {
        plan.reset();
        const auto t0 = Clock::now();
        plan = std::make_unique<Plan>(makePlan(ctx));
        setup_s.push_back(secondsSince(t0));
    }
    const Plan &p = *plan;
    Oracle o = makeOracle(ctx, p);
    if (ctx.opt.injectFault) {
        if (sampledPlan(p))
            o.report.detailed.misses += 1;
        else
            o.stats.front().misses += 1;
    }

    if (!ctx.opt.trace) {
        const std::vector<Rep> reps = timedLoop(ctx, p, o, ctx.opt.seconds, 3);
        const ProcStatus self = readProcStatus(0);
        const double sweep_s = medianSweepSeconds(reps);
        std::cout << "samples: " << reps.size() << " sweeps, "
                  << setup_s.size() << " set-ups\n";
        Result &out = ctx.result;
        out.add("setup_s", median(setup_s), "s");
        out.add("sweep_wall_s", sweep_s, "s");
        // Every sweep covers the same cells, so any repetition's
        // record count is the request's.
        out.add("cell_rec_per_s", reps.front().account.cellRecords / sweep_s,
                "1/s");
        out.add("peak_rss_mb", self.hwmMb, "MB");
        return;
    }

    // Traced run: an untraced and a traced half for the tracing
    // overhead, one sweep at one job for the contention ratio, a short
    // sacd session for the service layer, then the layer probes.
    LayerInput in;
    ctx.spans.enable(false);
    const auto untraced = timedLoop(ctx, p, o, ctx.opt.seconds / 2, 2);
    ctx.spans.enable(true);
    const auto traced = timedLoop(ctx, p, o, ctx.opt.seconds / 2, 2);
    in.untracedSweepMs = medianSweepSeconds(untraced) * 1e3;
    in.tracedSweepMs = medianSweepSeconds(traced) * 1e3;
    in.nprocJobs = traced.back().account;
    const Rep one = runRep(ctx, p, o, 1);
    ctx.result.attempted += one.checked;
    ctx.result.failed += one.failed;
    in.oneJob = one.account;
    in.traces = &p.set;
    in.modelStats = o.stats;
    for (std::size_t i = 0; i < o.stats.size(); ++i)
        in.cells.emplace_back(
            p.set.traces[i / p.configs.size()]->name(),
            p.configs[i % p.configs.size()]);
    in.service = sacdServiceProbe(ctx, 3.0);
    runLayerProbes(ctx, in);
}

} // namespace sacbench
