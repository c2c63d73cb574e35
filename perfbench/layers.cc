/**
 * @file
 * The per-layer metrics of the traced run. Each probe calls one
 * layer's public functions directly, inside a span named after the
 * layer, over the workload's own traces (the longest one for the
 * sampling probes). Probes that produce results compare them with
 * the serial path and count mismatches as failures.
 */

#include <iostream>
#include <stdexcept>
#include <sys/socket.h>
#include <unistd.h>

#include "bench.hh"
#include "src/core/soft_cache.hh"
#include "src/locality/analyzer.hh"
#include "src/loopnest/generator.hh"
#include "src/service/protocol.hh"
#include "src/sim/checkpoint.hh"
#include "src/sim/sampling.hh"
#include "src/sim/stack_engine.hh"
#include "src/telemetry/manifest.hh"
#include "src/trace/timing_model.hh"
#include "src/trace/trace_source.hh"
#include "src/util/thread_pool.hh"
#include "src/workloads/workloads.hh"

namespace sacbench {

using namespace sac;

namespace {

/** Keeps probe results observable so no call is optimised away. */
volatile std::uint64_t g_sink = 0;

double
nsPerRecord(double seconds, double records)
{
    return records > 0.0 ? seconds * 1e9 / records : 0.0;
}

/** Wall seconds of @p fn inside a span named @p name. */
template <class Fn>
double
timed(Context &ctx, const std::string &name, Fn &&fn)
{
    const auto s = ctx.spans.span(name);
    const auto t0 = Clock::now();
    fn();
    return secondsSince(t0);
}

void
generationProbes(Context &ctx, const TraceSet &set, Result &out)
{
    const double records = static_cast<double>(set.records());
    out.add("workloads.gen_ns_per_rec", nsPerRecord(set.genSeconds, records),
            "ns");
    out.add("workloads.records", records, "count");

    double analyze_s = 0.0, interp_s = 0.0, interp_records = 0.0;
    double gen_source_s = 0.0, gen_source_records = 0.0;
    for (const auto &build : set.programs) {
        loopnest::Program program = build();
        program.finalize();
        analyze_s += timed(ctx, "locality.analyze", [&] {
            g_sink = g_sink + locality::analyze(program).tags.size();
        });
        interp_s += timed(ctx, "loopnest.generateUntagged", [&] {
            trace::TimingModel timing(set.seed);
            interp_records += static_cast<double>(
                loopnest::generateUntagged(program, timing).size());
        });
        gen_source_s += timed(ctx, "trace.GeneratorTraceSource", [&] {
            trace::GeneratorTraceSource src(
                program.name(), [&build, seed = set.seed](
                                    const trace::RecordSink &sink) {
                    workloads::streamTaggedTrace(build(), sink, seed);
                });
            std::vector<trace::Record> buf(
                trace::TraceSource::defaultChunkRecords);
            while (const std::size_t n = src.next(buf.data(), buf.size())) {
                gen_source_records += static_cast<double>(n);
                g_sink = g_sink + buf[n - 1].addr;
            }
        });
    }
    out.add("loopnest.interp_ns_per_rec", nsPerRecord(interp_s, interp_records),
            "ns");
    out.add("locality.analyze_ms", analyze_s * 1e3, "ms");

    const double mem_s = timed(ctx, "trace.MemoryTraceSource", [&] {
        std::vector<trace::Record> buf(trace::TraceSource::defaultChunkRecords);
        for (const auto &t : set.traces) {
            trace::MemoryTraceSource src(*t);
            while (const std::size_t n = src.next(buf.data(), buf.size()))
                g_sink = g_sink + buf[n - 1].addr;
        }
    });
    out.add("trace.memsource_ns_per_rec", nsPerRecord(mem_s, records), "ns");
    out.add("trace.gensource_ns_per_rec",
            nsPerRecord(gen_source_s, gen_source_records), "ns");
}

/** simulateTrace over every trace of @p set; wall seconds. */
double
replaySeconds(Context &ctx, const TraceSet &set, const core::Config &cfg,
              core::DispatchMode mode, const std::string &span)
{
    return timed(ctx, span, [&] {
        for (const auto &t : set.traces)
            g_sink = g_sink + core::simulateTrace(*t, cfg, mode).misses;
    });
}

void
coreProbes(Context &ctx, const TraceSet &set, Result &out)
{
    const double records = static_cast<double>(set.records());
    const auto preset = [](const char *key) {
        core::Config c = core::presets().get(key);
        c.classifyMisses = false;
        return c;
    };
    double standard_ns = 0.0;
    for (const char *key : {"standard", "victim", "soft", "soft-prefetch",
                            "bypass-buffer", "soft-2way"}) {
        const double ns = nsPerRecord(
            replaySeconds(ctx, set, preset(key), core::DispatchMode::Auto,
                          std::string("core.simulateTrace.") + key),
            records);
        if (std::string(key) == "standard")
            standard_ns = ns;
        out.add(std::string("core.") + key + ".ns_per_rec", ns, "ns");
    }
    out.add("core.general.ns_per_rec",
            nsPerRecord(replaySeconds(ctx, set, preset("soft-prefetch"),
                                      core::DispatchMode::General,
                                      "core.simulateTrace.general"),
                        records),
            "ns");

    core::Config classified = preset("standard");
    classified.classifyMisses = true;
    const double with_ns = nsPerRecord(
        replaySeconds(ctx, set, classified, core::DispatchMode::Auto,
                      "sim.classifier.simulateTrace"),
        records);
    out.add("sim.classifier.ns_per_rec", with_ns - standard_ns, "ns");
    out.add("sim.classifier.share",
            standard_ns > 0.0 ? (with_ns - standard_ns) / standard_ns : 0.0,
            "ratio");
}

/** Stack pass, unsharded and set-sharded; returns mismatches. */
std::uint64_t
stackProbes(Context &ctx, const TraceSet &set, const LayerInput &in,
            Result &out)
{
    std::vector<sim::StackPoint> points;
    for (const auto &cfg : stackLattice())
        points.push_back(harness::stackPointOf(cfg));
    const unsigned shards = ctx.nproc;
    double single_s = 0.0, sharded_s = 0.0;
    std::uint64_t failed = 0;
    for (const auto &t : set.traces) {
        sim::StackDistanceEngine whole(points);
        single_s += timed(ctx, "sim.StackDistanceEngine.run", [&] {
            trace::MemoryTraceSource src(*t);
            whole.run(src);
        });
        std::vector<sim::StackDistanceEngine> parts;
        for (unsigned s = 0; s < shards; ++s)
            parts.emplace_back(points, s, shards);
        sharded_s += timed(ctx, "sim.StackDistanceEngine.sharded", [&] {
            parallelFor(shards, shards, [&](std::size_t s) {
                trace::MemoryTraceSource src(*t);
                parts[s].run(src);
            });
            for (unsigned s = 1; s < shards; ++s)
                parts[0].absorb(parts[s]);
        });
        for (const auto &p : points)
            failed += parts[0].missCount(p) != whole.missCount(p);
        ctx.result.attempted += points.size();
    }
    if (failed)
        std::cerr << "sacbench: sharded stack pass differs at " << failed
                  << " points\n";
    const double records = static_cast<double>(set.records());
    out.add("sim.stack.ns_per_rec", nsPerRecord(single_s, records), "ns");
    out.add("sim.stack.sharded.ns_per_rec", nsPerRecord(sharded_s, records),
            "ns");
    out.add("sim.stack.cells_per_pass",
            in.nprocJobs.stackCellsPerPass > 0.0
                ? in.nprocJobs.stackCellsPerPass
                : static_cast<double>(points.size()),
            "count");
    return failed;
}

/**
 * Sampling, live-point build, serial and parallel checkpointed replay
 * over the longest trace; returns mismatches between the three
 * replays.
 */
std::uint64_t
samplingProbes(Context &ctx, const TraceSet &set, const LayerInput &in,
               Result &out)
{
    const trace::Trace &t = set.longest();
    const double records = static_cast<double>(t.size());
    const core::Config cfg = core::presets().get("soft");
    sim::SamplingOptions g;
    g.window = 512;
    g.stride = 8192;
    g.warmup = 4096;
    const sim::SampledEngine engine(g);

    sim::SampleReport plain, serial, parallel;
    const double sampling_s = timed(ctx, "sim.SampledEngine.run", [&] {
        core::SoftwareAssistedCache sim(cfg);
        trace::MemoryTraceSource src(t);
        plain = engine.run(src, sim);
    });
    sim::CheckpointLibrary lib;
    const double build_s = timed(ctx, "sim.buildLibrary", [&] {
        core::SoftwareAssistedCache warmer(cfg);
        trace::MemoryTraceSource src(t);
        engine.buildLibrary(src, warmer, lib);
    });
    const double replay_s = timed(ctx, "sim.runCheckpointed", [&] {
        core::SoftwareAssistedCache sim(cfg);
        trace::MemoryTraceSource src(t);
        serial = engine.runCheckpointed(src, sim, lib);
    });
    util::ThreadPool pool(ctx.nproc);
    const double parallel_s = timed(ctx, "sim.runCheckpointedParallel", [&] {
        trace::MemoryTraceSource src(t);
        parallel = engine.runCheckpointedParallel(
            src, [&cfg] { return core::SoftwareAssistedCache(cfg); }, lib,
            pool, ctx.nproc);
    });
    out.add("sim.sampling.ns_per_rec", nsPerRecord(sampling_s, records), "ns");
    out.add("sim.checkpoint.build_s", build_s, "s");
    out.add("sim.checkpoint.replay_ns_per_rec", nsPerRecord(replay_s, records),
            "ns");
    out.add("sim.checkpoint.parallel_ns_per_rec",
            nsPerRecord(parallel_s, records), "ns");
    out.add("sim.checkpoint.parallel_speedup",
            parallel_s > 0.0 ? replay_s / parallel_s : 0.0, "ratio");

    // The runner's library outcome: the timed sweeps' when the
    // workload used a library, else one sweep over the library just
    // built, saved where the runner looks for it.
    double hit_ratio = in.nprocJobs.checkpointHitRatio;
    if (hit_ratio < 0.0) {
        sim::CheckpointKey key;
        key.traceHash = sim::hashTrace(t);
        key.configKey = cfg.cacheKey();
        key.window = g.window;
        key.stride = g.stride;
        key.warmup = g.warmup;
        const std::string dir = ctx.opt.workdir + "/probe-livepoints";
        lib.save(sim::CheckpointLibrary::pathFor(dir, t.name(), key), key);
        harness::Runner runner;
        TraceSet one;
        one.traces.push_back(std::make_shared<const trace::Trace>(t));
        harness::SweepRequest req;
        req.workloads = workloadsOver(one);
        req.configs = {cfg};
        req.metric = harness::amatMetric();
        req.engine = harness::EngineSelect::SampledLivepoint;
        req.sampling = g;
        req.checkpointDir = dir;
        runner.warmup(req.workloads);
        hit_ratio = measuredRun(ctx, runner, req).account.checkpointHitRatio;
    }
    out.add("sim.checkpoint.hit_ratio", hit_ratio, "ratio");
    // The live-point paths skip warming, so only the estimates and the
    // detailed statistics must match the plain warmed run.
    const auto same = [](const sim::SampleReport &a,
                         const sim::SampleReport &b) {
        return a.detailed == b.detailed && a.missRatio == b.missRatio &&
               a.amat == b.amat && a.wordsPerAccess == b.wordsPerAccess &&
               a.windows == b.windows;
    };
    const std::uint64_t bad = !same(serial, plain) + !(parallel == serial);
    ctx.result.attempted += 2;
    if (bad)
        std::cerr << "sacbench: checkpointed replay differs from the "
                     "warmed or serial run\n";
    return bad;
}

void
harnessMetrics(const LayerInput &in, Result &out)
{
    const HarnessAccount &a = in.nprocJobs;
    // SweepTiming where the engine path fills it (exact and stack
    // sweeps); process CPU time stands in for busy time otherwise.
    const double jobs = static_cast<double>(a.jobs);
    const bool timed_sweep = a.timing.wallSeconds > 0.0;
    const double busy = timed_sweep ? a.timing.busySeconds : a.cpuSeconds;
    const double wall = timed_sweep ? a.timing.wallSeconds : a.wallSeconds;
    const auto cpu_per_rec = [](const HarnessAccount &h) {
        return nsPerRecord(h.cpuSeconds, h.cellRecords);
    };
    out.add("harness.utilization", busy / (wall * jobs), "ratio");
    out.add("harness.idle_worker_s", wall * jobs - busy, "s");
    out.add("harness.cpu_ns_per_cell_rec", cpu_per_rec(a), "ns");
    out.add("harness.cpu_ns_per_cell_rec_1job", cpu_per_rec(in.oneJob), "ns");
    out.add("harness.contention_ratio",
            cpu_per_rec(in.oneJob) > 0.0
                ? cpu_per_rec(a) / cpu_per_rec(in.oneJob)
                : 0.0,
            "ratio");
    out.add("harness.runs_executed", static_cast<double>(a.runsExecuted),
            "count");
    out.add("harness.traces_generated", static_cast<double>(a.tracesGenerated),
            "count");
    out.add("harness.stack_cell_share",
            a.cells > 0 ? static_cast<double>(a.stackCells) /
                              static_cast<double>(a.cells)
                        : 0.0,
            "ratio");
}

/** Manifest rendering, framing and request parsing; returns a manifest. */
std::string
manifestAndWireProbes(Context &ctx, const LayerInput &in, Result &out)
{
    constexpr int renders = 200;
    std::string doc;
    double bytes = 0.0;
    double render_s = 0.0;
    for (int i = 0; i < renders; ++i) {
        const std::size_t c = static_cast<std::size_t>(i) % in.cells.size();
        harness::ManifestCell mc;
        mc.workload = in.cells[c].first;
        mc.config = &in.cells[c].second;
        mc.stats = &in.modelStats[c];
        telemetry::Manifest m;
        render_s += timed(ctx, "harness.renderCellManifest", [&] {
            m = harness::renderCellManifest(mc,
                                            harness::EngineTag::ExactReplay);
        });
        render_s += timed(ctx, "telemetry.manifestJson",
                          [&] { doc = telemetry::manifestJson(m).dump(2); });
        bytes += static_cast<double>(doc.size());
    }
    out.add("harness.manifest_render_us", render_s * 1e6 / renders, "us");
    out.add("telemetry.manifest_bytes", bytes / renders, "bytes");

    constexpr int frames = 2000;
    int fds[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
        throw std::runtime_error("socketpair failed");
    std::string back;
    std::uint64_t bad = 0;
    const double frame_s = timed(ctx, "service.frameRoundTrip", [&] {
        for (int i = 0; i < frames; ++i) {
            bad += !service::writeFrame(fds[0], doc) ||
                   !service::readFrame(fds[1], back) || back != doc;
        }
    });
    ::close(fds[0]);
    ::close(fds[1]);
    out.add("service.frame_rt_us", frame_s * 1e6 / frames, "us");
    if (bad)
        std::cerr << "sacbench: " << bad << " frames did not round-trip\n";
    ctx.result.attempted += frames;
    ctx.result.failed += bad;

    const std::string submit =
        "{\"verb\":\"submit\",\"workloads\":[\"MDG\",\"NAS\",\"MV\"],"
        "\"presets\":[\"standard\",\"soft\",\"victim\",\"soft-prefetch\"],"
        "\"metric\":\"amat\",\"engine\":\"auto\",\"jobs\":1}";
    std::uint64_t parse_bad = 0;
    const double parse_s = timed(ctx, "service.parseRequest", [&] {
        for (int i = 0; i < frames; ++i) {
            std::string error;
            const auto req = service::parseRequest(submit, &error);
            parse_bad += !req || !service::toSweepRequest(req->spec, &error);
        }
    });
    out.add("service.parse_us", parse_s * 1e6 / frames, "us");
    if (parse_bad)
        std::cerr << "sacbench: the probe request did not parse\n";
    ctx.result.attempted += frames;
    ctx.result.failed += parse_bad;
    return doc;
}

} // namespace

void
runLayerProbes(Context &ctx, const LayerInput &in)
{
    Result &out = ctx.result;
    const TraceSet &set = *in.traces;
    generationProbes(ctx, set, out);
    coreProbes(ctx, set, out);
    out.failed += stackProbes(ctx, set, in, out);
    out.failed += samplingProbes(ctx, set, in, out);
    harnessMetrics(in, out);
    manifestAndWireProbes(ctx, in, out);
    for (const auto &[name, value] : in.service) {
        const bool ms = name.find("_ms") != std::string::npos;
        const bool mb = name.find("_mb") != std::string::npos;
        out.add(name, value, ms ? "ms" : mb ? "MB" : "count");
    }

    double accesses = 0.0, misses = 0.0, cycles = 0.0;
    for (const auto &s : in.modelStats) {
        accesses += static_cast<double>(s.accesses);
        misses += static_cast<double>(s.misses);
        cycles += s.totalAccessCycles;
    }
    out.add("model.accesses", accesses, "count");
    out.add("model.misses", misses, "count");
    out.add("model.amat_cycles", accesses > 0.0 ? cycles / accesses : 0.0,
            "cycles");
    out.add("trace.overhead_ms", in.tracedSweepMs - in.untracedSweepMs, "ms");
}

} // namespace sacbench
