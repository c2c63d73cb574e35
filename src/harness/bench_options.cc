#include "src/harness/bench_options.hh"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>

#include "src/util/args.hh"
#include "src/util/thread_pool.hh"

namespace sac {
namespace harness {

namespace {

[[noreturn]] void
badCommandLine(const std::string &message)
{
    std::cerr << message << "\n";
    std::exit(2);
}

/** Every flag parse() reads (a --no-X form counts as X). */
constexpr std::string_view benchFlags[] = {
    "jobs", "intra-jobs", "emit-json", "preset", "trace-seed",
    "sample", "sample-window", "sample-stride", "sample-warmup",
    "sample-ci", "sample-error", "checkpoint-dir", "checkpoint-rebuild",
    "interval", "heatmap",
};

/**
 * The value of a flag that takes one (e.g. --emit-json DIR), or
 * nullopt when it is absent. A bare --key parses as "true" and a
 * --no-key as "false"; neither names a value.
 */
std::optional<std::string>
valueFlag(const util::Args &args, const std::string &key,
          const std::string &what)
{
    if (!args.has(key))
        return std::nullopt;
    const std::string value = args.getString(key);
    if (value == "false")
        badCommandLine("--no-" + key + " is not a flag: --" + key +
                       " expects " + what);
    if (value.empty() || value == "true")
        badCommandLine("--" + key + " expects " + what);
    return value;
}

/** An on/off flag: --key, --no-key or --key=true/false. */
bool
boolFlag(const util::Args &args, const std::string &key)
{
    const bool on = args.getBool(key);
    // getBool falls back on anything it cannot read as a boolean.
    if (args.has(key) && on != args.getBool(key, true))
        badCommandLine("--" + key + " takes no value (got '" +
                       args.getString(key) + "')");
    return on;
}

} // namespace

BenchOptions
BenchOptions::parse(const util::Args &args)
{
    BenchOptions opts;
    opts.jobs = util::ThreadPool::defaultThreads();

    const auto jobs_arg = args.getInt("jobs", 0);
    if (!jobs_arg || *jobs_arg < 0) {
        std::string message = "--jobs expects a non-negative integer";
        if (!jobs_arg && args.valueWasSeparateToken("jobs")) {
            // A trailing bare --jobs swallows the next positional
            // (e.g. a benchmark filter) as its value; name the token
            // so the mistake is obvious.
            message += " (got '" + args.getString("jobs") +
                       "' — did a bare --jobs consume a positional?"
                       " use --jobs=N)";
        }
        badCommandLine(message);
    }
    if (*jobs_arg > 0)
        opts.jobs = static_cast<unsigned>(*jobs_arg);

    const auto intra_arg = args.getInt("intra-jobs", 0);
    if (!intra_arg || *intra_arg < 0)
        badCommandLine("--intra-jobs expects a non-negative integer"
                       " (0 = auto)");
    opts.intraJobs = static_cast<unsigned>(*intra_arg);

    if (const auto dir = valueFlag(args, "emit-json", "a directory"))
        opts.emitJsonDir = *dir;

    if (const auto preset = valueFlag(args, "preset", "a preset name")) {
        const std::string &name = *preset;
        if (!core::presets().contains(name)) {
            std::string message = "unknown preset \"" + name +
                                  "\"; known presets:";
            for (const auto &key : core::presets().names())
                message += " " + key;
            badCommandLine(message);
        }
        opts.presetName = name;
        opts.preset = core::presets().get(name);
    }

    const auto seed = args.getInt(
        "trace-seed", static_cast<std::int64_t>(opts.traceSeed));
    if (!seed || *seed < 0)
        badCommandLine("--trace-seed expects a non-negative integer");
    opts.traceSeed = static_cast<std::uint64_t>(*seed);

    opts.sample = boolFlag(args, "sample");
    opts.sampleTuningGiven =
        args.has("sample-window") || args.has("sample-stride") ||
        args.has("sample-warmup") || args.has("sample-ci") ||
        args.has("sample-error");

    const auto count_flag = [&args](const char *key,
                                    std::uint64_t fallback,
                                    std::int64_t min_value) {
        const auto v =
            args.getInt(key, static_cast<std::int64_t>(fallback));
        if (!v || *v < min_value) {
            badCommandLine(std::string("--") + key +
                           " expects an integer >= " +
                           std::to_string(min_value));
        }
        return static_cast<std::uint64_t>(*v);
    };
    opts.sampling.window =
        count_flag("sample-window", opts.sampling.window, 1);
    opts.sampling.stride =
        count_flag("sample-stride", opts.sampling.stride, 1);
    opts.sampling.warmup =
        count_flag("sample-warmup", opts.sampling.warmup, 0);

    if (const auto dir = valueFlag(args, "checkpoint-dir", "a directory"))
        opts.checkpointDir = *dir;
    opts.checkpointRebuild = boolFlag(args, "checkpoint-rebuild");

    opts.interval = count_flag("interval", opts.interval, 0);
    opts.heatmap = boolFlag(args, "heatmap");

    const auto real_flag = [&args](const char *key, double fallback) {
        if (!args.has(key))
            return fallback;
        const std::string s = args.getString(key);
        char *end = nullptr;
        const double v = std::strtod(s.c_str(), &end);
        if (s.empty() || end != s.c_str() + s.size()) {
            badCommandLine(std::string("--") + key +
                           " expects a number (got '" + s + "')");
        }
        return v;
    };
    double ci = real_flag("sample-ci", opts.sampling.confidence);
    // "--sample-ci 95" reads as a percentage; "0.95" is the level.
    if (ci > 1.0)
        ci /= 100.0;
    opts.sampling.confidence = ci;
    opts.sampling.targetRelativeError =
        real_flag("sample-error", opts.sampling.targetRelativeError);

    if (const auto err = opts.validationError())
        badCommandLine(*err);

    return opts;
}

std::optional<std::string>
BenchOptions::validationError() const
{
    if (sampleTuningGiven && !sample) {
        return "--sample-window/--sample-stride/--sample-warmup/"
               "--sample-ci/--sample-error require --sample";
    }
    if ((interval > 0 || heatmap) && !checkpointDir.empty()) {
        return "--interval/--heatmap instrument an exact re-replay "
               "and cannot be combined with --checkpoint-dir: "
               "restored checkpoint state skips the accesses the "
               "instrumentation would observe";
    }
    if (!checkpointDir.empty() && !sample) {
        return "--checkpoint-dir persists sampled warming state and "
               "requires --sample";
    }
    if (checkpointRebuild && checkpointDir.empty()) {
        return "--checkpoint-rebuild requires --checkpoint-dir";
    }
    if ((interval > 0 || heatmap) && emitJsonDir.empty()) {
        return "--interval/--heatmap write into the manifest "
               "directory and require --emit-json";
    }
    if ((interval > 0 || heatmap) && sample) {
        return "--interval/--heatmap instrument exact replay and "
               "cannot be combined with --sample";
    }
    if (sample) {
        if (const auto err = sampling.validationError())
            return "--sample: " + *err;
    }
    return std::nullopt;
}

BenchOptions
BenchOptions::parse(int argc, const char *const *argv)
{
    util::Args args;
    if (!args.parse(argc, argv))
        badCommandLine("bad command line: " + args.error());
    // A bench owns its whole command line, so a flag it does not
    // read is a typo that would silently run the default experiment.
    for (const auto &key : args.keys()) {
        if (std::find(std::begin(benchFlags), std::end(benchFlags), key) ==
            std::end(benchFlags))
            badCommandLine("unknown flag --" + key);
    }
    return parse(args);
}

} // namespace harness
} // namespace sac
