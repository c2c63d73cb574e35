/**
 * @file
 * Differential fuzz driver and repro replayer.
 *
 * Three modes:
 *  - replay:  fuzz_replay --case 0xSEED [--trace file.sactrace]
 *             Rebuild one case from its seed (optionally overriding
 *             the trace with a written repro) and re-run the diff.
 *  - budget:  fuzz_replay --cases N [--master-seed S] [--out dir]
 *             The fixed-seed CI sweep: N cases, exit 1 on the first
 *             divergence or audit violation after shrinking it to a
 *             minimal repro and writing the trace file.
 *  - soak:    fuzz_replay --seconds N [--master-seed S] [--out dir]
 *             Run cases until the deadline (local fuzzing).
 */

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <set>
#include <string>

#include "src/check/shrinker.hh"
#include "src/check/trace_fuzzer.hh"
#include "src/trace/trace_io.hh"
#include "src/util/args.hh"

namespace {

using namespace sac;

/** Parse a full-width 64-bit seed ("0x..." or decimal). */
std::optional<std::uint64_t>
parseSeed(const util::Args &args, const std::string &key,
          std::uint64_t fallback)
{
    if (!args.has(key))
        return fallback;
    const std::string v = args.getString(key);
    errno = 0;
    char *end = nullptr;
    const unsigned long long s = std::strtoull(v.c_str(), &end, 0);
    if (end == v.c_str() || *end != '\0' || errno == ERANGE)
        return std::nullopt;
    return static_cast<std::uint64_t>(s);
}

/** Print a failing outcome and the exact way to reproduce it. */
void
reportFailure(const check::FuzzCase &c, const check::CaseOutcome &out,
              const std::string &out_dir)
{
    std::cout << "FAIL: case seed 0x" << std::hex << c.seed << std::dec
              << " (" << c.trace.size() << " records, config "
              << c.config.cacheKey() << ")\n";
    if (out.diverged)
        std::cout << out.divergence;
    if (out.dispatchDiverged)
        std::cout << out.dispatchDivergence << "\n";
    if (out.auditViolations > 0) {
        std::cout << out.auditViolations << " audit violation(s); first: "
                  << out.firstAuditViolation << "\n";
    }

    // Shrink to a minimal repro preserving "this case still fails".
    const check::Shrinker shrinker;
    const auto still_fails = [&](const trace::Trace &t) {
        return !check::runCase(t, c.config).ok();
    };
    const auto shrunk = shrinker.minimize(c.trace, still_fails);
    std::cout << "shrunk " << shrunk.originalSize << " -> "
              << shrunk.trace.size() << " records ("
              << shrunk.probes << " probes)\n";

    if (const auto repro =
            check::writeRepro(shrunk.trace, c.seed, out_dir)) {
        std::cout << "repro written to " << repro->path << "\n"
                  << "replay with: " << repro->command << "\n";
    } else {
        std::cout << "could not write the repro under '" << out_dir
                  << "'\n";
    }
}

/**
 * Run one generated case, adding its audited accesses to @p audited;
 * returns true when it passed.
 */
bool
runOne(const check::FuzzCase &c, std::set<std::string> &config_keys,
       std::uint64_t &audited, const std::string &out_dir)
{
    config_keys.insert(c.config.cacheKey());
    const auto out = check::runCase(c);
    audited += out.accessesAudited;
    if (out.ok())
        return true;
    reportFailure(c, out, out_dir);
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    util::Args args;
    if (!args.parse(argc, argv)) {
        std::cerr << "bad command line: " << args.error() << "\n";
        return 2;
    }

    const std::string out_dir = args.getString("out", "fuzz-repros");
    const auto master = parseSeed(
        args, "master-seed", check::TraceFuzzer::defaultMasterSeed);
    const auto cases = args.getInt("cases", 0);
    const auto seconds = args.getInt("seconds", 0);
    if (!master || !cases || !seconds) {
        std::cerr << "--master-seed/--cases/--seconds expect integers\n";
        return 2;
    }

    // Replay mode: one case from its seed, trace optionally replaced
    // by a written repro file.
    if (args.has("case")) {
        const auto seed = parseSeed(args, "case", 0);
        if (!seed) {
            std::cerr << "--case expects the case seed\n";
            return 2;
        }
        check::FuzzCase c = check::TraceFuzzer::caseFromSeed(*seed);
        if (args.has("trace")) {
            const std::string path = args.getString("trace");
            trace::Trace loaded;
            if (!trace::readTraceFile(path, loaded)) {
                std::cerr << "cannot read trace file '" << path
                          << "'\n";
                return 2;
            }
            c.trace = std::move(loaded);
        }
        const auto out = check::runCase(c);
        if (out.ok()) {
            std::cout << "case 0x" << std::hex << c.seed << std::dec
                      << " passed (" << c.trace.size()
                      << " records)\n";
            return 0;
        }
        std::cout << "case 0x" << std::hex << c.seed << std::dec
                  << " FAILS (" << c.trace.size() << " records)\n";
        if (out.diverged)
            std::cout << out.divergence;
        if (out.dispatchDiverged)
            std::cout << out.dispatchDivergence << "\n";
        if (out.auditViolations > 0) {
            std::cout << out.auditViolations
                      << " audit violation(s); first: "
                      << out.firstAuditViolation << "\n";
        }
        return 1;
    }

    if (*cases <= 0 && *seconds <= 0) {
        std::cerr
            << "usage: fuzz_replay --case 0xSEED [--trace file]\n"
            << "       fuzz_replay --cases N [--master-seed S] "
               "[--out dir]\n"
            << "       fuzz_replay --seconds N [--master-seed S] "
               "[--out dir]\n";
        return 2;
    }

    const check::TraceFuzzer fuzzer(
        static_cast<std::uint64_t>(*master));
    std::set<std::string> config_keys;
    std::uint64_t ran = 0;
    std::uint64_t audited = 0;

    if (*cases > 0) {
        for (std::int64_t i = 0; i < *cases; ++i, ++ran) {
            if (!runOne(fuzzer.makeCase(i), config_keys, audited,
                        out_dir))
                return 1;
        }
    } else {
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::seconds(*seconds);
        for (std::uint64_t i = 0;
             std::chrono::steady_clock::now() < deadline;
             ++i, ++ran) {
            if (!runOne(fuzzer.makeCase(i), config_keys, audited,
                        out_dir))
                return 1;
        }
    }

    std::cout << "fuzz: " << ran << " cases, "
              << config_keys.size()
              << " distinct configurations, master seed 0x" << std::hex
              << fuzzer.masterSeed() << std::dec
              << ", 0 divergences, 0 audit violations, " << audited
              << " accesses audited\n";
    return 0;
}
