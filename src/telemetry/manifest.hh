/**
 * @file
 * Machine-readable run manifests: one JSON document per (workload,
 * configuration) sweep cell recording everything needed to reproduce
 * and diff the run — the full configuration, its canonical cache key,
 * the git revision of the binary, every registered counter, and
 * wall-clock timing. The bench binaries write these under a directory
 * given by --emit-json; BENCH_*.json perf trajectories are rebuilt
 * from them.
 */

#ifndef SAC_TELEMETRY_MANIFEST_HH
#define SAC_TELEMETRY_MANIFEST_HH

#include <cstdint>
#include <string>

#include "src/util/json.hh"

namespace sac {
namespace telemetry {

/** Manifest schema identifier; bump when the layout changes. */
inline constexpr const char *manifestSchema = "sac-run-manifest-v1";

/** All components of one sweep-cell manifest. */
struct Manifest
{
    std::string workload;   //!< workload / benchmark name
    std::string configName; //!< display name of the configuration
    std::string cacheKey;   //!< core::Config::cacheKey()
    /**
     * Producing engine of the cell's numbers ("exact-replay",
     * "sampled", "stack-single-pass", ...). Optional: omitted from
     * the document when empty, so pre-existing manifests keep their
     * byte layout.
     */
    std::string engine;
    util::Json config = util::Json::object();   //!< full Config
    util::Json counters = util::Json::object(); //!< registry snapshot
    util::Json metrics = util::Json::object();  //!< derived metrics
    util::Json timing = util::Json::object();   //!< wall-clock phases
    /**
     * Per-set heat profile (telemetry::SetProfiler::toJson(),
     * "sac-set-profile-v1"). Optional: omitted from the document when
     * it stays an empty object, so uninstrumented manifests keep
     * their byte layout.
     */
    util::Json profile = util::Json::object();
};

/** `git describe` of the built tree ("unknown" outside a checkout). */
std::string gitDescribe();

/** FNV-1a 64-bit hash (stable across platforms, used in filenames). */
std::uint64_t fnv1a(const std::string &s);

/**
 * Canonical manifest filename: the sanitized workload name plus a
 * 16-hex-digit FNV-1a hash of the cache key, so two cells collide
 * iff they simulate identically.
 */
std::string manifestFileName(const std::string &workload,
                             const std::string &cache_key);

/** Assemble the full manifest document (schema + git + components). */
util::Json manifestJson(const Manifest &m);

/** The exact bytes writeManifestFile() writes for @p m. */
std::string manifestDocument(const Manifest &m);

/**
 * Write @p m into directory @p dir (created if missing) under
 * manifestFileName(). The document goes to a uniquely named
 * temporary sibling first, which is then renamed over the target, so
 * a reader sees the previous manifest or the new one, never a torn
 * file. Returns the written path, or an empty string on I/O failure
 * (no temporary file is left behind).
 */
std::string writeManifestFile(const std::string &dir,
                              const Manifest &m);

} // namespace telemetry
} // namespace sac

#endif // SAC_TELEMETRY_MANIFEST_HH
