/**
 * @file
 * Configuration of the software-assisted cache simulator. Every cache
 * organization evaluated in the paper — standard, bypass, victim,
 * bounce-back, virtual lines, set-associative software control,
 * prefetching — is a point in this configuration space; the named
 * factory functions construct the exact configurations of the
 * figures.
 */

#ifndef SAC_CORE_CONFIG_HH
#define SAC_CORE_CONFIG_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/sim/timing.hh"
#include "src/util/json.hh"

namespace sac {
namespace core {

/** Bypass policy for references without temporal locality (Fig 3a). */
enum class BypassMode
{
    /** No bypassing (default). */
    None,
    /**
     * Non-temporal references never allocate: only the requested
     * words travel, so spatial locality is lost entirely.
     */
    NonTemporal,
    /**
     * Non-temporal references fetch through a single-line bypass
     * buffer, recovering spatial locality within one uninterrupted
     * stream but thrashing on the interleaved accesses of real loop
     * nests.
     */
    NonTemporalBuffered,
};

/** Full description of one simulated cache organization. */
struct Config
{
    /** Display name used by benches and examples. */
    std::string name = "Stand.";

    // --- Main cache geometry -------------------------------------
    std::uint64_t cacheSizeBytes = 8 * 1024;
    std::uint32_t lineBytes = 32;
    std::uint32_t assoc = 1;

    // --- Auxiliary cache (victim / bounce-back / prefetch buffer) -
    /** Number of aux lines; 0 disables the aux cache entirely. */
    std::uint32_t auxLines = 0;
    /**
     * Aux-cache associativity; 0 means fully associative. The paper
     * notes a 4-way bounce-back cache performs reasonably well.
     */
    std::uint32_t auxAssoc = 0;
    /** Victims of main-cache replacement enter the aux cache. */
    bool auxReceivesVictims = false;
    /**
     * Temporal bounce-back (Section 2.2): a line evicted from the aux
     * cache with its temporal bit set returns to the main cache
     * instead of being discarded.
     */
    bool bounceBack = false;

    // --- Spatial assistance (Section 2.1) -------------------------
    /** Fetch whole virtual lines on spatially tagged misses. */
    bool virtualLines = false;
    std::uint32_t virtualLineBytes = 64;
    /**
     * Variable-length virtual lines (paper Section 3.2 extension):
     * the fill spans 2^spatialLevel physical lines, capped by
     * virtualLineBytes.
     */
    bool variableVirtualLines = false;
    /**
     * Check residence of each physical line of the virtual block and
     * fetch only the absent ones (Section 2.1 coherence). Disabling
     * this is an ablation: the whole block is always fetched.
     */
    bool virtualLineCoherenceCheck = true;

    // --- Temporal assistance (Section 2.2) ------------------------
    /** Honor instruction temporal tags (sets per-line temporal bits). */
    bool temporalBits = false;
    /**
     * Reset a line's temporal bit when it bounces back (the paper's
     * "dynamic adjustment", Section 2.2). Disabling this is an
     * ablation: dead reusable data keeps bouncing.
     */
    bool resetTemporalBitOnBounce = true;
    /**
     * Cheaper set-associative software control (Fig 9b): LRU
     * replacement that prefers evicting non-temporal lines.
     */
    bool preferNonTemporalReplacement = false;

    // --- Bypassing (Fig 3a baselines) ------------------------------
    BypassMode bypass = BypassMode::None;

    // --- Prefetching (Section 4.4) ---------------------------------
    bool prefetch = false;
    /** Prefetch only on spatially tagged misses (software assist). */
    bool prefetchSpatialOnly = true;
    /** Maximum prefetched lines resident in the aux cache. */
    std::uint32_t maxPrefetchedInAux = 4;
    /**
     * Physical lines fetched per prefetch request. The paper keeps 1
     * (progressive prefetching) up to ~25-cycle latencies and
     * suggests larger distances beyond.
     */
    std::uint32_t prefetchDegree = 1;

    // --- Environment ----------------------------------------------
    sim::TimingParams timing;
    std::uint32_t writeBufferEntries = 8;
    /**
     * Run the three-C classifier (adds simulation time). A single
     * run classifies with its own shadow LRU; in a parallel exact
     * sweep, cells sharing the classifier geometry (cacheSizeBytes /
     * lineBytes lines of lineBytes) classify from one shared shadow
     * pass per trace instead, with identical counts.
     */
    bool classifyMisses = true;

    /** Number of physical lines in one virtual line. */
    std::uint32_t
    linesPerVirtualLine() const
    {
        return virtualLines ? virtualLineBytes / lineBytes : 1;
    }

    /**
     * Canonical serialization of every simulation-relevant field
     * (everything except the display name). Two configurations have
     * equal keys iff they simulate identically, so caches keyed on it
     * cannot alias two different setups that share a label.
     */
    std::string cacheKey() const;

    /**
     * Every field (including the display name and timing block) as a
     * JSON object, for run manifests. Field names mirror the struct.
     */
    util::Json toJson() const;

    /**
     * The first constraint this configuration violates, or nullopt
     * when it is valid. The testable core of validate().
     */
    std::optional<std::string> validationError() const;

    /** Sanity-check the configuration; fatal() on invalid setups. */
    void validate() const;

    class Builder;

    /** Start a fluent build from the Standard baseline. */
    static Builder builder();
};

/**
 * Fluent construction of a Config. Every setter returns the builder,
 * and build() validates, so an invalid combination fails loudly at
 * the construction site instead of deep inside the simulator:
 *
 *   const Config c = Config::builder()
 *                        .name("Soft.")
 *                        .auxLines(8)
 *                        .victims()
 *                        .bounceBack()
 *                        .temporalBits()
 *                        .virtualLines(64)
 *                        .build();
 */
class Config::Builder
{
  public:
    Builder &name(std::string n) { c_.name = std::move(n); return *this; }
    Builder &cacheSize(std::uint64_t bytes) { c_.cacheSizeBytes = bytes; return *this; }
    Builder &lineBytes(std::uint32_t bytes) { c_.lineBytes = bytes; return *this; }
    Builder &assoc(std::uint32_t ways) { c_.assoc = ways; return *this; }

    /** Enable an aux cache of @p lines (0 ways = fully associative). */
    Builder &auxLines(std::uint32_t lines, std::uint32_t ways = 0)
    {
        c_.auxLines = lines;
        c_.auxAssoc = ways;
        return *this;
    }

    /** Main-cache victims enter the aux cache (victim-cache mode). */
    Builder &victims(bool on = true) { c_.auxReceivesVictims = on; return *this; }

    /** Temporal bounce-back from the aux cache (Section 2.2). */
    Builder &bounceBack(bool on = true) { c_.bounceBack = on; return *this; }

    /** Virtual-line fills of @p bytes on spatially tagged misses. */
    Builder &virtualLines(std::uint32_t bytes)
    {
        c_.virtualLines = true;
        c_.virtualLineBytes = bytes;
        return *this;
    }

    Builder &noVirtualLines() { c_.virtualLines = false; return *this; }
    Builder &variableVirtualLines(bool on = true) { c_.variableVirtualLines = on; return *this; }
    Builder &virtualLineCoherenceCheck(bool on) { c_.virtualLineCoherenceCheck = on; return *this; }
    Builder &temporalBits(bool on = true) { c_.temporalBits = on; return *this; }
    Builder &resetTemporalBitOnBounce(bool on) { c_.resetTemporalBitOnBounce = on; return *this; }
    Builder &preferNonTemporalReplacement(bool on = true) { c_.preferNonTemporalReplacement = on; return *this; }
    Builder &bypass(BypassMode mode) { c_.bypass = mode; return *this; }

    /** Enable progressive prefetching through the aux cache. */
    Builder &prefetch(bool spatial_only = true)
    {
        c_.prefetch = true;
        c_.prefetchSpatialOnly = spatial_only;
        return *this;
    }

    Builder &maxPrefetchedInAux(std::uint32_t n) { c_.maxPrefetchedInAux = n; return *this; }
    Builder &prefetchDegree(std::uint32_t n) { c_.prefetchDegree = n; return *this; }
    Builder &timing(const sim::TimingParams &t) { c_.timing = t; return *this; }
    Builder &writeBufferEntries(std::uint32_t n) { c_.writeBufferEntries = n; return *this; }
    Builder &classifyMisses(bool on) { c_.classifyMisses = on; return *this; }

    /** Validate and return the finished configuration. */
    Config build() const
    {
        c_.validate();
        return c_;
    }

    /** The configuration as-is, without validation (tests only). */
    Config buildUnchecked() const { return c_; }

  private:
    Config c_;
};

inline Config::Builder
Config::builder()
{
    return Builder{};
}

/**
 * Named registry of the paper's cache organizations. Replaces the
 * hand-maintained config lists that used to be copied into every
 * bench: `presets().get("soft")` is the one source of truth, and
 * `--preset <name>` on any bench or example resolves through it.
 */
class PresetRegistry
{
  public:
    /** A named configuration factory. */
    struct Preset
    {
        std::string key;         //!< stable lookup key (CLI-friendly)
        std::string description; //!< one-line summary, for --help
        Config config;           //!< the prototype configuration
    };

    /** Look up a preset by key; fatal() listing the valid keys. */
    Config get(const std::string &key) const;

    /** Does @p key name a preset? */
    bool contains(const std::string &key) const;

    /** All preset keys, in registration (paper-figure) order. */
    std::vector<std::string> names() const;

    /** All presets, in registration order. */
    const std::vector<Preset> &all() const { return presets_; }

  private:
    friend const PresetRegistry &presets();
    PresetRegistry();

    std::vector<Preset> presets_;
};

/** The process-wide preset registry (built on first use). */
const PresetRegistry &presets();

// The one-line factory wrappers (standardConfig(), softConfig(), ...)
// are gone: every fixed paper configuration is a presets() lookup
// (core::presets().get("standard"), .get("soft"), ...). Only the
// derived variants below survive as functions — they compute a new
// configuration instead of naming a registered one.

/** Standard cache with a different physical line size (Fig 8b). */
Config standardWithLineSize(std::uint32_t line_bytes);

/** Soft. with a different virtual line size (Fig 8a). */
Config softWithVirtualLineSize(std::uint32_t virtual_line_bytes);

/** Scale a configuration to another cache size/line (Fig 9a). */
Config scaledConfig(Config base, std::uint64_t cache_bytes,
                    std::uint32_t line_bytes);

} // namespace core
} // namespace sac

#endif // SAC_CORE_CONFIG_HH
