/**
 * @file
 * SimFlex-style live-points for the sampled engine: persist the
 * architectural cache state at every sample-window boundary so
 * re-runs restore it instead of paying SMARTS functional warming
 * again.
 *
 * The pieces:
 *  - ArchState: the complete architectural state of one simulator at
 *    a window boundary — exactly the world check::stateDifference
 *    compares (cache arrays with LRU stamps and flag bits, write
 *    buffer, clocks, bypass buffer, in-flight prefetch) plus the
 *    private LRU clocks needed to continue replay bit-identically;
 *  - CheckpointKey: the identity a library is valid for. Checkpoint
 *    state depends on the sampling geometry, not just (trace,
 *    config): skipped records never touch architectural state, so a
 *    library built for one window/stride/warmup triple is wrong for
 *    any other. The key is therefore (trace content hash,
 *    Config::cacheKey(), geometry, format version);
 *  - CheckpointLibrary: the in-memory sequence of per-window states
 *    with versioned, checksummed `.saclp` file I/O. Any mismatch —
 *    bad magic, version bump, checksum failure, truncation, stale
 *    trace hash, foreign config, different geometry — loads as
 *    Stale/Missing, never as a wrong restore; callers then warm once
 *    and rewrite the file.
 *
 * Layering: this lives in src/sim and speaks cache::LineState
 * (sac_sim links sac_cache; the edge is acyclic — sac_cache links
 * only sac_util). It never names core symbols: the simulator plugs in
 * through the SampledEngine template concept's exportState() /
 * importState() methods.
 */

#ifndef SAC_SIM_CHECKPOINT_HH
#define SAC_SIM_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/cache/cache_array.hh"
#include "src/sim/write_buffer.hh"
#include "src/trace/trace.hh"
#include "src/util/types.hh"

namespace sac {
namespace sim {

/**
 * The architectural state of one simulator at a sample-window
 * boundary. Statistics (RunStats, the miss classifier) are
 * deliberately absent: they advance only during detailed windows, so
 * a restored run reproduces them by replaying the same windows.
 */
struct ArchState
{
    /** Main array slots in set-major order plus its LRU clock. */
    std::vector<cache::LineState> mainLines;
    std::uint64_t mainLruClock = 0;

    /** Aux (victim / bounce-back / prefetch) array, when configured. */
    bool hasAux = false;
    std::vector<cache::LineState> auxLines;
    std::uint64_t auxLruClock = 0;

    WriteBuffer::Snapshot writeBuffer;

    // Timing clocks.
    Cycle now = 0;
    Cycle procReadyAt = 1;
    Cycle cacheFreeAt = 0;
    Cycle busFreeAt = 0;

    // Single-line bypass buffer.
    Addr bypassBufferLine = 0;
    bool bypassBufferValid = false;

    // One outstanding progressive prefetch.
    Addr prefetchLine = 0;
    std::uint32_t prefetchCount = 1;
    Cycle prefetchReadyAt = 0;
    bool prefetchValid = false;
};

/**
 * Identity a checkpoint library is valid for. Every field must match
 * on load or the library is stale: restoring state built from a
 * different trace, configuration or sampling geometry would be
 * silently wrong, which is the one failure mode this subsystem must
 * never have.
 */
struct CheckpointKey
{
    /** hashTrace() of the source trace (content, not name). */
    std::uint64_t traceHash = 0;
    /** Config::cacheKey() of the simulated configuration. */
    std::string configKey;
    /** SamplingOptions geometry the library was built for. */
    std::uint64_t window = 0;
    std::uint64_t stride = 0;
    std::uint64_t warmup = 0;
};

/**
 * FNV-1a content hash over every record field of @p t. Regenerating a
 * trace with a different seed changes the hash and invalidates any
 * library built from the old contents; the trace name does not
 * participate.
 */
std::uint64_t hashTrace(const trace::Trace &t);

/** FNV-1a over a byte string (exposed for key/path derivation). */
std::uint64_t fnv1a(const void *data, std::size_t n,
                    std::uint64_t seed = 14695981039346656037ull);

/**
 * A sequence of per-window live-points with `.saclp` persistence.
 * Checkpoint k is the architectural state at the start of detailed
 * window k; SampledEngine::buildLibrary fills one and
 * SampledEngine::runCheckpointed consumes any prefix of it.
 */
class CheckpointLibrary
{
  public:
    /** Outcome of load(): only Hit may be restored from. */
    enum class LoadResult
    {
        Hit,     //!< file read, verified, and key-matched
        Missing, //!< no file at the path
        Stale,   //!< file exists but fails verification or the key
    };

    /** First bytes of every `.saclp` file ("SACL"). */
    static constexpr std::uint32_t formatMagic = 0x5341434cu;

    /** Bump on any layout change; old files then load as Stale. */
    static constexpr std::uint32_t formatVersion = 1;

    /**
     * Canonical library path: `<dir>/cfg-<hex>/<trace>-w<W>-s<S>-
     * u<U>.saclp`, the config-family directory named by the FNV-1a
     * hash of Config::cacheKey() (the key itself is too long and too
     * punctuated for a path component) and the file named by the
     * trace plus the sampling geometry. @p trace_name is sanitized to
     * [A-Za-z0-9._-].
     */
    static std::string pathFor(const std::string &dir,
                               const std::string &trace_name,
                               const CheckpointKey &key);

    /** Drop every checkpoint. */
    void clear() { states_.clear(); }

    /** Number of checkpoints held. */
    std::size_t size() const { return states_.size(); }

    /** True when no checkpoints are held. */
    bool empty() const { return states_.empty(); }

    /** Append the live-point for the next window boundary. */
    void append(ArchState s) { states_.push_back(std::move(s)); }

    /** Checkpoint for window @p k, or nullptr past the end. */
    const ArchState *checkpointAt(std::size_t k) const
    {
        return k < states_.size() ? &states_[k] : nullptr;
    }

    /**
     * Read and verify a `.saclp` file. On anything but Hit the
     * library is left empty; a Hit replaces the current contents.
     * Verification order: magic, version, checksum over the whole
     * payload (catches truncation and corruption), then the key.
     */
    LoadResult load(const std::string &path, const CheckpointKey &key);

    /**
     * Write the library for @p key, creating parent directories.
     * The file is written under a unique temporary name in the same
     * directory and renamed over @p path, so a failed or interrupted
     * save leaves any previous library intact and no temporary
     * behind. Returns the bytes written, or 0 on I/O failure.
     */
    std::uint64_t save(const std::string &path,
                       const CheckpointKey &key) const;

    /** Bytes read by the last load() that returned Hit. */
    std::uint64_t loadedBytes() const { return loadedBytes_; }

  private:
    std::vector<ArchState> states_;
    std::uint64_t loadedBytes_ = 0;
};

} // namespace sim
} // namespace sac

#endif // SAC_SIM_CHECKPOINT_HH
