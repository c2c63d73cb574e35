/**
 * @file
 * Wire protocol of the sweep service (sacd): length-prefixed JSON
 * frames over a Unix-domain stream socket, and the parsing of client
 * requests into harness::SweepRequest values.
 *
 * Framing: every message is one JSON document preceded by a 4-byte
 * big-endian payload length. A connection carries exactly one request
 * frame from the client followed by one or more response frames from
 * the server (submit streams a "manifest" frame per finished sweep
 * cell before its final "done" frame), then closes.
 *
 * Request documents:
 *   {"verb": "submit", "workloads": ["MV", ...],
 *    "presets": ["standard", ...], "metric": "miss-ratio",
 *    "engine": "auto", "priority": 0, "jobs": 2, "intra_jobs": 0,
 *    "sampling": {"window": W, "stride": S, "warmup": U},
 *    "checkpoint_dir": "...", "manifest_dir": "..."}
 *   {"verb": "status"} | {"verb": "metrics"} | {"verb": "shutdown"}
 *
 * "intra_jobs" is the live-point window-replay workers per cell (0 =
 * auto); no other engine shards a cell.
 *
 * Response frames are objects with a "type" member: "accepted",
 * "manifest" (file + document bytes), "done" (table + cell count),
 * "status", "metrics" (Prometheus text), "error".
 */

#ifndef SAC_SERVICE_PROTOCOL_HH
#define SAC_SERVICE_PROTOCOL_HH

#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <vector>

#include "src/harness/sweep.hh"
#include "src/util/json.hh"

namespace sac {
namespace service {

/** Maximum accepted frame payload (defends the 4-byte length). */
inline constexpr std::size_t maxFrameBytes = 64 * 1024 * 1024;

/**
 * Write one frame (4-byte big-endian length + @p payload) to @p fd,
 * retrying short writes. False on any I/O error (EPIPE included —
 * the caller treats a vanished client as cancellation, not a crash).
 */
bool writeFrame(int fd, const std::string &payload);

/**
 * Read one frame from @p fd into @p payload, retrying short reads.
 * False on EOF, I/O error, or a length above maxFrameBytes.
 */
bool readFrame(int fd, std::string &payload);

/**
 * readFrame() that never blocks past @p deadline and gives up once
 * @p cancel is set while no bytes are arriving (checked every poll
 * tick, a few tens of milliseconds). False on timeout, cancellation,
 * EOF, I/O error, or a length above maxFrameBytes.
 */
bool readFrameBefore(int fd, std::string &payload,
                     std::chrono::steady_clock::time_point deadline,
                     const std::atomic<bool> &cancel);

/** The request verbs a connection may open with. */
enum class Verb
{
    Submit,
    Status,
    Metrics,
    Shutdown,
};

/**
 * One parsed submit body, still symbolic: workloads and presets are
 * names (resolved against the registries by toSweepRequest(), never
 * while parsing, so a bad name is a client error instead of a fatal).
 */
struct SweepSpec
{
    std::vector<std::string> workloads;
    std::vector<std::string> presets;
    std::string metric = "miss-ratio";
    harness::EngineSelect engine = harness::EngineSelect::Auto;
    int priority = 0;  //!< higher runs sooner
    unsigned jobs = 1; //!< per-request worker hint (server clamps)
    /** Live-point window-replay workers; 0 = auto (server clamps). */
    unsigned intraJobs = 0;
    sim::SamplingOptions sampling;
    std::string checkpointDir;
    /** Server-side manifest directory; empty = stream only. */
    std::string manifestDir;
};

/** A parsed request frame: the verb plus, for Submit, its spec. */
struct Request
{
    Verb verb = Verb::Status;
    SweepSpec spec;
};

/**
 * Parse one request document. Returns nullopt with a diagnostic in
 * @p error on malformed JSON, an unknown verb, or a submit body with
 * missing/mistyped members.
 */
std::optional<Request> parseRequest(const std::string &payload,
                                    std::string *error);

/**
 * The metric named by @p name ("miss-ratio", "amat", "words",
 * "main-hit-share", "aux-hit-share"); nullopt for unknown names.
 */
std::optional<harness::Metric>
metricFromName(const std::string &name);

/**
 * Resolve @p spec against the benchmark and preset registries into a
 * runnable SweepRequest (telemetry members are left default — the
 * server wires its own sink). Returns nullopt with a diagnostic on an
 * unknown workload, preset or metric, or a spec whose resolved
 * request fails SweepRequest::validationError().
 */
std::optional<harness::SweepRequest>
toSweepRequest(const SweepSpec &spec, std::string *error);

// --- Response builders (documents, not yet framed) ------------------

/** {"type":"error","error":msg} */
std::string errorResponse(const std::string &message);

/** {"type":"accepted","id":id,"queued":queued} */
std::string acceptedResponse(std::uint64_t id, std::size_t queued);

/** {"type":"manifest","file":file,"document":bytes} */
std::string manifestResponse(const std::string &file,
                             const std::string &document);

/** {"type":"done","id":id,"cells":cells,"table":table} */
std::string doneResponse(std::uint64_t id, std::size_t cells,
                         const std::string &table);

} // namespace service
} // namespace sac

#endif // SAC_SERVICE_PROTOCOL_HH
