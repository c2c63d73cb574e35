/**
 * @file
 * The sweep service core: a long-running server accepting framed JSON
 * requests (src/service/protocol.hh) on a Unix-domain socket, a
 * bounded priority admission queue feeding the shared ThreadPool, and
 * ONE harness::Runner shared by every request — concurrent clients
 * with overlapping lattices share trace generation, exact cells,
 * stack passes, sampled replays and checkpoint-library builds through
 * the runner's once-latched caches.
 *
 * The sacd binary (examples/sacd.cpp) is a thin shell around this
 * class: parse flags, install signal handlers, start(), wait, drain.
 * Tests drive the same class in-process on a temporary socket.
 */

#ifndef SAC_SERVICE_SERVER_HH
#define SAC_SERVICE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/harness/experiment.hh"
#include "src/service/protocol.hh"
#include "src/telemetry/counter_registry.hh"
#include "src/util/thread_pool.hh"

namespace sac {
namespace service {

/** Deployment knobs of one SweepServer. */
struct ServerOptions
{
    std::string socketPath; //!< Unix socket to bind (required)
    /** Concurrent sweep executors (0 = ThreadPool default). */
    unsigned workers = 0;
    /**
     * Admission bound: submits beyond this many queued-or-active
     * sweeps are rejected ("queue full"). 0 rejects every submit.
     */
    std::size_t maxQueue = 8;
};

/**
 * The sweep daemon core. start() binds the socket and spawns the
 * accept loop; every connection carries one request frame. Submits
 * pass admission control, enter the priority queue, and execute on
 * the shared pool; manifest frames stream back to the client as cells
 * finish. drain() (or a "shutdown" request) stops accepting new work,
 * finishes everything already admitted, and releases the socket —
 * clients connected mid-drain get their full response before the
 * server exits.
 *
 * Thread safety: the public interface may be called from any thread;
 * internal state is guarded by one mutex, and sweep execution shares
 * the Runner's own synchronization.
 */
class SweepServer
{
  public:
    explicit SweepServer(ServerOptions options);
    ~SweepServer();

    SweepServer(const SweepServer &) = delete;
    SweepServer &operator=(const SweepServer &) = delete;

    /**
     * Bind the socket and start serving. False (with a diagnostic on
     * stderr) when the socket cannot be created or bound.
     */
    bool start();

    /**
     * Graceful drain: reject new submits, drop connections still
     * waiting to send their request, finish every admitted sweep,
     * flush and close every connection, join all threads, and remove
     * the socket file. Idempotent.
     */
    void drain();

    /**
     * Ask the server to stop: what a client's "shutdown" request
     * does. Wakes waitForShutdown(); the owner then calls drain().
     */
    void requestShutdown();

    /** Has a shutdown been requested (requestShutdown())? */
    bool shutdownRequested() const
    {
        return shutdownRequested_.load();
    }

    /**
     * Block until shutdownRequested() (at most @p timeout_ms when
     * positive). True when a shutdown was requested.
     */
    bool waitForShutdown(int timeout_ms = 0);

    /** The shared runner (tests assert its cache-sharing counters). */
    harness::Runner &runner() { return runner_; }

    /**
     * Snapshot of the service counters (request.accepted, .rejected,
     * .completed) and gauges (request.queued, .active) merged with
     * the runner's stack.pass.*, classifier.shadow.*, checkpoint.*
     * and parallel.* counters.
     */
    telemetry::CounterRegistry metricsSnapshot() const;

    /** metricsSnapshot() in Prometheus text exposition ("sacd_..."). */
    std::string prometheusText() const;

    /**
     * Connection handler threads started but not yet joined. The
     * accept loop joins finished handlers as it goes, so this stays
     * near the number of live connections; 0 after drain().
     */
    std::size_t unjoinedHandlers() const
    {
        return unjoinedHandlers_.load();
    }

  private:
    /** One admitted sweep: request plus its client connection. */
    struct Job
    {
        std::uint64_t id = 0;
        int priority = 0;
        harness::SweepRequest request;
        /** Connection fd; the executor writes response frames here. */
        int fd = -1;
        /** Serializes frame writes against other threads. */
        std::shared_ptr<std::mutex> writeMutex;
    };

    void acceptLoop();
    void handleConnection(int fd);
    void handleSubmit(int fd, const SweepSpec &spec,
                      std::shared_ptr<std::mutex> write_mutex);
    /** Pop and run the highest-priority queued job (pool task). */
    void runOneJob();
    std::string statusResponse() const;

    ServerOptions options_;
    harness::Runner runner_;
    std::unique_ptr<util::ThreadPool> pool_;

    int listenFd_ = -1;
    std::atomic<std::size_t> unjoinedHandlers_{0};
    std::thread acceptThread_;
    std::atomic<bool> stopping_{false};
    std::atomic<bool> shutdownRequested_{false};
    bool started_ = false;
    bool drained_ = false;

    mutable std::mutex mutex_;
    std::condition_variable idle_;     //!< drain waits for jobs == 0
    std::condition_variable shutdown_; //!< waitForShutdown sleeps here
    std::vector<Job> queue_;           //!< pending, best-first pop
    std::uint64_t nextId_ = 1;
    std::size_t active_ = 0;  //!< jobs currently executing
    std::size_t pending_ = 0; //!< queued + active (admission gauge)
    std::uint64_t accepted_ = 0;
    std::uint64_t rejected_ = 0;
    std::uint64_t completed_ = 0;
};

} // namespace service
} // namespace sac

#endif // SAC_SERVICE_SERVER_HH
