/**
 * @file
 * The service probe of the traced run: the examples/sacd daemon under
 * a closed loop of two connections from this process. Each connection
 * sends its next submit only after the previous one's "done" frame.
 *
 * The seeded mix holds, in every block of four requests, three "hit"
 * requests (1-3 paper workloads x 1-4 presets, AMAT, every cell
 * computed while the daemon was primed in set-up) and one "fresh"
 * request (one sampled cell whose geometry no earlier request used,
 * so the daemon computes it and its caches grow).
 *
 * Every "done" table and every manifest (without "timing") is checked
 * against an in-process Runner::run of the same request. The session
 * gives the service.* layer metrics of every traced run.
 */

#include <atomic>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <iostream>
#include <map>
#include <mutex>
#include <random>
#include <spawn.h>
#include <stdexcept>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "bench.hh"
#include "src/service/protocol.hh"
#include "src/util/json.hh"
#include "src/workloads/workloads.hh"

extern char **environ;

namespace sacbench {

using namespace sac;

namespace {

/** Connect to the Unix socket at @p path; -1 on failure. */
int
connectTo(const std::string &path)
{
    sockaddr_un addr{};
    if (path.size() >= sizeof(addr.sun_path))
        return -1;
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** FNV-1a over a sequence of strings, each closed by a separator. */
struct Digest
{
    std::uint64_t value = 0xcbf29ce484222325ull;

    void
    add(const std::string &s)
    {
        for (const char c : s) {
            value ^= static_cast<unsigned char>(c);
            value *= 0x100000001b3ull;
        }
        value ^= 0x100;
        value *= 0x100000001b3ull;
    }
};

/**
 * What one connection's request received. The manifests and the table
 * are kept as a digest (of each file name, each manifest without its
 * "timing" member, then the table), so a long run holds no documents.
 */
struct Reply
{
    bool ok = false; //!< a "done" frame arrived
    std::string error;
    std::uint64_t digest = 0;
    double acceptMs = 0.0;
    double firstManifestMs = -1.0; //!< -1 when no manifest arrived
    double doneMs = 0.0;
    util::Json frame; //!< the last frame (status replies)
};

/**
 * Send @p payload on a new connection and read frames until the
 * server closes it, with spans around the connection, the request
 * frame and every response frame.
 */
Reply
exchange(Context &ctx, const std::string &socket, const std::string &payload,
         std::uint64_t id)
{
    Reply r;
    const auto t0 = Clock::now();
    const auto ms = [&] { return secondsSince(t0) * 1e3; };
    const auto req = ctx.spans.span("service.request", id);
    int fd = -1;
    {
        const auto s = ctx.spans.span("service.connect", id);
        fd = connectTo(socket);
    }
    if (fd < 0) {
        r.error = "connect failed";
        return r;
    }
    bool sent = false;
    Digest digest;
    {
        const auto s = ctx.spans.span("service.writeFrame", id);
        sent = service::writeFrame(fd, payload);
    }
    std::string frame;
    while (sent) {
        bool got = false;
        {
            const auto s = ctx.spans.span("service.readFrame", id);
            got = service::readFrame(fd, frame);
        }
        if (!got)
            break;
        auto doc = util::Json::parse(frame, nullptr);
        if (!doc || !doc->isObject()) {
            r.error = "malformed frame";
            break;
        }
        const util::Json *type = doc->find("type");
        const std::string kind = type ? type->asString() : "";
        if (kind == "accepted") {
            r.acceptMs = ms();
        } else if (kind == "manifest") {
            if (r.firstManifestMs < 0.0)
                r.firstManifestMs = ms();
            const util::Json *f = doc->find("file");
            const util::Json *d = doc->find("document");
            digest.add(f ? f->asString() : "");
            digest.add(stripTiming(d ? d->asString() : ""));
        } else if (kind == "done") {
            r.doneMs = ms();
            const util::Json *t = doc->find("table");
            digest.add(t ? t->asString() : "");
            r.digest = digest.value;
            r.ok = true;
        } else if (kind == "error") {
            const util::Json *e = doc->find("error");
            r.error = e ? e->asString() : "error frame";
        } else {
            r.ok = true; // status / shutdown replies
        }
        r.frame = std::move(*doc);
    }
    ::close(fd);
    if (!sent)
        r.error = "write failed";
    return r;
}

std::string
verbPayload(const char *verb)
{
    util::Json doc = util::Json::object();
    doc.set("verb", verb);
    return doc.dump(0);
}

/** A running sacd process; stopped and reaped on destruction. */
class Daemon
{
  public:
    Daemon(Context &ctx, const std::string &socket)
        : ctx_(ctx), socket_(socket)
    {
        const std::string sock_arg = "--socket=" + socket;
        const std::string workers_arg =
            "--workers=" + std::to_string(ctx.nproc);
        const std::string log = ctx.opt.workdir + "/sacd.log";
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                         O_WRONLY | O_CREAT | O_APPEND,
                                         0644);
        posix_spawn_file_actions_adddup2(&fa, 1, 2);
        std::vector<char *> argv{const_cast<char *>(ctx.opt.sacd.c_str()),
                                 const_cast<char *>(sock_arg.c_str()),
                                 const_cast<char *>(workers_arg.c_str()),
                                 nullptr};
        const int rc = posix_spawn(&pid_, ctx.opt.sacd.c_str(), &fa,
                                   nullptr, argv.data(), environ);
        posix_spawn_file_actions_destroy(&fa);
        if (rc != 0)
            throw std::runtime_error("cannot start " + ctx.opt.sacd);
        // Ready once the socket accepts a connection.
        const auto t0 = Clock::now();
        while (true) {
            const int fd = connectTo(socket_);
            if (fd >= 0) {
                // An empty connection: the daemon reads EOF and closes.
                ::close(fd);
                break;
            }
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                throw std::runtime_error("sacd exited during start-up");
            }
            if (secondsSince(t0) > 30.0) {
                stop();
                throw std::runtime_error("sacd did not start");
            }
            ::usleep(2000);
        }
    }

    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    pid_t pid() const { return pid_; }

    /** Graceful shutdown request, then SIGKILL after 20 s; reaps. */
    void
    stop()
    {
        if (pid_ <= 0)
            return;
        exchange(ctx_, socket_, verbPayload("shutdown"), 0);
        const auto t0 = Clock::now();
        int status = 0;
        while (::waitpid(pid_, &status, WNOHANG) == 0) {
            if (secondsSince(t0) > 20.0) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, &status, 0);
                break;
            }
            ::usleep(2000);
        }
        pid_ = -1;
    }

  private:
    Context &ctx_;
    std::string socket_;
    pid_t pid_ = -1;
};

std::string
submitPayload(const std::vector<std::string> &workloads,
              const std::vector<std::string> &presets, const char *engine,
              unsigned jobs, const sim::SamplingOptions *sampling)
{
    util::Json doc = util::Json::object();
    doc.set("verb", "submit");
    util::Json w = util::Json::array();
    for (const auto &s : workloads)
        w.push(s);
    util::Json p = util::Json::array();
    for (const auto &s : presets)
        p.push(s);
    doc.set("workloads", std::move(w));
    doc.set("presets", std::move(p));
    doc.set("metric", "amat");
    doc.set("engine", engine);
    doc.set("jobs", static_cast<std::uint64_t>(jobs));
    if (sampling) {
        util::Json g = util::Json::object();
        g.set("window", sampling->window);
        g.set("stride", sampling->stride);
        g.set("warmup", sampling->warmup);
        doc.set("sampling", std::move(g));
    }
    return doc.dump(0);
}

std::vector<std::string>
paperNames()
{
    std::vector<std::string> out;
    for (const auto &b : workloads::paperBenchmarks())
        out.push_back(b.name);
    return out;
}

/** The priming request: every paper workload x every preset. */
std::string
primePayload(unsigned jobs)
{
    return submitPayload(paperNames(), core::presets().names(), "auto", jobs,
                         nullptr);
}

/** One request of the mix. */
struct MixItem
{
    bool fresh = false;
    std::string payload;
};

/**
 * The seeded request mix. Request i is a pure function of (seed, i),
 * so the mix needs no storage however long a run lasts.
 */
class Mix
{
  public:
    explicit Mix(std::uint64_t seed)
        : seed_(mix64(seed)), names_(paperNames()),
          presets_(core::presets().names())
    {
        // Fresh requests walk seeded permutations of the workloads
        // and presets, so every run sees the same spread of costs.
        std::mt19937_64 rng(seed_);
        freshW_ = names_;
        freshP_ = presets_;
        std::shuffle(freshW_.begin(), freshW_.end(), rng);
        std::shuffle(freshP_.begin(), freshP_.end(), rng);
    }

    MixItem
    at(std::size_t i) const
    {
        // One fresh request in every block of four.
        const std::uint64_t block = i / 4;
        MixItem item;
        if (i % 4 == mix64(seed_ ^ mix64(block)) % 4) {
            // A geometry no earlier request asked for.
            sim::SamplingOptions g;
            g.window = 512;
            g.warmup = 1024 + block % 2048;
            g.stride = 8192 + 64 * (block / 2048);
            item.fresh = true;
            item.payload = submitPayload(
                {freshW_[block % freshW_.size()]},
                {freshP_[block % freshP_.size()]}, "sampled", 1, &g);
            return item;
        }
        std::mt19937_64 rng(mix64(seed_ + i));
        std::vector<std::string> w = names_;
        std::vector<std::string> p = presets_;
        std::shuffle(w.begin(), w.end(), rng);
        std::shuffle(p.begin(), p.end(), rng);
        w.resize(1 + rng() % 3);
        p.resize(1 + rng() % 4);
        item.payload = submitPayload(w, p, "auto", 1, nullptr);
        return item;
    }

  private:
    std::uint64_t seed_;
    std::vector<std::string> names_;
    std::vector<std::string> presets_;
    std::vector<std::string> freshW_;
    std::vector<std::string> freshP_;
};

struct Sample
{
    std::size_t item = 0;
    bool fresh = false;
    Reply reply;
};

/** Everything one daemon session measured. */
struct Session
{
    std::vector<Sample> samples;
    ProcStatus afterSetup;
    ProcStatus atEnd;
    double rejected = 0.0;
    double completed = 0.0;
    bool primed = false;
};

void
closedLoop(Context &ctx, const std::string &socket, const Mix &mix,
           double seconds, Session &session)
{
    constexpr unsigned connections = 2;
    std::atomic<std::size_t> next{0};
    std::mutex mutex;
    const auto t0 = Clock::now();
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < connections; ++c) {
        clients.emplace_back([&] {
            std::vector<Sample> mine;
            while (secondsSince(t0) < seconds) {
                const std::size_t i = next++;
                const MixItem item = mix.at(i);
                mine.push_back({i, item.fresh,
                                exchange(ctx, socket, item.payload, i + 1)});
            }
            std::lock_guard<std::mutex> lock(mutex);
            for (auto &s : mine)
                session.samples.push_back(std::move(s));
        });
    }
    for (auto &t : clients)
        t.join();
}

/** Start and prime sacd, run the closed loop for @p seconds, stop it. */
Session
runSession(Context &ctx, double seconds, const Mix &mix)
{
    Session s;
    const std::string socket = ctx.opt.workdir + "/sacd.sock";
    Daemon daemon(ctx, socket);
    const Reply prime = exchange(ctx, socket, primePayload(ctx.nproc), 0);
    if (!prime.ok)
        std::cerr << "sacbench: priming failed: " << prime.error << "\n";
    s.primed = prime.ok;
    s.afterSetup = readProcStatus(daemon.pid());
    closedLoop(ctx, socket, mix, seconds, s);
    s.atEnd = readProcStatus(daemon.pid());
    const Reply status = exchange(ctx, socket, verbPayload("status"), 0);
    if (const util::Json *r = status.frame.find("rejected"))
        s.rejected = static_cast<double>(r->asUint());
    if (const util::Json *c = status.frame.find("completed"))
        s.completed = static_cast<double>(c->asUint());
    return s;
}

/**
 * Check every sample against an in-process Runner::run of the same
 * request on @p runner. Returns the failures: error replies and
 * replies whose manifests or table differ.
 */
std::uint64_t
checkSamples(Context &ctx, harness::Runner &runner, const Mix &mix,
             const std::vector<Sample> &samples)
{
    const auto span = ctx.spans.span("oracle.check");
    // Expected digest per request (0 when the request did not parse).
    std::map<std::size_t, std::uint64_t> expected;
    for (const auto &s : samples)
        expected[s.item] = 0;
    std::vector<std::size_t> items;
    for (const auto &[i, digest] : expected)
        items.push_back(i);
    parallelFor(items.size(), ctx.nproc, [&](std::size_t k) {
        std::string error;
        const auto parsed =
            service::parseRequest(mix.at(items[k]).payload, &error);
        if (!parsed)
            return;
        auto req = service::toSweepRequest(parsed->spec, &error);
        if (!req)
            return;
        Digest digest;
        req->telemetry.sink = [&digest](const std::string &file,
                                        const std::string &doc) {
            digest.add(file);
            digest.add(stripTiming(doc));
        };
        digest.add(runner.run(*req).table.toString());
        expected.at(items[k]) = digest.value;
    });
    if (ctx.opt.injectFault && !expected.empty())
        expected.begin()->second ^= 1;

    std::uint64_t failed = 0;
    for (const auto &s : samples) {
        const std::uint64_t want = expected.at(s.item);
        failed += !(s.reply.ok && want != 0 && s.reply.digest == want);
    }
    if (failed)
        std::cerr << "sacbench: " << failed << " of " << samples.size()
                  << " sacd replies failed or differ from the oracle\n";
    return failed;
}

/** The service-layer metrics of one session. */
std::vector<std::pair<std::string, double>>
serviceMetrics(const Session &s)
{
    std::vector<double> accept, hit, fresh, first_to_done;
    for (const auto &x : s.samples) {
        if (!x.reply.ok)
            continue;
        accept.push_back(x.reply.acceptMs);
        (x.fresh ? fresh : hit).push_back(x.reply.doneMs);
        if (x.reply.firstManifestMs >= 0.0)
            first_to_done.push_back(x.reply.doneMs - x.reply.firstManifestMs);
    }
    return {
        {"service.accept_ms_p50", median(accept)},
        {"service.hit_req_p50_ms", median(hit)},
        {"service.hit_req_p90_ms", quantile(hit, 0.9)},
        {"service.fresh_req_p50_ms", median(fresh)},
        {"service.fresh_req_p90_ms", quantile(fresh, 0.9)},
        {"service.first_to_done_ms_p50", median(first_to_done)},
        {"service.threads_end", s.atEnd.threads},
        {"service.rss_growth_mb", s.atEnd.rssMb - s.afterSetup.rssMb},
        {"service.rejected", s.rejected},
        {"service.completed", s.completed},
    };
}

} // namespace

std::vector<std::pair<std::string, double>>
sacdServiceProbe(Context &ctx, double seconds)
{
    const Mix mix(ctx.opt.seed);
    const Session s = runSession(ctx, seconds, mix);
    // The oracle runner computes the priming request first, so the
    // hit requests find their cells cached as the daemon's did.
    harness::Runner runner;
    std::string error;
    const auto prime = service::parseRequest(primePayload(ctx.nproc), &error);
    runner.run(*service::toSweepRequest(prime->spec, &error));
    ctx.result.attempted += s.samples.size() + 1;
    ctx.result.failed += !s.primed + checkSamples(ctx, runner, mix, s.samples);
    return serviceMetrics(s);
}

} // namespace sacbench
