#include "src/sim/checkpoint.hh"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "src/util/file.hh"

namespace sac {
namespace sim {

namespace {

constexpr std::uint64_t fnvOffset = 14695981039346656037ull;
constexpr std::uint64_t fnvPrime = 1099511628211ull;

/** Append one scalar's bytes to the growing payload. */
template <typename T>
void
putScalar(std::string &out, T v)
{
    static_assert(std::is_trivially_copyable<T>::value,
                  "serialized scalars must be trivially copyable");
    char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    out.append(bytes, sizeof(T));
}

/**
 * Bounds-checked reader over an in-memory payload. Every get sets
 * ok = false instead of reading past the end, so a truncated or
 * length-corrupted payload parses to a clean failure, never a crash.
 */
struct Cursor
{
    const char *data;
    std::size_t size;
    std::size_t pos = 0;
    bool ok = true;

    template <typename T>
    T
    get()
    {
        T v{};
        if (!ok || size - pos < sizeof(T)) {
            ok = false;
            return v;
        }
        std::memcpy(&v, data + pos, sizeof(T));
        pos += sizeof(T);
        return v;
    }

    std::string
    getString(std::size_t n)
    {
        if (!ok || size - pos < n) {
            ok = false;
            return {};
        }
        std::string s(data + pos, n);
        pos += n;
        return s;
    }
};

void
putLine(std::string &out, const cache::LineState &l)
{
    putScalar<Addr>(out, l.lineAddr);
    std::uint8_t flags = 0;
    if (l.valid)
        flags |= 1u << 0;
    if (l.dirty)
        flags |= 1u << 1;
    if (l.temporal)
        flags |= 1u << 2;
    if (l.prefetched)
        flags |= 1u << 3;
    putScalar<std::uint8_t>(out, flags);
    putScalar<std::uint64_t>(out, l.lruStamp);
}

cache::LineState
getLine(Cursor &c)
{
    cache::LineState l;
    l.lineAddr = c.get<Addr>();
    const std::uint8_t flags = c.get<std::uint8_t>();
    l.valid = (flags & (1u << 0)) != 0;
    l.dirty = (flags & (1u << 1)) != 0;
    l.temporal = (flags & (1u << 2)) != 0;
    l.prefetched = (flags & (1u << 3)) != 0;
    l.lruStamp = c.get<std::uint64_t>();
    return l;
}

void
putLines(std::string &out, const std::vector<cache::LineState> &lines)
{
    putScalar<std::uint64_t>(out, lines.size());
    for (const auto &l : lines)
        putLine(out, l);
}

std::vector<cache::LineState>
getLines(Cursor &c)
{
    const std::uint64_t n = c.get<std::uint64_t>();
    // A line entry is at least 17 payload bytes; reject counts the
    // remaining payload cannot possibly hold before reserving.
    if (!c.ok || n > (c.size - c.pos) / 17) {
        c.ok = false;
        return {};
    }
    std::vector<cache::LineState> lines;
    lines.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n && c.ok; ++i)
        lines.push_back(getLine(c));
    return lines;
}

void
putState(std::string &out, const ArchState &s)
{
    putLines(out, s.mainLines);
    putScalar<std::uint64_t>(out, s.mainLruClock);
    putScalar<std::uint8_t>(out, s.hasAux ? 1 : 0);
    putLines(out, s.auxLines);
    putScalar<std::uint64_t>(out, s.auxLruClock);
    putScalar<std::uint32_t>(
        out, static_cast<std::uint32_t>(s.writeBuffer.pendingBytes.size()));
    for (const std::uint32_t b : s.writeBuffer.pendingBytes)
        putScalar<std::uint32_t>(out, b);
    putScalar<std::uint64_t>(out, s.writeBuffer.totalBytesPushed);
    putScalar<std::uint64_t>(out, s.writeBuffer.fullStalls);
    putScalar<Cycle>(out, s.now);
    putScalar<Cycle>(out, s.procReadyAt);
    putScalar<Cycle>(out, s.cacheFreeAt);
    putScalar<Cycle>(out, s.busFreeAt);
    putScalar<std::uint8_t>(out, s.bypassBufferValid ? 1 : 0);
    putScalar<Addr>(out, s.bypassBufferLine);
    putScalar<std::uint8_t>(out, s.prefetchValid ? 1 : 0);
    putScalar<Addr>(out, s.prefetchLine);
    putScalar<std::uint32_t>(out, s.prefetchCount);
    putScalar<Cycle>(out, s.prefetchReadyAt);
}

ArchState
getState(Cursor &c)
{
    ArchState s;
    s.mainLines = getLines(c);
    s.mainLruClock = c.get<std::uint64_t>();
    s.hasAux = c.get<std::uint8_t>() != 0;
    s.auxLines = getLines(c);
    s.auxLruClock = c.get<std::uint64_t>();
    const std::uint32_t wb = c.get<std::uint32_t>();
    if (!c.ok || wb > 64) {
        c.ok = false;
        return s;
    }
    s.writeBuffer.pendingBytes.reserve(wb);
    for (std::uint32_t i = 0; i < wb && c.ok; ++i)
        s.writeBuffer.pendingBytes.push_back(c.get<std::uint32_t>());
    s.writeBuffer.totalBytesPushed = c.get<std::uint64_t>();
    s.writeBuffer.fullStalls = c.get<std::uint64_t>();
    s.now = c.get<Cycle>();
    s.procReadyAt = c.get<Cycle>();
    s.cacheFreeAt = c.get<Cycle>();
    s.busFreeAt = c.get<Cycle>();
    s.bypassBufferValid = c.get<std::uint8_t>() != 0;
    s.bypassBufferLine = c.get<Addr>();
    s.prefetchValid = c.get<std::uint8_t>() != 0;
    s.prefetchLine = c.get<Addr>();
    s.prefetchCount = c.get<std::uint32_t>();
    s.prefetchReadyAt = c.get<Cycle>();
    return s;
}

/** Keep [A-Za-z0-9._-]; anything else becomes '_'. */
std::string
sanitizeName(const std::string &name)
{
    std::string out = name.empty() ? std::string("trace") : name;
    for (char &ch : out) {
        const bool keep = (ch >= 'a' && ch <= 'z') ||
                          (ch >= 'A' && ch <= 'Z') ||
                          (ch >= '0' && ch <= '9') || ch == '.' ||
                          ch == '_' || ch == '-';
        if (!keep)
            ch = '_';
    }
    return out;
}

} // namespace

std::uint64_t
fnv1a(const void *data, std::size_t n, std::uint64_t seed)
{
    std::uint64_t h = seed;
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= fnvPrime;
    }
    return h;
}

std::uint64_t
hashTrace(const trace::Trace &t)
{
    // Hash field by field (not struct bytes) so padding never leaks
    // into the identity.
    std::uint64_t h = fnvOffset;
    auto mix = [&h](const void *p, std::size_t n) {
        h = fnv1a(p, n, h);
    };
    const std::uint64_t count = t.size();
    mix(&count, sizeof(count));
    for (const trace::Record &r : t) {
        mix(&r.addr, sizeof(r.addr));
        mix(&r.ref, sizeof(r.ref));
        mix(&r.delta, sizeof(r.delta));
        mix(&r.size, sizeof(r.size));
        const std::uint8_t type = static_cast<std::uint8_t>(r.type);
        mix(&type, sizeof(type));
        const std::uint8_t tags =
            static_cast<std::uint8_t>((r.temporal ? 1 : 0) |
                                      (r.spatial ? 2 : 0));
        mix(&tags, sizeof(tags));
        mix(&r.spatialLevel, sizeof(r.spatialLevel));
    }
    return h;
}

std::string
CheckpointLibrary::pathFor(const std::string &dir,
                           const std::string &trace_name,
                           const CheckpointKey &key)
{
    const std::uint64_t cfg_hash =
        fnv1a(key.configKey.data(), key.configKey.size());
    std::ostringstream os;
    os << dir << '/' << "cfg-" << std::hex << cfg_hash << std::dec
       << '/' << sanitizeName(trace_name) << "-w" << key.window << "-s"
       << key.stride << "-u" << key.warmup << ".saclp";
    return os.str();
}

CheckpointLibrary::LoadResult
CheckpointLibrary::load(const std::string &path, const CheckpointKey &key)
{
    states_.clear();
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return LoadResult::Missing;

    std::ostringstream raw;
    raw << in.rdbuf();
    const std::string file = raw.str();

    Cursor header{file.data(), file.size()};
    const std::uint32_t magic = header.get<std::uint32_t>();
    const std::uint32_t version = header.get<std::uint32_t>();
    const std::uint64_t checksum = header.get<std::uint64_t>();
    if (!header.ok || magic != formatMagic || version != formatVersion)
        return LoadResult::Stale;

    const char *payload = file.data() + header.pos;
    const std::size_t payload_size = file.size() - header.pos;
    if (fnv1a(payload, payload_size) != checksum)
        return LoadResult::Stale;

    Cursor c{payload, payload_size};
    const std::uint64_t trace_hash = c.get<std::uint64_t>();
    const std::uint32_t key_len = c.get<std::uint32_t>();
    if (!c.ok || key_len > (1u << 16))
        return LoadResult::Stale;
    const std::string config_key = c.getString(key_len);
    const std::uint64_t window = c.get<std::uint64_t>();
    const std::uint64_t stride = c.get<std::uint64_t>();
    const std::uint64_t warmup = c.get<std::uint64_t>();
    if (!c.ok)
        return LoadResult::Stale;
    if (trace_hash != key.traceHash || config_key != key.configKey ||
        window != key.window || stride != key.stride ||
        warmup != key.warmup)
        return LoadResult::Stale;

    const std::uint64_t count = c.get<std::uint64_t>();
    std::vector<ArchState> states;
    for (std::uint64_t i = 0; i < count && c.ok; ++i)
        states.push_back(getState(c));
    if (!c.ok || states.size() != count || c.pos != c.size)
        return LoadResult::Stale;

    states_ = std::move(states);
    loadedBytes_ = file.size();
    return LoadResult::Hit;
}

std::uint64_t
CheckpointLibrary::save(const std::string &path,
                        const CheckpointKey &key) const
{
    std::string payload;
    putScalar<std::uint64_t>(payload, key.traceHash);
    putScalar<std::uint32_t>(
        payload, static_cast<std::uint32_t>(key.configKey.size()));
    payload.append(key.configKey);
    putScalar<std::uint64_t>(payload, key.window);
    putScalar<std::uint64_t>(payload, key.stride);
    putScalar<std::uint64_t>(payload, key.warmup);
    putScalar<std::uint64_t>(payload, states_.size());
    for (const ArchState &s : states_)
        putState(payload, s);

    std::string file;
    file.reserve(16 + payload.size());
    putScalar<std::uint32_t>(file, formatMagic);
    putScalar<std::uint32_t>(file, formatVersion);
    putScalar<std::uint64_t>(file,
                             fnv1a(payload.data(), payload.size()));
    file.append(payload);

    std::error_code ec;
    const std::filesystem::path p(path);
    if (p.has_parent_path())
        std::filesystem::create_directories(p.parent_path(), ec);

    // A reader (or a later run after a crash or a full disk) sees the
    // previous library or the new one, never a torn file.
    if (!util::writeFileAtomically(path, file))
        return 0;
    return file.size();
}

} // namespace sim
} // namespace sac
