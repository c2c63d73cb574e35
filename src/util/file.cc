#include "src/util/file.hh"

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <unistd.h>

namespace sac {
namespace util {

bool
writeFileAtomically(const std::string &path, const std::string &bytes)
{
    static std::atomic<std::uint64_t> serial{0};
    const std::string tmp = path + ".tmp." + std::to_string(::getpid()) +
                            "." + std::to_string(serial.fetch_add(1));
    bool ok;
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        out.close();
        ok = !out.fail();
    }
    std::error_code ec;
    if (ok)
        std::filesystem::rename(tmp, path, ec);
    if (!ok || ec) {
        std::filesystem::remove(tmp, ec);
        return false;
    }
    return true;
}

} // namespace util
} // namespace sac
