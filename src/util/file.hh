/**
 * @file
 * Whole-file output that never leaves a torn file behind.
 */

#ifndef SAC_UTIL_FILE_HH
#define SAC_UTIL_FILE_HH

#include <string>

namespace sac {
namespace util {

/**
 * Write @p bytes to @p path through a uniquely named temporary
 * sibling that is then renamed over the target, so a reader (or a
 * later run after a crash or a full disk) sees the previous file or
 * the new one, never a torn file. The parent directory must exist.
 * False on any failure; the temporary file is then removed and the
 * previous file is left intact.
 */
bool writeFileAtomically(const std::string &path,
                         const std::string &bytes);

} // namespace util
} // namespace sac

#endif // SAC_UTIL_FILE_HH
