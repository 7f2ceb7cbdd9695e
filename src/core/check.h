// Invariant-checking macros used throughout the framework.
//
// PFS_CHECK fires in all build types: a failed check is a programming error
// (broken invariant), not an environmental condition, and the file-system
// state can no longer be trusted once one fires.
#ifndef PFS_CORE_CHECK_H_
#define PFS_CORE_CHECK_H_

namespace pfs {

// Where every failed check ends: flushes every stdio output stream (abort()
// throws away what they buffer, such as a redirected stdout), prints the
// printf-style message to stderr and aborts.
[[noreturn]] void CheckFailed(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace pfs

#define PFS_CHECK(cond)                                                                  \
  do {                                                                                   \
    if (!(cond)) [[unlikely]] {                                                          \
      ::pfs::CheckFailed("PFS_CHECK failed at %s:%d: %s\n", __FILE__, __LINE__, #cond);  \
    }                                                                                    \
  } while (0)

#define PFS_CHECK_MSG(cond, msg)                                                         \
  do {                                                                                   \
    if (!(cond)) [[unlikely]] {                                                          \
      ::pfs::CheckFailed("PFS_CHECK failed at %s:%d: %s (%s)\n", __FILE__, __LINE__,     \
                         #cond, msg);                                                    \
    }                                                                                    \
  } while (0)

// Marks code paths that are structurally unreachable.
#define PFS_UNREACHABLE()                                                                \
  do {                                                                                   \
    ::pfs::CheckFailed("PFS_UNREACHABLE hit at %s:%d\n", __FILE__, __LINE__);            \
  } while (0)

#endif  // PFS_CORE_CHECK_H_
