#include "core/check.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace pfs {

void CheckFailed(const char* format, ...) {
  std::fflush(nullptr);
  va_list args;
  va_start(args, format);
  std::vfprintf(stderr, format, args);
  va_end(args);
  std::abort();
}

}  // namespace pfs
