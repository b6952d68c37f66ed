#include "util/build_info.h"

// CMake passes these to this file only, so a new git revision re-compiles
// one TU instead of the whole tree: the git stamp as a header it rewrites
// at build time, the rest as per-source compile definitions.
#if __has_include("fpisa_git_describe.h")
#include "fpisa_git_describe.h"
#endif
#ifndef FPISA_BUILD_GIT_DESCRIBE
#define FPISA_BUILD_GIT_DESCRIBE "unknown"
#endif
#ifndef FPISA_BUILD_COMPILER
#define FPISA_BUILD_COMPILER "unknown"
#endif
#ifndef FPISA_BUILD_TYPE
#define FPISA_BUILD_TYPE "unknown"
#endif
#ifndef FPISA_BUILD_SANITIZER
#define FPISA_BUILD_SANITIZER "none"
#endif

namespace fpisa::util {

const BuildInfo& build_info() {
  static const BuildInfo info{
      FPISA_BUILD_GIT_DESCRIBE,
      FPISA_BUILD_COMPILER,
      FPISA_BUILD_TYPE,
      FPISA_BUILD_SANITIZER,
#ifdef FPISA_HAVE_AVX2
      true,
#else
      false,
#endif
  };
  return info;
}

}  // namespace fpisa::util
