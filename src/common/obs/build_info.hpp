// Build provenance baked in at configure time: which git commit, build
// type, compiler and flags produced this binary.  The run manifest
// embeds this so every number in EXPERIMENTS.md can be traced to the
// exact build that measured it.  Values come from CMake (configure_file
// over build_info.cpp.in); a source tree without git reports "unknown".
#pragma once

namespace ld::obs {

struct BuildInfo {
  const char* git_sha;        // full SHA, or "unknown" / "<sha>-dirty"
  const char* build_type;     // CMAKE_BUILD_TYPE
  const char* compiler;       // id + version
  const char* cxx_flags;      // CMAKE_CXX_FLAGS as configured
  const char* sanitizers;     // LOGDIVER_SANITIZE, "" when none
};

const BuildInfo& GetBuildInfo();

}  // namespace ld::obs
