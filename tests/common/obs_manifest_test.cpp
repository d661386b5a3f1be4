// Run manifests: golden schema (the key set docs/OBSERVABILITY.md
// documents), JSON validity, and input fingerprinting.
#include "common/obs/manifest.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/obs/build_info.hpp"
#include "common/obs/json.hpp"

namespace ld::obs {
namespace {

std::string TempPath(const char* name) {
  return std::filesystem::temp_directory_path().string() + "/" + name;
}

TEST(ObsManifestTest, GoldenSchema) {
  ManifestBuilder manifest("unit_test");
  const char* argv[] = {"tool", "analyze", "--seed", "7"};
  manifest.SetArgv(4, argv);
  manifest.SetUint("seed", 7);
  manifest.Set("mode", "analyze");
  manifest.RecordEnv("LD_OBS_MANIFEST_TEST_UNSET_VAR");
  manifest.SetExitCode(0);
  const std::string json = manifest.ToJson();
  ASSERT_TRUE(ValidateJson(json).ok()) << json;

  // The documented schema: every top-level key present, in a valid JSON
  // document.  Key order is part of the writer's contract (stable
  // diffs), so substring checks are exact enough.
  // The writer emits `"key": value` (one space after the colon).
  for (const char* key :
       {"\"schema_version\": 2", "\"tool\": \"unit_test\"",
        "\"created_unix\": ",
        "\"argv\": [\"tool\",\"analyze\",\"--seed\",\"7\"]", "\"build\": ",
        "\"git_sha\": ", "\"build_type\": ", "\"compiler\": ",
        "\"cxx_flags\": ", "\"sanitizers\": ",
        "\"host\": ", "\"hardware_concurrency\": ", "\"config\": ",
        "\"seed\": \"7\"", "\"mode\": \"analyze\"", "\"env\": ",
        "\"LD_OBS_MANIFEST_TEST_UNSET_VAR\": null", "\"inputs\": [",
        "\"metrics\": ", "\"wall_seconds\": ", "\"max_rss_kb\": ",
        "\"children_max_rss_kb\": ", "\"exit_code\": 0"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
}

TEST(ObsManifestTest, ChildrenMaxRssCoversAWaitedChild) {
  // A child that touches 48 MiB and is waited for: the manifest's
  // children_max_rss_kb must cover it (RUSAGE_CHILDREN reports the
  // largest waited-for child's peak).
  constexpr std::size_t kTouchBytes = std::size_t{48} << 20;
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    auto* block = static_cast<volatile char*>(std::malloc(kTouchBytes));
    if (block == nullptr) _exit(1);
    for (std::size_t i = 0; i < kTouchBytes; i += 4096) block[i] = 1;
    _exit(0);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);

  const std::string json = ManifestBuilder("unit_test").ToJson();
  ASSERT_TRUE(ValidateJson(json).ok()) << json;
  const std::string key = "\"children_max_rss_kb\": ";
  const std::size_t at = json.find(key);
  ASSERT_NE(at, std::string::npos) << json;
  const long long children_kb =
      std::strtoll(json.c_str() + at + key.size(), nullptr, 10);
  EXPECT_GE(children_kb, static_cast<long long>(kTouchBytes / 1024));
}

TEST(ObsManifestTest, ExitCodeOmittedUntilSet) {
  ManifestBuilder manifest("unit_test");
  EXPECT_EQ(manifest.ToJson().find("exit_code"), std::string::npos);
  manifest.SetExitCode(3);
  EXPECT_NE(manifest.ToJson().find("\"exit_code\": 3"), std::string::npos);
}

TEST(ObsManifestTest, InputFingerprint) {
  const std::string path = TempPath("ld_obs_manifest_input.txt");
  { std::ofstream(path) << "hello fingerprint\n"; }
  ManifestBuilder manifest("unit_test");
  manifest.AddInput(path);
  manifest.AddInput(TempPath("ld_obs_manifest_missing.txt"));
  const std::string json = manifest.ToJson();
  ASSERT_TRUE(ValidateJson(json).ok()) << json;

  // FNV-1a 64 is deterministic: the embedded hash must match a direct
  // computation over the same bytes, rendered as 0x + 16 hex digits.
  const std::string data = "hello fingerprint\n";
  char expected[32];
  std::snprintf(expected, sizeof expected, "\"fnv1a64\": \"0x%016llx\"",
                static_cast<unsigned long long>(
                    Fnv1a64(data.data(), data.size())));
  EXPECT_NE(json.find(expected), std::string::npos) << json;
  EXPECT_NE(json.find("\"bytes\": 18"), std::string::npos) << json;
  // The missing file is disclosed, not fatal.
  EXPECT_NE(json.find("\"error\":"), std::string::npos) << json;
  std::remove(path.c_str());
}

TEST(ObsManifestTest, WriteProducesALoadableFile) {
  const std::string path = TempPath("ld_obs_manifest_out.json");
  ManifestBuilder manifest("unit_test");
  manifest.SetExitCode(0);
  ASSERT_TRUE(manifest.Write(path).ok());
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_TRUE(ValidateJson(contents).ok());
  std::remove(path.c_str());
}

TEST(ObsManifestTest, BuildInfoIsWired) {
  const BuildInfo& build = GetBuildInfo();
  // configure_file must have substituted something for every field; the
  // literal @...@ placeholders mean the template was compiled raw.
  EXPECT_EQ(std::string(build.git_sha).find('@'), std::string::npos);
  EXPECT_NE(std::string(build.compiler), "");
}

}  // namespace
}  // namespace ld::obs
