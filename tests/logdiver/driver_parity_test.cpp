// Every analysis driver must export the same ten CSV files, byte for
// byte, and print the same parse summary as batch AnalyzeBundle:
// RunResumableAnalysis with snapshots (and resumed from one), and the
// fleet at 1 and 4 shards.  Covered: the clean small bundle, copies of
// it without hwerr.log, with lost ALPS terminations and with replayed
// Torque S records, a bundle with a syslog stamp past the month's end,
// and every catalog scenario (rotated and clock-skewed syslog included).
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "simlog/catalog.hpp"
#include "simlog/scenario.hpp"

namespace ld {
namespace {

namespace fs = std::filesystem;

std::string WorkDir(const std::string& name) {
  return testing::TempDir() + "driver_parity_" + name + "_" +
         std::to_string(::getpid());
}

/// Rewrites `path` line by line: `keep` returns how many copies of each
/// line to write (0 drops it).
void RewriteLines(const std::string& path,
                  const std::function<int(const std::string&)>& keep) {
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  std::ofstream out(path, std::ios::trunc);
  for (const std::string& line : lines) {
    for (int i = keep(line); i > 0; --i) out << line << '\n';
  }
}

void ExpectDriversAgree(const Machine& machine, const std::string& bundle,
                        const std::string& name) {
  auto violations = DriverParityViolations(machine, bundle, WorkDir(name));
  ASSERT_TRUE(violations.ok()) << violations.status().ToString();
  EXPECT_TRUE(violations->empty());
  for (const std::string& violation : *violations) ADD_FAILURE() << violation;
}

TEST(DriverParity, CleanBundleWithAndWithoutHwerr) {
  ScenarioConfig config = SmallScenario(13);
  config.workload.target_app_runs = 5000;
  const Machine machine = MakeMachine(config);
  const std::string bundle = WorkDir("clean_bundle");
  fs::remove_all(bundle);
  ASSERT_TRUE(WriteBundle(machine, config, bundle).ok());
  ExpectDriversAgree(machine, bundle, "clean");

  // Every 25th exit/kill line lost: runs that never terminate still
  // carry their job's context (queue waits) on every driver.
  const std::string lost = WorkDir("lost_terminations_bundle");
  fs::remove_all(lost);
  fs::copy(bundle, lost, fs::copy_options::recursive);
  int terminations = 0;
  RewriteLines(lost + "/alps.log", [&](const std::string& line) {
    const bool termination = line.find(" exited") != std::string::npos ||
                             line.find(" killed") != std::string::npos;
    return termination && ++terminations % 25 == 0 ? 0 : 1;
  });
  ExpectDriversAgree(machine, lost, "lost_terminations");
  fs::remove_all(lost);

  // Every 100th Torque S line replayed: every driver counts the
  // duplicate job records.
  const std::string replayed = WorkDir("replayed_starts_bundle");
  fs::remove_all(replayed);
  fs::copy(bundle, replayed, fs::copy_options::recursive);
  int starts = 0;
  RewriteLines(replayed + "/torque.log", [&](const std::string& line) {
    return line.find(";S;") != std::string::npos && ++starts % 100 == 0 ? 2
                                                                         : 1;
  });
  ExpectDriversAgree(machine, replayed, "replayed_starts");
  fs::remove_all(replayed);

  // hwerr.log is optional on every path, not only in batch.
  ASSERT_TRUE(fs::remove(bundle + "/hwerr.log"));
  ExpectDriversAgree(machine, bundle, "nohwerr");
  fs::remove_all(bundle);
}

TEST(DriverParity, SyslogStampWithADayPastTheMonth) {
  // One stamp a quarter of the way into syslog.log whose day (370) would
  // date it in the next year: it is quarantined on every driver, and the
  // streaming drivers' merge order does not jump a year after it.
  ScenarioConfig config = SmallScenario(13);
  config.workload.target_app_runs = 3000;
  const Machine machine = MakeMachine(config);
  const std::string bundle = WorkDir("stray_stamp_bundle");
  fs::remove_all(bundle);
  ASSERT_TRUE(WriteBundle(machine, config, bundle).ok());
  std::vector<std::string> lines;
  {
    std::ifstream in(bundle + "/syslog.log");
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  ASSERT_GT(lines.size(), 4u);
  const std::size_t at = lines.size() / 4;
  lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
               lines[at - 1].substr(0, 3) +
                   " 370 10:00:00 c0-0c0s0n1 kernel: stray stamp");
  {
    std::ofstream out(bundle + "/syslog.log", std::ios::trunc);
    for (const std::string& line : lines) out << line << '\n';
  }
  ExpectDriversAgree(machine, bundle, "stray_stamp");
  fs::remove_all(bundle);
}

class CatalogDriverParity : public ::testing::TestWithParam<std::string> {};

TEST_P(CatalogDriverParity, EveryDriverExportsBatchBytes) {
  const ScenarioSpec* spec = FindScenario(GetParam());
  ASSERT_NE(spec, nullptr);
  ScenarioConfig config = SmallScenario(13);
  spec->configure(&config);
  const Machine machine = MakeMachine(config);
  const std::string bundle = WorkDir(GetParam() + "_bundle");
  fs::remove_all(bundle);
  ASSERT_TRUE(WriteScenarioBundle(machine, config, *spec, bundle).ok());
  ExpectDriversAgree(machine, bundle, GetParam());
  fs::remove_all(bundle);
}

std::vector<std::string> CatalogNames() {
  std::vector<std::string> names;
  for (const ScenarioSpec& spec : ScenarioCatalog()) names.push_back(spec.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, CatalogDriverParity, ::testing::ValuesIn(CatalogNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace ld
