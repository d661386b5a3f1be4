// Every analysis driver must export the same ten CSV files, byte for
// byte, as batch AnalyzeBundle: RunResumableAnalysis with snapshots (and
// resumed from one), and the fleet at 1 and 4 shards.  Covered: the
// clean small bundle, a copy of it without hwerr.log, and every catalog
// scenario (rotated and clock-skewed syslog included).
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
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

  // hwerr.log is optional on every path, not only in batch.
  ASSERT_TRUE(fs::remove(bundle + "/hwerr.log"));
  ExpectDriversAgree(machine, bundle, "nohwerr");
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
