#include "topology/machine.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>

namespace ld {
namespace {

TEST(Machine, BlueWatersCounts) {
  const Machine bw = Machine::BlueWaters();
  EXPECT_EQ(bw.xe_count(), 22640u);
  EXPECT_EQ(bw.xk_count(), 4224u);
  EXPECT_EQ(bw.node_count(), 27648u);  // 288 cabinets x 96 slots
  EXPECT_EQ(bw.service_count(), 27648u - 22640u - 4224u);
  EXPECT_EQ(bw.compute_count(), 26864u);
}

TEST(Machine, NodeAttributesByType) {
  const Machine bw = Machine::BlueWaters();
  const NodeIndex xe = bw.nodes_of_type(NodeType::kXE).front();
  const NodeIndex xk = bw.nodes_of_type(NodeType::kXK).front();
  EXPECT_FALSE(bw.node(xe).has_gpu);
  EXPECT_EQ(bw.node(xe).dimm_count, 16);
  EXPECT_TRUE(bw.node(xk).has_gpu);
  EXPECT_EQ(bw.node(xk).dimm_count, 8);
}

TEST(Machine, CnamesAreUniqueAndFindable) {
  const Machine m = Machine::Testbed(96, 24);
  std::set<std::string> seen;
  for (const Node& node : m.nodes()) {
    const std::string cname = node.cname.ToString();
    EXPECT_TRUE(seen.insert(cname).second) << "duplicate " << cname;
    auto found = m.FindByCname(cname);
    ASSERT_TRUE(found.ok());
    EXPECT_EQ(*found, node.index);
  }
}

TEST(Machine, FindByCnameMisses) {
  const Machine m = Machine::Testbed(96, 24);
  EXPECT_FALSE(m.FindByCname("c99-9c0s0n0").ok());
  EXPECT_FALSE(m.FindByCname("garbage").ok());
}

TEST(Machine, BlueWatersCornersResolveArithmetically) {
  const Machine bw = Machine::BlueWaters();
  EXPECT_EQ(*bw.FindByCname("c0-0c0s0n0"), 0u);
  EXPECT_EQ(*bw.FindByCname("c23-11c2s7n3"), bw.node_count() - 1);
  EXPECT_TRUE(bw.FindByCname("c1-2c0s3n1").ok());
  EXPECT_FALSE(bw.FindByCname("c01-2c0s3n1").ok());
  EXPECT_FALSE(bw.FindByCname("c24-0c0s0n0").ok());
  EXPECT_FALSE(bw.FindByCname("c0-12c0s0n0").ok());
  for (const NodeIndex i : {1u, 95u, 96u, 1151u, 13824u, 27000u}) {
    const Cname& c = bw.node(i).cname;
    EXPECT_EQ(*bw.FindByCname(c.ToString()), i);
    EXPECT_EQ(*bw.FindBlade(c.BladePrefix()),
              i - static_cast<NodeIndex>(c.node));
  }
}

TEST(Machine, FindBladeNamesNodeZeroOfEveryBlade) {
  const Machine m = Machine::Testbed(96, 24);
  for (const Node& node : m.nodes()) {
    auto first = m.FindBlade(node.cname.BladePrefix());
    ASSERT_TRUE(first.ok()) << node.cname.BladePrefix();
    EXPECT_EQ(*first + static_cast<NodeIndex>(node.cname.node), node.index);
  }
}

// Only the exact Cname::ToString() rendering of a node on this machine
// resolves — the spellings a rendered-string table never held stay
// NotFound.  Testbed(96, 24) is a 2 x 1 cabinet grid: c1-0 exists,
// c0-1 and c2-0 do not.
TEST(Machine, OnlyTheExactRenderingResolves) {
  const Machine m = Machine::Testbed(96, 24);
  ASSERT_TRUE(m.FindByCname("c1-0c2s7n3").ok());
  ASSERT_TRUE(m.FindBlade("c1-0c2s7").ok());
  const std::string_view bad_nodes[] = {
      // leading zeros
      "c01-0c2s7n3", "c1-00c2s7n3", "c1-0c02s7n3", "c1-0c2s07n3",
      "c1-0c2s7n03", "c00-0c0s0n0",
      // trailing bytes
      "c1-0c2s7n3 ", "c1-0c2s7n3x", "c1-0c2s7n3\n", "c1-0c2s7n30",
      std::string_view("c1-0c2s7n3\0", 11), "c1-0c2s7n3g0",
      // chassis > 2, slot > 7, node > 3
      "c0-0c3s0n0", "c0-0c0s8n0", "c0-0c0s0n4", "c0-0c10s0n0",
      // cabinets outside the grid
      "c2-0c0s0n0", "c0-1c0s0n0", "c99-9c0s0n0", "c4294967296-0c0s0n0",
      "c99999999999-0c0s0n0",
      // a sign or an empty field
      "c+1-0c2s7n3", "c-1-0c2s7n3", "c1--0c2s7n3", "c1-+0c2s7n3",
      "c1-0c-2s7n3", "c1-0c2s+7n3", "c1-0c2s7n-3", "c-0c2s7n3", "c1-c2s7n3",
      "c1-0cs7n3", "c1-0c2sn3", "c1-0c2s7n", "", "c", " c1-0c2s7n3",
      // a blade prefix is not a node
      "c1-0c2s7"};
  for (const std::string_view cname : bad_nodes) {
    const auto found = m.FindByCname(cname);
    ASSERT_FALSE(found.ok()) << "'" << cname << "' resolved";
    EXPECT_EQ(found.status().code(), StatusCode::kNotFound) << cname;
  }
  const std::string_view bad_blades[] = {
      "c01-0c2s7", "c1-0c2s07", "c1-0c2s7 ",  "c1-0c2s7n0", "c1-0c3s0",
      "c1-0c0s8",  "c2-0c0s0",  "c0-1c0s0",   "c+1-0c2s7",  "c1-0c2s",
      "",          "c1-0c2s7g0"};
  for (const std::string_view blade : bad_blades) {
    const auto found = m.FindBlade(blade);
    ASSERT_FALSE(found.ok()) << "'" << blade << "' resolved";
    EXPECT_EQ(found.status().code(), StatusCode::kNotFound) << blade;
  }
}

TEST(Machine, NodeIndicesAreDense) {
  const Machine m = Machine::Testbed(96, 24);
  for (NodeIndex i = 0; i < m.node_count(); ++i) {
    EXPECT_EQ(m.node(i).index, i);
  }
}

TEST(Machine, BladeSiblingsShareBladeAndIncludeSelf) {
  const Machine m = Machine::Testbed(96, 24);
  const NodeIndex anchor = 5;
  const auto sibs = m.BladeSiblings(anchor);
  ASSERT_EQ(sibs.size(), 4u);
  bool self_found = false;
  const std::string blade = m.node(anchor).cname.BladePrefix();
  for (NodeIndex s : sibs) {
    EXPECT_EQ(m.node(s).cname.BladePrefix(), blade);
    if (s == anchor) self_found = true;
  }
  EXPECT_TRUE(self_found);
}

TEST(Machine, NodesOnGeminiArePairs) {
  const Machine m = Machine::Testbed(96, 24);
  for (NodeIndex i : {0u, 1u, 2u, 3u, 50u}) {
    const auto attached = m.NodesOnGemini(m.node(i).gemini);
    ASSERT_EQ(attached.size(), 2u);
    // The anchor node must be attached to its own router.
    EXPECT_TRUE(attached[0] == i || attached[1] == i);
    // Both attached nodes share the gemini coordinate.
    EXPECT_EQ(m.node(attached[0]).gemini, m.node(attached[1]).gemini);
  }
}

TEST(Machine, XkNodesAreContiguousAfterXe) {
  const Machine m = Machine::Testbed(192, 96);
  const auto& xe = m.nodes_of_type(NodeType::kXE);
  const auto& xk = m.nodes_of_type(NodeType::kXK);
  ASSERT_EQ(xe.size(), 192u);
  ASSERT_EQ(xk.size(), 96u);
  // Layout fills XE first, so every XE index < every XK index.
  EXPECT_LT(xe.back(), xk.front());
}

TEST(Machine, BuildRejectsOversubscription) {
  MachineConfig config;
  config.cabinet_cols = 1;
  config.cabinet_rows = 1;  // 96 slots
  config.xe_nodes = 90;
  config.xk_nodes = 10;
  EXPECT_THROW(Machine::Build(config), std::invalid_argument);
}

TEST(Machine, TestbedHasServiceHeadroom) {
  const Machine m = Machine::Testbed(100, 20);
  EXPECT_EQ(m.xe_count(), 100u);
  EXPECT_EQ(m.xk_count(), 20u);
  EXPECT_GE(m.service_count(), 4u);
}

TEST(NodeTypeName, Names) {
  EXPECT_STREQ(NodeTypeName(NodeType::kXE), "XE");
  EXPECT_STREQ(NodeTypeName(NodeType::kXK), "XK");
  EXPECT_STREQ(NodeTypeName(NodeType::kService), "service");
}

}  // namespace
}  // namespace ld
