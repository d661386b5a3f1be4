// Machine model: the structural substrate of the field study.
//
// Blue Waters is a Cray XE6/XK7 hybrid: 288 cabinets, each with 3
// chassis of 8 blades of 4 nodes (27,648 node slots).  22,640 slots hold
// XE6 compute nodes (2x AMD Interlagos, 64 GB), 4,224 hold XK7 hybrid
// nodes (1x Interlagos + 1x NVIDIA K20X, 32 GB + 6 GB GDDR5), and the
// remainder are service nodes (I/O, login, MOM).  Two nodes share one
// Gemini router ASIC; the routers form a 3-D torus.
//
// The correlation logic in LogDiver keys on node identity (cname),
// blade co-location (blade-level failures take out 4 nodes), and Gemini
// placement (link failures affect traffic through a router), so the
// model preserves exactly that structure.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "topology/cname.hpp"

namespace ld {

enum class NodeType : std::uint8_t {
  kXE,       // CPU-only compute node (XE6)
  kXK,       // CPU+GPU hybrid compute node (XK7)
  kService,  // service node (not schedulable for compute)
};

const char* NodeTypeName(NodeType type);

/// Index of a node in the Machine's node table.  Dense, stable, and cheap
/// to use as an array index; the cname is the external identity.
using NodeIndex = std::uint32_t;
inline constexpr NodeIndex kInvalidNode = 0xffffffffu;

/// Coordinate of a Gemini router in the 3-D torus.
struct GeminiCoord {
  int x = 0;
  int y = 0;
  int z = 0;
  bool operator==(const GeminiCoord&) const = default;
};

struct Node {
  NodeIndex index = kInvalidNode;
  NodeType type = NodeType::kService;
  Cname cname;
  GeminiCoord gemini;
  std::uint16_t dimm_count = 0;  // DDR3 DIMMs on the node board
  bool has_gpu = false;
};

/// Configuration for building a machine; defaults reproduce Blue Waters.
struct MachineConfig {
  int cabinet_cols = 24;
  int cabinet_rows = 12;
  std::uint32_t xe_nodes = 22640;
  std::uint32_t xk_nodes = 4224;
  // Everything left over becomes service nodes.
};

class Machine {
 public:
  /// The Blue Waters configuration (A1: 13.1 PF, 22,640 XE + 4,224 XK).
  static Machine BlueWaters();
  /// A small machine for tests and examples (fast to iterate over).
  static Machine Testbed(std::uint32_t xe_nodes, std::uint32_t xk_nodes);
  /// Builds from an explicit configuration; throws on infeasible counts.
  static Machine Build(const MachineConfig& config);

  std::uint32_t node_count() const {
    return static_cast<std::uint32_t>(nodes_.size());
  }
  std::uint32_t xe_count() const { return xe_count_; }
  std::uint32_t xk_count() const { return xk_count_; }
  std::uint32_t service_count() const {
    return node_count() - xe_count_ - xk_count_;
  }
  std::uint32_t compute_count() const { return xe_count_ + xk_count_; }

  const Node& node(NodeIndex i) const { return nodes_.at(i); }
  const std::vector<Node>& nodes() const { return nodes_; }

  /// Indices of all compute nodes of the given type, in cname order.
  const std::vector<NodeIndex>& nodes_of_type(NodeType type) const;

  /// Looks a node up by its exact Cname::ToString() rendering; any
  /// other spelling (leading zeros, signs, trailing bytes, coordinates
  /// off this machine) is NotFound.  Computed from the coordinates, no
  /// table.
  Result<NodeIndex> FindByCname(std::string_view cname) const;

  /// Node 0 of the blade named by its exact Cname::BladePrefix()
  /// rendering, under FindByCname's spelling rule.  A blade's 4 nodes
  /// are that index + 0..3.
  Result<NodeIndex> FindBlade(std::string_view blade) const;

  /// The 4 nodes sharing the blade of `i` (including `i` itself).
  std::vector<NodeIndex> BladeSiblings(NodeIndex i) const;

  /// Nodes whose traffic transits the Gemini router at `coord` — i.e.,
  /// the (at most 2) nodes attached to that router.
  std::vector<NodeIndex> NodesOnGemini(const GeminiCoord& coord) const;

 private:
  Machine() = default;

  /// True when the coordinates name a slot of this machine.
  bool HasSlot(const Cname& c) const;
  /// Index of a slot, following Build's layout (cabinet column, row,
  /// chassis, slot, node; node fastest).  Requires HasSlot.
  NodeIndex SlotIndex(const Cname& c) const;

  std::vector<Node> nodes_;
  std::vector<NodeIndex> xe_nodes_;
  std::vector<NodeIndex> xk_nodes_;
  std::vector<NodeIndex> service_nodes_;
  int cabinet_cols_ = 0;
  int cabinet_rows_ = 0;
  std::uint32_t xe_count_ = 0;
  std::uint32_t xk_count_ = 0;
};

}  // namespace ld
