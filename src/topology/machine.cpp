#include "topology/machine.hpp"

#include <stdexcept>

namespace ld {
namespace {

constexpr int kChassisPerCabinet = 3;
constexpr int kSlotsPerChassis = 8;
constexpr int kNodesPerBlade = 4;
constexpr int kNodesPerCabinet =
    kChassisPerCabinet * kSlotsPerChassis * kNodesPerBlade;  // 96

/// Consumes one "%d"-rendered coordinate from the front of `text`: at
/// least one digit, no sign, no leading zero unless the field is "0",
/// and at most 9 digits so the value fits an int.
bool ReadField(std::string_view& text, int& out) {
  std::size_t n = 0;
  while (n < text.size() && n < 10 && text[n] >= '0' && text[n] <= '9') ++n;
  if (n == 0 || n == 10 || (n > 1 && text[0] == '0')) return false;
  out = 0;
  for (std::size_t i = 0; i < n; ++i) out = out * 10 + (text[i] - '0');
  text.remove_prefix(n);
  return true;
}

bool ReadChar(std::string_view& text, char c) {
  if (text.empty() || text.front() != c) return false;
  text.remove_prefix(1);
  return true;
}

/// Consumes a "c{X}-{Y}c{C}s{S}" blade prefix from the front of `text`.
bool ReadBlade(std::string_view& text, Cname& c) {
  return ReadChar(text, 'c') && ReadField(text, c.cabinet_x) &&
         ReadChar(text, '-') && ReadField(text, c.cabinet_y) &&
         ReadChar(text, 'c') && ReadField(text, c.chassis) &&
         ReadChar(text, 's') && ReadField(text, c.slot);
}

}  // namespace

const char* NodeTypeName(NodeType type) {
  switch (type) {
    case NodeType::kXE: return "XE";
    case NodeType::kXK: return "XK";
    case NodeType::kService: return "service";
  }
  return "unknown";
}

Machine Machine::BlueWaters() { return Build(MachineConfig{}); }

Machine Machine::Testbed(std::uint32_t xe_nodes, std::uint32_t xk_nodes) {
  MachineConfig cfg;
  // Smallest cabinet grid that fits the request plus a handful of
  // service nodes; keeps test machines tiny and fast.
  const std::uint32_t needed = xe_nodes + xk_nodes + 4;
  std::uint32_t cabinets = (needed + kNodesPerCabinet - 1) / kNodesPerCabinet;
  cfg.cabinet_cols = static_cast<int>(cabinets < 4 ? cabinets : 4);
  cfg.cabinet_rows = static_cast<int>((cabinets + cfg.cabinet_cols - 1) /
                                      static_cast<std::uint32_t>(cfg.cabinet_cols));
  cfg.xe_nodes = xe_nodes;
  cfg.xk_nodes = xk_nodes;
  return Build(cfg);
}

Machine Machine::Build(const MachineConfig& config) {
  const std::uint64_t slots = static_cast<std::uint64_t>(config.cabinet_cols) *
                              config.cabinet_rows * kNodesPerCabinet;
  if (config.xe_nodes + config.xk_nodes > slots) {
    throw std::invalid_argument("MachineConfig: more compute nodes than slots");
  }

  Machine m;
  m.nodes_.reserve(slots);
  m.cabinet_cols_ = config.cabinet_cols;
  m.cabinet_rows_ = config.cabinet_rows;

  // XK cabinets are physically clustered (on Blue Waters they occupy
  // dedicated cabinet columns).  We lay out XE nodes first, then XK,
  // then service nodes, walking cabinets in column-major order; this
  // yields the same "XK nodes are spatially contiguous" property the
  // real machine has, which matters for blade-level failure blast radius.
  std::uint32_t xe_left = config.xe_nodes;
  std::uint32_t xk_left = config.xk_nodes;

  for (int cx = 0; cx < config.cabinet_cols; ++cx) {
    for (int cy = 0; cy < config.cabinet_rows; ++cy) {
      for (int ch = 0; ch < kChassisPerCabinet; ++ch) {
        for (int sl = 0; sl < kSlotsPerChassis; ++sl) {
          for (int nd = 0; nd < kNodesPerBlade; ++nd) {
            Node node;
            node.index = static_cast<NodeIndex>(m.nodes_.size());
            node.cname = Cname{cx, cy, ch, sl, nd};
            // One Gemini ASIC serves 2 adjacent nodes on a blade; torus
            // coordinates derive deterministically from the physical
            // position (X from cabinet column, Y from row+chassis,
            // Z from slot and node pair).
            node.gemini = GeminiCoord{cx, cy * kChassisPerCabinet + ch,
                                      sl * (kNodesPerBlade / 2) + nd / 2};
            if (xe_left > 0) {
              node.type = NodeType::kXE;
              node.dimm_count = 16;  // 64 GB in 4 GB DDR3 DIMMs
              node.has_gpu = false;
              --xe_left;
            } else if (xk_left > 0) {
              node.type = NodeType::kXK;
              node.dimm_count = 8;  // 32 GB host memory
              node.has_gpu = true;  // NVIDIA K20X with 6 GB GDDR5
              --xk_left;
            } else {
              node.type = NodeType::kService;
              node.dimm_count = 8;
              node.has_gpu = false;
            }
            switch (node.type) {
              case NodeType::kXE: m.xe_nodes_.push_back(node.index); break;
              case NodeType::kXK: m.xk_nodes_.push_back(node.index); break;
              case NodeType::kService:
                m.service_nodes_.push_back(node.index);
                break;
            }
            m.nodes_.push_back(std::move(node));
          }
        }
      }
    }
  }
  m.xe_count_ = config.xe_nodes;
  m.xk_count_ = config.xk_nodes;
  return m;
}

const std::vector<NodeIndex>& Machine::nodes_of_type(NodeType type) const {
  switch (type) {
    case NodeType::kXE: return xe_nodes_;
    case NodeType::kXK: return xk_nodes_;
    case NodeType::kService: return service_nodes_;
  }
  throw std::logic_error("nodes_of_type: bad type");
}

bool Machine::HasSlot(const Cname& c) const {
  return c.cabinet_x >= 0 && c.cabinet_x < cabinet_cols_ &&
         c.cabinet_y >= 0 && c.cabinet_y < cabinet_rows_ && c.chassis >= 0 &&
         c.chassis < kChassisPerCabinet && c.slot >= 0 &&
         c.slot < kSlotsPerChassis && c.node >= 0 && c.node < kNodesPerBlade;
}

NodeIndex Machine::SlotIndex(const Cname& c) const {
  const int cabinet = c.cabinet_x * cabinet_rows_ + c.cabinet_y;
  return static_cast<NodeIndex>(
      ((cabinet * kChassisPerCabinet + c.chassis) * kSlotsPerChassis +
       c.slot) * kNodesPerBlade +
      c.node);
}

Result<NodeIndex> Machine::FindByCname(std::string_view cname) const {
  Cname c;
  std::string_view rest = cname;
  if (ReadBlade(rest, c) && ReadChar(rest, 'n') && ReadField(rest, c.node) &&
      rest.empty() && HasSlot(c)) {
    return SlotIndex(c);
  }
  return NotFoundError("no node with cname '" + std::string(cname) + "'");
}

Result<NodeIndex> Machine::FindBlade(std::string_view blade) const {
  Cname c;  // node 0
  std::string_view rest = blade;
  if (ReadBlade(rest, c) && rest.empty() && HasSlot(c)) return SlotIndex(c);
  return NotFoundError("no blade '" + std::string(blade) + "'");
}

std::vector<NodeIndex> Machine::BladeSiblings(NodeIndex i) const {
  Cname c = node(i).cname;
  c.node = 0;
  const NodeIndex first = SlotIndex(c);
  return {first, first + 1, first + 2, first + 3};
}

std::vector<NodeIndex> Machine::NodesOnGemini(const GeminiCoord& coord) const {
  // Geminis serve node pairs laid out deterministically (see Build), so
  // the attached slots follow from the coordinate.
  std::vector<NodeIndex> out;
  const int cx = coord.x;
  const int cy = coord.y / kChassisPerCabinet;
  const int ch = coord.y % kChassisPerCabinet;
  const int sl = coord.z / (kNodesPerBlade / 2);
  const int pair = coord.z % (kNodesPerBlade / 2);
  for (int nd = pair * 2; nd < pair * 2 + 2; ++nd) {
    const Cname c{cx, cy, ch, sl, nd};
    if (HasSlot(c)) out.push_back(SlotIndex(c));
  }
  return out;
}

}  // namespace ld
