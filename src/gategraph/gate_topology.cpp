#include "gategraph/gate_topology.hpp"

#include <set>

#include "util/error.hpp"

namespace tr::gategraph {

GateTopology GateTopology::from_pulldown(SpNode nmos, int input_count) {
  SpNode pmos = dual(nmos);
  return GateTopology(std::move(nmos), std::move(pmos), input_count);
}

GateTopology::GateTopology(SpNode nmos, SpNode pmos, int input_count)
    : nmos_(std::move(nmos)), pmos_(std::move(pmos)), input_count_(input_count) {
  require(input_count_ > 0, "GateTopology: input_count must be positive");
  require(max_input_plus_one(nmos_) <= input_count_,
          "GateTopology: pull-down tree references input beyond input_count");
  require(max_input_plus_one(pmos_) <= input_count_,
          "GateTopology: pull-up tree references input beyond input_count");
  // Complementary CMOS: the pull-up network must conduct exactly when the
  // pull-down network does not.
  const auto down = conduction_function(nmos_, DeviceType::nmos, input_count_);
  const auto up = conduction_function(pmos_, DeviceType::pmos, input_count_);
  require(up == ~down,
          "GateTopology: pull-up and pull-down networks are not complementary");
}

int GateTopology::transistor_count() const {
  return gategraph::transistor_count(nmos_) + gategraph::transistor_count(pmos_);
}

int GateTopology::internal_node_count() const {
  return gategraph::internal_node_count(nmos_) +
         gategraph::internal_node_count(pmos_);
}

boolfn::TruthTable GateTopology::output_function() const {
  return ~conduction_function(nmos_, DeviceType::nmos, input_count_);
}

namespace {
/// Walks the tree in pre-order; when the running gap counter hits zero at
/// a series gap, transposes the two adjacent children. Returns true once
/// the swap happened.
bool pivot_rec(SpNode& node, int& remaining) {
  if (node.is_leaf()) return false;
  if (node.kind == SpNode::Kind::series) {
    const int gaps = static_cast<int>(node.children.size()) - 1;
    if (remaining < gaps) {
      std::swap(node.children[static_cast<std::size_t>(remaining)],
                node.children[static_cast<std::size_t>(remaining) + 1]);
      return true;
    }
    remaining -= gaps;
  }
  for (SpNode& child : node.children) {
    if (pivot_rec(child, remaining)) return true;
  }
  return false;
}
}  // namespace

GateTopology GateTopology::pivoted(int gap_index) const {
  require(gap_index >= 0 && gap_index < internal_node_count(),
          "GateTopology::pivoted: gap index ", gap_index, " out of range [0, ",
          internal_node_count(), ")");
  GateTopology next(*this);
  int remaining = gap_index;
  if (!pivot_rec(next.nmos_, remaining)) {
    const bool done = pivot_rec(next.pmos_, remaining);
    TR_ASSERT(done);
  }
  return next;
}

std::string GateTopology::canonical_key() const {
  return encode(nmos_) + "|" + encode(pmos_);
}

std::string GateTopology::instance_key() const {
  return encode_anonymized(nmos_) + "|" + encode_anonymized(pmos_);
}

namespace {
/// PIVOTE_AND_SEARCH of paper Fig. 4: pivot every gap except the one we
/// arrived by (pivoting is an involution, so that would only undo);
/// record new configurations and recurse. `at` indexes into `out` rather
/// than holding a reference — the vector reallocates as it grows — and
/// freshly produced configurations are moved, never copied, so the
/// enumeration allocates exactly one GateTopology and one key string per
/// distinct configuration.
void pivot_and_search(std::size_t at, int arrived_by,
                      std::set<std::string>& visited,
                      std::vector<GateTopology>& out) {
  const int gaps = out[at].internal_node_count();
  for (int gap = 0; gap < gaps; ++gap) {
    if (gap == arrived_by) continue;
    GateTopology next = out[at].pivoted(gap);
    std::string key = next.canonical_key();
    if (!visited.insert(std::move(key)).second) continue;
    out.push_back(std::move(next));
    pivot_and_search(out.size() - 1, gap, visited, out);
  }
}
}  // namespace

std::vector<GateTopology> GateTopology::all_reorderings() const {
  // Deviation from the paper's pseudo-code (DESIGN.md Sec. 3): the
  // initial configuration is seeded into the visited set up front.
  // Fig. 4 only records configurations *produced by* a pivot, which
  // silently drops the starting point for gates whose pivot graph has no
  // cycle back to it (e.g. nand2 with a single internal node).
  std::vector<GateTopology> out;
  std::set<std::string> visited;
  visited.insert(canonical_key());
  out.push_back(*this);
  pivot_and_search(0, -1, visited, out);
  return out;
}

std::uint64_t GateTopology::reordering_count_formula() const {
  return ordering_count(nmos_) * ordering_count(pmos_);
}

std::map<std::string, std::vector<GateTopology>> group_by_instance(
    const std::vector<GateTopology>& configs) {
  std::map<std::string, std::vector<GateTopology>> groups;
  for (const GateTopology& c : configs) groups[c.instance_key()].push_back(c);
  return groups;
}

}  // namespace tr::gategraph
