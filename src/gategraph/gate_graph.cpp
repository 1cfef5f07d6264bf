#include "gategraph/gate_graph.hpp"

#include "util/error.hpp"
#include "util/strings.hpp"

namespace tr::gategraph {

namespace {
/// Recursively emits transistors for `node` spanning terminals
/// (`top` = output side, `bottom` = rail side). Series gaps allocate
/// internal node ids in pre-order via `next_node`.
void build_network(const SpNode& node, DeviceType type, int top, int bottom,
                   int& next_node, std::vector<Transistor>& out) {
  switch (node.kind) {
    case SpNode::Kind::transistor:
      out.push_back(Transistor{type, node.input, top, bottom});
      return;
    case SpNode::Kind::series: {
      // Children are ordered output-side first; allocate one internal node
      // per gap, left to right, before descending (pre-order).
      const std::size_t k = node.children.size();
      std::vector<int> terminals(k + 1);
      terminals[0] = top;
      for (std::size_t i = 1; i < k; ++i) terminals[i] = next_node++;
      terminals[k] = bottom;
      for (std::size_t i = 0; i < k; ++i) {
        build_network(node.children[i], type, terminals[i], terminals[i + 1],
                      next_node, out);
      }
      return;
    }
    case SpNode::Kind::parallel:
      for (const SpNode& child : node.children) {
        build_network(child, type, top, bottom, next_node, out);
      }
      return;
  }
  TR_ASSERT(false);
}
}  // namespace

GateGraph::GateGraph(const GateTopology& topology)
    : input_count_(topology.input_count()) {
  int next_node = first_internal_node;
  build_network(topology.nmos(), DeviceType::nmos, output_node, vss_node,
                next_node, transistors_);
  build_network(topology.pmos(), DeviceType::pmos, output_node, vdd_node,
                next_node, transistors_);
  node_count_ = next_node;
  TR_ASSERT(internal_node_count() == topology.internal_node_count());

  adjacency_.assign(static_cast<std::size_t>(node_count_), {});
  for (std::size_t t = 0; t < transistors_.size(); ++t) {
    adjacency_[static_cast<std::size_t>(transistors_[t].node_out)].push_back(
        static_cast<int>(t));
    adjacency_[static_cast<std::size_t>(transistors_[t].node_rail)].push_back(
        static_cast<int>(t));
  }
}

boolfn::TruthTable GateGraph::h_function(int node) const {
  return path_function(node, vdd_node);
}

boolfn::TruthTable GateGraph::g_function(int node) const {
  return path_function(node, vss_node);
}

boolfn::TruthTable GateGraph::path_function(int node, int rail) const {
  require(node >= 0 && node < node_count_,
          "GateGraph::path_function: node out of range");
  require(rail == vss_node || rail == vdd_node,
          "GateGraph::path_function: target must be a rail");
  using boolfn::TruthTable;

  TruthTable result = TruthTable::zero(input_count_);
  if (node == rail) return TruthTable::one(input_count_);

  // Depth-first enumeration of simple paths (paper Fig. 2b). `cube`
  // accumulates the conduction literals along the current path; reaching a
  // contradictory cube (constant zero) prunes the branch, which is what
  // collapses the paper's a1*~a1 minterms.
  std::vector<bool> visited(static_cast<std::size_t>(node_count_), false);
  TruthTable cube = TruthTable::one(input_count_);

  auto dfs = [&](auto&& self, int v) -> void {
    visited[static_cast<std::size_t>(v)] = true;
    for (int t : adjacency_[static_cast<std::size_t>(v)]) {
      const Transistor& tx = transistors_[static_cast<std::size_t>(t)];
      const int next = tx.node_out == v ? tx.node_rail : tx.node_out;
      if (visited[static_cast<std::size_t>(next)]) continue;
      // Rails terminate paths: a path may end at the target rail but can
      // never pass through either rail.
      if (next != rail && (next == vss_node || next == vdd_node)) continue;

      TruthTable literal = TruthTable::variable(input_count_, tx.input);
      if (tx.type == DeviceType::pmos) literal = ~literal;
      const TruthTable saved = cube;
      cube &= literal;
      if (!cube.is_zero()) {
        if (next == rail) {
          result |= cube;
        } else {
          self(self, next);
        }
      }
      cube = saved;
    }
    visited[static_cast<std::size_t>(v)] = false;
  };
  dfs(dfs, node);
  return result;
}

std::vector<int> GateGraph::terminal_counts() const {
  std::vector<int> counts(static_cast<std::size_t>(node_count_), 0);
  for (const Transistor& t : transistors_) {
    ++counts[static_cast<std::size_t>(t.node_out)];
    ++counts[static_cast<std::size_t>(t.node_rail)];
  }
  return counts;
}

std::string GateGraph::node_name(int node) const {
  require(node >= 0 && node < node_count_, "GateGraph::node_name: out of range");
  switch (node) {
    case vss_node: return "vss";
    case vdd_node: return "vdd";
    case output_node: return "y";
    default: return numbered("n", node - first_internal_node);
  }
}

}  // namespace tr::gategraph
