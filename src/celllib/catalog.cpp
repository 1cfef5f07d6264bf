#include "celllib/catalog.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>

#include "celllib/cell.hpp"
#include "delay/elmore.hpp"
#include "gategraph/gate_graph.hpp"
#include "gategraph/isomorphism.hpp"
#include "util/error.hpp"

namespace tr::celllib {

using boolfn::TruthTable;
using gategraph::GateGraph;
using gategraph::GateTopology;

namespace {

/// Model node order: internal nodes ascending, output last (the order
/// power::evaluate_gate_power sums node powers in).
std::vector<int> model_node_order(int internal_count) {
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(internal_count) + 1);
  for (int k = 0; k < internal_count; ++k) {
    order.push_back(GateGraph::first_internal_node + k);
  }
  order.push_back(GateGraph::output_node);
  return order;
}

/// Characterises a configuration directly: graph construction + path DFS.
/// Returns its nodes in model node order, without boolean differences.
std::vector<CatalogNode> characterize(const GateTopology& topology,
                                      int internal_count) {
  const GateGraph graph(topology);
  const std::vector<int> terminals = graph.terminal_counts();
  std::vector<CatalogNode> nodes;
  for (int node : model_node_order(internal_count)) {
    nodes.push_back(
        {.terminal_count = terminals[static_cast<std::size_t>(node)],
         .is_output = node == GateGraph::output_node,
         .h = graph.h_function(node),
         .g = graph.g_function(node),
         .dh = {},
         .dg = {}});
  }
  return nodes;
}

/// Derives a configuration's nodes from its instance representative's
/// pool nodes by variable permutation and node remapping — no graph
/// rebuild. Same order and contents as characterize().
std::vector<CatalogNode> derive(const CatalogConfig& rep,
                                const std::vector<CatalogNode>& pool,
                                const gategraph::ConfigIsomorphism& iso,
                                int internal_count) {
  std::vector<CatalogNode> nodes;
  for (int node : model_node_order(internal_count)) {
    const int rep_node = iso.node_remap[static_cast<std::size_t>(node)];
    // Representative storage position for a graph node id (internal nodes
    // are contiguous from first_internal_node; output is stored last).
    const std::size_t rep_pos =
        rep_node == GateGraph::output_node
            ? static_cast<std::size_t>(internal_count)
            : static_cast<std::size_t>(rep_node - GateGraph::first_internal_node);
    const CatalogNode& src = pool[static_cast<std::size_t>(rep.nodes[rep_pos])];
    nodes.push_back({.terminal_count = src.terminal_count,
                     .is_output = node == GateGraph::output_node,
                     .h = src.h.permute_vars(iso.var_perm),
                     .g = src.g.permute_vars(iso.var_perm),
                     .dh = {},
                     .dg = {}});
  }
  return nodes;
}

/// Build-time sanity: the output node's path functions have closed forms
/// (H_y = pull-up conduction, G_y = pull-down conduction) and no node may
/// see both rails at once in a complementary gate. Internal-node tables
/// are covered by the parity test suite.
void verify(const CatalogConfig& entry, const std::vector<CatalogNode>& pool,
            int input_count) {
  const TruthTable up = gategraph::conduction_function(
      entry.topology.pmos(), gategraph::DeviceType::pmos, input_count);
  const TruthTable down = gategraph::conduction_function(
      entry.topology.nmos(), gategraph::DeviceType::nmos, input_count);
  TR_ASSERT(pool[static_cast<std::size_t>(entry.nodes.back())].h == up);
  TR_ASSERT(pool[static_cast<std::size_t>(entry.nodes.back())].g == down);
  for (int index : entry.nodes) {
    const CatalogNode& node = pool[static_cast<std::size_t>(index)];
    TR_ASSERT((node.h & node.g).is_zero());
  }
}

}  // namespace

ReorderCatalog ReorderCatalog::build(const GateTopology& start) {
  ReorderCatalog catalog;
  catalog.input_count_ = start.input_count();
  catalog.internal_node_count_ = start.internal_node_count();

  std::vector<GateTopology> orderings = start.all_reorderings();
  catalog.configs_.reserve(orderings.size());
  catalog.var_perm_.reserve(orderings.size() *
                            static_cast<std::size_t>(catalog.input_count_));

  // Instance representatives seen so far: (config index, instance key).
  std::vector<std::pair<int, std::string>> reps;
  std::string first_key;
  // Pool index of each distinct node. Every table of a catalog has
  // input_count variables, so the words identify it.
  std::map<std::tuple<std::vector<std::uint64_t>, std::vector<std::uint64_t>,
                      int, bool>,
           int>
      pool_index;
  for (GateTopology& topology : orderings) {
    CatalogConfig entry(std::move(topology));
    const std::string key = entry.topology.instance_key();
    if (catalog.configs_.empty()) first_key = key;
    entry.same_instance_as_first = key == first_key;

    std::vector<CatalogNode> nodes;
    for (const auto& [rep_index, rep_key] : reps) {
      if (rep_key != key) continue;
      const CatalogConfig& rep =
          catalog.configs_[static_cast<std::size_t>(rep_index)];
      const auto iso = find_isomorphism(rep.topology, entry.topology);
      if (!iso) continue;  // fall through to direct characterisation
      nodes = derive(rep, catalog.nodes_, *iso, catalog.internal_node_count_);
      entry.representative = rep_index;
      catalog.var_perm_.insert(catalog.var_perm_.end(), iso->var_perm.begin(),
                               iso->var_perm.end());
      break;
    }
    if (nodes.empty()) {
      nodes = characterize(entry.topology, catalog.internal_node_count_);
      entry.representative = static_cast<int>(catalog.configs_.size());
      reps.emplace_back(entry.representative, key);
      for (int i = 0; i < catalog.input_count_; ++i) {
        catalog.var_perm_.push_back(i);
      }
      ++catalog.characterized_;
    }

    // Intern the nodes. A new one gets its boolean differences here, by
    // the same code for characterised and derived nodes, so its tables are
    // bit-identical to what the reference scorer computes on the fly.
    for (CatalogNode& node : nodes) {
      const auto [it, added] = pool_index.try_emplace(
          std::tuple{node.h.words(), node.g.words(), node.terminal_count,
                     node.is_output},
          static_cast<int>(catalog.nodes_.size()));
      if (added) {
        for (int i = 0; i < catalog.input_count_; ++i) {
          node.dh.push_back(node.h.boolean_difference(i));
          node.dg.push_back(node.g.boolean_difference(i));
        }
        catalog.nodes_.push_back(std::move(node));
      }
      entry.nodes.push_back(it->second);
    }
    verify(entry, catalog.nodes_, catalog.input_count_);
    catalog.configs_.push_back(std::move(entry));
  }
  return catalog;
}

PinDelayTable::PinDelayTable(const ReorderCatalog& catalog, const Tech& tech,
                             double load)
    : width_(static_cast<std::size_t>(catalog.input_count())),
      delays_(width_ * catalog.configs().size()) {
  for (std::size_t c = 0; c < catalog.configs().size(); ++c) {
    const CatalogConfig& entry = catalog.configs()[c];
    double* row = delays_.data() + c * width_;
    if (static_cast<std::size_t>(entry.representative) == c) {
      const GateGraph graph(entry.topology);
      const delay::GateDelays delays = delay::gate_delays(
          graph, node_capacitances(graph, tech, load), tech);
      std::copy(delays.pin_delay.begin(), delays.pin_delay.end(), row);
      continue;
    }
    // The representative precedes its derived configurations, so its row
    // is already filled.
    const double* rep_row =
        delays_.data() +
        static_cast<std::size_t>(entry.representative) * width_;
    const std::span<const int> perm = catalog.var_perm(static_cast<int>(c));
    for (std::size_t p = 0; p < width_; ++p) {
      row[static_cast<std::size_t>(perm[p])] = rep_row[p];
    }
  }
}

const PinDelayTable& ReorderCatalog::pin_delays(const Tech& tech,
                                                double load) const {
  static_assert(sizeof(Tech) == 6 * sizeof(double),
                "every Tech field must be part of the pin-delay memo key");
  const std::array<std::uint64_t, 7> key = {
      std::bit_cast<std::uint64_t>(tech.vdd),
      std::bit_cast<std::uint64_t>(tech.c_diff),
      std::bit_cast<std::uint64_t>(tech.c_gate),
      std::bit_cast<std::uint64_t>(tech.c_wire),
      std::bit_cast<std::uint64_t>(tech.r_n),
      std::bit_cast<std::uint64_t>(tech.r_p),
      std::bit_cast<std::uint64_t>(load)};
  const std::lock_guard<std::mutex> lock(delay_memo_->mutex);
  std::unique_ptr<const PinDelayTable>& table = delay_memo_->tables[key];
  if (!table) table = std::make_unique<const PinDelayTable>(*this, tech, load);
  return *table;
}

}  // namespace tr::celllib
