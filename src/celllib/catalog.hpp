#pragma once
// Per-cell reordering catalogs: the one-time characterisation that powers
// the configuration-scoring engine (DESIGN.md Sec. 7.1).
//
// A catalog enumerates every reordering of a starting configuration (in
// GateTopology::all_reorderings order, starting configuration first) and
// precomputes, for every node of every configuration, the data the power
// model needs: terminal count (diffusion capacitance is proportional),
// the H/G path functions, and their boolean differences per input. Only
// one representative per layout-instance group is characterised with a
// GateGraph path DFS; all other configurations derive their tables by
// word-parallel variable permutation through a ConfigIsomorphism — the
// configurations of a cell are input-permutations of their instance
// representative (paper Sec. 5.1), so no graph is ever rebuilt per
// candidate.
//
// The same permutation symmetry makes the per-node data repeat across
// configurations (aoi222: 288 configuration nodes, 13 distinct), so a
// catalog keeps one pool of distinct nodes, keyed by (H, G, terminal
// count, is-output), and each configuration lists pool indices. A node's
// model power is a pure function of that key, the input statistics and
// the load, so the scorer evaluates each pool node once per gate and
// gathers the sums per configuration (opt::score_catalog).
//
// Catalogs contain no technology constants and no input statistics, so
// one catalog serves every gate of a netlist that instantiates the same
// cell in the same configuration; CellLibrary caches them by the
// topology's STORED structural form (not the canonical key: enumeration
// order walks the stored tree, and tie-break parity with the reference
// engine requires equal enumeration orders — see stored_key() in
// library.cpp). CellLibrary::catalog_slot finds any configuration of a
// cached catalog by that form, for the readers of a committed netlist.
//
// A catalog also carries the library-wide pin-delay memo: one
// PinDelayTable per (technology, external load), shared by every reader
// that holds the catalog and dropped with it. The same symmetry fills a
// table: only instance representatives get a GateGraph delay walk, every
// other row is its representative's row with the pins permuted.

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "boolfn/truth_table.hpp"
#include "celllib/tech.hpp"
#include "gategraph/gate_topology.hpp"
#include "util/error.hpp"

namespace tr::celllib {

class ReorderCatalog;

/// Precomputed model inputs for one distinct node of a catalog.
struct CatalogNode {
  int terminal_count = 0;  ///< diffusion terminals (C = c_diff * count)
  bool is_output = false;  ///< the gate output (adds the external load)
  boolfn::TruthTable h;    ///< paths to vdd
  boolfn::TruthTable g;    ///< paths to vss
  std::vector<boolfn::TruthTable> dh;  ///< dH/dx_i per gate input i
  std::vector<boolfn::TruthTable> dg;  ///< dG/dx_i per gate input i
};

/// One reordering of the cell, fully characterised.
struct CatalogConfig {
  explicit CatalogConfig(gategraph::GateTopology t)
      : topology(std::move(t)) {}

  gategraph::GateTopology topology;
  /// True when this configuration is realisable by the same sea-of-gates
  /// layout instance as the catalog's starting configuration (equal
  /// instance keys) — precomputed for OptimizeOptions::restrict_to_instance.
  bool same_instance_as_first = true;
  /// Index of the instance representative this configuration was derived
  /// from (its own index when characterised); never above its own index.
  int representative = 0;
  /// Pool indices (ReorderCatalog::nodes()) of the internal nodes in
  /// ascending GateGraph id order, then the output node last — the exact
  /// node order evaluate_gate_power sums in.
  std::vector<int> nodes;
};

/// Pin-to-output delays of every configuration of one catalog under one
/// technology and external load: one flat row of input_count() values
/// per configuration, all filled by the constructor and immutable after.
/// A representative's row comes from delay::gate_delays on its GateGraph;
/// a derived configuration's row is its representative's row permuted by
/// ReorderCatalog::var_perm, which is bit-identical to the graph walk
/// (corresponding nodes have equal capacitances and path positions).
class PinDelayTable {
public:
  PinDelayTable(const ReorderCatalog& catalog, const Tech& tech, double load);

  /// Worst Elmore delay per input pin of configuration `config` [s],
  /// bit-identical to delay::gate_delays on that configuration's graph.
  std::span<const double> pins(int config) const {
    const auto row = static_cast<std::size_t>(config);
    TR_ASSERT((row + 1) * width_ <= delays_.size());
    return std::span<const double>(delays_).subspan(row * width_, width_);
  }

private:
  std::size_t width_;           ///< values per row: the catalog's input count
  std::vector<double> delays_;  ///< row-major, one row per configuration
};

class ReorderCatalog {
public:
  /// Characterises the full reordering space reachable from `start`.
  static ReorderCatalog build(const gategraph::GateTopology& start);

  int input_count() const noexcept { return input_count_; }
  int internal_node_count() const noexcept { return internal_node_count_; }
  /// Configurations in GateTopology::all_reorderings enumeration order;
  /// configs()[0] is the starting configuration.
  const std::vector<CatalogConfig>& configs() const noexcept {
    return configs_;
  }
  /// Instance representatives characterised by graph DFS; the remaining
  /// configs().size() - characterized_instances() entries were derived by
  /// variable permutation.
  int characterized_instances() const noexcept { return characterized_; }
  /// ConfigIsomorphism::var_perm from configuration `config`'s
  /// representative onto it: pin p of the representative is pin
  /// var_perm(config)[p] of the configuration (identity for a
  /// representative).
  std::span<const int> var_perm(int config) const {
    return std::span<const int>(var_perm_).subspan(
        static_cast<std::size_t>(config) *
            static_cast<std::size_t>(input_count_),
        static_cast<std::size_t>(input_count_));
  }
  /// The distinct nodes of all configurations, in first-seen order.
  const std::vector<CatalogNode>& nodes() const noexcept { return nodes_; }

  /// The pin-delay memo of (tech, load), created on first request and
  /// kept for this catalog's lifetime. Thread-safe.
  const PinDelayTable& pin_delays(const Tech& tech, double load) const;

private:
  ReorderCatalog() = default;

  /// Pin-delay tables keyed by the bit patterns of every Tech field and
  /// the load, so two technologies never share a row.
  struct DelayMemo {
    std::mutex mutex;
    std::map<std::array<std::uint64_t, 7>,
             std::unique_ptr<const PinDelayTable>>
        tables;
  };

  int input_count_ = 0;
  int internal_node_count_ = 0;
  int characterized_ = 0;
  std::vector<CatalogConfig> configs_;
  std::vector<int> var_perm_;  ///< input_count() ints per configuration
  std::vector<CatalogNode> nodes_;
  std::unique_ptr<DelayMemo> delay_memo_ = std::make_unique<DelayMemo>();
};

}  // namespace tr::celllib
