#pragma once
// A GateTopology is one concrete transistor-level configuration of a
// static CMOS gate: an ordered pull-down (NMOS) SP tree plus an ordered
// pull-up (PMOS) SP tree over the same inputs. Reordering transistors
// (the paper's subject) = changing series child orders in either tree;
// the logic function never changes, only the internal nodes' exposure.
//
// The pull-up tree of a freshly built gate is the dual of the pull-down
// tree, but the two are reordered independently afterwards, so both are
// stored.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gategraph/sp_tree.hpp"

namespace tr::gategraph {

class GateTopology {
public:
  /// Builds the canonical configuration of a gate from its pull-down
  /// network. The output function is the complement of the pull-down
  /// conduction function; the pull-up network is the dual tree.
  static GateTopology from_pulldown(SpNode nmos, int input_count);

  /// Builds from explicit pull-down and pull-up trees (used by pivoting).
  /// Validates that the networks are complementary.
  GateTopology(SpNode nmos, SpNode pmos, int input_count);

  const SpNode& nmos() const noexcept { return nmos_; }
  const SpNode& pmos() const noexcept { return pmos_; }
  int input_count() const noexcept { return input_count_; }

  /// Total transistors (2q in the paper's notation).
  int transistor_count() const;

  /// Internal nodes materialised by series gaps in both trees. This is
  /// the pivot index space of the paper's Fig. 4 algorithm: indices
  /// 0 .. internal_node_count()-1 first cover the pull-down tree's gaps in
  /// pre-order, then the pull-up tree's.
  int internal_node_count() const;

  /// Gate output logic function y = NOT(pull-down conduction).
  boolfn::TruthTable output_function() const;

  /// PIVOTING_ON_INTERNAL_NODE (paper Fig. 4): returns the configuration
  /// with the two series sub-networks adjacent to internal node
  /// `gap_index` transposed. Pivoting is an involution.
  GateTopology pivoted(int gap_index) const;

  /// Canonical configuration key: series order significant, parallel
  /// order canonicalised. Equal keys == same electrical configuration.
  std::string canonical_key() const;

  /// Layout-instance key: configurations with equal instance keys are
  /// input-permutations of each other and can be realised by the same
  /// sea-of-gates layout instance (paper Sec. 5.1).
  std::string instance_key() const;

  /// All distinct reorderings via the paper's recursive pivot exploration
  /// (Fig. 4). Includes this configuration itself. Deterministic order:
  /// discovery order with this configuration first.
  std::vector<GateTopology> all_reorderings() const;

  /// Closed-form count of distinct reorderings (Table 2's #C column):
  /// product over both trees of (k! per series node x child products).
  std::uint64_t reordering_count_formula() const;

  bool operator==(const GateTopology& rhs) const {
    return canonical_key() == rhs.canonical_key();
  }

private:
  SpNode nmos_;
  SpNode pmos_;
  int input_count_ = 0;
};

/// Groups configurations by layout instance key. The map is ordered so
/// iteration is deterministic; the vectors preserve input order.
std::map<std::string, std::vector<GateTopology>> group_by_instance(
    const std::vector<GateTopology>& configs);

}  // namespace tr::gategraph
