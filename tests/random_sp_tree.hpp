#pragma once
// Shared test helpers: random series-parallel pull-down trees over a
// fixed input set — plus random cell libraries and multilevel netlists
// built from them — used by the randomized property suites
// (test_sp_random, test_catalog, test_opt_parity, test_sim_properties,
// test_sim_differential) so they all sample the same topology space.
// Every input index appears on exactly one leaf, mirroring real gate
// topologies.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "celllib/cell.hpp"
#include "celllib/library.hpp"
#include "gategraph/sp_tree.hpp"
#include "netlist/netlist.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace tr::testutil {

/// Recursive composition: shuffles the inputs, splits them into
/// 2..max_groups groups and combines the recursively built children with
/// a random series/parallel node. (SpNode::series/parallel flatten
/// same-kind children, so the resulting shape may have fewer levels than
/// the recursion — that is fine.)
inline gategraph::SpNode random_sp_tree(std::vector<int> inputs, Rng& rng,
                                        int max_groups = 4) {
  using gategraph::SpNode;
  if (inputs.size() == 1) return SpNode::transistor(inputs[0]);
  const std::size_t groups =
      2 + rng.next_below(std::min<std::uint64_t>(
              static_cast<std::uint64_t>(max_groups - 1), inputs.size() - 1));
  rng.shuffle(inputs.begin(), inputs.end());
  std::vector<std::vector<int>> parts(groups);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    parts[i % groups].push_back(inputs[i]);
  }
  std::vector<SpNode> children;
  children.reserve(parts.size());
  for (auto& part : parts) {
    children.push_back(random_sp_tree(std::move(part), rng, max_groups));
  }
  const bool series = rng.bernoulli(0.5);
  return series ? SpNode::series(std::move(children))
                : SpNode::parallel(std::move(children));
}

/// A library of random series-parallel cells with 2..5 inputs each.
inline celllib::CellLibrary random_sp_library(Rng& rng, int cell_count) {
  celllib::CellLibrary lib;
  for (int c = 0; c < cell_count; ++c) {
    const int n = 2 + static_cast<int>(rng.next_below(4));
    std::vector<int> inputs;
    std::vector<std::string> pins;
    for (int i = 0; i < n; ++i) {
      inputs.push_back(i);
      pins.push_back(numbered("p", i));
    }
    lib.add(celllib::Cell(numbered("sp", c), std::move(pins),
                          random_sp_tree(std::move(inputs), rng)));
  }
  return lib;
}

/// A small multilevel netlist over the random cells: every gate draws
/// distinct input nets from the pool of PIs and earlier outputs.
inline netlist::Netlist random_sp_netlist(const celllib::CellLibrary& lib,
                                          Rng& rng, int gates) {
  netlist::Netlist nl(lib, "sp_rand");
  std::vector<netlist::NetId> pool;
  for (int i = 0; i < 6; ++i) {
    const netlist::NetId id = nl.add_net(numbered("x", i));
    nl.mark_primary_input(id);
    pool.push_back(id);
  }
  const std::vector<std::string> cells = lib.cell_names();
  for (int g = 0; g < gates; ++g) {
    const std::string& cell =
        cells[rng.next_below(static_cast<std::uint64_t>(cells.size()))];
    const int arity = lib.cell(cell).input_count();
    rng.shuffle(pool.begin(), pool.end());
    std::vector<netlist::NetId> inputs(pool.begin(), pool.begin() + arity);
    const netlist::NetId out = nl.add_net(numbered("t", g));
    nl.add_gate(numbered("g", g), cell, std::move(inputs), out);
    pool.push_back(out);
  }
  for (netlist::NetId id = 0; id < nl.net_count(); ++id) {
    if (nl.net(id).fanouts.empty() && !nl.net(id).is_primary_input) {
      nl.mark_primary_output(id);
    }
  }
  nl.validate();
  return nl;
}

}  // namespace tr::testutil
