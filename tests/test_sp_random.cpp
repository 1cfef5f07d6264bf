// Randomised property tests over arbitrary series-parallel gate
// topologies (not just library shapes): complementarity, path-function
// invariants, enumeration-vs-oracle equality, encode/parse round trips
// and model consistency must hold for *every* SP gate, not only Table 2.

#include <gtest/gtest.h>

#include <set>

#include "boolfn/signal.hpp"
#include "celllib/cell.hpp"
#include "gategraph/gate_graph.hpp"
#include "gategraph/sp_parse.hpp"
#include "oracle/reference_oracle.hpp"
#include "power/gate_power.hpp"
#include "random_sp_tree.hpp"
#include "util/rng.hpp"

namespace tr::gategraph {
namespace {

using testutil::random_sp_tree;

class RandomTopology : public ::testing::TestWithParam<int> {};

TEST_P(RandomTopology, InvariantsHold) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 2 + static_cast<int>(rng.next_below(5));
    std::vector<int> inputs;
    for (int i = 0; i < n; ++i) inputs.push_back(i);
    const SpNode pulldown = random_sp_tree(inputs, rng);
    const GateTopology gate = GateTopology::from_pulldown(pulldown, n);

    // 1. Output function is the complement of the pull-down conduction.
    const auto fn = gate.output_function();
    EXPECT_EQ(fn, ~conduction_function(gate.nmos(), DeviceType::nmos, n));

    // 2. encode/parse round trip for both networks.
    EXPECT_EQ(encode(parse_sp_tree(encode(gate.nmos()))), encode(gate.nmos()));
    EXPECT_EQ(encode(parse_sp_tree(encode(gate.pmos()))), encode(gate.pmos()));

    // 3. Pivoting is an involution that preserves the function.
    for (int gap = 0; gap < gate.internal_node_count(); ++gap) {
      const GateTopology pivoted = gate.pivoted(gap);
      EXPECT_EQ(pivoted.output_function(), fn);
      EXPECT_EQ(pivoted.pivoted(gap).canonical_key(), gate.canonical_key());
    }

    // 4. Enumeration equals the oracle (skip huge spaces to stay fast).
    if (gate.reordering_count_formula() <= 160) {
      std::set<std::string> pivot_keys, brute_keys;
      for (const auto& c : gate.all_reorderings()) {
        EXPECT_TRUE(pivot_keys.insert(c.canonical_key()).second);
        EXPECT_EQ(c.output_function(), fn);
      }
      for (const auto& c : oracle::all_reorderings_brute(gate)) {
        brute_keys.insert(c.canonical_key());
      }
      EXPECT_EQ(pivot_keys, brute_keys);
      EXPECT_EQ(pivot_keys.size(), gate.reordering_count_formula());
    }

    // 5. Graph-level invariants: H_y == fn, H & G == 0 everywhere,
    //    terminal counts sum to twice the transistor count.
    const GateGraph graph(gate);
    EXPECT_EQ(graph.h_function(GateGraph::output_node), fn);
    int terminal_sum = 0;
    for (int c : graph.terminal_counts()) terminal_sum += c;
    EXPECT_EQ(terminal_sum, 2 * gate.transistor_count());
    for (int node = GateGraph::output_node; node < graph.node_count();
         ++node) {
      EXPECT_TRUE((graph.h_function(node) & graph.g_function(node)).is_zero())
          << graph.node_name(node);
    }

    // 6. Model consistency: the extended model's output density equals
    //    Najm's density for random input statistics.
    std::vector<boolfn::SignalStats> stats;
    for (int i = 0; i < n; ++i) {
      stats.push_back({rng.next_double(), rng.uniform(0.0, 1e6)});
    }
    const celllib::Tech tech;
    const auto caps = celllib::node_capacitances(graph, tech, 10e-15);
    const auto gp = power::evaluate_gate_power(graph, caps, stats, tech);
    const double najm = boolfn::output_density(fn, stats);
    EXPECT_NEAR(gp.output.density, najm, 1e-6 * std::max(1.0, najm));
    EXPECT_GE(gp.total_power, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTopology, ::testing::Range(1, 13));

TEST(RandomTopology, DeepNestedShape) {
  // A hand-built 8-transistor nested shape exercising series-in-parallel-
  // in-series nesting beyond any library cell.
  const SpNode pd = SpNode::series(
      {SpNode::parallel(
           {SpNode::series({SpNode::transistor(0),
                            SpNode::parallel({SpNode::transistor(1),
                                              SpNode::transistor(2)})}),
            SpNode::transistor(3)}),
       SpNode::transistor(4)});
  const GateTopology gate = GateTopology::from_pulldown(pd, 5);
  // ordering_count: inner series (t0, par) = 2! = 2; outer parallel = 2;
  // outer series = 2! * 2 = ... verify against the oracle instead.
  const auto all = gate.all_reorderings();
  std::set<std::string> keys;
  for (const auto& c : all) keys.insert(c.canonical_key());
  std::set<std::string> brute;
  for (const auto& c : oracle::all_reorderings_brute(gate)) {
    brute.insert(c.canonical_key());
  }
  EXPECT_EQ(keys, brute);
  EXPECT_EQ(keys.size(), gate.reordering_count_formula());
  EXPECT_EQ(all.size(), keys.size());
}

}  // namespace
}  // namespace tr::gategraph
