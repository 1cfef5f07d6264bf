// Tests for the mapped netlist container: construction rules, topological
// order, loads, validation and logic evaluation.

#include <gtest/gtest.h>

#include <string>

#include "celllib/library.hpp"
#include "netlist/netlist.hpp"
#include "util/error.hpp"

namespace tr::netlist {
namespace {

using celllib::CellLibrary;

CellLibrary& lib() {
  static CellLibrary instance = CellLibrary::standard();
  return instance;
}

Netlist small_circuit() {
  // y = nand2(a, inv(b))
  Netlist nl(lib(), "small");
  const NetId a = nl.add_net("a");
  const NetId b = nl.add_net("b");
  nl.mark_primary_input(a);
  nl.mark_primary_input(b);
  const NetId nb = nl.add_net("nb");
  const NetId y = nl.add_net("y");
  nl.add_gate("u1", "inv", {b}, nb);
  nl.add_gate("u2", "nand2", {a, nb}, y);
  nl.mark_primary_output(y);
  return nl;
}

TEST(Netlist, BasicConstruction) {
  const Netlist nl = small_circuit();
  EXPECT_EQ(nl.net_count(), 4);
  EXPECT_EQ(nl.gate_count(), 2);
  EXPECT_EQ(nl.primary_inputs().size(), 2u);
  EXPECT_EQ(nl.primary_outputs().size(), 1u);
  EXPECT_NO_THROW(nl.validate());
  EXPECT_EQ(nl.find_net("nb"), 2);
  EXPECT_EQ(nl.find_net("zz"), -1);
}

TEST(Netlist, DuplicateNetRejected) {
  Netlist nl(lib(), "t");
  nl.add_net("a");
  EXPECT_THROW(nl.add_net("a"), Error);
  EXPECT_THROW(nl.add_net(""), Error);
  EXPECT_EQ(nl.ensure_net("a"), 0);
}

TEST(Netlist, DoubleDriverRejected) {
  Netlist nl(lib(), "t");
  const NetId a = nl.add_net("a");
  nl.mark_primary_input(a);
  const NetId y = nl.add_net("y");
  nl.add_gate("u1", "inv", {a}, y);
  EXPECT_THROW(nl.add_gate("u2", "inv", {a}, y), Error);
  // PI nets cannot be driven either.
  EXPECT_THROW(nl.add_gate("u3", "inv", {y}, a), Error);
}

TEST(Netlist, ArityMismatchRejected) {
  Netlist nl(lib(), "t");
  const NetId a = nl.add_net("a");
  nl.mark_primary_input(a);
  const NetId y = nl.add_net("y");
  EXPECT_THROW(nl.add_gate("u1", "nand2", {a}, y), Error);
  EXPECT_THROW(nl.add_gate("u1", "mystery", {a}, y), Error);
}

TEST(Netlist, SelfLoopRejected) {
  Netlist nl(lib(), "t");
  const NetId y = nl.add_net("y");
  EXPECT_THROW(nl.add_gate("u1", "inv", {y}, y), Error);
}

TEST(Netlist, TopologicalOrderRespectsFanin) {
  const Netlist nl = small_circuit();
  const auto order = nl.topological_order();
  ASSERT_EQ(order.size(), 2u);
  // u1 (inv) drives u2's pin, so u1 must come first.
  EXPECT_EQ(nl.gate(order[0]).name, "u1");
  EXPECT_EQ(nl.gate(order[1]).name, "u2");
}

TEST(Netlist, CycleDetected) {
  Netlist nl(lib(), "t");
  const NetId a = nl.add_net("a");
  nl.mark_primary_input(a);
  const NetId x = nl.add_net("x");
  const NetId y = nl.add_net("y");
  nl.add_gate("u1", "nand2", {a, y}, x);
  nl.add_gate("u2", "inv", {x}, y);
  nl.mark_primary_output(y);
  EXPECT_THROW(nl.topological_order(), Error);
  EXPECT_THROW(nl.validate(), Error);
}

TEST(Netlist, UndrivenNetFailsValidation) {
  Netlist nl(lib(), "t");
  const NetId a = nl.add_net("a");  // never marked PI, never driven
  const NetId y = nl.add_net("y");
  nl.add_gate("u1", "inv", {a}, y);
  nl.mark_primary_output(y);
  EXPECT_THROW(nl.validate(), Error);
}

TEST(Netlist, ExternalLoadSumsFanoutPins) {
  const Netlist nl = small_circuit();
  const celllib::Tech tech = celllib::default_tech();
  // u1's output nb feeds one nand2 pin.
  const double load_u1 = nl.external_load(0, tech);
  EXPECT_DOUBLE_EQ(load_u1, tech.c_wire + 2.0 * tech.c_gate);
  // u2's output y is a PO with no fanouts: wire + PO pad wire.
  const double load_u2 = nl.external_load(1, tech);
  EXPECT_DOUBLE_EQ(load_u2, 2.0 * tech.c_wire);
}

TEST(Netlist, EvaluateComputesLogic) {
  const Netlist nl = small_circuit();
  // y = !(a & !b)
  EXPECT_EQ(nl.evaluate({false, false}), std::vector<bool>{true});
  EXPECT_EQ(nl.evaluate({true, false}), std::vector<bool>{false});
  EXPECT_EQ(nl.evaluate({true, true}), std::vector<bool>{true});
  EXPECT_EQ(nl.evaluate({false, true}), std::vector<bool>{true});
}

TEST(Netlist, SetConfigPreservesFunction) {
  Netlist nl = small_circuit();
  const auto& inst = nl.gate(1);  // the nand2
  const auto configs = inst.config.all_reorderings();
  ASSERT_EQ(configs.size(), 2u);
  EXPECT_NO_THROW(nl.set_config(1, configs[1]));
  // A different cell's topology changes the function: rejected, naming
  // the instance, and the committed configuration stays in place.
  try {
    nl.set_config(1, lib().cell("nor2").topology());
    FAIL() << "expected tr::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::invalid_argument);
    EXPECT_NE(std::string(e.what()).find("'" + inst.name + "'"),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(nl.gate(1).config == configs[1]);
  // Reverting to the cell's own topology is function-preserving.
  EXPECT_NO_THROW(nl.set_config(1, lib().cell("nand2").topology()));
}

TEST(Netlist, FanoutBookkeeping) {
  const Netlist nl = small_circuit();
  const Net& b = nl.net(nl.find_net("b"));
  ASSERT_EQ(b.fanouts.size(), 1u);
  EXPECT_EQ(b.fanouts[0].first, 0);
  EXPECT_EQ(b.fanouts[0].second, 0);
  const Net& nb = nl.net(nl.find_net("nb"));
  ASSERT_EQ(nb.fanouts.size(), 1u);
  EXPECT_EQ(nb.fanouts[0].first, 1);
  EXPECT_EQ(nb.fanouts[0].second, 1);  // pin b of the nand2
}

}  // namespace
}  // namespace tr::netlist
