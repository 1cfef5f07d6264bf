// Round-trip fuzz over seeded random multilevel netlists (ISSUE 4): for
// every generated circuit, the mapped-BLIF and structural-Verilog
// writers must reach a fixed point under write -> read -> write, the
// reparsed netlist must be structurally and logically identical, and
// activity files must preserve the statistics they carry.
//
// The same source builds two binaries: the default small tier (tier1
// label) and, with TR_FUZZ_LARGE defined, a multi-thousand-gate tier
// (test_fuzz_roundtrip_slow, `slow` label) that exercises the writers at
// batch scale.

#include <gtest/gtest.h>

#include <sstream>

#include "benchgen/generators.hpp"
#include "celllib/library.hpp"
#include "netlist/activity_io.hpp"
#include "netlist/blif.hpp"
#include "netlist/verilog.hpp"
#include "opt/scenario.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace tr::netlist {
namespace {

using celllib::CellLibrary;

CellLibrary& lib() {
  static CellLibrary instance = CellLibrary::standard();
  return instance;
}

struct FuzzCase {
  int gates;
  int primary_inputs;
  std::uint64_t seed;
};

std::vector<FuzzCase> fuzz_cases() {
  std::vector<FuzzCase> cases;
#ifdef TR_FUZZ_LARGE
  const int sizes[] = {1500, 3000};
  const int seeds_per_size = 2;
#else
  const int sizes[] = {10, 40, 120};
  const int seeds_per_size = 5;
#endif
  for (const int gates : sizes) {
    for (int s = 0; s < seeds_per_size; ++s) {
      FuzzCase c;
      c.gates = gates;
      c.primary_inputs = 4 + gates / 8 % 40 + s;
      c.seed = 0x5eedULL * static_cast<std::uint64_t>(gates) +
               static_cast<std::uint64_t>(s);
      cases.push_back(c);
    }
  }
  return cases;
}

Netlist make_circuit(const FuzzCase& c) {
  benchgen::RandomCircuitSpec spec;
  spec.name =
      numbered("fuzz_g", c.gates) + numbered("_s", c.seed & 0xff);
  spec.target_gates = c.gates;
  spec.primary_inputs = c.primary_inputs;
  spec.seed = c.seed;
  return benchgen::random_circuit(lib(), spec);
}

/// Structural + logical equality. BLIF .gate lines do not carry instance
/// names (the reader resynthesises them), so `compare_instance_names`
/// is off for the BLIF round trip and on for Verilog.
void expect_same_structure(const Netlist& a, const Netlist& b,
                           bool compare_instance_names, std::uint64_t seed) {
  auto names = [&](const std::vector<NetId>& ids, const Netlist& nl) {
    std::vector<std::string> out;
    for (NetId id : ids) out.push_back(nl.net(id).name);
    return out;
  };
  EXPECT_EQ(a.name(), b.name());
  EXPECT_EQ(names(a.primary_inputs(), a), names(b.primary_inputs(), b));
  EXPECT_EQ(names(a.primary_outputs(), a), names(b.primary_outputs(), b));
  ASSERT_EQ(a.gate_count(), b.gate_count());
  for (GateId g = 0; g < a.gate_count(); ++g) {
    const GateInst& ga = a.gate(g);
    const GateInst& gb = b.gate(g);
    if (compare_instance_names) {
      EXPECT_EQ(ga.name, gb.name);
    }
    EXPECT_EQ(ga.cell, gb.cell);
    EXPECT_EQ(a.net(ga.output).name, b.net(gb.output).name);
    ASSERT_EQ(ga.inputs.size(), gb.inputs.size());
    for (std::size_t pin = 0; pin < ga.inputs.size(); ++pin) {
      EXPECT_EQ(a.net(ga.inputs[pin]).name, b.net(gb.inputs[pin]).name)
          << "gate " << g << " pin " << pin;
    }
  }
  Rng rng(seed);
  const std::size_t pis = a.primary_inputs().size();
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<bool> vec;
    for (std::size_t i = 0; i < pis; ++i) vec.push_back(rng.bernoulli(0.5));
    EXPECT_EQ(a.evaluate(vec), b.evaluate(vec));
  }
}

class FuzzRoundtrip : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(FuzzRoundtrip, BlifFixedPoint) {
  const Netlist original = make_circuit(GetParam());

  std::ostringstream first;
  write_blif(original, first);
  const Netlist reparsed =
      read_blif_mapped_string(first.str(), lib(), "fuzz-blif");
  std::ostringstream second;
  write_blif(reparsed, second);

  EXPECT_EQ(first.str(), second.str()) << "BLIF write->read->write moved";
  expect_same_structure(original, reparsed, /*compare_instance_names=*/false,
                        GetParam().seed ^ 0xb11f);
}

TEST_P(FuzzRoundtrip, VerilogFixedPoint) {
  const Netlist original = make_circuit(GetParam());

  std::ostringstream first;
  write_verilog(original, first);
  std::istringstream in(first.str());
  const Netlist reparsed = read_verilog(lib(), in, "fuzz-verilog");
  std::ostringstream second;
  write_verilog(reparsed, second);

  EXPECT_EQ(first.str(), second.str()) << "Verilog write->read->write moved";
  expect_same_structure(original, reparsed, /*compare_instance_names=*/true,
                        GetParam().seed ^ 0x7e12);
}

TEST_P(FuzzRoundtrip, ActivityPreserved) {
  const Netlist nl = make_circuit(GetParam());
  const auto original = opt::scenario_a(nl, GetParam().seed ^ 0xac7);

  std::vector<boolfn::SignalStats> net_stats(
      static_cast<std::size_t>(nl.net_count()));
  for (const auto& [id, s] : original) {
    net_stats[static_cast<std::size_t>(id)] = s;
  }
  std::ostringstream first;
  write_activity(nl, net_stats, first);

  std::istringstream in(first.str());
  const auto reloaded = read_activity(nl, in);
  ASSERT_EQ(reloaded.size(), original.size());
  for (const auto& [id, s] : original) {
    ASSERT_TRUE(reloaded.contains(id));
    // The writer rounds to 6 fractional digits (probability) / 3
    // (density); the reparse must stay within that quantisation.
    EXPECT_NEAR(reloaded.at(id).prob, s.prob, 5e-7);
    EXPECT_NEAR(reloaded.at(id).density, s.density, 5e-4);
  }

  // And the text itself reaches a fixed point: re-serialising the
  // reloaded statistics reproduces the file byte for byte.
  std::vector<boolfn::SignalStats> reloaded_stats(
      static_cast<std::size_t>(nl.net_count()));
  for (const auto& [id, s] : reloaded) {
    reloaded_stats[static_cast<std::size_t>(id)] = s;
  }
  std::ostringstream second;
  write_activity(nl, reloaded_stats, second);
  EXPECT_EQ(first.str(), second.str()) << "activity write->read->write moved";
}

INSTANTIATE_TEST_SUITE_P(
    Seeded, FuzzRoundtrip, ::testing::ValuesIn(fuzz_cases()),
    [](const ::testing::TestParamInfo<FuzzCase>& info) {
      return numbered("g", info.param.gates) +
             numbered("_i", info.param.primary_inputs) +
             numbered("_s", info.param.seed & 0xffff);
    });

}  // namespace
}  // namespace tr::netlist
