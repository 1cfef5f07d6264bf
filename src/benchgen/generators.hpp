#pragma once
// Circuit generators for the benchmark suite.
//
// The paper evaluates on MCNC netlists, which are not redistributable
// here; DESIGN.md Sec. 4.1 documents the substitution: structured
// generators (adders — the paper's own Sec. 1.1 motivation —, parity and
// mux trees) plus a seeded random multilevel generator that reproduces
// the suite's cell mix and size distribution. Everything is
// deterministic in the seed.

#include <cstdint>

#include "netlist/netlist.hpp"

namespace tr::benchgen {

/// n-bit ripple-carry adder built from the Table 2 library
/// (6 gates per full adder: nor3/nand3/nand2/oai21/nand2/oai21).
/// Inputs a0..a{n-1}, b0..b{n-1}, cin; outputs s0..s{n-1}, cout.
/// This is the paper's Sec. 1.1 motivating workload: the carry chain
/// accumulates transition density that equilibrium probabilities alone
/// cannot see.
netlist::Netlist ripple_carry_adder(const celllib::CellLibrary& library,
                                    int bits);

/// n-input parity tree (XOR as aoi21 + nor2 pairs).
netlist::Netlist parity_tree(const celllib::CellLibrary& library, int inputs);

/// 2^k-to-1 multiplexer tree (mux cell = aoi22 + inverters).
netlist::Netlist mux_tree(const celllib::CellLibrary& library,
                          int select_bits);

/// Specification of a random multilevel circuit.
struct RandomCircuitSpec {
  std::string name = "random";
  int target_gates = 100;
  int primary_inputs = 16;
  std::uint64_t seed = 1;
};

/// Random mapped circuit: gates drawn from a realistic cell mix, inputs
/// biased towards recently created nets (depth), every sink net becomes a
/// primary output. Deterministic in the seed.
netlist::Netlist random_circuit(const celllib::CellLibrary& library,
                                const RandomCircuitSpec& spec);

}  // namespace tr::benchgen
