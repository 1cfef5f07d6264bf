#pragma once
// The benchmark suite registry: the Table 3 suite and the scaled tier.
//
// The paper reports 39 MCNC circuits (24-540 gates). The original
// netlists are not redistributable, so each entry here is a synthetic
// stand-in: a deterministic random multilevel circuit with the same gate
// count, named after the MCNC circuit it substitutes (DESIGN.md Sec. 4.1).
// Sizes follow the G column of Table 3 as far as it is legible. Both
// tiers are materialised by random_circuit; find_suite_entry is the one
// name lookup over them (tr_opt's circuit loader uses it too).

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace tr::benchgen {

/// One suite entry.
struct BenchmarkSpec {
  std::string name;  ///< MCNC circuit this stands in for
  int gates = 0;     ///< Table 3 G column
  int primary_inputs = 0;
  std::uint64_t seed = 0;  ///< derived from the name, stable across runs
};

/// The 39-circuit suite in Table 3 order (by gate count).
const std::vector<BenchmarkSpec>& table3_suite();

/// The scaled synthetic tier: multi-thousand-gate random multilevel
/// circuits (syn1000 … syn8000, ~15k gates total) that exercise the
/// batch-optimization path well beyond the paper-sized suite. Same
/// generator and seed derivation as table3_suite, larger sizes and
/// uncapped PI counts.
const std::vector<BenchmarkSpec>& scaled_suite();

/// Looks a spec up by name across table3_suite and scaled_suite;
/// nullptr when absent.
const BenchmarkSpec* find_suite_entry(const std::string& name);

/// Same lookup; throws tr::Error when absent.
const BenchmarkSpec& suite_entry(const std::string& name);

/// Materialises a suite entry as a mapped netlist.
netlist::Netlist build_benchmark(const celllib::CellLibrary& library,
                                 const BenchmarkSpec& spec);

}  // namespace tr::benchgen
