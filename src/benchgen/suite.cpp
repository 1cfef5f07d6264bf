#include "benchgen/suite.hpp"

#include <cmath>

#include "benchgen/generators.hpp"
#include "util/error.hpp"

namespace tr::benchgen {

namespace {

/// FNV-1a so suite seeds never change across platforms or releases.
std::uint64_t stable_hash(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

int derive_inputs(int gates) {
  // MCNC-suite-like PI counts: tens of inputs for hundreds of gates.
  const int pi = static_cast<int>(std::lround(1.6 * std::sqrt(gates)));
  return std::max(5, std::min(pi, 48));
}

std::vector<BenchmarkSpec> make_suite() {
  // Names: 39 MCNC combinational circuits commonly used in 1995/96 DATE
  // papers. Gate counts follow the legible entries of Table 3's G column.
  const std::pair<const char*, int> entries[] = {
      {"b1", 24},       {"cm82a", 41},   {"cm42a", 43},   {"majority", 45},
      {"cm138a", 47},   {"cm151a", 49},  {"cm152a", 50},  {"decod", 55},
      {"tcon", 60},     {"cm163a", 62},  {"cm162a", 64},  {"cu", 64},
      {"pm1", 67},      {"x2", 73},      {"cm85a", 84},   {"z4ml", 90},
      {"cmb", 117},     {"cm150a", 128}, {"mux", 132},    {"9symml", 148},
      {"count", 155},   {"comp", 196},   {"unreg", 206},  {"c8", 222},
      {"apex7", 224},   {"lal", 235},    {"pcle", 244},   {"frg1", 284},
      {"sct", 313},     {"b9", 316},     {"alu2", 401},   {"ttt2", 408},
      {"pcler8", 411},  {"term1", 424},  {"cht", 442},    {"f51m", 459},
      {"example2", 485},{"cordic", 516}, {"alu4", 540},
  };
  std::vector<BenchmarkSpec> suite;
  for (const auto& [name, gates] : entries) {
    BenchmarkSpec spec;
    spec.name = name;
    spec.gates = gates;
    spec.primary_inputs = derive_inputs(gates);
    spec.seed = stable_hash(spec.name);
    suite.push_back(std::move(spec));
  }
  return suite;
}

}  // namespace

const std::vector<BenchmarkSpec>& table3_suite() {
  static const std::vector<BenchmarkSpec> suite = make_suite();
  return suite;
}

const std::vector<BenchmarkSpec>& scaled_suite() {
  static const std::vector<BenchmarkSpec> suite = [] {
    // Sizes double from 1k to 8k gates; the same 1.6*sqrt(G) PI formula
    // as derive_inputs but without its MCNC-era 48-input cap, so the
    // generated circuits stay wide enough to avoid degenerate depth.
    const int sizes[] = {1000, 2000, 4000, 8000};
    std::vector<BenchmarkSpec> tier;
    for (const int gates : sizes) {
      BenchmarkSpec spec;
      spec.name = "syn" + std::to_string(gates);
      spec.gates = gates;
      spec.primary_inputs =
          static_cast<int>(std::lround(1.6 * std::sqrt(gates)));
      spec.seed = stable_hash(spec.name);
      tier.push_back(std::move(spec));
    }
    return tier;
  }();
  return suite;
}

const BenchmarkSpec* find_suite_entry(const std::string& name) {
  for (const auto* tier : {&table3_suite(), &scaled_suite()}) {
    for (const BenchmarkSpec& spec : *tier) {
      if (spec.name == name) return &spec;
    }
  }
  return nullptr;
}

const BenchmarkSpec& suite_entry(const std::string& name) {
  const BenchmarkSpec* spec = find_suite_entry(name);
  if (spec == nullptr) {
    throw Error("suite_entry: unknown benchmark '" + name + "'");
  }
  return *spec;
}

netlist::Netlist build_benchmark(const celllib::CellLibrary& library,
                                 const BenchmarkSpec& spec) {
  RandomCircuitSpec rc;
  rc.name = spec.name;
  rc.target_gates = spec.gates;
  rc.primary_inputs = spec.primary_inputs;
  rc.seed = spec.seed;
  return random_circuit(library, rc);
}

}  // namespace tr::benchgen
