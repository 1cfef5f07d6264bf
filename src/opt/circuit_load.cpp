#include "opt/circuit_load.hpp"

#include <fstream>
#include <sstream>

#include "benchgen/classic.hpp"
#include "benchgen/suite.hpp"
#include "mapper/mapper.hpp"
#include "netlist/blif.hpp"
#include "netlist/verilog.hpp"
#include "util/error.hpp"

namespace tr::opt {

namespace {

bool is_classic(const std::string& name) {
  for (const std::string& classic : benchgen::classic_names()) {
    if (classic == name) return true;
  }
  return false;
}

}  // namespace

std::vector<std::string> suite_circuit_specs(const std::string& suite) {
  std::vector<std::string> specs;
  if (suite == "classic") {
    for (const std::string& name : benchgen::classic_names()) {
      specs.push_back(name);
    }
  } else if (suite == "table3") {
    for (const auto& spec : benchgen::table3_suite()) {
      specs.push_back(spec.name);
    }
  } else if (suite == "scaled") {
    for (const auto& spec : benchgen::scaled_suite()) {
      specs.push_back(spec.name);
    }
  } else {
    throw Error("unknown suite '" + suite +
                "' (expected classic, table3 or scaled)");
  }
  return specs;
}

bool is_embedded_spec(const std::string& spec) {
  return is_classic(spec) || benchgen::find_suite_entry(spec) != nullptr;
}

netlist::Netlist load_circuit_spec(const std::string& spec,
                                   const celllib::CellLibrary& library) {
  if (is_classic(spec)) {
    const auto logic =
        netlist::read_blif_logic_string(benchgen::classic_blif(spec), spec);
    return mapper::map_network(logic, library);
  }
  if (const benchgen::BenchmarkSpec* entry =
          benchgen::find_suite_entry(spec)) {
    return benchgen::build_benchmark(library, *entry);
  }
  if (spec.ends_with(".blif")) {
    std::ifstream in(spec);
    require(in.good(), "cannot open BLIF file '", spec, "'");
    std::stringstream text;
    text << in.rdbuf();
    // Mapped BLIF carries .gate lines; generic BLIF carries .names
    // blocks and goes through the technology mapper.
    if (text.str().find("\n.gate") != std::string::npos) {
      return netlist::read_blif_mapped_string(text.str(), library, spec);
    }
    return mapper::map_network(
        netlist::read_blif_logic_string(text.str(), spec), library);
  }
  if (spec.ends_with(".v")) {
    std::ifstream in(spec);
    require(in.good(), "cannot open Verilog file '", spec, "'");
    return netlist::read_verilog(library, in, spec);
  }
  throw Error("unknown circuit '" + spec +
              "' (not a classic, suite entry, .blif or .v file)");
}

}  // namespace tr::opt
