// End-to-end flow on a user-supplied circuit: read BLIF (generic .names
// or one of the embedded classics / suite benchmarks), map it onto the
// Table 2 library, optimize for low power under scenario A or B, and
// write the optimized mapped netlist as BLIF next to a report.
//
// Usage:
//   optimize_circuit <circuit> [--scenario A|B] [--activity FILE]
//                    [--seed N] [--out FILE] [--verilog FILE]
//
// <circuit> is a path to a .blif file, the name of an embedded classic
// (c17, fulladder, cmp2, dec2to4) or of a Table 3 suite entry (e.g.
// alu2). --activity supplies measured per-input statistics (overrides
// --scenario); --out also writes a .cfg configuration sidecar; --verilog
// emits a structural Verilog view. Examples:
//   ./build/examples/optimize_circuit c17 --scenario A --seed 7
//   ./build/examples/optimize_circuit my_design.blif --out optimized.blif

#include <fstream>
#include <iostream>
#include <string>

#include "benchgen/classic.hpp"
#include "benchgen/suite.hpp"
#include "celllib/library.hpp"
#include "delay/elmore.hpp"
#include "mapper/mapper.hpp"
#include "netlist/blif.hpp"
#include "netlist/activity_io.hpp"
#include "netlist/config_io.hpp"
#include "netlist/verilog.hpp"
#include "opt/optimizer.hpp"
#include "opt/scenario.hpp"
#include "power/circuit_power.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace {

using namespace tr;

netlist::Netlist load_circuit(const std::string& name,
                              const celllib::CellLibrary& library) {
  // 1. embedded classic?
  for (const std::string& classic : benchgen::classic_names()) {
    if (classic == name) {
      const auto logic =
          netlist::read_blif_logic_string(benchgen::classic_blif(name), name);
      return mapper::map_network(logic, library);
    }
  }
  // 2. suite entry?
  for (const auto& spec : benchgen::table3_suite()) {
    if (spec.name == name) return benchgen::build_benchmark(library, spec);
  }
  // 3. a BLIF file on disk.
  const auto logic = netlist::read_blif_logic_file(name);
  return mapper::map_network(logic, library);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tr;
  if (argc < 2) {
    std::cerr << "usage: optimize_circuit <circuit.blif|classic|suite-name> "
                 "[--scenario A|B] [--seed N] [--out FILE]\n";
    return 2;
  }
  std::string circuit_name = argv[1];
  std::string scenario = "A";
  std::string out_path;
  std::string verilog_path;
  std::string activity_path;
  std::uint64_t seed = 1;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--scenario") scenario = argv[i + 1];
    else if (flag == "--seed") seed = std::stoull(argv[i + 1]);
    else if (flag == "--out") out_path = argv[i + 1];
    else if (flag == "--verilog") verilog_path = argv[i + 1];
    else if (flag == "--activity") activity_path = argv[i + 1];
  }

  try {
    const celllib::CellLibrary library = celllib::CellLibrary::standard();
    const celllib::Tech tech;
    netlist::Netlist nl = load_circuit(circuit_name, library);
    std::cout << "circuit " << nl.name() << ": " << nl.gate_count()
              << " gates, " << nl.primary_inputs().size() << " PIs, "
              << nl.primary_outputs().size() << " POs\n";

    std::map<netlist::NetId, boolfn::SignalStats> pi_stats;
    if (!activity_path.empty()) {
      std::ifstream act(activity_path);
      require(act.good(), "cannot open activity file '", activity_path, "'");
      pi_stats = netlist::read_activity(nl, act, activity_path);
    } else {
      pi_stats = scenario == "B" ? opt::scenario_b(nl)
                                 : opt::scenario_a(nl, seed);
    }
    const auto activity = power::propagate_activity(nl, pi_stats);
    const double power_before =
        power::circuit_power(nl, activity, tech).total();
    const double delay_before = delay::circuit_delay(nl, tech).critical_path;

    const opt::OptimizeReport report = opt::optimize(nl, pi_stats, tech);

    const double power_after =
        power::circuit_power(nl, activity, tech).total();
    const double delay_after = delay::circuit_delay(nl, tech).critical_path;

    std::cout << "scenario " << scenario << " (seed " << seed << "):\n"
              << "  gates reordered : " << report.gates_changed << "\n"
              << "  model power     : " << format_fixed(power_before * 1e6, 3)
              << " -> " << format_fixed(power_after * 1e6, 3) << " uW  ("
              << format_fixed(percent_reduction(power_before, power_after), 1)
              << "% reduction)\n"
              << "  critical path   : " << format_fixed(delay_before * 1e9, 2)
              << " -> " << format_fixed(delay_after * 1e9, 2) << " ns  ("
              << format_fixed(percent_increase(delay_before, delay_after), 1)
              << "% change)\n";

    if (!out_path.empty()) {
      std::ofstream out(out_path);
      require(out.good(), "cannot open output file '", out_path, "'");
      netlist::write_blif(nl, out);
      // BLIF cannot carry transistor orderings; the sidecar restores them
      // (netlist::read_config_sidecar) after re-reading the BLIF.
      std::ofstream cfg(out_path + ".cfg");
      require(cfg.good(), "cannot open sidecar '", out_path, ".cfg'");
      netlist::write_config_sidecar(nl, cfg);
      std::cout << "  optimized netlist written to " << out_path
                << " (+ configuration sidecar " << out_path << ".cfg)\n";
    }
    if (!verilog_path.empty()) {
      std::ofstream v(verilog_path);
      require(v.good(), "cannot open Verilog file '", verilog_path, "'");
      netlist::write_verilog(nl, v);
      std::cout << "  structural Verilog written to " << verilog_path << "\n";
    }
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
