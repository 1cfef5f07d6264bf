// Greedy-vs-anneal quality gate over a pinned circuit/budget grid.
//
// For every pinned (circuit, delay-budget) cell this runs the sequential
// budgeted greedy walk (Engine::catalog) and the annealing engine
// (opt::search, DESIGN.md Sec. 14) at the SAME budget and compares the
// committed model power. The annealing engine seeds itself with the
// greedy result and only ever commits a strict improvement over that
// seed, so the per-cell contract is hard: anneal must meet or beat greedy
// everywhere, and across the whole grid it must be strictly better in
// aggregate — otherwise the global search layer is dead weight and this
// binary exits 1 so CI fails.
//
// Two more gates ride along:
//   * delay ceilings — the post-anneal netlist is re-timed from scratch
//     and every primary-output arrival is checked against the greedy
//     walk's admissibility rule, orig_arrival * (1 + budget). A
//     violation means the incremental scorer drifted from the real
//     Elmore timing.
//   * wall clock — each anneal run must finish within a per-circuit
//     budget, so search-quality improvements cannot silently buy their
//     wins with unbounded runtime.
//
// Results land in BENCH_anneal.json (uploaded as a CI artifact) so the
// power trajectory of the search layer is recorded run over run.
//
// Usage:
//   perf_anneal_suite [--quick] [--out=PATH] [--seed=N] [--iters=N]
//                     [--max-ms-per-circuit=X]
//
//   --quick                 4-circuit CI subset instead of the full grid
//   --out=PATH              JSON output path (default BENCH_anneal.json)
//   --seed=N                anneal RNG seed (default 1; any seed must pass)
//   --iters=N               anneal moves per gate (default 256)
//   --max-ms-per-circuit=X  wall-clock budget per anneal run (default 10000)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "benchgen/suite.hpp"
#include "celllib/library.hpp"
#include "delay/elmore.hpp"
#include "opt/optimizer.hpp"
#include "opt/scenario.hpp"

namespace {

using namespace tr;

// The pinned grid: small-to-medium Table 3 circuits where the anneal
// runs stay fast, crossed with the budgets the paper's
// delay-constrained experiments use. Pinning both axes keeps the gate
// reproducible — a quality regression on any one cell is a hard failure,
// not something a new circuit mix can average away.
const std::vector<std::string>& pinned_circuits(bool quick) {
  static const std::vector<std::string> quick_set{"b1", "cm82a", "majority",
                                                  "decod"};
  static const std::vector<std::string> full_set{
      "b1",     "cm82a", "cm42a", "majority", "cm138a",
      "decod",  "cm85a", "cmb",   "comp"};
  return quick ? quick_set : full_set;
}

const std::vector<double>& pinned_budgets() {
  static const std::vector<double> budgets{0.0, 0.05, 0.10};
  return budgets;
}

struct CellResult {
  std::string name;
  double budget = 0.0;
  int gates = 0;
  double greedy_power = 0.0;
  double anneal_power = 0.0;
  double anneal_ms = 0.0;
  long iterations = 0;
  long uphill_accepted = 0;
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_anneal.json";
  std::uint64_t seed = 1;
  int iters = 256;
  double max_ms = 10000.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--iters=", 0) == 0) {
      iters = std::max(1, std::atoi(arg.c_str() + 8));
    } else if (arg.rfind("--max-ms-per-circuit=", 0) == 0) {
      max_ms = std::strtod(arg.c_str() + 21, nullptr);
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return 2;
    }
  }

  const celllib::CellLibrary library = celllib::CellLibrary::standard();
  const celllib::Tech tech;

  std::vector<CellResult> cells;
  int failures = 0;
  double greedy_total = 0.0;
  double anneal_total = 0.0;
  int strictly_better = 0;

  for (const std::string& name : pinned_circuits(quick)) {
    const benchgen::BenchmarkSpec& spec = benchgen::suite_entry(name);
    const netlist::Netlist original = benchgen::build_benchmark(library, spec);
    const auto stats = opt::scenario_a(original, spec.seed);
    const delay::CircuitDelay before = delay::circuit_delay(original, tech);
    const std::vector<netlist::NetId> outputs = original.primary_outputs();

    for (const double budget : pinned_budgets()) {
      CellResult cell;
      cell.name = name;
      cell.budget = budget;
      cell.gates = original.gate_count();

      opt::OptimizeOptions greedy_options;
      greedy_options.engine = opt::Engine::catalog;
      greedy_options.max_circuit_delay_increase = budget;
      netlist::Netlist greedy_nl = original;
      cell.greedy_power =
          opt::optimize(greedy_nl, stats, tech, greedy_options)
              .model_power_after;

      opt::OptimizeOptions anneal_options;
      anneal_options.engine = opt::Engine::anneal;
      anneal_options.max_circuit_delay_increase = budget;
      anneal_options.anneal.seed = seed;
      anneal_options.anneal.iterations_per_gate = iters;
      netlist::Netlist anneal_nl = original;
      const auto t0 = std::chrono::steady_clock::now();
      const opt::OptimizeReport report =
          opt::optimize(anneal_nl, stats, tech, anneal_options);
      const auto t1 = std::chrono::steady_clock::now();
      cell.anneal_ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      cell.anneal_power = report.model_power_after;
      if (report.anneal) {
        cell.iterations = static_cast<long>(report.anneal->iterations);
        cell.uphill_accepted = static_cast<long>(report.anneal->uphill_accepted);
      }

      greedy_total += cell.greedy_power;
      anneal_total += cell.anneal_power;
      if (cell.anneal_power < cell.greedy_power) ++strictly_better;

      const double saved_pct =
          cell.greedy_power > 0.0
              ? 100.0 * (cell.greedy_power - cell.anneal_power) /
                    cell.greedy_power
              : 0.0;
      std::printf(
          "%-10s budget %.2f  %4d gates  greedy %.6e W  anneal %.6e W "
          "(%+.3f%%)  %8.1f ms\n",
          cell.name.c_str(), budget, cell.gates, cell.greedy_power,
          cell.anneal_power, -saved_pct, cell.anneal_ms);

      // Gate 1: never lose to greedy at the same budget. The engine
      // commits the greedy seed on ties, so this is an exact comparison.
      if (cell.anneal_power > cell.greedy_power) {
        std::cerr << "QUALITY REGRESSION: " << name << " at budget " << budget
                  << ": anneal " << cell.anneal_power << " W > greedy "
                  << cell.greedy_power << " W\n";
        ++failures;
      }

      // Gate 2: the committed netlist must honour the greedy walk's
      // per-output admissibility ceiling under a from-scratch re-timing.
      const delay::CircuitDelay after = delay::circuit_delay(anneal_nl, tech);
      for (const netlist::NetId out : outputs) {
        const double ceiling = before.net_arrival[out] * (1.0 + budget) + 1e-18;
        if (after.net_arrival[out] > ceiling * (1.0 + 1e-12)) {
          std::cerr << "DELAY VIOLATION: " << name << " at budget " << budget
                    << ": output net " << out << " arrives at "
                    << after.net_arrival[out] << " s, ceiling " << ceiling
                    << " s\n";
          ++failures;
        }
      }

      // Gate 3: wall clock per anneal run.
      if (max_ms > 0.0 && cell.anneal_ms > max_ms) {
        std::cerr << "WALL-CLOCK REGRESSION: " << name << " at budget "
                  << budget << ": anneal took " << cell.anneal_ms
                  << " ms (budget " << max_ms << " ms)\n";
        ++failures;
      }

      cells.push_back(std::move(cell));
    }
  }

  const double saved_pct =
      greedy_total > 0.0
          ? 100.0 * (greedy_total - anneal_total) / greedy_total
          : 0.0;
  std::printf(
      "TOTAL      greedy %.6e W  anneal %.6e W  (%.3f%% saved, %d/%zu cells "
      "strictly better)\n",
      greedy_total, anneal_total, saved_pct, strictly_better, cells.size());

  // Gate 4: the global search must earn its keep somewhere — strictly
  // better than greedy in aggregate, not just never-worse.
  if (!(anneal_total < greedy_total)) {
    std::cerr << "QUALITY REGRESSION: anneal ties greedy on every pinned "
                 "cell; the search layer found nothing\n";
    ++failures;
  }

  std::ostringstream json;
  json << "{\n  \"schema_version\": 1,\n  \"suite\": \""
       << (quick ? "quick" : "full") << "\",\n  \"anneal_seed\": " << seed
       << ",\n  \"iterations_per_gate\": " << iters << ",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& cell = cells[i];
    json << "    {\"name\": \"" << cell.name
         << "\", \"budget\": " << cell.budget
         << ", \"gates\": " << cell.gates
         << ", \"greedy_power_w\": " << cell.greedy_power
         << ", \"anneal_power_w\": " << cell.anneal_power
         << ", \"iterations\": " << cell.iterations
         << ", \"uphill_accepted\": " << cell.uphill_accepted
         << ", \"ms\": " << cell.anneal_ms << "}"
         << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"greedy_total_w\": " << greedy_total
       << ",\n  \"anneal_total_w\": " << anneal_total
       << ",\n  \"saved_pct\": " << saved_pct
       << ",\n  \"cells_strictly_better\": " << strictly_better
       << ",\n  \"failures\": " << failures << "\n}\n";
  std::ofstream(out_path) << json.str();
  std::printf("wrote %s\n", out_path.c_str());

  return failures == 0 ? 0 : 1;
}
