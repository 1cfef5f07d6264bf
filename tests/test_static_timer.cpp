// Oracle tests for the static timer on the library-wide pin-delay memo
// (celllib::PinDelayTable, search::arrivals, DESIGN.md Sec. 7.1):
//
//  * optimize()'s critical_path_before / critical_path_after equal the
//    graph-walk timer (tests/oracle/graph_walk.hpp) on the netlist before
//    and after the run, compared with == on the doubles — table3, scaled
//    and random SP netlists, both objectives, both models, the instance
//    restriction, and budgets none / 0 / 0.05;
//  * two technologies against one library never read each other's
//    delays;
//  * a --jobs 4 batch run twice on one warm library renders the same
//    bytes, and its critical paths still equal the graph walk's (this
//    one also runs under ThreadSanitizer in CI).

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "benchgen/suite.hpp"
#include "celllib/catalog.hpp"
#include "celllib/library.hpp"
#include "delay/elmore.hpp"
#include "opt/batch.hpp"
#include "opt/batch_report.hpp"
#include "opt/optimizer.hpp"
#include "opt/scenario.hpp"
#include "oracle/graph_walk.hpp"
#include "random_sp_tree.hpp"
#include "util/rng.hpp"

namespace tr::opt {
namespace {

using celllib::CellLibrary;
using celllib::Tech;
using netlist::NetId;
using netlist::Netlist;

constexpr std::uint64_t kSeed = 21;

/// Runs optimize() on a copy of `original` and checks both critical
/// paths against the graph walk on the netlist before and after.
void expect_timer_matches_graph_walk(const Netlist& original,
                                     const std::map<NetId, boolfn::SignalStats>&
                                         stats,
                                     const Tech& tech,
                                     const OptimizeOptions& options) {
  Netlist nl = original;
  const OptimizeReport report = optimize(nl, stats, tech, options);
  EXPECT_EQ(report.critical_path_before,
            oracle::circuit_delay_walk(original, tech).critical_path)
      << original.name();
  EXPECT_EQ(report.critical_path_after,
            oracle::circuit_delay_walk(nl, tech).critical_path)
      << original.name();
}

/// Every objective x model x restriction x budget combination.
std::vector<OptimizeOptions> option_sweep() {
  std::vector<OptimizeOptions> sweep;
  for (const std::optional<double> budget :
       {std::optional<double>(), std::optional<double>(0.0),
        std::optional<double>(0.05)}) {
    for (const Objective objective :
         {Objective::minimize_power, Objective::maximize_power}) {
      for (const power::ModelKind model :
           {power::ModelKind::extended, power::ModelKind::output_only}) {
        for (const bool restrict_instance : {false, true}) {
          OptimizeOptions options;
          options.objective = objective;
          options.model = model;
          options.restrict_to_instance = restrict_instance;
          options.max_circuit_delay_increase = budget;
          options.threads = 1;
          sweep.push_back(options);
        }
      }
    }
  }
  return sweep;
}

TEST(StaticTimer, Table3AndScaledMatchGraphWalkAcrossOptions) {
  const CellLibrary library = CellLibrary::standard();
  const Tech tech;
  // The whole table3 suite under the default options; a spread of table3
  // circuits and the smallest scaled one across every option.
  for (const benchgen::BenchmarkSpec& spec : benchgen::table3_suite()) {
    const Netlist nl = benchgen::build_benchmark(library, spec);
    expect_timer_matches_graph_walk(nl, scenario_a(nl, kSeed), tech, {});
  }
  for (const char* name : {"b1", "cm85a", "alu2", "syn1000"}) {
    const Netlist nl =
        benchgen::build_benchmark(library, benchgen::suite_entry(name));
    const auto stats = scenario_a(nl, kSeed);
    for (const OptimizeOptions& options : option_sweep()) {
      expect_timer_matches_graph_walk(nl, stats, tech, options);
    }
  }
}

TEST(StaticTimer, RandomSpNetlistsMatchGraphWalkAcrossOptions) {
  const Tech tech;
  Rng rng(2107);
  for (int round = 0; round < 6; ++round) {
    const CellLibrary sp_lib = testutil::random_sp_library(rng, 4);
    const Netlist nl = testutil::random_sp_netlist(sp_lib, rng, 16);
    std::map<NetId, boolfn::SignalStats> stats;
    for (NetId id : nl.primary_inputs()) {
      stats[id] = {rng.uniform(0.05, 0.95), rng.uniform(1e3, 1e6)};
    }
    for (const OptimizeOptions& options : option_sweep()) {
      expect_timer_matches_graph_walk(nl, stats, tech, options);
    }
  }
}

TEST(StaticTimer, TwoTechnologiesNeverShareDelays) {
  // One library, so one catalog cache and one memo; the second tech
  // differs only in fields the Elmore delays read. Alternating the two
  // must keep each run equal to its own graph walk.
  const CellLibrary library = CellLibrary::standard();
  const Tech slow;
  const Tech fast = [&] {
    Tech tech = slow;
    tech.r_n = 4e3;
    tech.c_diff = 1e-15;
    return tech;
  }();
  const Netlist nl =
      benchgen::build_benchmark(library, benchgen::suite_entry("cm85a"));
  const auto stats = scenario_a(nl, kSeed);
  for (const Tech* tech : {&slow, &fast, &slow, &fast}) {
    for (const double budget : {0.0, 0.05}) {
      OptimizeOptions options;
      options.max_circuit_delay_increase = budget;
      expect_timer_matches_graph_walk(nl, stats, *tech, options);
    }
    expect_timer_matches_graph_walk(nl, stats, *tech, {});
  }
  EXPECT_NE(oracle::circuit_delay_walk(nl, slow).critical_path,
            oracle::circuit_delay_walk(nl, fast).critical_path);

  // The memo hands out one table per (tech, load), shared by every
  // caller, and distinct tables for distinct technologies.
  const auto catalog = library.catalog(library.cell("aoi22").topology());
  const double load = 7e-15;
  EXPECT_EQ(&catalog->pin_delays(slow, load), &catalog->pin_delays(slow, load));
  EXPECT_NE(&catalog->pin_delays(slow, load), &catalog->pin_delays(fast, load));
  EXPECT_NE(&catalog->pin_delays(slow, load),
            &catalog->pin_delays(slow, 8e-15));
}

std::vector<BatchCircuit> timer_batch(const CellLibrary& library) {
  std::vector<BatchCircuit> batch;
  for (const char* name :
       {"b1", "cm82a", "decod", "cm85a", "cmb", "count", "alu2", "syn1000"}) {
    batch.push_back(make_scenario_circuit(
        benchgen::build_benchmark(library, benchgen::suite_entry(name)), 'A',
        kSeed));
  }
  return batch;
}

TEST(StaticTimer, ConcurrentBatchOnWarmLibraryIsByteIdentical) {
  const CellLibrary library = CellLibrary::standard();
  const Tech tech;
  for (const std::optional<double> budget :
       {std::optional<double>(), std::optional<double>(0.05)}) {
    BatchOptions options;
    options.jobs = 4;
    options.threads_per_circuit = 2;
    options.opt.max_circuit_delay_increase = budget;
    BatchJsonOptions json;
    json.include_timing = false;
    json.include_cache_stats = false;

    std::string rendered[2];
    for (std::string& bytes : rendered) {
      std::vector<BatchCircuit> batch = timer_batch(library);
      const std::vector<BatchCircuit> originals = timer_batch(library);
      const BatchReport report = BatchOptimizer(library, tech, options).run(batch);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const BatchCircuitResult& result = report.circuits[i];
        ASSERT_EQ(result.status, CircuitStatus::ok) << result.name;
        EXPECT_EQ(
            result.report.critical_path_before,
            oracle::circuit_delay_walk(originals[i].netlist, tech).critical_path)
            << result.name;
        EXPECT_EQ(result.report.critical_path_after,
                  oracle::circuit_delay_walk(batch[i].netlist, tech)
                      .critical_path)
            << result.name;
      }
      std::ostringstream out;
      write_batch_json(batch, report, options, out, json);
      bytes = out.str();
    }
    EXPECT_EQ(rendered[0], rendered[1]);
  }
}

}  // namespace
}  // namespace tr::opt
