// Golden-file regression for the tr_opt JSON output (ISSUE 4): the
// deterministic report for the four embedded classic circuits must stay
// byte-identical to the checked-in fixture, across runs and across
// worker counts at both parallelism levels — unbudgeted, poisoned, and
// under a delay budget that does and one that does not bind.
//
// The test drives the exact library path the CLI uses (load classics ->
// map -> make_scenario_circuit -> BatchOptimizer -> write_batch_json
// with timing off), so a golden mismatch means the CLI's output contract
// changed. Intentional schema changes: regenerate with
//   TR_UPDATE_GOLDEN=1 ctest -R GoldenTrOpt
// and commit the refreshed tests/golden/ files with the change that
// caused them.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>

#include "benchgen/classic.hpp"
#include "celllib/library.hpp"
#include "mapper/mapper.hpp"
#include "netlist/blif.hpp"
#include "opt/batch.hpp"
#include "opt/batch_report.hpp"
#include "util/fault.hpp"

namespace tr::opt {
namespace {

using celllib::CellLibrary;
using celllib::Tech;

#ifndef TR_GOLDEN_DIR
#error "TR_GOLDEN_DIR must point at tests/golden (set by CMake)"
#endif

std::string golden_path(const std::string& name) {
  return std::string(TR_GOLDEN_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return {};
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Compares `current` with tests/golden/<file>, or rewrites the fixture
/// (and skips) under TR_UPDATE_GOLDEN.
void expect_golden(const std::string& file, const std::string& current) {
  const std::string path = golden_path(file);
  if (std::getenv("TR_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write golden " << path;
    out << current;
    GTEST_SKIP() << "golden regenerated at " << path;
  }

  const std::string golden = read_file(path);
  ASSERT_FALSE(golden.empty())
      << "missing golden " << path
      << " — run with TR_UPDATE_GOLDEN=1 to create it";
  EXPECT_EQ(golden, current)
      << file << " drifted from the golden; if intentional, regenerate "
      << "with TR_UPDATE_GOLDEN=1 and commit the diff";
}

/// The tr_opt --suite classic --seed 1 --no-timing [--delay-budget F]
/// pipeline.
std::string classic_batch_json(int jobs, int threads_per_circuit,
                               BatchJsonOptions json,
                               std::optional<double> delay_budget = {}) {
  const CellLibrary library = CellLibrary::standard();
  const Tech tech;
  std::vector<BatchCircuit> batch;
  for (const std::string& name : benchgen::classic_names()) {
    const auto logic =
        netlist::read_blif_logic_string(benchgen::classic_blif(name), name);
    batch.push_back(make_scenario_circuit(
        mapper::map_network(logic, library), 'A', /*master_seed=*/1));
  }
  BatchOptions options;
  options.jobs = jobs;
  options.threads_per_circuit = threads_per_circuit;
  options.opt.max_circuit_delay_increase = delay_budget;
  const BatchReport report =
      BatchOptimizer(library, tech, options).run(batch);
  std::ostringstream out;
  json.include_timing = false;  // goldens are wall-clock-free by contract
  write_batch_json(batch, report, options, out, json);
  return out.str();
}

TEST(GoldenTrOpt, ClassicSuiteMatchesGolden) {
  expect_golden("tr_opt_classic.json", classic_batch_json(1, 1, {}));
}

/// `json` with every per-circuit `"threads": 2` rewritten to 1: every
/// circuit reports the gate-level worker count it actually used (since
/// schema v3), so a --threads-per-circuit of 2 legitimately changes
/// exactly that one field. Expects one per classic circuit.
std::string as_one_thread(std::string json) {
  std::size_t replaced = 0;
  const std::string from = "\"threads\": 2";
  const std::string to = "\"threads\": 1";
  for (std::size_t pos = json.find(from); pos != std::string::npos;
       pos = json.find(from, pos + to.size())) {
    json.replace(pos, from.size(), to);
    ++replaced;
  }
  EXPECT_EQ(replaced, 4u);
  return json;
}

/// tr_opt --suite classic --delay-budget F --no-timing --no-cache-stats,
/// which must not depend on the circuit- or gate-level worker counts
/// (beyond the reported "threads").
std::string budgeted_batch_json(double delay_budget) {
  BatchJsonOptions lean;
  lean.include_cache_stats = false;
  const std::string serial = classic_batch_json(1, 1, lean, delay_budget);
  EXPECT_EQ(serial, classic_batch_json(4, 1, lean, delay_budget));
  EXPECT_EQ(serial,
            as_one_thread(classic_batch_json(2, 2, lean, delay_budget)));
  return serial;
}

TEST(GoldenTrOpt, BudgetedSuiteMatchesGoldenAcrossWorkerCounts) {
  // At 5% the budget never binds on the classic suite (no configuration
  // is rejected, every decision equals the unbudgeted one), so this pins
  // the report shape of a budgeted run: "delay_budget", the requested
  // "engine", "threads" and the critical paths.
  expect_golden("tr_opt_budgeted.json", budgeted_batch_json(0.05));
}

TEST(GoldenTrOpt, ZeroSlackSuiteMatchesGoldenAcrossWorkerCounts) {
  // A zero-slack budget binds on every classic circuit: this pins the
  // budgeted walk's decisions and its configs_rejected_by_delay counts.
  expect_golden("tr_opt_zero_slack.json", budgeted_batch_json(0.0));
}

TEST(GoldenTrOpt, ByteStableAcrossWorkerCounts) {
  const std::string serial = classic_batch_json(1, 1, {});
  EXPECT_EQ(serial, classic_batch_json(4, 1, {}));
  EXPECT_EQ(serial, classic_batch_json(0, 1, {}));
  // Everything but "threads" (all decisions, all numbers) must stay
  // byte-identical.
  EXPECT_EQ(serial, as_one_thread(classic_batch_json(2, 2, {})));
}

TEST(GoldenTrOpt, ByteStableAcrossRepeatedRuns) {
  const std::string first = classic_batch_json(0, 1, {});
  EXPECT_EQ(first, classic_batch_json(0, 1, {}));
}

/// The classic pipeline with one circuit poisoned at the batch-worker
/// boundary: the error record (code/site/message) is deterministic, so
/// the whole report — survivors plus the errors index — is
/// golden-pinnable like the healthy run.
std::string poisoned_batch_json(int jobs) {
  const CellLibrary library = CellLibrary::standard();
  const Tech tech;
  std::vector<BatchCircuit> batch;
  for (const std::string& name : benchgen::classic_names()) {
    const auto logic =
        netlist::read_blif_logic_string(benchgen::classic_blif(name), name);
    batch.push_back(make_scenario_circuit(
        mapper::map_network(logic, library), 'A', /*master_seed=*/1));
  }
  BatchOptions options;
  options.jobs = jobs;
  options.threads_per_circuit = 1;  // fault context stays on the worker
  const util::fault::ScopedFault fault("batch.circuit", 1,
                                       util::fault::FaultKind::error, "cmp2");
  const BatchReport report =
      BatchOptimizer(library, tech, options).run(batch);
  BatchJsonOptions json;
  json.include_timing = false;
  std::ostringstream out;
  write_batch_json(batch, report, options, out, json);
  return out.str();
}

TEST(GoldenTrOpt, PoisonedBatchMatchesGolden) {
  expect_golden("tr_opt_poisoned.json", poisoned_batch_json(1));
}

TEST(GoldenTrOpt, PoisonedBatchByteStableAcrossWorkerCounts) {
  const std::string serial = poisoned_batch_json(1);
  EXPECT_EQ(serial, poisoned_batch_json(4));
}

TEST(GoldenTrOpt, GateConfigsToggleOnlyRemovesArrays) {
  BatchJsonOptions lean;
  lean.include_gate_configs = false;
  const std::string without = classic_batch_json(1, 1, lean);
  EXPECT_EQ(without.find("\"gate_configs\""), std::string::npos);
  const std::string with_configs = classic_batch_json(1, 1, {});
  EXPECT_NE(with_configs.find("\"gate_configs\""), std::string::npos);
}

}  // namespace
}  // namespace tr::opt
