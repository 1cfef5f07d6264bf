// Cooperative cancellation and deadline tests (ISSUE 7): token
// semantics (inert default, latching deadlines), the Cancelled paths
// through optimize/monte_carlo/the simulator event loop, and the batch
// all-or-nothing contract — a cancelled circuit reports `cancelled`
// with no numbers and an untouched netlist, while completed circuits
// keep their full deterministic results.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "benchgen/suite.hpp"
#include "celllib/library.hpp"
#include "opt/batch.hpp"
#include "opt/batch_report.hpp"
#include "opt/scenario.hpp"
#include "sim/monte_carlo.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"

namespace tr::opt {
namespace {

using celllib::CellLibrary;
using celllib::Tech;
using util::CancellationToken;
using util::Cancelled;

constexpr std::uint64_t kSeed = 1;

CellLibrary& lib() {
  static CellLibrary instance = CellLibrary::standard();
  return instance;
}

std::vector<BatchCircuit> make_batch(const std::vector<std::string>& names) {
  std::vector<BatchCircuit> batch;
  for (const std::string& name : names) {
    batch.push_back(make_scenario_circuit(
        benchgen::build_benchmark(lib(), benchgen::suite_entry(name)), 'A',
        kSeed));
  }
  return batch;
}

std::vector<std::string> config_keys(const netlist::Netlist& nl) {
  std::vector<std::string> keys;
  for (netlist::GateId g = 0; g < nl.gate_count(); ++g) {
    keys.push_back(nl.gate(g).config.canonical_key());
  }
  return keys;
}

std::string circuit_json(const BatchCircuit& circuit,
                         const BatchCircuitResult& result) {
  BatchJsonOptions json;
  json.include_timing = false;
  std::ostringstream out;
  write_circuit_json(circuit, result, out, json);
  return out.str();
}

// ---------------------------------------------------------------------------
// Token semantics

TEST(CancellationToken, DefaultIsInert) {
  const CancellationToken token;
  EXPECT_FALSE(token.valid());
  EXPECT_FALSE(token.should_cancel());
  token.check("work");          // must not throw
  token.request_cancel();       // no state to cancel; still a no-op
  EXPECT_FALSE(token.should_cancel());
}

TEST(CancellationToken, RequestCancelLatches) {
  const CancellationToken token = CancellationToken::cancellable();
  EXPECT_TRUE(token.valid());
  EXPECT_FALSE(token.should_cancel());
  token.check("work");  // not cancelled yet
  token.request_cancel();
  EXPECT_TRUE(token.should_cancel());
  try {
    token.check("work");
    FAIL() << "expected Cancelled";
  } catch (const Cancelled& e) {
    EXPECT_EQ(ErrorCode::cancelled, e.code());
    EXPECT_STREQ("work cancelled", e.what());
  }
  // Copies share the state.
  const CancellationToken copy = token;
  EXPECT_TRUE(copy.should_cancel());
}

TEST(CancellationToken, DeadlineLatches) {
  const CancellationToken expired = CancellationToken::with_deadline_ms(0.0);
  EXPECT_TRUE(expired.valid());
  EXPECT_TRUE(expired.should_cancel());
  EXPECT_TRUE(expired.should_cancel());  // latched, never reverts

  const CancellationToken far = CancellationToken::with_deadline_ms(1e9);
  EXPECT_FALSE(far.should_cancel());

  const CancellationToken soon = CancellationToken::with_deadline_ms(1.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(soon.should_cancel());
}

TEST(CancellationToken, NonFiniteDeadlineIsRejected) {
  // A NaN deadline would silently latch "always expired" (NaN
  // comparisons are false, so the arithmetic lands wherever the
  // implementation happens to put it); an infinite one degrades to "no
  // deadline". Both are caller bugs the constructor refuses to arm.
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::nan(""), inf, -inf}) {
    try {
      CancellationToken::with_deadline_ms(bad);
      FAIL() << "expected rejection of deadline " << bad;
    } catch (const Error& e) {
      EXPECT_EQ(ErrorCode::invalid_argument, e.code());
      EXPECT_NE(std::string(e.what()).find(
                    "CancellationToken: deadline must be finite, got "),
                std::string::npos)
          << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// Pipeline entry points throw Cancelled

TEST(Cancellation, OptimizeThrowsAndLeavesNetlistUntouched) {
  // Both catalog routes: the gate-parallel pass and the budgeted walk.
  for (const std::optional<double> budget :
       {std::optional<double>(), std::optional<double>(0.05)}) {
    BatchCircuit circuit = make_scenario_circuit(
        benchgen::build_benchmark(lib(), benchgen::suite_entry("b1")), 'A',
        kSeed);
    const std::vector<std::string> before = config_keys(circuit.netlist);

    OptimizeOptions options;
    options.max_circuit_delay_increase = budget;
    options.cancel = CancellationToken::with_deadline_ms(0.0);
    try {
      optimize(circuit.netlist, circuit.pi_stats, Tech{}, options);
      FAIL() << "expected Cancelled";
    } catch (const Cancelled& e) {
      EXPECT_EQ(ErrorCode::cancelled, e.code());
      EXPECT_STREQ("optimize cancelled", e.what());
      EXPECT_EQ("optimize", e.site_chain());
    }
    // The first checkpoint precedes the first commit on both routes.
    EXPECT_EQ(config_keys(circuit.netlist), before);
  }
}

TEST(Cancellation, MonteCarloThrowsCancelled) {
  const netlist::Netlist nl =
      benchgen::build_benchmark(lib(), benchgen::suite_entry("b1"));
  const auto stats = opt::scenario_b(nl);

  sim::MonteCarloOptions mc;
  mc.sim.seed = 7;
  mc.sim.measure_time = 1e-4;
  mc.sim.warmup_time = 1e-5;
  mc.replications = 4;
  mc.threads = 1;
  mc.sim.cancel = CancellationToken::with_deadline_ms(0.0);

  const Tech tech;
  const sim::SimEngine engine(nl, stats, tech, mc.sim);
  try {
    sim::monte_carlo(engine, mc);
    FAIL() << "expected Cancelled";
  } catch (const Cancelled& e) {
    EXPECT_EQ(ErrorCode::cancelled, e.code());
    EXPECT_STREQ("monte_carlo cancelled", e.what());
    EXPECT_EQ("monte_carlo", e.site_chain());
  }
}

TEST(Cancellation, SimulatorEventLoopObservesDeadlineMidRun) {
  // A window long enough for millions of events, a deadline that
  // expires almost immediately: the event-loop checkpoint (every 8192
  // events) must stop the run long before the window completes. The
  // deadline is armed before the engine runs, so the first replicate
  // observes it; which site reports first (monte_carlo boundary or
  // simulate loop) depends on timing, the code/latching does not.
  const netlist::Netlist nl =
      benchgen::build_benchmark(lib(), benchgen::suite_entry("alu4"));
  const auto stats = opt::scenario_b(nl);

  sim::MonteCarloOptions mc;
  mc.sim.seed = 7;
  mc.sim.measure_time = 10.0;  // ~hours of simulated activity
  mc.sim.warmup_time = 0.0;
  mc.replications = 2;
  mc.threads = 1;
  mc.sim.cancel = CancellationToken::with_deadline_ms(20.0);

  const Tech tech;
  const sim::SimEngine engine(nl, stats, tech, mc.sim);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(sim::monte_carlo(engine, mc), Cancelled);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  // Bounded lag: generous to absorb slow CI machines, but far below
  // the time the full window would need.
  EXPECT_LT(elapsed, 30.0);
}

// ---------------------------------------------------------------------------
// Batch all-or-nothing

TEST(Cancellation, PreCancelledBatchCancelsEveryCircuitAndRestores) {
  std::vector<BatchCircuit> batch = make_batch({"b1", "decod", "cmb"});
  std::vector<std::vector<std::string>> before;
  for (const BatchCircuit& circuit : batch) {
    before.push_back(config_keys(circuit.netlist));
  }

  BatchOptions options;
  options.jobs = 2;
  options.cancel = CancellationToken::with_deadline_ms(0.0);
  const BatchReport report = BatchOptimizer(lib(), Tech{}, options).run(batch);

  EXPECT_EQ(report.circuits_ok, 0);
  EXPECT_EQ(report.circuits_failed, 0);
  EXPECT_EQ(report.circuits_cancelled, 3);
  EXPECT_EQ(report.gates_total, 0);
  EXPECT_EQ(report.model_power_after, 0.0);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const BatchCircuitResult& result = report.circuits[i];
    EXPECT_EQ(result.status, CircuitStatus::cancelled);
    ASSERT_TRUE(result.error.has_value());
    EXPECT_EQ(result.error->code, ErrorCode::cancelled);
    EXPECT_EQ(result.error->message, "batch cancelled");
    EXPECT_EQ(result.gates, 0);
    EXPECT_EQ(config_keys(batch[i].netlist), before[i]);
  }
}

TEST(Cancellation, LiveTokenThatNeverFiresIsByteIdenticalToInert) {
  // The polling paths must be observation-free: a valid token that
  // never cancels yields exactly the inert-token results.
  std::vector<BatchCircuit> inert_batch = make_batch({"b1", "decod"});
  BatchOptions inert_options;
  inert_options.jobs = 1;
  const BatchReport inert_report =
      BatchOptimizer(lib(), Tech{}, inert_options).run(inert_batch);

  std::vector<BatchCircuit> live_batch = make_batch({"b1", "decod"});
  BatchOptions live_options;
  live_options.jobs = 1;
  live_options.cancel = CancellationToken::cancellable();
  const BatchReport live_report =
      BatchOptimizer(lib(), Tech{}, live_options).run(live_batch);

  ASSERT_EQ(inert_report.circuits.size(), live_report.circuits.size());
  for (std::size_t i = 0; i < inert_report.circuits.size(); ++i) {
    EXPECT_EQ(circuit_json(inert_batch[i], inert_report.circuits[i]),
              circuit_json(live_batch[i], live_report.circuits[i]));
  }
}

TEST(Cancellation, MidRunDeadlineIsAllOrNothingPerCircuit) {
  // A short-but-nonzero deadline over a batch with real work: whatever
  // subset finishes, every circuit must be either fully reported or
  // cancelled with nothing — never in between. The budgeted walk polls
  // per gate through its whole table setup, so the deadline lands
  // mid-circuit.
  const std::vector<std::string> names{"b1", "alu2", "alu4", "apex7"};
  std::vector<BatchCircuit> batch = make_batch(names);
  std::vector<std::vector<std::string>> before;
  for (const BatchCircuit& circuit : batch) {
    before.push_back(config_keys(circuit.netlist));
  }

  BatchOptions options;
  options.jobs = 1;
  options.opt.max_circuit_delay_increase = 0.05;
  options.cancel = CancellationToken::with_deadline_ms(30.0);
  const BatchReport report = BatchOptimizer(lib(), Tech{}, options).run(batch);

  EXPECT_EQ(report.circuits_failed, 0);
  EXPECT_EQ(report.circuits_ok + report.circuits_cancelled,
            static_cast<int>(batch.size()));
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const BatchCircuitResult& result = report.circuits[i];
    if (result.status == CircuitStatus::ok) {
      EXPECT_FALSE(result.error.has_value());
      EXPECT_GT(result.gates, 0);
    } else {
      EXPECT_EQ(result.status, CircuitStatus::cancelled);
      ASSERT_TRUE(result.error.has_value());
      EXPECT_EQ(result.error->code, ErrorCode::cancelled);
      EXPECT_EQ(result.gates, 0);
      EXPECT_EQ(result.report.gates_changed, 0);
      // All-or-nothing: the cancelled netlist is exactly the input.
      EXPECT_EQ(config_keys(batch[i].netlist), before[i]);
    }
  }
}

}  // namespace
}  // namespace tr::opt
