// Deterministic fault-injection harness tests (ISSUE 7): the site
// registry and arming contract, nth/kind/context targeting, TR_FAULT
// parsing, and the containment matrix — a poisoned circuit in a
// multi-circuit batch becomes a structured error record while every
// survivor's report stays byte-identical to a batch that never
// contained it, at jobs=1 and jobs=8.

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "benchgen/suite.hpp"
#include "celllib/library.hpp"
#include "netlist/blif.hpp"
#include "opt/batch.hpp"
#include "opt/batch_report.hpp"
#include "opt/scenario.hpp"
#include "sim/monte_carlo.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/thread_pool.hpp"

namespace tr::opt {
namespace {

namespace fault = util::fault;
using celllib::CellLibrary;
using celllib::Tech;

constexpr std::uint64_t kSeed = 1;

CellLibrary& lib() {
  static CellLibrary instance = CellLibrary::standard();
  return instance;
}

const char* kValidMappedBlif =
    ".model tiny\n"
    ".inputs a b\n"
    ".outputs f\n"
    ".gate nand2 a=a b=b y=f\n";

std::vector<BatchCircuit> make_batch(const std::vector<std::string>& names) {
  std::vector<BatchCircuit> batch;
  for (const std::string& name : names) {
    batch.push_back(make_scenario_circuit(
        benchgen::build_benchmark(lib(), benchgen::suite_entry(name)), 'A',
        kSeed));
  }
  return batch;
}

BatchOptions batch_options(int jobs) {
  BatchOptions options;
  options.jobs = jobs;
  options.threads_per_circuit = 1;  // keep fault context on one thread
  return options;
}

std::string circuit_json(const BatchCircuit& circuit,
                         const BatchCircuitResult& result) {
  BatchJsonOptions json;
  json.include_timing = false;  // wall clock is not part of the contract
  std::ostringstream out;
  write_circuit_json(circuit, result, out, json);
  return out.str();
}

// ---------------------------------------------------------------------------
// Registry and arming contract

TEST(FaultRegistry, ContainsEveryPipelineSite) {
  const std::vector<std::string>& registry = fault::sites();
  for (const char* site :
       {"parse.blif", "parse.blif_mapped", "parse.verilog",
        "celllib.characterize", "opt.score", "sim.replicate",
        "batch.circuit", "server.request", "util.thread_spawn"}) {
    EXPECT_NE(std::find(registry.begin(), registry.end(), site),
              registry.end())
        << site;
  }
  EXPECT_EQ(registry.size(), 9u);
}

TEST(FaultRegistry, ArmingUnknownSiteThrows) {
  try {
    fault::ScopedFault bad("parse.bliff");
    FAIL() << "expected tr::Error";
  } catch (const Error& e) {
    EXPECT_STREQ("unknown fault site 'parse.bliff'", e.what());
  }
  EXPECT_FALSE(fault::enabled());
}

TEST(FaultRegistry, ArmingTwiceThrows) {
  fault::ScopedFault first("parse.blif");
  // The failed arm never constructs, so the first fault stays armed.
  EXPECT_THROW(fault::ScopedFault second("opt.score"), Error);
  EXPECT_TRUE(fault::enabled());
}

TEST(FaultHarness, DisarmedChecksAreFree) {
  EXPECT_FALSE(fault::enabled());
  fault::check("parse.blif");  // no-op, must not throw
}

TEST(FaultHarness, FiresOnNthPassageThenLatches) {
  fault::ScopedFault f("parse.blif_mapped", 2);
  EXPECT_TRUE(fault::enabled());
  // Passage 1: counted, not fired.
  netlist::read_blif_mapped_string(kValidMappedBlif, lib());
  EXPECT_EQ(f.hits(), 1u);
  EXPECT_FALSE(f.fired());
  // Passage 2: fires with the site recorded in the chain.
  try {
    netlist::read_blif_mapped_string(kValidMappedBlif, lib());
    FAIL() << "expected FaultInjected";
  } catch (const fault::FaultInjected& e) {
    EXPECT_EQ(ErrorCode::fault_injected, e.code());
    EXPECT_STREQ("injected fault at site 'parse.blif_mapped'", e.what());
    EXPECT_EQ("parse.blif_mapped", e.site_chain());
  }
  EXPECT_TRUE(f.fired());
  // Passage 3: a fault fires once, then the site goes quiet.
  netlist::read_blif_mapped_string(kValidMappedBlif, lib());
  EXPECT_EQ(f.hits(), 3u);
}

TEST(FaultHarness, KindsThrowTheDocumentedTypes) {
  {
    fault::ScopedFault f("parse.blif_mapped", 1, fault::FaultKind::internal);
    try {
      netlist::read_blif_mapped_string(kValidMappedBlif, lib());
      FAIL() << "expected InternalError";
    } catch (const InternalError& e) {
      EXPECT_EQ(ErrorCode::internal, e.code());
      EXPECT_STREQ("injected internal fault at site 'parse.blif_mapped'",
                   e.what());
    }
  }
  {
    fault::ScopedFault f("parse.blif_mapped", 1, fault::FaultKind::bad_alloc);
    EXPECT_THROW(netlist::read_blif_mapped_string(kValidMappedBlif, lib()),
                 std::bad_alloc);
  }
  {
    fault::ScopedFault f("parse.blif_mapped", 1, fault::FaultKind::runtime);
    try {
      netlist::read_blif_mapped_string(kValidMappedBlif, lib());
      FAIL() << "expected std::runtime_error";
    } catch (const Error&) {
      FAIL() << "runtime kind must be a foreign exception, not tr::Error";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ("injected runtime fault at site 'parse.blif_mapped'",
                   e.what());
    }
  }
}

TEST(FaultHarness, ContextFilterTargetsOneWorkUnit) {
  fault::ScopedFault f("parse.blif_mapped", 1, fault::FaultKind::error,
                       "victim");
  {
    const fault::ScopedContext ctx("bystander");
    netlist::read_blif_mapped_string(kValidMappedBlif, lib());  // no match
  }
  EXPECT_EQ(f.hits(), 0u);
  {
    const fault::ScopedContext ctx("victim");
    EXPECT_THROW(netlist::read_blif_mapped_string(kValidMappedBlif, lib()),
                 fault::FaultInjected);
  }
  EXPECT_TRUE(f.fired());
  // Context restored: the site is quiet again outside the scope even
  // for a fresh fault with the same filter.
}

TEST(FaultHarness, InstallFromEnvParsesFullSpec) {
  ASSERT_EQ(unsetenv("TR_FAULT"), 0);
  EXPECT_FALSE(fault::install_from_env());

  ASSERT_EQ(setenv("TR_FAULT", "parse.blif_mapped:2:internal@c17", 1), 0);
  EXPECT_TRUE(fault::install_from_env());
  {
    const fault::ScopedContext ctx("c17");
    netlist::read_blif_mapped_string(kValidMappedBlif, lib());  // hit 1
    EXPECT_THROW(netlist::read_blif_mapped_string(kValidMappedBlif, lib()),
                 InternalError);
  }
  fault::clear();

  ASSERT_EQ(setenv("TR_FAULT", "no.such.site", 1), 0);
  EXPECT_THROW(fault::install_from_env(), Error);
  ASSERT_EQ(setenv("TR_FAULT", "parse.blif:bogus_kind", 1), 0);
  EXPECT_THROW(fault::install_from_env(), Error);
  ASSERT_EQ(unsetenv("TR_FAULT"), 0);
  EXPECT_FALSE(fault::enabled());
}

// ---------------------------------------------------------------------------
// Containment matrix: one poisoned circuit, survivors byte-identical

TEST(FaultContainment, PoisonedCircuitIsContainedAcrossSitesAndJobs) {
  const std::vector<std::string> names{"b1", "decod", "cmb"};
  const std::vector<std::string> survivors{"b1", "cmb"};

  // The fault-free reference: a batch that never contained the victim.
  std::vector<BatchCircuit> reference = make_batch(survivors);
  const BatchReport reference_report =
      BatchOptimizer(lib(), Tech{}, batch_options(1)).run(reference);
  ASSERT_EQ(reference_report.circuits_ok, 2);

  for (const char* site :
       {"celllib.characterize", "opt.score", "batch.circuit"}) {
    for (int jobs : {1, 8}) {
      std::vector<BatchCircuit> batch = make_batch(names);
      const std::string victim = batch[1].name;
      const fault::ScopedFault f(site, 1, fault::FaultKind::error, victim);

      const BatchReport report =
          BatchOptimizer(lib(), Tech{}, batch_options(jobs)).run(batch);

      SCOPED_TRACE(std::string(site) + " jobs=" + std::to_string(jobs));
      EXPECT_TRUE(f.fired());
      ASSERT_EQ(report.circuits.size(), 3u);
      EXPECT_EQ(report.circuits_ok, 2);
      EXPECT_EQ(report.circuits_failed, 1);
      EXPECT_EQ(report.circuits_cancelled, 0);

      const BatchCircuitResult& poisoned = report.circuits[1];
      EXPECT_EQ(poisoned.status, CircuitStatus::error);
      ASSERT_TRUE(poisoned.error.has_value());
      EXPECT_EQ(poisoned.error->code, ErrorCode::fault_injected);
      EXPECT_NE(poisoned.error->site.find(site), std::string::npos)
          << "site chain '" << poisoned.error->site << "'";
      // All-or-nothing: no numbers escape the failed circuit.
      EXPECT_EQ(poisoned.gates, 0);
      EXPECT_EQ(poisoned.report.gates_changed, 0);
      EXPECT_EQ(poisoned.report.model_power_after, 0.0);

      // Survivors: byte-identical to the batch without the victim.
      EXPECT_EQ(circuit_json(batch[0], report.circuits[0]),
                circuit_json(reference[0], reference_report.circuits[0]));
      EXPECT_EQ(circuit_json(batch[2], report.circuits[2]),
                circuit_json(reference[1], reference_report.circuits[1]));

      // Aggregates count the survivors only.
      EXPECT_EQ(report.gates_total, reference_report.gates_total);
      EXPECT_EQ(report.gates_changed, reference_report.gates_changed);
      EXPECT_EQ(report.model_power_after,
                reference_report.model_power_after);
    }
  }
}

TEST(FaultContainment, PoisonedNetlistIsRestored) {
  std::vector<BatchCircuit> batch = make_batch({"b1", "decod"});
  std::vector<std::string> before;
  for (netlist::GateId g = 0; g < batch[1].netlist.gate_count(); ++g) {
    before.push_back(batch[1].netlist.gate(g).config.canonical_key());
  }
  const fault::ScopedFault f("opt.score", 1, fault::FaultKind::error,
                             batch[1].name);
  const BatchReport report =
      BatchOptimizer(lib(), Tech{}, batch_options(1)).run(batch);
  EXPECT_EQ(report.circuits[1].status, CircuitStatus::error);
  ASSERT_EQ(batch[1].netlist.gate_count(),
            static_cast<netlist::GateId>(before.size()));
  for (netlist::GateId g = 0; g < batch[1].netlist.gate_count(); ++g) {
    EXPECT_EQ(batch[1].netlist.gate(g).config.canonical_key(), before[g])
        << "gate " << g;
  }
}

TEST(FaultContainment, FailureAfterCommitRestoresTheNetlist) {
  // The progress hook runs after optimize() has committed the chosen
  // configurations, so a throw there must move the snapshot back.
  std::vector<BatchCircuit> clean = make_batch({"b1", "decod"});
  const BatchReport clean_report =
      BatchOptimizer(lib(), Tech{}, batch_options(1)).run(clean);
  ASSERT_EQ(clean_report.circuits[1].status, CircuitStatus::ok);
  ASSERT_GT(clean_report.circuits[1].report.gates_changed, 0);

  std::vector<BatchCircuit> batch = make_batch({"b1", "decod"});
  std::vector<std::string> before;
  for (netlist::GateId g = 0; g < batch[1].netlist.gate_count(); ++g) {
    before.push_back(batch[1].netlist.gate(g).config.canonical_key());
  }
  BatchOptions options = batch_options(1);
  options.progress = [](std::size_t i, const BatchCircuitResult& result) {
    if (i == 1 && result.status == CircuitStatus::ok) {
      throw std::runtime_error("progress sink failed");
    }
  };
  const BatchReport report = BatchOptimizer(lib(), Tech{}, options).run(batch);
  EXPECT_EQ(report.circuits[0].status, CircuitStatus::ok);
  EXPECT_EQ(report.circuits[1].status, CircuitStatus::error);
  ASSERT_EQ(batch[1].netlist.gate_count(),
            static_cast<netlist::GateId>(before.size()));
  for (netlist::GateId g = 0; g < batch[1].netlist.gate_count(); ++g) {
    EXPECT_EQ(batch[1].netlist.gate(g).config.canonical_key(), before[g])
        << "gate " << g;
  }
}

TEST(FaultContainment, ForeignExceptionsFoldIntoTheTaxonomy) {
  struct Case {
    fault::FaultKind kind;
    ErrorCode code;
  };
  for (const Case c : {Case{fault::FaultKind::internal, ErrorCode::internal},
                       Case{fault::FaultKind::bad_alloc, ErrorCode::resource},
                       Case{fault::FaultKind::runtime, ErrorCode::unknown}}) {
    std::vector<BatchCircuit> batch = make_batch({"b1", "decod"});
    const fault::ScopedFault f("batch.circuit", 1, c.kind, batch[0].name);
    const BatchReport report =
        BatchOptimizer(lib(), Tech{}, batch_options(1)).run(batch);
    ASSERT_TRUE(report.circuits[0].error.has_value());
    EXPECT_EQ(report.circuits[0].error->code, c.code);
    EXPECT_EQ(report.circuits[1].status, CircuitStatus::ok);
  }
}

TEST(FaultContainment, FailFastRethrowsTheFirstFailure) {
  std::vector<BatchCircuit> batch = make_batch({"b1", "decod"});
  BatchOptions options = batch_options(1);
  options.keep_going = false;
  const fault::ScopedFault f("batch.circuit", 1, fault::FaultKind::error,
                             batch[0].name);
  EXPECT_THROW(BatchOptimizer(lib(), Tech{}, options).run(batch),
               fault::FaultInjected);
}

TEST(FaultContainment, GuardedLoaderCapturesParseFaults) {
  const fault::ScopedFault f("parse.blif_mapped", 1);
  const BatchCircuit circuit = make_scenario_circuit_guarded(
      "tiny.blif", 'A', kSeed, lib(), [] {
        return netlist::read_blif_mapped_string(kValidMappedBlif, lib(),
                                                "tiny.blif");
      });
  ASSERT_TRUE(circuit.load_error.has_value());
  EXPECT_EQ(circuit.load_error->code, ErrorCode::fault_injected);
  EXPECT_EQ(circuit.load_error->site, "load/parse.blif_mapped");
  EXPECT_EQ(circuit.name, "tiny.blif");
}

TEST(FaultContainment, LoadErrorRidesThroughTheBatch) {
  std::vector<BatchCircuit> batch = make_batch({"b1"});
  {
    const fault::ScopedFault f("parse.blif_mapped", 1);
    batch.push_back(make_scenario_circuit_guarded(
        "bad.blif", 'A', kSeed, lib(), [] {
          return netlist::read_blif_mapped_string(kValidMappedBlif, lib(),
                                                  "bad.blif");
        }));
  }
  const BatchReport report =
      BatchOptimizer(lib(), Tech{}, batch_options(1)).run(batch);
  EXPECT_EQ(report.circuits_ok, 1);
  EXPECT_EQ(report.circuits_failed, 1);
  EXPECT_EQ(report.circuits[1].status, CircuitStatus::error);
  ASSERT_TRUE(report.circuits[1].error.has_value());
  EXPECT_EQ(report.circuits[1].error->code, ErrorCode::fault_injected);
  EXPECT_EQ(report.circuits[1].name, "bad.blif");
}

// ---------------------------------------------------------------------------
// sim.replicate: failure at the pool join, engine and pool reusable

TEST(FaultSim, ReplicateFaultSurfacesAtJoinAndEverythingIsReusable) {
  const netlist::Netlist nl =
      benchgen::build_benchmark(lib(), benchgen::suite_entry("b1"));
  const auto stats = opt::scenario_b(nl);
  const Tech tech;

  sim::MonteCarloOptions mc;
  mc.sim.seed = 7;
  mc.sim.measure_time = 2e-4;
  mc.sim.warmup_time = 1e-5;
  mc.replications = 4;
  mc.threads = 1;  // serial: nth counting is deterministic

  const sim::SimEngine engine(nl, stats, tech, mc.sim);
  util::ThreadPool pool(1);

  const sim::SimSummary baseline = sim::monte_carlo(engine, mc, &pool);

  {
    const fault::ScopedFault f("sim.replicate", 3);
    try {
      sim::monte_carlo(engine, mc, &pool);
      FAIL() << "expected FaultInjected";
    } catch (const fault::FaultInjected& e) {
      EXPECT_EQ("monte_carlo/sim.replicate", e.site_chain());
    }
    EXPECT_TRUE(f.fired());
  }

  // The engine and the pool both survive the failed run; the retry is
  // bit-identical to the baseline.
  const sim::SimSummary retry = sim::monte_carlo(engine, mc, &pool);
  EXPECT_EQ(baseline.replicate_energy, retry.replicate_energy);
  EXPECT_EQ(baseline.total_events, retry.total_events);
  EXPECT_EQ(baseline.energy.mean, retry.energy.mean);
  EXPECT_EQ(baseline.energy.ci95, retry.energy.ci95);
}

}  // namespace
}  // namespace tr::opt
