// Tests for the delay-constrained global search layer (opt/search.hpp,
// DESIGN.md Sec. 14):
//
//  * the differential oracle — after arbitrary apply/revert sequences
//    (including moves whose fanout cones cross reconvergent fanout) the
//    incrementally maintained arrivals are FIELD-EXACT against both a
//    from-scratch topological recompute and delay::circuit_delay on a
//    materialised netlist, across random SP netlists, both power
//    models and both objectives;
//  * greedy-seed parity — the table-driven greedy walk is bit-identical
//    to the test oracle's reference engine (tests/oracle/), budgets or
//    not;
//  * the annealing engine — dominates greedy at equal delay budgets,
//    honours the ceilings, is deterministic per seed (byte-identical
//    batch JSON, jobs=1 vs jobs=4), and cancels all-or-nothing;
//  * the delay-budget option sweep — std::optional semantics (unset vs
//    a legitimate 0.0), validation, the threads recording, and the one
//    engine-name mapping.

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <sstream>
#include <vector>

#include "benchgen/classic.hpp"
#include "benchgen/generators.hpp"
#include "benchgen/suite.hpp"
#include "celllib/library.hpp"
#include "delay/elmore.hpp"
#include "mapper/mapper.hpp"
#include "netlist/blif.hpp"
#include "opt/batch.hpp"
#include "opt/batch_report.hpp"
#include "opt/optimizer.hpp"
#include "opt/scenario.hpp"
#include "opt/search.hpp"
#include "oracle/reference_oracle.hpp"
#include "random_sp_tree.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace tr::opt {
namespace {

using celllib::CellLibrary;
using celllib::Tech;
using netlist::GateId;
using netlist::NetId;
using netlist::Netlist;
using search::GreedySeed;
using search::IncrementalScorer;

CellLibrary& lib() {
  static CellLibrary instance = CellLibrary::standard();
  return instance;
}

std::map<NetId, boolfn::SignalStats> uniform_stats(const Netlist& nl,
                                                   double p, double d) {
  std::map<NetId, boolfn::SignalStats> stats;
  for (NetId id : nl.primary_inputs()) stats[id] = {p, d};
  return stats;
}

std::map<NetId, boolfn::SignalStats> random_stats(const Netlist& nl,
                                                  Rng& rng) {
  std::map<NetId, boolfn::SignalStats> stats;
  for (NetId id : nl.primary_inputs()) {
    stats[id] = {rng.uniform(0.05, 0.95), rng.uniform(1e3, 1e6)};
  }
  return stats;
}

/// Materialises the scorer's current configurations onto a copy of the
/// netlist and returns delay::circuit_delay's arrivals — the end-to-end
/// oracle the incremental state must match field-exactly.
std::vector<double> materialised_arrivals(const IncrementalScorer& scorer,
                                          const Tech& tech) {
  Netlist copy = scorer.netlist();
  for (GateId g = 0; g < copy.gate_count(); ++g) {
    const int cfg = scorer.config_of(g);
    if (cfg != 0) {
      copy.set_config(
          g, scorer.table(g).catalog->configs()[static_cast<std::size_t>(cfg)]
                 .topology);
    }
  }
  return delay::circuit_delay(copy, tech).net_arrival;
}

void expect_arrivals_exact(const IncrementalScorer& scorer, const Tech& tech,
                           const char* context) {
  const std::vector<double> full = scorer.full_arrivals();
  ASSERT_EQ(scorer.arrivals().size(), full.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(scorer.arrivals()[i], full[i])
        << context << ": cone-rescore drifted from full rescore at net " << i;
  }
  const std::vector<double> oracle = materialised_arrivals(scorer, tech);
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(scorer.arrivals()[i], oracle[i])
        << context << ": scorer drifted from delay::circuit_delay at net "
        << i;
  }
}

TEST(IncrementalScorer, ConstructionMatchesCircuitDelayExactly) {
  const Tech tech;
  Rng rng(11);
  for (int round = 0; round < 4; ++round) {
    const CellLibrary sp_lib = testutil::random_sp_library(rng, 4);
    const Netlist nl = testutil::random_sp_netlist(sp_lib, rng, 14);
    const IncrementalScorer scorer(nl, random_stats(nl, rng), tech,
                                   power::ModelKind::extended);
    const delay::CircuitDelay timing = delay::circuit_delay(nl, tech);
    ASSERT_EQ(scorer.arrivals().size(), timing.net_arrival.size());
    for (std::size_t i = 0; i < timing.net_arrival.size(); ++i) {
      EXPECT_EQ(scorer.arrivals()[i], timing.net_arrival[i]);
    }
  }
}

TEST(IncrementalScorer, ConeRescoreMatchesFullRescoreAcrossRandomMoves) {
  // The tentpole oracle: long random move sequences on random SP
  // netlists (whose nets feed multiple gates, so cones reconverge), both
  // power models, applies interleaved with exact reverts.
  const Tech tech;
  Rng rng(29);
  for (const power::ModelKind model :
       {power::ModelKind::extended, power::ModelKind::output_only}) {
    for (int round = 0; round < 3; ++round) {
      const CellLibrary sp_lib = testutil::random_sp_library(rng, 5);
      const Netlist nl = testutil::random_sp_netlist(sp_lib, rng, 16);
      IncrementalScorer scorer(nl, random_stats(nl, rng), tech, model);
      for (int move = 0; move < 60; ++move) {
        const GateId g = static_cast<GateId>(
            rng.next_below(static_cast<std::uint64_t>(nl.gate_count())));
        const int n = scorer.table(g).config_count();
        const int cfg =
            static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
        const std::vector<double> before_arrivals = scorer.arrivals();
        const std::vector<int> before_configs = scorer.configs();
        const double before_power = scorer.total_power();
        const IncrementalScorer::Undo undo = scorer.apply(g, cfg);
        expect_arrivals_exact(scorer, tech, "after apply");
        if (rng.bernoulli(0.4)) {
          scorer.revert(undo);
          // Reverts restore the exact previous state, bit for bit.
          EXPECT_EQ(scorer.configs(), before_configs);
          EXPECT_EQ(scorer.total_power(), before_power);
          for (std::size_t i = 0; i < before_arrivals.size(); ++i) {
            EXPECT_EQ(scorer.arrivals()[i], before_arrivals[i]);
          }
        }
      }
      expect_arrivals_exact(scorer, tech, "after move sequence");
    }
  }
}

TEST(IncrementalScorer, ConeCrossesReconvergentFanout) {
  // Explicit diamond: a's gate output feeds two branches that reconverge
  // in one sink — a move on the source must re-evaluate the sink once
  // with both updated branch arrivals, not twice or with a stale one.
  const Tech tech;
  Netlist nl(lib(), "diamond");
  const NetId a = nl.add_net("a");
  const NetId b = nl.add_net("b");
  const NetId c = nl.add_net("c");
  for (const NetId id : {a, b, c}) nl.mark_primary_input(id);
  const NetId src = nl.add_net("src");
  const NetId left = nl.add_net("left");
  const NetId right = nl.add_net("right");
  const NetId sink = nl.add_net("sink");
  nl.add_gate("gsrc", "nand3", {a, b, c}, src);
  nl.add_gate("gleft", "nand2", {src, a}, left);
  nl.add_gate("gright", "nor2", {src, b}, right);
  nl.add_gate("gsink", "aoi21", {left, right, src}, sink);
  nl.mark_primary_output(sink);

  IncrementalScorer scorer(nl, uniform_stats(nl, 0.5, 3e5), tech,
                           power::ModelKind::extended);
  const GateId gsrc = 0;
  for (int cfg = 0; cfg < scorer.table(gsrc).config_count(); ++cfg) {
    scorer.apply(gsrc, cfg);
    expect_arrivals_exact(scorer, tech, "reconvergent move");
  }
}

TEST(IncrementalScorer, TotalPowerTracksTopoOrderSum) {
  const Tech tech;
  Rng rng(47);
  const CellLibrary sp_lib = testutil::random_sp_library(rng, 4);
  const Netlist nl = testutil::random_sp_netlist(sp_lib, rng, 12);
  IncrementalScorer scorer(nl, random_stats(nl, rng), tech,
                           power::ModelKind::extended);
  for (int move = 0; move < 40; ++move) {
    const GateId g = static_cast<GateId>(
        rng.next_below(static_cast<std::uint64_t>(nl.gate_count())));
    const int n = scorer.table(g).config_count();
    scorer.apply(
        g, static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n))));
    // Exact-difference maintenance may drift from the topo-order sum only
    // in the last few ulps; the engine resynchronises via set_configs.
    EXPECT_NEAR(scorer.total_power(), scorer.total_power_in_topo_order(),
                1e-9 * scorer.total_power_in_topo_order());
  }
}

/// Runs greedy_seed over a fresh scorer and returns the chosen
/// configuration topologies keyed like the netlist.
GreedySeed table_greedy(const Netlist& nl,
                        const std::map<NetId, boolfn::SignalStats>& stats,
                        const Tech& tech, const OptimizeOptions& options,
                        std::vector<std::string>* keys) {
  const IncrementalScorer scorer(nl, stats, tech, options.model);
  const GreedySeed seed = greedy_seed(scorer, options);
  if (keys != nullptr) {
    keys->clear();
    for (GateId g = 0; g < nl.gate_count(); ++g) {
      keys->push_back(
          scorer.table(g)
              .catalog->configs()[static_cast<std::size_t>(
                  seed.configs[static_cast<std::size_t>(g)])]
              .topology.canonical_key());
    }
  }
  return seed;
}

TEST(GreedySeed, BitIdenticalToEngineDecisionsAcrossOptionSweep) {
  // The greedy walk runs off the precomputed tables; it is pinned
  // bit-exactly against the oracle's per-candidate graph-rebuild engine:
  // same chosen configuration per gate, same rejection counters, same
  // power totals.
  const Tech tech;
  Rng rng(83);
  std::vector<Netlist> circuits;
  circuits.push_back(benchgen::ripple_carry_adder(lib(), 6));
  const CellLibrary sp_lib = testutil::random_sp_library(rng, 4);
  circuits.push_back(testutil::random_sp_netlist(sp_lib, rng, 15));

  const std::optional<double> budgets[] = {std::nullopt, 0.0, 0.08};
  for (const Netlist& original : circuits) {
    const auto stats = random_stats(original, rng);
    for (const std::optional<double>& budget : budgets) {
      for (const Objective objective :
           {Objective::minimize_power, Objective::maximize_power}) {
        for (const power::ModelKind model :
             {power::ModelKind::extended, power::ModelKind::output_only}) {
          for (const bool restrict_instance : {false, true}) {
            OptimizeOptions options;
            options.objective = objective;
            options.model = model;
            options.max_circuit_delay_increase = budget;
            options.restrict_to_instance = restrict_instance;

            Netlist engine_nl = original;
            const OptimizeReport report =
                oracle::optimize_reference(engine_nl, stats, tech, options);

            std::vector<std::string> seed_keys;
            const GreedySeed seed =
                table_greedy(original, stats, tech, options, &seed_keys);

            EXPECT_EQ(seed.rejected_delay,
                      report.configs_rejected_by_delay);
            EXPECT_EQ(seed.rejected_instance,
                      report.configs_rejected_by_instance);
            double seed_power = 0.0;
            const IncrementalScorer scorer(original, stats, tech, model);
            for (GateId g : scorer.topo_order()) {
              seed_power +=
                  scorer.table(g).power[static_cast<std::size_t>(
                      seed.configs[static_cast<std::size_t>(g)])];
            }
            EXPECT_EQ(seed_power, report.model_power_after);
            for (GateId g = 0; g < original.gate_count(); ++g) {
              EXPECT_EQ(seed_keys[static_cast<std::size_t>(g)],
                        engine_nl.gate(g).config.canonical_key())
                  << "gate " << g;
            }
          }
        }
      }
    }
  }
}

TEST(AnnealEngine, MeetsOrBeatsGreedyAtEqualDelayBudgets) {
  const Tech tech;
  std::vector<Netlist> circuits;
  circuits.push_back(benchgen::ripple_carry_adder(lib(), 8));
  circuits.push_back(
      benchgen::build_benchmark(lib(), benchgen::suite_entry("decod")));
  int strictly_better = 0;
  for (const Netlist& original : circuits) {
    const auto stats = scenario_a(original, 7);
    for (const double budget : {0.0, 0.1}) {
      OptimizeOptions greedy;
      greedy.max_circuit_delay_increase = budget;
      Netlist greedy_nl = original;
      const OptimizeReport greedy_report =
          optimize(greedy_nl, stats, tech, greedy);

      OptimizeOptions anneal = greedy;
      anneal.engine = Engine::anneal;
      Netlist anneal_nl = original;
      const OptimizeReport anneal_report =
          optimize(anneal_nl, stats, tech, anneal);

      // Domination is by construction (the search starts at the greedy
      // solution and never commits a worse true objective).
      EXPECT_LE(anneal_report.model_power_after,
                greedy_report.model_power_after);
      if (anneal_report.model_power_after <
          greedy_report.model_power_after) {
        ++strictly_better;
      }
      ASSERT_TRUE(anneal_report.anneal.has_value());
      EXPECT_EQ(anneal_report.anneal->greedy_power,
                greedy_report.model_power_after);
      EXPECT_EQ(anneal_report.anneal->final_power,
                anneal_report.model_power_after);

      // The ceilings hold on the committed netlist, end to end.
      const delay::CircuitDelay before = delay::circuit_delay(original, tech);
      const std::vector<double> after =
          delay::circuit_delay(anneal_nl, tech).net_arrival;
      for (const NetId po : original.primary_outputs()) {
        EXPECT_LE(after[static_cast<std::size_t>(po)],
                  before.net_arrival[static_cast<std::size_t>(po)] *
                          (1.0 + budget) +
                      1e-15);
      }
    }
  }
  // At least one pinned circuit/budget pair must show a real win, or the
  // annealing layer is dead weight.
  EXPECT_GT(strictly_better, 0);
}

TEST(AnnealEngine, UnconstrainedMatchesPerGateOptimum) {
  // Without a delay budget the objective is separable, so the greedy
  // per-gate optimum is the global one — annealing must tie it exactly.
  const Tech tech;
  Netlist greedy_nl = benchgen::ripple_carry_adder(lib(), 6);
  Netlist anneal_nl = greedy_nl;
  const auto stats = uniform_stats(greedy_nl, 0.5, 3e5);
  const OptimizeReport greedy_report = optimize(greedy_nl, stats, tech);
  OptimizeOptions options;
  options.engine = Engine::anneal;
  const OptimizeReport anneal_report =
      optimize(anneal_nl, stats, tech, options);
  EXPECT_EQ(anneal_report.model_power_after, greedy_report.model_power_after);
}

TEST(AnnealEngine, DeterministicPerSeedAndByteStableAcrossJobs) {
  // Same seed => byte-identical batch JSON, whatever the circuit-level
  // parallelism; a different anneal seed is a different (valid) search.
  const auto batch_json = [&](int jobs, std::uint64_t anneal_seed) {
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
    options.opt.engine = Engine::anneal;
    options.opt.max_circuit_delay_increase = 0.05;
    options.opt.anneal.seed = anneal_seed;
    const BatchReport report =
        BatchOptimizer(library, tech, options).run(batch);
    BatchJsonOptions json;
    json.include_timing = false;
    json.include_cache_stats = false;
    std::ostringstream out;
    write_batch_json(batch, report, options, out, json);
    return out.str();
  };
  const std::string serial = batch_json(1, 1);
  EXPECT_EQ(serial, batch_json(1, 1));
  EXPECT_EQ(serial, batch_json(4, 1));
  EXPECT_NE(serial, batch_json(1, 2));
  EXPECT_NE(serial.find("\"engine\": \"anneal\""), std::string::npos);
}

TEST(AnnealEngine, CancellationLeavesNetlistUntouched) {
  const Tech tech;
  Netlist nl = benchgen::ripple_carry_adder(lib(), 8);
  std::vector<std::string> original_keys;
  for (GateId g = 0; g < nl.gate_count(); ++g) {
    original_keys.push_back(nl.gate(g).config.canonical_key());
  }
  OptimizeOptions options;
  options.engine = Engine::anneal;
  options.max_circuit_delay_increase = 0.1;
  options.cancel = util::CancellationToken::cancellable();
  options.cancel.request_cancel();
  EXPECT_THROW(optimize(nl, uniform_stats(nl, 0.5, 3e5), tech, options),
               util::Cancelled);
  for (GateId g = 0; g < nl.gate_count(); ++g) {
    EXPECT_EQ(nl.gate(g).config.canonical_key(),
              original_keys[static_cast<std::size_t>(g)]);
  }
}

TEST(DelayBudgetOption, UnsetAndZeroAreDistinctAndNegativeRejected) {
  // Unset must run the parallel catalog pass with no rejections; 0.0 is
  // a legitimate zero-slack budget (the sequential greedy walk); invalid
  // values throw instead of silently toggling.
  const Tech tech;
  const auto run = [&](OptimizeOptions options) {
    Netlist nl = benchgen::ripple_carry_adder(lib(), 6);
    return optimize(nl, uniform_stats(nl, 0.5, 3e5), tech, options);
  };

  OptimizeOptions unset;
  EXPECT_FALSE(unset.max_circuit_delay_increase.has_value());
  const OptimizeReport unconstrained = run(unset);
  EXPECT_EQ(unconstrained.configs_rejected_by_delay, 0);

  OptimizeOptions zero;
  zero.max_circuit_delay_increase = 0.0;
  const OptimizeReport constrained = run(zero);
  EXPECT_EQ(constrained.threads_used, 1);
  // A zero-slack budget constrains for real on this circuit.
  EXPECT_GE(constrained.model_power_after, unconstrained.model_power_after);

  OptimizeOptions negative;
  negative.max_circuit_delay_increase = -1.0;
  EXPECT_THROW(run(negative), Error);
  OptimizeOptions infinite;
  infinite.max_circuit_delay_increase =
      std::numeric_limits<double>::infinity();
  EXPECT_THROW(run(infinite), Error);
}

TEST(EngineRecording, ReportsTheEngineAndThreadsActuallyUsed) {
  const Tech tech;
  const Netlist original = benchgen::ripple_carry_adder(lib(), 4);
  const auto stats = uniform_stats(original, 0.5, 3e5);

  OptimizeOptions catalog2;
  catalog2.threads = 2;
  Netlist a = original;
  const OptimizeReport rc = optimize(a, stats, tech, catalog2);
  EXPECT_EQ(rc.threads_used, 2);
  EXPECT_FALSE(rc.anneal.has_value());

  // A delay-budgeted catalog request walks the gates sequentially
  // whatever thread count was asked for, and the report says so.
  OptimizeOptions budgeted = catalog2;
  budgeted.max_circuit_delay_increase = 0.0;
  Netlist b = original;
  const OptimizeReport rb = optimize(b, stats, tech, budgeted);
  EXPECT_EQ(rb.threads_used, 1);
  EXPECT_FALSE(rb.anneal.has_value());

  OptimizeOptions anneal;
  anneal.engine = Engine::anneal;
  anneal.threads = 4;  // ignored: the search itself is serial
  Netlist c = original;
  const OptimizeReport ra = optimize(c, stats, tech, anneal);
  EXPECT_EQ(ra.threads_used, 1);
  EXPECT_TRUE(ra.anneal.has_value());

  for (const Engine engine : {Engine::catalog, Engine::anneal}) {
    EXPECT_EQ(engine_from_name(engine_name(engine)), engine);
  }
  EXPECT_STREQ(engine_name(Engine::catalog), "catalog");
  EXPECT_STREQ(engine_name(Engine::anneal), "anneal");
  for (const char* unknown : {"reference", "Catalog", ""}) {
    try {
      engine_from_name(unknown);
      FAIL() << "expected rejection of engine '" << unknown << "'";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::invalid_argument);
      EXPECT_EQ(std::string(e.what()), "unknown engine '" +
                                           std::string(unknown) +
                                           "' (expected catalog|anneal)");
    }
  }
}

}  // namespace
}  // namespace tr::opt
