// Monte-Carlo simulation throughput over the classic and scaled
// benchmark tiers (DESIGN.md Sec. 10.4).
//
// Times the simulation engine (flat arenas + indexed event scheduler,
// serial and thread-pool replication) against the pre-rewrite reference
// event loop (tests/oracle/reference_sim.hpp) on every suite circuit,
// and writes the measurements to BENCH_sim.json so the performance
// trajectory of the Monte-Carlo layer is recorded run over run — the
// sim-side counterpart of perf_optimize_suite. The CI sim-perf-smoke job diffs the result
// against the checked-in baseline (bench/BENCH_sim.baseline.json) and
// fails on large regressions; the hardware-independent gate is the
// same-run speedup of the engine over the reference loop on the scaled
// tier (floor and its derivation: DESIGN.md Sec. 10.4).
//
// Usage:
//   perf_sim_suite [--quick] [--reps=N] [--out=PATH]
//                  [--no-reference] [--min-speedup=X]
//                  [--baseline=PATH] [--max-regression=X]
//
//   --quick            CI subset (4 classic + syn1000/2000/4000) instead
//                      of the full classic sample + whole scaled tier
//   --reps=N           Monte-Carlo replications per circuit (default 8)
//   --out=PATH         JSON output path (default BENCH_sim.json)
//   --no-reference     skip the reference-loop measurement (no speedup)
//   --min-speedup=X    exit 1 when the scaled-tier replications/sec
//                      speedup (fast vs reference, same run — hardware
//                      cancels out) drops below X
//   --baseline=PATH    compare total_fast_ms against a previous JSON;
//                      exit 1 when current > max-regression x baseline
//   --max-regression=X allowed slowdown factor (default 2.0)

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
#include "opt/scenario.hpp"
#include "oracle/reference_sim.hpp"
#include "sim/monte_carlo.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace tr;

struct CircuitRow {
  std::string name;
  std::string tier;  ///< "classic" or "scaled"
  int gates = 0;
  int nets = 0;
  int replications = 0;
  std::uint64_t events = 0;          ///< total events, serial fast run
  double fast_ms = 0.0;              ///< serial fast-path wall time
  double fast_reps_per_sec = 0.0;
  double fast_events_per_sec = 0.0;
  double reference_ms = -1.0;        ///< reference loop, -1 = not measured
  double reference_reps_per_sec = 0.0;
  double speedup = -1.0;             ///< fast vs reference reps/sec
  double parallel_ms = 0.0;          ///< thread-pool fast path
  double parallel_reps_per_sec = 0.0;
  int threads = 0;
  std::uint64_t scratch_bytes = 0;   ///< scratch high-water
};

struct TierSpec {
  const benchgen::BenchmarkSpec* spec;
  const char* tier;
};

std::vector<TierSpec> pick_circuits(bool quick) {
  const auto classic_pick = [&]() -> std::vector<std::string> {
    if (quick) return {"cm82a", "decod", "comp", "alu2"};
    return {"b1",  "cm82a", "majority", "decod", "cm85a",
            "cmb", "comp",  "c8",       "alu2",  "alu4"};
  }();
  std::vector<TierSpec> picks;
  for (const std::string& name : classic_pick) {
    picks.push_back({&benchgen::suite_entry(name), "classic"});
  }
  for (const benchgen::BenchmarkSpec& spec : benchgen::scaled_suite()) {
    if (quick && spec.gates > 4000) continue;
    picks.push_back({&benchgen::suite_entry(spec.name), "scaled"});
  }
  return picks;
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Extracts `"key": <number>` from our own JSON schema; -1 when absent.
double json_number(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return -1.0;
  return std::strtod(text.c_str() + at + needle.size(), nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool measure_reference = true;
  int reps = 8;
  std::string out_path = "BENCH_sim.json";
  std::string baseline_path;
  double max_regression = 2.0;
  double min_speedup = -1.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--no-reference") {
      measure_reference = false;
    } else if (arg.rfind("--min-speedup=", 0) == 0) {
      min_speedup = std::strtod(arg.c_str() + 14, nullptr);
    } else if (arg.rfind("--reps=", 0) == 0) {
      reps = std::max(2, std::atoi(arg.c_str() + 7));
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = arg.substr(11);
    } else if (arg.rfind("--max-regression=", 0) == 0) {
      max_regression = std::strtod(arg.c_str() + 17, nullptr);
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return 2;
    }
  }

  const celllib::CellLibrary library = celllib::CellLibrary::standard();
  const celllib::Tech tech;
  // One pool for every pooled measurement: workers (and their reusable
  // replication scratches) persist across circuits, as in production.
  util::ThreadPool pool;

  std::vector<CircuitRow> rows;
  double total_fast_ms = 0.0;
  double total_parallel_ms = 0.0;
  double scaled_fast_rep_ms = 0.0;       // per-replicate ms, scaled tier
  double scaled_reference_rep_ms = 0.0;
  bool truncated = false;

  for (const TierSpec& pick : pick_circuits(quick)) {
    const benchgen::BenchmarkSpec& spec = *pick.spec;
    const netlist::Netlist nl = benchgen::build_benchmark(library, spec);
    const auto stats = opt::scenario_a(nl, spec.seed ^ 0x51ABULL);

    // Window sized so an average PI toggles ~40 times per replicate —
    // long enough that the event loop (not setup) dominates, short
    // enough that the full tier fits in a CI smoke job.
    double mean_density = 0.0;
    for (const auto& [net, s] : stats) mean_density += s.density;
    mean_density /= static_cast<double>(stats.size());
    sim::MonteCarloOptions mc;
    mc.sim.seed = spec.seed + 9;
    mc.sim.measure_time = 40.0 / mean_density;
    mc.sim.warmup_time = mc.sim.measure_time * 0.02;
    mc.replications = reps;

    const sim::SimEngine engine(nl, stats, tech, mc.sim);

    CircuitRow row;
    row.name = spec.name;
    row.tier = pick.tier;
    row.gates = nl.gate_count();
    row.nets = nl.net_count();
    row.replications = reps;

    // Serial fast path (the per-replicate unit the speedup ratio uses).
    mc.threads = 1;
    auto t0 = std::chrono::steady_clock::now();
    const sim::SimSummary serial = sim::monte_carlo(engine, mc);
    row.fast_ms = ms_since(t0);
    row.events = serial.total_events;
    row.fast_reps_per_sec = 1e3 * reps / row.fast_ms;
    row.fast_events_per_sec =
        1e3 * static_cast<double>(serial.total_events) / row.fast_ms;
    row.scratch_bytes = serial.scratch_high_water_bytes;
    truncated = truncated || serial.truncated_replications > 0;

    // Thread-pool fast path (shared workers, scratch reuse across
    // circuits).
    t0 = std::chrono::steady_clock::now();
    const sim::SimSummary parallel = sim::monte_carlo(engine, mc, &pool);
    row.parallel_ms = ms_since(t0);
    row.parallel_reps_per_sec = 1e3 * reps / row.parallel_ms;
    row.threads = pool.thread_count();

    // Reference loop, same replicate streams (fewer reps: it is the
    // slow side of the ratio; per-replicate cost is what matters).
    if (measure_reference) {
      const oracle::ReferenceSim reference(nl, stats, tech, mc.sim);
      const int ref_reps = std::max(2, reps / 4);
      t0 = std::chrono::steady_clock::now();
      for (int k = 0; k < ref_reps; ++k) {
        const sim::SimResult r =
            reference.run(Rng::derive_stream(mc.sim.seed, k));
        truncated = truncated || r.truncated;
      }
      row.reference_ms = ms_since(t0) * reps / ref_reps;  // scaled to reps
      row.reference_reps_per_sec = 1e3 * reps / row.reference_ms;
      row.speedup = row.reference_ms / row.fast_ms;
    }

    total_fast_ms += row.fast_ms;
    total_parallel_ms += row.parallel_ms;
    if (row.tier == std::string("scaled")) {
      scaled_fast_rep_ms += row.fast_ms / reps;
      if (measure_reference) scaled_reference_rep_ms += row.reference_ms / reps;
    }

    std::printf(
        "%-8s %-7s %5d gates %9llu ev  %8.2f ms  %7.0f reps/s  %9.2e ev/s",
        row.name.c_str(), row.tier.c_str(), row.gates,
        static_cast<unsigned long long>(row.events), row.fast_ms,
        row.fast_reps_per_sec, row.fast_events_per_sec);
    if (row.speedup > 0.0) std::printf("  %5.1fx vs ref", row.speedup);
    std::printf("\n");
    rows.push_back(std::move(row));
  }

  const double scaled_speedup =
      scaled_fast_rep_ms > 0.0 && scaled_reference_rep_ms > 0.0
          ? scaled_reference_rep_ms / scaled_fast_rep_ms
          : -1.0;
  std::printf("total fast %0.2f ms serial, %0.2f ms pooled", total_fast_ms,
              total_parallel_ms);
  if (scaled_speedup > 0.0) {
    std::printf("; scaled-tier speedup %.1fx vs reference loop",
                scaled_speedup);
  }
  std::printf("\n");

  {
    std::ofstream out(out_path);
    util::JsonWriter json(out);
    json.begin_object();
    json.key("schema_version");
    json.value(1);
    json.key("suite");
    json.value(quick ? "quick" : "full");
    json.key("reps");
    json.value(reps);
    json.key("circuits");
    json.begin_array();
    for (const CircuitRow& row : rows) {
      json.begin_object();
      json.key("name");
      json.value(row.name);
      json.key("tier");
      json.value(row.tier);
      json.key("gates");
      json.value(row.gates);
      json.key("nets");
      json.value(row.nets);
      json.key("replications");
      json.value(row.replications);
      json.key("events");
      json.value(static_cast<std::uint64_t>(row.events));
      json.key("fast_ms");
      json.value(row.fast_ms);
      json.key("fast_reps_per_sec");
      json.value(row.fast_reps_per_sec);
      json.key("fast_events_per_sec");
      json.value(row.fast_events_per_sec);
      if (row.reference_ms >= 0.0) {
        json.key("reference_ms");
        json.value(row.reference_ms);
        json.key("reference_reps_per_sec");
        json.value(row.reference_reps_per_sec);
        json.key("speedup");
        json.value(row.speedup);
      }
      json.key("parallel_ms");
      json.value(row.parallel_ms);
      json.key("parallel_reps_per_sec");
      json.value(row.parallel_reps_per_sec);
      json.key("threads");
      json.value(row.threads);
      json.key("scratch_bytes");
      json.value(static_cast<std::uint64_t>(row.scratch_bytes));
      json.end_object();
    }
    json.end_array();
    json.key("total_fast_ms");
    json.value(total_fast_ms);
    json.key("total_parallel_ms");
    json.value(total_parallel_ms);
    if (scaled_speedup > 0.0) {
      json.key("scaled_speedup");
      json.value(scaled_speedup);
    }
    json.end_object();
  }
  std::printf("wrote %s\n", out_path.c_str());

  if (truncated) {
    std::cerr << "ERROR: a replication hit the event budget; timings cover "
                 "partial windows\n";
    return 1;
  }

  // Hardware-independent gate: engine vs reference loop in this very
  // run, on the tier the rewrite exists for.
  if (min_speedup > 0.0) {
    if (scaled_speedup < 0.0) {
      std::cerr << "--min-speedup requires the reference measurement\n";
      return 2;
    }
    if (scaled_speedup < min_speedup) {
      std::cerr << "PERF REGRESSION: scaled-tier MC throughput only "
                << scaled_speedup << "x the reference loop (floor "
                << min_speedup << "x)\n";
      return 1;
    }
  }

  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::cerr << "cannot read baseline " << baseline_path << "\n";
      return 2;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string expected_suite =
        std::string("\"suite\": \"") + (quick ? "quick" : "full") + "\"";
    if (buffer.str().find(expected_suite) == std::string::npos) {
      std::cerr << "baseline " << baseline_path
                << " was recorded with a different --quick setting than "
                   "this run; regenerate it with matching flags\n";
      return 2;
    }
    // total_fast_ms scales linearly with the replication count, so a
    // reps mismatch would silently skew (or spuriously trip) the gate.
    const double baseline_reps = json_number(buffer.str(), "reps");
    if (baseline_reps > 0.0 && baseline_reps != static_cast<double>(reps)) {
      std::cerr << "baseline " << baseline_path << " was recorded with --reps="
                << baseline_reps << " but this run uses --reps=" << reps
                << "; regenerate it with matching flags\n";
      return 2;
    }
    const double baseline_ms = json_number(buffer.str(), "total_fast_ms");
    if (baseline_ms <= 0.0) {
      std::cerr << "baseline " << baseline_path << " has no total_fast_ms\n";
      return 2;
    }
    const double ratio = total_fast_ms / baseline_ms;
    std::printf("vs baseline: %.2fx (%s %.2f ms, limit %.2fx)\n", ratio,
                baseline_path.c_str(), baseline_ms, max_regression);
    if (ratio > max_regression) {
      std::cerr << "PERF REGRESSION: " << ratio << "x slower than baseline\n";
      return 1;
    }
  }
  return 0;
}
