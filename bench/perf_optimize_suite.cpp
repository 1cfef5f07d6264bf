// End-to-end optimizer throughput over the Table 3 benchmark suite.
//
// Times opt::optimize() on every suite circuit (scenario A statistics) and
// writes the measurements to a JSON file so the performance trajectory of
// the hot path is recorded run over run (DESIGN.md Sec. 7.5). The CI
// perf-smoke job diffs the result against the checked-in baseline and
// fails on large regressions. A second block measures the batch driver
// (DESIGN.md Sec. 9) over the same circuits: serial vs parallel
// circuit-level fan-out, the measured speedup, and the shared catalog
// cache hit rate. Two more blocks time the catalog readers against the
// graph walks they replaced (tests/oracle/graph_walk.hpp), in the same
// run: static timing and model power.
//
// Usage:
//   perf_optimize_suite [--quick] [--reps=N] [--out=PATH]
//                       [--reference] [--no-reference] [--min-speedup=X]
//                       [--min-timing-speedup=X] [--min-power-speedup=X]
//                       [--baseline=PATH] [--max-regression=X]
//
//   --quick            run the 10-circuit CI subset instead of all 39
//   --reps=N           repetitions per circuit, best-of-N (default 3)
//   --out=PATH         JSON output path (default BENCH_optimize.json)
//   --reference        also time the test oracle's sequential reference
//                      engine (tests/oracle/) and record the catalog-engine
//                      speedup (default: on for --quick, off for the full
//                      suite, where it would dominate)
//   --min-speedup=X    with a reference measurement, exit 1 when the
//                      same-run speedup drops below X. Hardware cancels
//                      out of this ratio, so it catches real regressions
//                      the absolute baseline comparison cannot attribute.
//   --min-timing-speedup=X  exit 1 when static timing off the pin-delay
//                      memo (cold memo, both critical paths of every
//                      circuit) is less than X times faster than the
//                      oracle's graph-walk timer on the netlist before and
//                      after, measured in the same run — hardware
//                      independent like --min-speedup.
//   --min-power-speedup=X  exit 1 when power::circuit_power on the
//                      netlist before and after (catalogs warm from the
//                      scorer builds, as after optimize()) is less than X
//                      times faster than the oracle's graph-walk model
//                      power on the same netlists, same run.
//   --baseline=PATH    compare total_ms against a previous JSON; exit 1
//                      when current > max-regression x baseline
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
#include "delay/elmore.hpp"
#include "opt/batch.hpp"
#include "opt/optimizer.hpp"
#include "opt/scenario.hpp"
#include "opt/search.hpp"
#include "oracle/graph_walk.hpp"
#include "oracle/reference_oracle.hpp"
#include "power/circuit_power.hpp"

namespace {

using namespace tr;

struct CircuitResult {
  std::string name;
  int gates = 0;
  int gates_changed = 0;
  double ms = 0.0;
  double reference_ms = -1.0;  ///< oracle engine, -1 when not measured
};

const std::vector<std::string>& quick_subset() {
  static const std::vector<std::string> names{
      "b1",  "cm82a", "cm42a", "majority", "cm138a",
      "decod", "cm85a", "cmb",  "comp",     "alu2"};
  return names;
}

/// Best-of-`reps` wall time of `optimize_fn` (an optimize()-shaped call
/// on a netlist) over fresh copies of `original`.
template <typename OptimizeFn>
double time_optimize(const netlist::Netlist& original, int reps,
                     OptimizeFn optimize_fn, int* gates_changed) {
  double best_ms = 0.0;
  for (int r = 0; r < reps; ++r) {
    netlist::Netlist working = original;  // fresh canonical configs each rep
    const auto t0 = std::chrono::steady_clock::now();
    const opt::OptimizeReport report = optimize_fn(working);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (r == 0 || ms < best_ms) best_ms = ms;
    *gates_changed = report.gates_changed;
  }
  return best_ms;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// One catalog reader against the graph walk it replaced, same run.
struct Comparison {
  double graph_walk_ms = 0.0;
  double fast_ms = 0.0;
  bool identical = true;  ///< every value equal, bit for bit

  double speedup() const {
    return fast_ms > 0.0 ? graph_walk_ms / fast_ms : 0.0;
  }
  /// Folds in one rep: best-of times, identity over all reps.
  void add(double walk_ms, double fast, bool same, int rep) {
    identical = identical && same;
    if (rep == 0 || walk_ms < graph_walk_ms) graph_walk_ms = walk_ms;
    if (rep == 0 || fast < fast_ms) fast_ms = fast;
  }
};

struct ReaderComparisons {
  Comparison timing;  ///< both critical paths: walk vs cold pin-delay memo
  Comparison power;   ///< model power before and after: walk vs catalog
};

/// The batch's static timing and model power both ways, best-of-`reps`.
/// The memo side of timing runs delay::circuit_delay on copies of the
/// netlists in a second fresh library whose catalogs are built but whose
/// pin-delay memo is empty, so it pays for creating its tables the way
/// one batch process does (the scorer builds fill the first library's
/// memo). The catalogs power reads are the ones the scorer builds left
/// warm. Scorer and catalog builds stay untimed.
ReaderComparisons compare_readers(const std::vector<std::string>& names,
                                  const celllib::Tech& tech, int reps) {
  ReaderComparisons best;
  for (int r = 0; r < reps; ++r) {
    const celllib::CellLibrary lib = celllib::CellLibrary::standard();
    const celllib::CellLibrary cold_lib = celllib::CellLibrary::standard();
    std::vector<netlist::Netlist> before;
    std::vector<netlist::Netlist> after;
    std::vector<netlist::Netlist> cold;  // before and after, in cold_lib
    std::vector<power::CircuitActivity> activity;
    before.reserve(names.size());
    for (const std::string& name : names) {
      before.push_back(
          benchgen::build_benchmark(lib, benchgen::suite_entry(name)));
    }
    for (const netlist::Netlist& nl : before) {
      const benchgen::BenchmarkSpec& spec = benchgen::suite_entry(nl.name());
      const auto stats = opt::scenario_a(nl, spec.seed);
      activity.push_back(power::propagate_activity(nl, stats));
      const opt::search::IncrementalScorer scorer(nl, stats, tech,
                                                  power::ModelKind::extended);
      const std::vector<int> chosen =
          opt::search::greedy_seed(scorer, {}).configs;
      netlist::Netlist committed = nl;
      netlist::Netlist cold_before = benchgen::build_benchmark(cold_lib, spec);
      netlist::Netlist cold_after = cold_before;
      for (netlist::GateId g = 0; g < nl.gate_count(); ++g) {
        (void)cold_lib.catalog(cold_before.gate(g).config);
        const auto c = static_cast<std::size_t>(
            chosen[static_cast<std::size_t>(g)]);
        if (c != 0) {
          const gategraph::GateTopology& config =
              scorer.table(g).catalog->configs()[c].topology;
          committed.set_config(g, config);
          cold_after.set_config(g, config);
        }
      }
      after.push_back(std::move(committed));
      cold.push_back(std::move(cold_before));
      cold.push_back(std::move(cold_after));
    }

    std::vector<double> walk;
    auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < before.size(); ++i) {
      walk.push_back(oracle::circuit_delay_walk(before[i], tech).critical_path);
      walk.push_back(oracle::circuit_delay_walk(after[i], tech).critical_path);
    }
    const double walk_ms = ms_since(t0);

    std::vector<double> memo;
    t0 = std::chrono::steady_clock::now();
    for (const netlist::Netlist& nl : cold) {
      memo.push_back(delay::circuit_delay(nl, tech).critical_path);
    }
    best.timing.add(walk_ms, ms_since(t0), walk == memo, r);

    std::vector<std::vector<double>> walk_power;
    t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < before.size(); ++i) {
      for (const netlist::Netlist* nl : {&before[i], &after[i]}) {
        walk_power.push_back(
            oracle::circuit_power_walk(*nl, activity[i], tech).per_gate);
      }
    }
    const double walk_power_ms = ms_since(t0);

    std::vector<std::vector<double>> catalog_power;
    t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < before.size(); ++i) {
      for (const netlist::Netlist* nl : {&before[i], &after[i]}) {
        catalog_power.push_back(
            power::circuit_power(*nl, activity[i], tech).per_gate);
      }
    }
    best.power.add(walk_power_ms, ms_since(t0), walk_power == catalog_power,
                   r);
  }
  return best;
}

/// Extracts `"key": <number>` from our own JSON schema; -1 when absent.
double json_number(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return -1.0;
  return std::strtod(text.c_str() + at + needle.size(), nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  int reps = 3;
  std::string out_path = "BENCH_optimize.json";
  std::string baseline_path;
  double max_regression = 2.0;
  double min_speedup = -1.0;
  double min_timing_speedup = -1.0;
  double min_power_speedup = -1.0;
  int reference = -1;  // -1 = default (follows --quick)
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--reference") {
      reference = 1;
    } else if (arg == "--no-reference") {
      reference = 0;
    } else if (arg.rfind("--min-speedup=", 0) == 0) {
      min_speedup = std::strtod(arg.c_str() + 14, nullptr);
    } else if (arg.rfind("--min-timing-speedup=", 0) == 0) {
      min_timing_speedup = std::strtod(arg.c_str() + 21, nullptr);
    } else if (arg.rfind("--min-power-speedup=", 0) == 0) {
      min_power_speedup = std::strtod(arg.c_str() + 20, nullptr);
    } else if (arg.rfind("--reps=", 0) == 0) {
      reps = std::max(1, std::atoi(arg.c_str() + 7));
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

  const bool measure_reference = reference == -1 ? quick : reference == 1;
  const celllib::CellLibrary library = celllib::CellLibrary::standard();
  const celllib::Tech tech;

  std::vector<CircuitResult> results;
  double total_ms = 0.0;
  double reference_total_ms = 0.0;
  long total_gates = 0;
  for (const benchgen::BenchmarkSpec& spec : benchgen::table3_suite()) {
    if (quick) {
      const auto& subset = quick_subset();
      if (std::find(subset.begin(), subset.end(), spec.name) == subset.end()) {
        continue;
      }
    }
    const netlist::Netlist original = benchgen::build_benchmark(library, spec);
    const auto stats = opt::scenario_a(original, spec.seed);

    CircuitResult row;
    row.name = spec.name;
    row.gates = original.gate_count();
    row.ms = time_optimize(
        original, reps,
        [&](netlist::Netlist& nl) { return opt::optimize(nl, stats, tech); },
        &row.gates_changed);
    if (measure_reference) {
      int ignored = 0;
      row.reference_ms = time_optimize(
          original, reps,
          [&](netlist::Netlist& nl) {
            return oracle::optimize_reference(nl, stats, tech);
          },
          &ignored);
      reference_total_ms += row.reference_ms;
    }
    total_ms += row.ms;
    total_gates += row.gates;
    std::printf("%-10s %5d gates  %10.2f ms  %9.0f gates/s\n",
                row.name.c_str(), row.gates, row.ms,
                row.ms > 0.0 ? 1e3 * row.gates / row.ms : 0.0);
    results.push_back(std::move(row));
  }

  const double gates_per_sec =
      total_ms > 0.0 ? 1e3 * static_cast<double>(total_gates) / total_ms : 0.0;
  std::printf("%-10s %5ld gates  %10.2f ms  %9.0f gates/s\n", "TOTAL",
              total_gates, total_ms, gates_per_sec);

  // Batch driver over the same circuits: circuit-level fan-out with the
  // shared catalog cache, serial vs parallel, best-of-reps. Each run uses
  // a fresh library so the cold-cache miss count stays comparable.
  const auto time_batch = [&](int jobs, celllib::CatalogCacheStats* cache,
                              int* jobs_used) {
    double best_ms = 0.0;
    for (int r = 0; r < reps; ++r) {
      const celllib::CellLibrary batch_lib = celllib::CellLibrary::standard();
      std::vector<opt::BatchCircuit> batch;
      for (const CircuitResult& row : results) {
        const benchgen::BenchmarkSpec& spec = benchgen::suite_entry(row.name);
        netlist::Netlist nl = benchgen::build_benchmark(batch_lib, spec);
        auto stats = opt::scenario_a(nl, spec.seed);
        batch.push_back(
            opt::BatchCircuit{spec.name, std::move(nl), std::move(stats), {}, {}});
      }
      opt::BatchOptions options;
      options.jobs = jobs;
      const opt::BatchReport report =
          opt::BatchOptimizer(batch_lib, tech, options).run(batch);
      if (r == 0 || report.elapsed_ms < best_ms) best_ms = report.elapsed_ms;
      if (cache != nullptr) *cache = report.cache;
      if (jobs_used != nullptr) *jobs_used = report.jobs;
    }
    return best_ms;
  };
  const double batch_serial_ms = time_batch(1, nullptr, nullptr);
  celllib::CatalogCacheStats batch_cache;
  int batch_jobs = 0;
  const double batch_parallel_ms = time_batch(0, &batch_cache, &batch_jobs);
  const double batch_speedup =
      batch_parallel_ms > 0.0 ? batch_serial_ms / batch_parallel_ms : 0.0;
  std::printf(
      "batch driver: %10.2f ms serial -> %10.2f ms on %d jobs "
      "(%.2fx), cache hit rate %.1f%% (%llu/%llu)\n",
      batch_serial_ms, batch_parallel_ms, batch_jobs, batch_speedup,
      batch_cache.hit_rate() * 100.0,
      static_cast<unsigned long long>(batch_cache.hits),
      static_cast<unsigned long long>(batch_cache.lookups()));
  const double speedup = measure_reference && total_ms > 0.0
                             ? reference_total_ms / total_ms
                             : -1.0;
  if (measure_reference) {
    std::printf("oracle reference: %10.2f ms  -> %.1fx speedup (same run)\n",
                reference_total_ms, speedup);
  }

  std::vector<std::string> circuit_names;
  for (const CircuitResult& row : results) circuit_names.push_back(row.name);
  const ReaderComparisons readers = compare_readers(circuit_names, tech, reps);
  const Comparison& timing = readers.timing;
  const Comparison& power = readers.power;
  std::printf(
      "static timing: %10.2f ms graph walk -> %10.2f ms off the pin-delay "
      "memo (%.1fx, same run)\n",
      timing.graph_walk_ms, timing.fast_ms, timing.speedup());
  std::printf(
      "model power:   %10.2f ms graph walk -> %10.2f ms off the catalogs "
      "(%.1fx, same run)\n",
      power.graph_walk_ms, power.fast_ms, power.speedup());
  if (!timing.identical) {
    std::cerr << "static timing off the memo differs from the graph walk\n";
    return 1;
  }
  if (!power.identical) {
    std::cerr << "model power off the catalogs differs from the graph walk\n";
    return 1;
  }

  std::ostringstream json;
  json << "{\n  \"schema_version\": 1,\n  \"suite\": \""
       << (quick ? "quick" : "full") << "\",\n  \"reps\": " << reps
       << ",\n  \"circuits\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CircuitResult& row = results[i];
    json << "    {\"name\": \"" << row.name << "\", \"gates\": " << row.gates
         << ", \"gates_changed\": " << row.gates_changed
         << ", \"ms\": " << row.ms;
    if (row.reference_ms >= 0.0) {
      json << ", \"reference_ms\": " << row.reference_ms;
    }
    json << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"total_gates\": " << total_gates
       << ",\n  \"total_ms\": " << total_ms;
  if (measure_reference) {
    json << ",\n  \"reference_total_ms\": " << reference_total_ms
         << ",\n  \"speedup\": " << speedup;
  }
  json << ",\n  \"batch\": {\"serial_ms\": " << batch_serial_ms
       << ", \"parallel_ms\": " << batch_parallel_ms
       << ", \"jobs\": " << batch_jobs
       << ", \"speedup\": " << batch_speedup
       << ", \"cache_hits\": " << batch_cache.hits
       << ", \"cache_misses\": " << batch_cache.misses
       << ", \"cache_hit_rate\": " << batch_cache.hit_rate() << "}";
  json << ",\n  \"timing\": {\"graph_walk_ms\": " << timing.graph_walk_ms
       << ", \"memo_ms\": " << timing.fast_ms
       << ", \"speedup\": " << timing.speedup() << "}";
  json << ",\n  \"power\": {\"graph_walk_ms\": " << power.graph_walk_ms
       << ", \"catalog_ms\": " << power.fast_ms
       << ", \"speedup\": " << power.speedup() << "}";
  json << ",\n  \"gates_per_sec\": " << gates_per_sec << "\n}\n";
  std::ofstream(out_path) << json.str();
  std::printf("wrote %s\n", out_path.c_str());

  // Hardware-independent gate: catalog engine vs the oracle's reference
  // engine in this very run, so runner speed cancels out of the ratio.
  if (min_speedup > 0.0) {
    if (!measure_reference) {
      std::cerr << "--min-speedup requires a reference measurement "
                   "(--reference)\n";
      return 2;
    }
    if (speedup < min_speedup) {
      std::cerr << "PERF REGRESSION: catalog engine only " << speedup
                << "x faster than the reference engine (floor "
                << min_speedup << "x)\n";
      return 1;
    }
  }

  if (min_timing_speedup > 0.0 && timing.speedup() < min_timing_speedup) {
    std::cerr << "PERF REGRESSION: static timing off the memo only "
              << timing.speedup() << "x faster than the graph walk (floor "
              << min_timing_speedup << "x)\n";
    return 1;
  }
  if (min_power_speedup > 0.0 && power.speedup() < min_power_speedup) {
    std::cerr << "PERF REGRESSION: model power off the catalogs only "
              << power.speedup() << "x faster than the graph walk (floor "
              << min_power_speedup << "x)\n";
    return 1;
  }

  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::cerr << "cannot read baseline " << baseline_path << "\n";
      return 2;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    // A quick-vs-full mismatch would make the ratio meaningless (a full
    // baseline silently neuters the gate), so the suite modes must agree.
    const std::string expected_suite =
        std::string("\"suite\": \"") + (quick ? "quick" : "full") + "\"";
    if (buffer.str().find(expected_suite) == std::string::npos) {
      std::cerr << "baseline " << baseline_path
                << " was recorded with a different --quick setting than "
                   "this run; regenerate it with matching flags\n";
      return 2;
    }
    const double baseline_ms = json_number(buffer.str(), "total_ms");
    if (baseline_ms <= 0.0) {
      std::cerr << "baseline " << baseline_path << " has no total_ms\n";
      return 2;
    }
    const double ratio = total_ms / baseline_ms;
    std::printf("vs baseline: %.2fx (%s %.2f ms, limit %.2fx)\n", ratio,
                baseline_path.c_str(), baseline_ms, max_regression);
    if (ratio > max_regression) {
      std::cerr << "PERF REGRESSION: " << ratio << "x slower than baseline\n";
      return 1;
    }
  }
  return 0;
}
