// perfbench_probe — the in-process half of the benchmark (run.py drives it).
//
// It times calls into each layer's public functions from outside the
// library: no code under src/ is instrumented. Subcommands:
//
//   setup    --suite S... --seed N --reps K
//            library construction + circuit generation/mapping + scenario
//            statistics, once untimed and then K timed times (the batch
//            workloads' set-up).
//   batch    --suite S... --seed N [--delay-budget F] --oracle FILE
//            --seconds T --trace-out FILE
//            alternates an untraced and a traced serial pass (the code
//            `tr_opt --jobs 1` runs; both must render the oracle's bytes
//            exactly), each traced pass followed by a shadow pass that
//            times the public calls the engines are made of on the same
//            inputs and must choose the configurations the op committed.
//   validate --seed N --seconds T --setup-reps K [--trace-out FILE]
//            the paper's column-S pipeline on every table3 circuit:
//            optimize best and worst, model power, paired event-driven
//            Monte-Carlo with gate delays, static timing. K set-ups (after
//            one untimed) run before the first pass and after each
//            untraced pass, outside the pass timings.
//   serve    --port P --seed N --circuits FILE --sequence FILE
//            --oracle-dir DIR --clients C (--warmup-only | --requests M
//            [--traced-requests M2 --service-requests M3 --trace-out FILE])
//            — the first M requests of the sequence from closed-loop
//            socket clients; with --trace-out also traced, and through an
//            in-process OptimizeService with no socket.
//
// Every subcommand prints one JSON document on stdout.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "celllib/catalog.hpp"
#include "celllib/library.hpp"
#include "delay/elmore.hpp"
#include "opt/batch.hpp"
#include "opt/batch_report.hpp"
#include "opt/circuit_load.hpp"
#include "opt/optimizer.hpp"
#include "opt/search.hpp"
#include "power/circuit_power.hpp"
#include "server/client.hpp"
#include "server/service.hpp"
#include "sim/monte_carlo.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace {

using namespace tr;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double now_us() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - origin)
      .count();
}

// ---------------------------------------------------------------------------
// Spans: kept in memory, one tracer per thread, written out at the end as
// Chrome trace-event JSON. A disarmed tracer reads no clock.
// ---------------------------------------------------------------------------

struct Span {
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
  long op = -1;
};

class Tracer {
public:
  Tracer(bool armed, int tid) : armed_(armed), tid_(tid) {}

  int begin(const char* name, long op) {
    if (!armed_) return -1;
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.op = op;
    span.start_us = now_us();
    spans_.push_back(span);
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_us = now_us();
    stack_.pop_back();
  }
  void clear() {
    spans_.clear();
    stack_.clear();
  }
  const std::vector<Span>& spans() const noexcept { return spans_; }
  int tid() const noexcept { return tid_; }

private:
  bool armed_;
  int tid_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class Scoped {
public:
  Scoped(Tracer& tracer, const char* name, long op = -1)
      : tracer_(tracer), id_(tracer.begin(name, op)) {}
  ~Scoped() { tracer_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

private:
  Tracer& tracer_;
  int id_;
};

template <class F>
decltype(auto) traced(Tracer& tracer, const char* name, long op, F&& f) {
  const Scoped span(tracer, name, op);
  return f();
}

double duration_ms(const Span& s) { return (s.end_us - s.start_us) / 1e3; }

/// Per-name totals of the spans under `root` (spans recorded after it
/// until it closed) and the share of the root covered by leaf spans —
/// calls into public functions that the trace does not break down
/// further. Whatever is left is the benchmark's own glue.
struct LayerTotals {
  std::map<std::string, double> ms;
  double wall_ms = 0.0;
  double coverage_pct = 0.0;
};

LayerTotals summarize(const std::vector<Span>& spans, int root, int end) {
  LayerTotals totals;
  std::vector<char> has_child(spans.size(), 0);
  for (int i = root + 1; i < end; ++i) {
    const int parent = spans[static_cast<std::size_t>(i)].parent;
    if (parent >= 0) has_child[static_cast<std::size_t>(parent)] = 1;
  }
  double leaf_ms = 0.0;
  for (int i = root + 1; i < end; ++i) {
    const Span& s = spans[static_cast<std::size_t>(i)];
    totals.ms[s.name] += duration_ms(s);
    if (!has_child[static_cast<std::size_t>(i)]) leaf_ms += duration_ms(s);
  }
  totals.wall_ms = duration_ms(spans[static_cast<std::size_t>(root)]);
  totals.coverage_pct =
      totals.wall_ms > 0.0 ? 100.0 * leaf_ms / totals.wall_ms : 0.0;
  return totals;
}

template <class T>
void put(util::JsonWriter& w, std::string_view key, const T& value) {
  w.key(key);
  w.value(value);
}

void write_list(util::JsonWriter& w, const std::vector<double>& xs) {
  w.begin_array();
  for (const double x : xs) w.value(x);
  w.end_array();
}

void write_totals(util::JsonWriter& w, const LayerTotals& t) {
  w.begin_object();
  put(w, "wall_ms", t.wall_ms);
  put(w, "coverage_pct", t.coverage_pct);
  w.key("ms");
  w.begin_object();
  for (const auto& [name, ms] : t.ms) {
    put(w, name, ms);
  }
  w.end_object();
  w.end_object();
}

void write_chrome_trace(const std::string& path,
                        const std::vector<const Tracer*>& tracers) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  util::JsonWriter w(out);
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (const Tracer* tracer : tracers) {
    const std::vector<Span>& spans = tracer->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      w.begin_object();
      put(w, "name", s.name);
      put(w, "ph", "X");
      put(w, "pid", 1);
      put(w, "tid", tracer->tid());
      put(w, "ts", s.start_us);
      put(w, "dur", s.end_us - s.start_us);
      w.key("args");
      w.begin_object();
      put(w, "id", static_cast<std::int64_t>(i));
      put(w, "parent", s.parent);
      put(w, "op", static_cast<std::int64_t>(s.op));
      w.end_object();
      w.end_object();
    }
  }
  w.end_array();
  put(w, "displayTimeUnit", "ms");
  w.end_object();
  out << "\n";
}

// ---------------------------------------------------------------------------
// Arguments.
// ---------------------------------------------------------------------------

struct Args {
  std::map<std::string, std::vector<std::string>> values;
  std::vector<std::string> flags;

  bool has(const std::string& k) const {
    return values.count(k) != 0 ||
           std::find(flags.begin(), flags.end(), k) != flags.end();
  }
  std::string get(const std::string& k) const {
    const auto it = values.find(k);
    if (it == values.end()) throw std::runtime_error("missing " + k);
    return it->second.back();
  }
  std::vector<std::string> all(const std::string& k) const {
    const auto it = values.find(k);
    return it == values.end() ? std::vector<std::string>{} : it->second;
  }
  double number(const std::string& k) const { return std::stod(get(k)); }
  std::uint64_t u64(const std::string& k) const {
    return std::stoull(get(k));
  }
};

Args parse_args(int argc, char** argv, int first) {
  static const std::vector<std::string> kFlags = {"--warmup-only"};
  Args args;
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    if (std::find(kFlags.begin(), kFlags.end(), a) != kFlags.end()) {
      args.flags.push_back(a);
    } else if (a.rfind("--", 0) == 0 && i + 1 < argc) {
      args.values[a].push_back(argv[++i]);
    } else {
      throw std::runtime_error("unexpected argument " + a);
    }
  }
  return args;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// Set-up: library, circuit generation and mapping, scenario statistics.
// ---------------------------------------------------------------------------

std::vector<std::string> specs_of(const std::vector<std::string>& suites) {
  std::vector<std::string> specs;
  for (const std::string& suite : suites) {
    for (std::string& spec : opt::suite_circuit_specs(suite)) {
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

/// The circuits of one pass. The library sits behind a pointer because
/// every netlist refers to it by address.
struct Loaded {
  std::unique_ptr<celllib::CellLibrary> library;
  std::vector<opt::BatchCircuit> batch;
  int gates = 0;
};

Loaded load(const std::vector<std::string>& specs, std::uint64_t seed,
            Tracer& t) {
  Loaded l;
  {
    const Scoped span(t, "CellLibrary::standard");
    l.library = std::make_unique<celllib::CellLibrary>(
        celllib::CellLibrary::standard());
  }
  l.batch.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const long op = static_cast<long>(i);
    netlist::Netlist netlist = traced(t, "load_circuit_spec", op, [&] {
      return opt::load_circuit_spec(specs[i], *l.library);
    });
    l.batch.push_back(traced(t, "make_scenario_circuit", op, [&] {
      return opt::make_scenario_circuit(std::move(netlist), 'A', seed);
    }));
    l.gates += l.batch.back().netlist.gate_count();
  }
  return l;
}

/// Runs the set-up once untimed and then `reps` times, with a cold library
/// each time, and appends each timed repetition's seconds to `seconds`;
/// `keep` receives the last set-up. The untimed one takes the first-touch
/// page faults and allocator growth that a process pays once.
void timed_setups(const std::vector<std::string>& specs, std::uint64_t seed,
                  int reps, std::vector<double>& seconds, Loaded* keep) {
  Tracer off(false, 0);
  for (int r = 0; r <= reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    Loaded l = load(specs, seed, off);
    if (r > 0) seconds.push_back(seconds_since(t0));
    if (keep != nullptr && r == reps) *keep = std::move(l);
  }
}

int cmd_setup(const Args& args) {
  const std::vector<std::string> specs = specs_of(args.all("--suite"));
  Loaded l;
  std::vector<double> seconds;
  timed_setups(specs, args.u64("--seed"),
               static_cast<int>(args.number("--reps")), seconds, &l);
  util::JsonWriter w(std::cout);
  w.begin_object();
  w.key("setup_s");
  write_list(w, seconds);
  put(w, "gates", l.gates);
  w.key("names");
  w.begin_array();
  for (const opt::BatchCircuit& c : l.batch) w.value(c.name);
  w.end_array();
  w.end_object();
  std::cout << "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// Batch: untraced serial pass vs the same op broken into public calls.
// ---------------------------------------------------------------------------

struct BatchSetting {
  std::vector<std::string> specs;
  std::uint64_t seed = 1;
  opt::BatchOptions options;  ///< what `tr_opt --jobs 1` runs
  celllib::Tech tech;
};

std::string render(const std::vector<opt::BatchCircuit>& batch,
                   const opt::BatchReport& report,
                   const opt::BatchOptions& options) {
  opt::BatchJsonOptions json;
  json.include_timing = false;
  std::ostringstream out;
  opt::write_batch_json(batch, report, options, out, json);
  return out.str();
}

/// The op: the code `tr_opt --jobs 1 --no-timing` runs, from a cold
/// library. With an armed tracer its set-up calls, BatchOptimizer::run
/// and the render are spans.
struct BatchOp {
  Loaded loaded;
  opt::BatchReport report;
  std::string json;
};

BatchOp batch_op(const BatchSetting& s, Tracer& t) {
  BatchOp op;
  op.loaded = load(s.specs, s.seed, t);
  const opt::BatchOptimizer optimizer(*op.loaded.library, s.tech, s.options);
  op.report = traced(t, "BatchOptimizer::run", -1,
                     [&] { return optimizer.run(op.loaded.batch); });
  op.json = traced(t, "write_batch_json", -1, [&] {
    return render(op.loaded.batch, op.report, s.options);
  });
  return op;
}

bool same_configs(const netlist::Netlist& a, const netlist::Netlist& b) {
  for (netlist::GateId g = 0; g < a.gate_count(); ++g) {
    if (a.gate(g).config != b.gate(g).config) return false;
  }
  return true;
}

/// Index of `committed` among the catalog's configurations.
std::size_t config_index(const celllib::ReorderCatalog& catalog,
                         const netlist::Netlist& optimized, netlist::GateId g) {
  const auto& configs = catalog.configs();
  for (std::size_t k = 0; k < configs.size(); ++k) {
    if (configs[k].topology == optimized.gate(g).config) return k;
  }
  return configs.size();
}

struct ShadowPass {
  LayerTotals layers;
  long configs_scored = 0;
  int mismatches = 0;  ///< circuits whose shadow disagrees with the op
};

/// The op's circuits again, from fresh inputs, through the public calls
/// the engines are made of: static timing and optimize() on a copy (must
/// commit the op's configurations), then per gate an activity pass,
/// catalog lookup and score_catalog (unbudgeted: the op's configuration
/// must be a minimum-power one), or the table-driven greedy walk
/// (budgeted: must commit the op's configurations and rejections).
ShadowPass shadow_pass(const BatchSetting& s, const BatchOp& op, Tracer& t) {
  Tracer off(false, 0);
  Loaded fresh = load(s.specs, s.seed, off);
  const std::optional<double>& budget = s.options.opt.max_circuit_delay_increase;
  opt::OptimizeOptions per_circuit = s.options.opt;
  per_circuit.threads = s.options.threads_per_circuit;

  ShadowPass pass;
  const int root = t.begin("shadow", -1);
  opt::ScoreScratch scratch;
  std::vector<boolfn::SignalStats> inputs;
  for (std::size_t i = 0; i < fresh.batch.size(); ++i) {
    const long op_id = static_cast<long>(i);
    const opt::BatchCircuit& circuit = fresh.batch[i];
    const netlist::Netlist& committed = op.loaded.batch[i].netlist;
    const int expected_rejections =
        op.report.circuits[i].report.configs_rejected_by_delay;
    bool same = true;

    netlist::Netlist engine = circuit.netlist;
    traced(t, "circuit_delay", op_id,
           [&] { return delay::circuit_delay(engine, s.tech); });
    const opt::OptimizeReport report = traced(t, "optimize", op_id, [&] {
      return opt::optimize(engine, circuit.pi_stats, s.tech, per_circuit);
    });
    traced(t, "circuit_delay", op_id,
           [&] { return delay::circuit_delay(engine, s.tech); });
    same = same_configs(engine, committed) &&
           report.configs_rejected_by_delay == expected_rejections;

    if (budget) {
      const opt::search::IncrementalScorer scorer =
          traced(t, "IncrementalScorer", op_id, [&] {
            return opt::search::IncrementalScorer(
                circuit.netlist, circuit.pi_stats, s.tech, per_circuit.model);
          });
      const opt::search::GreedySeed walk = traced(
          t, "greedy_seed", op_id,
          [&] { return opt::search::greedy_seed(scorer, per_circuit); });
      same = same && walk.rejected_delay == expected_rejections;
      for (netlist::GateId g = 0; same && g < committed.gate_count(); ++g) {
        const auto c = static_cast<std::size_t>(
            walk.configs[static_cast<std::size_t>(g)]);
        same = scorer.table(g).catalog->configs()[c].topology ==
               committed.gate(g).config;
      }
    } else {
      const netlist::Netlist& in = circuit.netlist;
      const power::CircuitActivity activity =
          traced(t, "propagate_activity", op_id, [&] {
            return power::propagate_activity(in, circuit.pi_stats);
          });
      for (netlist::GateId g = 0; g < in.gate_count(); ++g) {
        const std::shared_ptr<const celllib::ReorderCatalog> catalog =
            traced(t, "CellLibrary::catalog", op_id,
                   [&] { return in.library().catalog(in.gate(g).config); });
        inputs.clear();
        for (const netlist::NetId net : in.gate(g).inputs) {
          inputs.push_back(activity.net_stats[static_cast<std::size_t>(net)]);
        }
        const double load = in.external_load(g, s.tech);
        const std::vector<double>& powers = traced(
            t, "score_catalog", op_id, [&]() -> const std::vector<double>& {
              return opt::score_catalog(*catalog, inputs, load, s.tech,
                                        per_circuit.model, scratch);
            });
        pass.configs_scored += static_cast<long>(powers.size());
        const std::size_t k = config_index(*catalog, committed, g);
        same = same && k < powers.size() &&
               powers[k] == *std::min_element(powers.begin(), powers.end());
      }
    }
    if (!same) ++pass.mismatches;
  }
  t.end(root);
  pass.layers = summarize(t.spans(), root, static_cast<int>(t.spans().size()));
  return pass;
}

int cmd_batch(const Args& args) {
  BatchSetting s;
  s.specs = specs_of(args.all("--suite"));
  s.seed = args.u64("--seed");
  s.options.jobs = 1;
  s.options.threads_per_circuit = 1;
  if (args.has("--delay-budget")) {
    s.options.opt.max_circuit_delay_increase = args.number("--delay-budget");
  }
  const std::string oracle = read_file(args.get("--oracle"));
  const double seconds = args.number("--seconds");

  Tracer off(false, 0);
  Tracer tracer(true, 0);
  std::vector<double> untraced_ms;
  std::vector<LayerTotals> ops;
  std::vector<ShadowPass> shadows;
  std::vector<opt::BatchReport> reports;
  int attempted = 0;
  int failed = 0;
  const Clock::time_point t0 = Clock::now();
  while (ops.size() < 2 || seconds_since(t0) < seconds) {
    const Clock::time_point u0 = Clock::now();
    const BatchOp untraced = batch_op(s, off);
    untraced_ms.push_back(seconds_since(u0) * 1e3);
    ++attempted;
    if (untraced.json != oracle) ++failed;

    tracer.clear();
    const int root = tracer.begin("batch_pass", -1);
    const BatchOp op = batch_op(s, tracer);
    tracer.end(root);
    ops.push_back(summarize(tracer.spans(), root,
                            static_cast<int>(tracer.spans().size())));
    shadows.push_back(shadow_pass(s, op, tracer));
    ++attempted;
    if (op.json != oracle || shadows.back().mismatches > 0) ++failed;
    reports.push_back(op.report);
  }
  write_chrome_trace(args.get("--trace-out"), {&tracer});

  util::JsonWriter w(std::cout);
  w.begin_object();
  put(w, "attempted", attempted);
  put(w, "failed", failed);
  w.key("untraced_ms");
  write_list(w, untraced_ms);
  w.key("passes");
  w.begin_array();
  for (std::size_t p = 0; p < ops.size(); ++p) {
    const opt::BatchReport& r = reports[p];
    int rejected = 0;
    for (const opt::BatchCircuitResult& c : r.circuits) {
      rejected += c.report.configs_rejected_by_delay;
    }
    w.begin_object();
    w.key("op");
    write_totals(w, ops[p]);
    w.key("shadow");
    write_totals(w, shadows[p].layers);
    put(w, "catalog_hits", r.cache.hits);
    put(w, "catalog_misses", r.cache.misses);
    put(w, "configs_scored",
        static_cast<std::int64_t>(shadows[p].configs_scored));
    put(w, "gates", r.gates_total);
    put(w, "gates_changed", r.gates_changed);
    put(w, "rejected_delay", rejected);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::cout << "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// Validate: the paper's column-S pipeline (bench/harness.cpp's shape).
// ---------------------------------------------------------------------------

constexpr double kTogglesPerPi = 150.0;
constexpr int kReplications = 8;
constexpr int kWorkers = 2;  ///< optimize and Monte-Carlo threads

/// Everything a validation op computes that is fixed per seed; two
/// passes over the same inputs must agree exactly.
struct ValidateResult {
  double sim_reduction_pct = 0.0;    ///< column S
  double model_reduction_pct = 0.0;  ///< column M
  double delay_increase_pct = 0.0;   ///< column D
  std::uint64_t events = 0;
  std::size_t truncated = 0;
  bool operator==(const ValidateResult&) const = default;
};

ValidateResult validate_circuit(const opt::BatchCircuit& c,
                                const celllib::Tech& tech,
                                std::uint64_t seed, Tracer& t, long op) {
  const Scoped circuit_span(t, "circuit", op);
  netlist::Netlist best = c.netlist;
  netlist::Netlist worst = c.netlist;
  opt::OptimizeOptions minimize;
  minimize.threads = kWorkers;
  opt::OptimizeOptions maximize = minimize;
  maximize.objective = opt::Objective::maximize_power;
  traced(t, "optimize", op,
         [&] { return opt::optimize(best, c.pi_stats, tech, minimize); });
  traced(t, "optimize", op,
         [&] { return opt::optimize(worst, c.pi_stats, tech, maximize); });

  ValidateResult r;
  const power::CircuitActivity activity = traced(
      t, "propagate_activity", op,
      [&] { return power::propagate_activity(c.netlist, c.pi_stats); });
  const double model_best = traced(t, "circuit_power", op, [&] {
    return power::circuit_power(best, activity, tech).total();
  });
  const double model_worst = traced(t, "circuit_power", op, [&] {
    return power::circuit_power(worst, activity, tech).total();
  });
  r.model_reduction_pct = percent_reduction(model_worst, model_best);

  double mean_density = 0.0;
  for (const auto& [net, stats] : c.pi_stats) mean_density += stats.density;
  mean_density /= static_cast<double>(c.pi_stats.size());
  sim::MonteCarloOptions mc;
  mc.sim.seed = opt::circuit_seed(seed, c.name);
  mc.sim.measure_time =
      mean_density > 0.0 ? kTogglesPerPi / mean_density : 1e-3;
  mc.sim.warmup_time = mc.sim.measure_time * 0.02;
  mc.replications = kReplications;
  mc.threads = kWorkers;
  const sim::SimSummary sim_best = traced(t, "monte_carlo", op, [&] {
    return sim::monte_carlo(best, c.pi_stats, tech, mc);
  });
  const sim::SimSummary sim_worst = traced(t, "monte_carlo", op, [&] {
    return sim::monte_carlo(worst, c.pi_stats, tech, mc);
  });
  RunningStats reduction;
  for (std::size_t k = 0; k < sim_best.replicate_energy.size() &&
                          k < sim_worst.replicate_energy.size();
       ++k) {
    reduction.add(percent_reduction(sim_worst.replicate_energy[k],
                                    sim_best.replicate_energy[k]));
  }
  r.sim_reduction_pct = reduction.mean();
  r.events = sim_best.total_events + sim_worst.total_events;
  r.truncated =
      sim_best.truncated_replications + sim_worst.truncated_replications;

  const double delay_original = traced(t, "circuit_delay", op, [&] {
    return delay::circuit_delay(c.netlist, tech).critical_path;
  });
  const double delay_best = traced(t, "circuit_delay", op, [&] {
    return delay::circuit_delay(best, tech).critical_path;
  });
  r.delay_increase_pct = percent_increase(delay_original, delay_best);
  return r;
}

struct ValidatePass {
  std::vector<ValidateResult> results;
  std::vector<double> circuit_ms;
  double wall_ms = 0.0;
  LayerTotals layers;
};

ValidatePass validate_pass(const Loaded& l, const celllib::Tech& tech,
                           std::uint64_t seed, Tracer& t) {
  ValidatePass pass;
  t.clear();
  const Clock::time_point t0 = Clock::now();
  const int root = t.begin("validate_pass", -1);
  for (std::size_t i = 0; i < l.batch.size(); ++i) {
    const Clock::time_point c0 = Clock::now();
    pass.results.push_back(
        validate_circuit(l.batch[i], tech, seed, t, static_cast<long>(i)));
    pass.circuit_ms.push_back(seconds_since(c0) * 1e3);
  }
  t.end(root);
  pass.wall_ms = seconds_since(t0) * 1e3;
  if (root >= 0) {
    pass.layers =
        summarize(t.spans(), root, static_cast<int>(t.spans().size()));
  }
  return pass;
}

int cmd_validate(const Args& args) {
  const std::uint64_t seed = args.u64("--seed");
  const double seconds = args.number("--seconds");
  const bool tracing = args.has("--trace-out");
  const std::vector<std::string> specs = specs_of({"table3"});
  const int setup_reps = static_cast<int>(args.number("--setup-reps"));
  Loaded l;
  std::vector<double> setup_s;
  timed_setups(specs, seed, setup_reps, setup_s, &l);
  const celllib::Tech tech;

  Tracer off(false, 0);
  Tracer on(true, 0);
  std::vector<ValidatePass> untraced;
  std::vector<ValidatePass> traced_passes;
  const Clock::time_point t0 = Clock::now();
  while (untraced.size() < 2 || seconds_since(t0) < seconds) {
    untraced.push_back(validate_pass(l, tech, seed, off));
    timed_setups(specs, seed, setup_reps, setup_s, nullptr);
    if (tracing) traced_passes.push_back(validate_pass(l, tech, seed, on));
  }
  if (tracing) write_chrome_trace(args.get("--trace-out"), {&on});

  // An op fails when a replication was truncated or when its estimates
  // differ from the first pass's (they are fixed per seed).
  const std::vector<ValidateResult>& reference = untraced.front().results;
  int attempted = 0;
  int failed = 0;
  std::size_t truncated = 0;
  std::vector<double> pass_ms;
  std::vector<double> circuit_ms;
  for (const std::vector<ValidatePass>* group : {&untraced, &traced_passes}) {
    for (const ValidatePass& p : *group) {
      for (std::size_t i = 0; i < p.results.size(); ++i) {
        ++attempted;
        truncated += p.results[i].truncated;
        if (p.results[i].truncated > 0 || !(p.results[i] == reference[i])) {
          ++failed;
        }
      }
    }
  }
  for (const ValidatePass& p : untraced) {
    pass_ms.push_back(p.wall_ms);
    circuit_ms.insert(circuit_ms.end(), p.circuit_ms.begin(),
                      p.circuit_ms.end());
  }
  double column_s = 0.0;
  std::uint64_t events = 0;
  for (const ValidateResult& r : reference) {
    column_s += r.sim_reduction_pct;
    events += r.events;
  }
  column_s /= static_cast<double>(reference.size());

  util::JsonWriter w(std::cout);
  w.begin_object();
  w.key("setup_s");
  write_list(w, setup_s);
  put(w, "gates", l.gates);
  put(w, "attempted", attempted);
  put(w, "failed", failed);
  put(w, "truncated", static_cast<std::uint64_t>(truncated));
  put(w, "power_saved_pct", column_s);
  put(w, "events", events);
  w.key("pass_ms");
  write_list(w, pass_ms);
  w.key("circuit_ms");
  write_list(w, circuit_ms);
  w.key("passes");
  w.begin_array();
  for (const ValidatePass& p : traced_passes) write_totals(w, p.layers);
  w.end_array();
  w.end_object();
  std::cout << "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// Serve: closed-loop clients over the daemon's socket, and the same
// requests through an in-process OptimizeService.
// ---------------------------------------------------------------------------

std::string request_json(const std::string& circuit, std::uint64_t seed) {
  std::ostringstream out;
  util::JsonWriter w(out);
  w.begin_object();
  w.key("circuits");
  w.begin_array();
  w.value(circuit);
  w.end_array();
  put(w, "seed", seed);
  put(w, "jobs", 1);
  put(w, "gate_configs", false);
  w.end_object();
  return out.str();
}

struct Sample {
  long index = 0;
  int circuit = 0;
  double latency_ms = 0.0;
  bool ok = false;
};

/// Sink that hands the terminal payload to a waiting client thread.
class WaitSink : public server::Sink {
public:
  void on_progress(const std::string&) override {}
  void on_response(const std::string& payload) override {
    finish(payload, true);
  }
  void on_error(const std::string& payload) override {
    finish(payload, false);
  }
  /// Blocks until the terminal call; returns (ok, payload).
  std::pair<bool, std::string> wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return done_; });
    return {ok_, payload_};
  }

private:
  void finish(const std::string& payload, bool ok) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      payload_ = payload;
      ok_ = ok;
      done_ = true;
    }
    cv_.notify_all();
  }
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  bool ok_ = false;
  std::string payload_;
};

/// One request: (terminal frame is a response, payload).
using Transport =
    std::function<std::pair<bool, std::string>(const std::string&)>;

struct LoadResult {
  std::vector<Sample> samples;
  double wall_s = 0.0;
};

/// Closed loop: each client sends its next request only after the
/// previous one's terminal frame. Requests are taken in sequence order
/// from a shared counter until the first `requests` of the seeded
/// sequence are done, so every call serves the same requests.
LoadResult closed_loop(const std::vector<int>& sequence,
                       const std::vector<std::string>& circuits,
                       const std::vector<std::string>& oracles,
                       std::uint64_t seed, int clients, long requests,
                       const Transport& send, std::vector<Tracer>* tracers,
                       const char* span_name) {
  std::atomic<long> next{0};
  std::vector<std::vector<Sample>> per_client(
      static_cast<std::size_t>(clients));
  const Clock::time_point t0 = Clock::now();
  const auto client = [&](int id) {
    Tracer* tracer =
        tracers != nullptr ? &(*tracers)[static_cast<std::size_t>(id)]
                           : nullptr;
    for (;;) {
      const long index = next.fetch_add(1);
      if (index >= requests) break;
      const int c = sequence[static_cast<std::size_t>(index) %
                             sequence.size()];
      const std::string request =
          request_json(circuits[static_cast<std::size_t>(c)], seed);
      Sample sample;
      sample.index = index;
      sample.circuit = c;
      const Clock::time_point r0 = Clock::now();
      const int span = tracer ? tracer->begin(span_name, index) : -1;
      std::pair<bool, std::string> reply{false, ""};
      try {
        reply = send(request);
      } catch (const std::exception&) {
        reply.first = false;  // transport failure
      }
      if (tracer) tracer->end(span);
      sample.latency_ms = seconds_since(r0) * 1e3;
      // The oracle comparison stays outside the timed region.
      sample.ok = reply.first &&
                  reply.second == oracles[static_cast<std::size_t>(c)];
      per_client[static_cast<std::size_t>(id)].push_back(sample);
    }
  };
  std::vector<std::thread> threads;
  for (int id = 0; id < clients; ++id) threads.emplace_back(client, id);
  for (std::thread& th : threads) th.join();
  LoadResult result;
  result.wall_s = seconds_since(t0);
  for (const std::vector<Sample>& samples : per_client) {
    result.samples.insert(result.samples.end(), samples.begin(),
                          samples.end());
  }
  std::sort(result.samples.begin(), result.samples.end(),
            [](const Sample& a, const Sample& b) { return a.index < b.index; });
  return result;
}

/// Samples as [index, circuit, latency_ms, ok] rows.
void write_samples(util::JsonWriter& w, const char* key, const LoadResult& r) {
  w.key(key);
  w.begin_object();
  put(w, "wall_s", r.wall_s);
  w.key("samples");
  w.begin_array();
  for (const Sample& s : r.samples) {
    w.begin_array();
    w.value(static_cast<std::int64_t>(s.index));
    w.value(s.circuit);
    w.value(s.latency_ms);
    w.value(s.ok ? 1 : 0);
    w.end_array();
  }
  w.end_array();
  w.end_object();
}

int cmd_serve(const Args& args) {
  const int port = static_cast<int>(args.number("--port"));
  const std::uint64_t seed = args.u64("--seed");
  const int clients = static_cast<int>(args.number("--clients"));
  const std::vector<std::string> circuits = read_lines(args.get("--circuits"));
  std::vector<std::string> oracles;
  for (const std::string& c : circuits) {
    oracles.push_back(read_file(args.get("--oracle-dir") + "/" + c + ".json"));
  }
  const Transport socket_send = [&](const std::string& request) {
    const server::ClientResult r =
        server::run_request("127.0.0.1", port, request);
    return std::make_pair(r.type == server::kFrameResponse, r.payload);
  };

  util::JsonWriter w(std::cout);
  w.begin_object();
  if (args.has("--warmup-only")) {
    // One request per distinct circuit: fills the daemon's catalog cache.
    const Clock::time_point t0 = Clock::now();
    int failed = 0;
    for (std::size_t c = 0; c < circuits.size(); ++c) {
      const auto [ok, payload] = socket_send(request_json(circuits[c], seed));
      if (!ok || payload != oracles[c]) ++failed;
    }
    put(w, "warmup_s", seconds_since(t0));
    put(w, "failed", failed);
    w.end_object();
    std::cout << "\n";
    return 0;
  }

  std::vector<int> sequence;
  for (const std::string& line : read_lines(args.get("--sequence"))) {
    sequence.push_back(std::stoi(line));
  }
  const long requests = static_cast<long>(args.number("--requests"));
  if (!args.has("--trace-out")) {
    write_samples(w, "socket",
                  closed_loop(sequence, circuits, oracles, seed, clients,
                              requests, socket_send, nullptr, ""));
    w.end_object();
    std::cout << "\n";
    return 0;
  }

  // Traced: the socket load untraced and traced, then the same requests
  // through an in-process service (warmed the same way as the daemon).
  std::vector<Tracer> tracers;
  for (int id = 0; id < clients; ++id) tracers.emplace_back(true, id);
  write_samples(w, "socket",
                closed_loop(sequence, circuits, oracles, seed, clients,
                            requests, socket_send, nullptr, ""));
  write_samples(w, "socket_traced",
                closed_loop(sequence, circuits, oracles, seed, clients,
                            static_cast<long>(args.number("--traced-requests")),
                            socket_send, &tracers, "run_request"));
  {
    server::ServiceConfig config;
    config.workers = 2;
    server::OptimizeService service(config);
    const Transport in_process = [&](const std::string& request) {
      const auto sink = std::make_shared<WaitSink>();
      service.submit(request, sink);
      return sink->wait();
    };
    for (const std::string& c : circuits) in_process(request_json(c, seed));
    std::vector<Tracer> service_tracers;
    for (int id = 0; id < clients; ++id) {
      service_tracers.emplace_back(true, clients + id);
    }
    write_samples(w, "service",
                  closed_loop(
                      sequence, circuits, oracles, seed, clients,
                      static_cast<long>(args.number("--service-requests")),
                      in_process, &service_tracers,
                      "OptimizeService::submit"));
    for (Tracer& t : service_tracers) tracers.push_back(std::move(t));
  }
  std::vector<const Tracer*> all;
  for (const Tracer& t : tracers) all.push_back(&t);
  write_chrome_trace(args.get("--trace-out"), all);
  w.end_object();
  std::cout << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench_probe setup|batch|validate|serve ...\n";
    return 2;
  }
  try {
    const std::string cmd = argv[1];
    const Args args = parse_args(argc, argv, 2);
    if (cmd == "setup") return cmd_setup(args);
    if (cmd == "batch") return cmd_batch(args);
    if (cmd == "validate") return cmd_validate(args);
    if (cmd == "serve") return cmd_serve(args);
    std::cerr << "perfbench_probe: unknown command " << cmd << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_probe: " << e.what() << "\n";
    return 1;
  }
}
