// tr_opt — batch transistor-reordering optimizer (DESIGN.md Sec. 9).
//
// The production entry point for the paper's suite-shaped flow: load N
// circuits, map them onto the Table 2 library, optimize all of them with
// two-level parallelism (circuit-level fan-out over gate-level scoring)
// against one shared reordering-catalog cache, and emit a deterministic
// machine-readable JSON report.
//
// Besides the one-shot batch mode, the binary is the optimization
// daemon and its client (DESIGN.md Sec. 13): `--serve` keeps one
// process-lifetime library warm across requests behind a framed socket
// protocol; `--connect` sends the same option surface as a request and
// streams the response.
//
// Usage:
//   tr_opt [circuit ...] [options]            one-shot batch
//   tr_opt --serve [--port N] [server options]
//   tr_opt --connect HOST:PORT [circuit ...] [options]
//   tr_opt --connect HOST:PORT --shutdown     ask the daemon to drain
//
// Circuits (positional, repeatable; --suite appends whole suites):
//   <name>.blif   BLIF file: generic (.names) models are mapped onto the
//                 library, mapped (.gate) models are loaded directly
//   <name>.v      structural Verilog (the writer's subset)
//   c17 ...       an embedded classic (see benchgen::classic_names)
//   alu2 ...      a Table 3 / scaled suite entry, generated on the fly
//   (the daemon serves embedded/generated specs only — file paths are
//   rejected in a network request)
//
// Options:
//   --suite classic|table3|scaled  append the whole suite
//   --scenario A|B       input-statistics scenario (default A)
//   --seed N             master seed; per-circuit streams derive from it
//                        and the circuit name (default 1)
//   --jobs N             circuit-level workers, 0 = hardware (default 0)
//   --threads-per-circuit N  gate-level workers per circuit (default 1)
//   --objective minimize|maximize   power objective (default minimize)
//   --model extended|output_only    gate power model (default extended)
//   --delay-budget F     admit only configurations keeping the critical
//                        path within (1+F)x the original; F >= 0
//                        (default off; 0 = zero-slack budget)
//   --engine catalog|anneal  scoring engine (default catalog: the
//                        paper's greedy pass, sequential under a delay
//                        budget; anneal: a global search seeded from it)
//   --anneal-seed N      move-stream seed of --engine anneal (default 1)
//   --anneal-iters N     annealing moves per gate (default 256)
//   --restrict-instance  only same-layout-instance reorderings
//   --keep-going         contain per-circuit failures as error records
//                        and finish the rest (default)
//   --fail-fast          abort the batch on the first circuit failure
//   --deadline-ms F      cancel outstanding work F milliseconds after
//                        the run starts; cancelled circuits report
//                        status "cancelled" (all-or-nothing: a circuit
//                        either finishes deterministically or carries
//                        no numbers)
//   --out DIR            write batch.json + one <circuit>.json per
//                        circuit into DIR instead of stdout
//   --no-timing          omit wall-clock fields (byte-stable output)
//   --no-gate-configs    omit the per-gate configuration arrays
//   --no-cache-stats     omit the catalog_cache block — use together
//                        with --no-timing to byte-compare a one-shot
//                        run against a daemon response (the daemon
//                        always omits both; DESIGN.md Sec. 13.3)
//   --checkpoint DIR     journal every completed circuit into DIR
//                        (crash-consistent entries; DESIGN.md Sec. 15)
//   --resume             with --checkpoint: skip circuits already
//                        journaled in DIR and re-emit their results;
//                        under --no-timing --no-cache-stats the output
//                        is byte-identical to an uninterrupted run
//
// Server options (--serve):
//   --port N             TCP port, 0 = ephemeral (default 0)
//   --host ADDR          bind address (default 127.0.0.1)
//   --port-file PATH     write the bound port to PATH (for scripts)
//   --workers N          concurrent request executors (default 2)
//   --max-queue N        admission bound on queued requests (default 64)
//   --catalog-capacity N LRU bound on cached catalogs, 0 = unbounded
//
// Client options (--connect):
//   --priority N         scheduling priority, higher first (default 0)
//   --shutdown           send a drain request instead of circuits
//   --retries N          extra attempts after a retryable failure
//                        (transport errors, retryable server errors;
//                        default 0 = fail on the first)
//   --retry-base-ms F    backoff before the first retry, doubling each
//                        attempt with deterministic seeded jitter
//                        (default 100)
//   --timeout-ms F       per-attempt connect/read timeout (default:
//                        none — the server enforces --deadline-ms)
//   --request-id ID      idempotency key: the daemon replays the stored
//                        response of an already-completed ID instead of
//                        re-running it, so a retried request is executed
//                        at most once (DESIGN.md Sec. 15.4)
//
// stdout carries exactly one JSON document (or nothing with --out);
// progress and the human summary go to stderr. Every JSON field except
// the wall-clock block is bit-identical across runs and --jobs values.
// A draining daemon dumps its metrics JSON (request counters, catalog
// cache hit/miss/eviction totals) to stdout before exiting.
//
// Exit codes (README "Error handling"): 0 = every circuit ok; 1 = fatal
// error (internal/unknown); 2 = usage; 3 = at least one circuit failed
// (takes precedence over cancellation); 4 = circuits were cancelled but
// none failed. --connect maps the daemon's response onto the same codes.
//
// TR_FAULT=site[:nth][:kind][@context] arms the deterministic
// fault-injection harness (util/fault.hpp) for the whole run — the CI
// recovery-path drills run this binary with a poisoned environment.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "celllib/library.hpp"
#include "opt/batch.hpp"
#include "opt/batch_report.hpp"
#include "opt/checkpoint.hpp"
#include "opt/circuit_load.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

#ifdef TR_HAVE_SERVER
#include <csignal>

#include "server/client.hpp"
#include "server/retry_client.hpp"
#include "server/server.hpp"
#endif

namespace {

using namespace tr;

int usage(const char* error) {
  if (error != nullptr) std::cerr << "tr_opt: " << error << "\n";
  std::cerr
      << "usage: tr_opt [circuit ...] [--suite classic|table3|scaled]\n"
         "              [--scenario A|B] [--seed N] [--jobs N]\n"
         "              [--threads-per-circuit N]\n"
         "              [--objective minimize|maximize]\n"
         "              [--model extended|output_only] [--delay-budget F]\n"
         "              [--engine catalog|anneal]\n"
         "              [--anneal-seed N] [--anneal-iters N]\n"
         "              [--restrict-instance] [--keep-going | --fail-fast]\n"
         "              [--deadline-ms F] [--out DIR] [--no-timing]\n"
         "              [--no-gate-configs] [--no-cache-stats]\n"
         "              [--checkpoint DIR [--resume]]\n"
         "       tr_opt --serve [--port N] [--host ADDR] [--port-file PATH]\n"
         "              [--workers N] [--max-queue N] [--catalog-capacity N]\n"
         "       tr_opt --connect HOST:PORT [circuit/option ...]\n"
         "              [--priority N] [--retries N] [--retry-base-ms F]\n"
         "              [--timeout-ms F] [--request-id ID]\n"
         "       tr_opt --connect HOST:PORT --shutdown\n"
         "circuits: BLIF/structural-Verilog files, embedded classics "
         "(c17, fulladder, cmp2, dec2to4),\n"
         "or generated suite entries (b1 ... alu4, syn1000 ... syn8000)\n";
  return 2;
}

std::string sanitize_filename(const std::string& name) {
  std::string out;
  for (const char c : name) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                      c == '.';
    out += safe ? c : '_';
  }
  return out.empty() ? "circuit" : out;
}

/// Strict numeric parsing: a flag value that is not entirely a number of
/// the expected kind is a usage error, never a silent 0 (a mistyped
/// --delay-budget must not quietly enable a zero-increase budget).
/// std::from_chars — unlike the sto* family — accepts neither leading
/// whitespace (" 5" must fail) nor "nan"/"inf" for the integer kinds;
/// the finite check below closes the non-finite hole for doubles (a NaN
/// --deadline-ms would otherwise never latch in the cancellation token).
long long parse_int(const std::string& flag, const std::string& text) {
  long long value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) {
    std::exit(
        usage((flag + " expects an integer, got '" + text + "'").c_str()));
  }
  return value;
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) {
    std::exit(usage(
        (flag + " expects a non-negative integer, got '" + text + "'")
            .c_str()));
  }
  return value;
}

double parse_double(const std::string& flag, const std::string& text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end ||
      !std::isfinite(value)) {
    std::exit(
        usage((flag + " expects a finite number, got '" + text + "'")
                  .c_str()));
  }
  return value;
}

/// The full option surface of one run, shared by the batch, serve and
/// connect modes (the connect mode serialises it as a request document).
struct Options {
  std::vector<std::string> circuit_specs;
  char scenario = 'A';
  std::uint64_t seed = 1;
  std::string out_dir;
  double deadline_ms = -1.0;
  opt::BatchOptions batch;
  opt::BatchJsonOptions json;

  std::string checkpoint_dir;  ///< empty = journaling off
  bool resume = false;

  bool serve = false;
  std::string connect;  ///< HOST:PORT, empty = one-shot batch mode
  bool shutdown = false;
  int priority = 0;
  int retries = 0;                ///< extra client attempts after the first
  double retry_base_ms = 100.0;   ///< backoff of the first retry
  double timeout_ms = -1.0;       ///< per-attempt connect/read timeout
  std::string request_id;         ///< idempotency key, empty = none
  int port = 0;
  std::string host = "127.0.0.1";
  std::string port_file;
  int workers = 2;
  long long max_queue = 64;
  std::uint64_t catalog_capacity = 0;
};

int run_batch(Options& o) {
  try {
    // CI recovery drills poison the pipeline through the environment.
    tr::util::fault::install_from_env();

    const celllib::CellLibrary library = celllib::CellLibrary::standard();
    const celllib::Tech tech;

    std::vector<opt::BatchCircuit> batch;
    batch.reserve(o.circuit_specs.size());
    for (const std::string& spec : o.circuit_specs) {
      batch.push_back(opt::make_scenario_circuit_guarded(
          spec, o.scenario, o.seed, library,
          [&] { return opt::load_circuit_spec(spec, library); }));
      const opt::BatchCircuit& circuit = batch.back();
      if (circuit.load_error) {
        std::cerr << "failed to load " << spec << ": "
                  << circuit.load_error->message << "\n";
      } else {
        std::cerr << "loaded " << circuit.name << ": "
                  << circuit.netlist.gate_count() << " gates\n";
      }
    }

    // Armed after loading so --deadline-ms budgets the optimization
    // itself, not suite generation.
    if (o.deadline_ms >= 0.0) {
      o.batch.cancel = util::CancellationToken::with_deadline_ms(
          o.deadline_ms);
    }

    // Checkpoint journaling (DESIGN.md Sec. 15.2): the manifest pins the
    // run fingerprint, resume re-applies journaled results onto the
    // freshly loaded batch, and the journal hook makes each freshly
    // completed circuit durable before its progress is visible.
    std::optional<opt::checkpoint::CheckpointJournal> journal;
    if (!o.checkpoint_dir.empty()) {
      journal.emplace(
          o.checkpoint_dir, o.resume,
          opt::checkpoint::render_manifest(o.circuit_specs, o.scenario,
                                           o.seed, o.batch));
      if (o.resume) {
        const int resumed = journal->load(batch);
        std::cerr << "tr_opt: resumed " << resumed << "/" << batch.size()
                  << " circuits from " << o.checkpoint_dir << "\n";
      }
      o.batch.journal = [&journal](std::size_t i,
                                   const opt::BatchCircuit& circuit,
                                   const opt::BatchCircuitResult& result) {
        journal->record(i, circuit, result);
      };
    }

    const opt::BatchOptimizer optimizer(library, tech, o.batch);
    const opt::BatchReport report = optimizer.run(batch);

    if (journal) {
      // Journal damage is never fatal — a damaged entry was re-run, a
      // failed write only costs resumability — but it is never silent
      // either.
      for (const opt::checkpoint::JournalWarning& warning :
           journal->warnings()) {
        std::cerr << "tr_opt: warning: journal " << warning.file << " ["
                  << error_code_name(warning.code)
                  << "]: " << warning.message << "\n";
      }
    }

    if (o.out_dir.empty()) {
      write_batch_json(batch, report, o.batch, std::cout, o.json);
    } else {
      namespace fs = std::filesystem;
      fs::create_directories(o.out_dir);
      {
        std::ofstream out(fs::path(o.out_dir) / "batch.json");
        require(out.good(), "cannot write to '" + o.out_dir + "'");
        write_batch_json(batch, report, o.batch, out, o.json);
      }
      // Deterministic, collision-proof file names: bump a suffix until
      // the final name is genuinely unused ("a", "a", "a_2" must yield
      // three distinct files, not overwrite one another).
      std::set<std::string> taken;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const std::string base = sanitize_filename(report.circuits[i].name);
        std::string final_name = base;
        for (int suffix = 2; taken.contains(final_name); ++suffix) {
          final_name = base + "_" + std::to_string(suffix);
        }
        taken.insert(final_name);
        std::ofstream out(fs::path(o.out_dir) / (final_name + ".json"));
        require(out.good(),
                "cannot write circuit report for '" + final_name + "'");
        write_circuit_json(batch[i], report.circuits[i], out, o.json);
      }
      std::cerr << "reports written to " << o.out_dir << "/\n";
    }

    std::cerr << "optimized " << report.circuits_ok << "/"
              << report.circuits.size() << " circuits ("
              << report.circuits_failed << " error, "
              << report.circuits_cancelled << " cancelled), "
              << report.gates_total << " gates (" << report.gates_changed
              << " reordered): model power "
              << format_fixed(report.model_power_before * 1e6, 3) << " -> "
              << format_fixed(report.model_power_after * 1e6, 3) << " uW ("
              << format_fixed(percent_reduction(report.model_power_before,
                                                report.model_power_after),
                              1)
              << "% reduction), catalog cache hit rate "
              << format_fixed(report.cache.hit_rate() * 100.0, 1) << "% ("
              << report.cache.hits << "/" << report.cache.lookups()
              << "), " << format_fixed(report.elapsed_ms, 1) << " ms on "
              << report.jobs << " jobs\n";

    // Category exit codes: a circuit error beats cancellation — the
    // caller must look at the report even when a deadline also fired.
    if (report.circuits_failed > 0) return 3;
    if (report.circuits_cancelled > 0) return 4;
  } catch (const Error& e) {
    std::cerr << "tr_opt: error: " << e.what() << "\n";
    switch (e.code()) {
      case ErrorCode::cancelled:
        return 4;
      case ErrorCode::internal:
      case ErrorCode::unknown:
        return 1;
      default:
        return 3;  // parse / invalid input / injected / resource
    }
  } catch (const std::exception& e) {
    std::cerr << "tr_opt: fatal: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

#ifdef TR_HAVE_SERVER

server::Server* g_server = nullptr;

extern "C" void handle_drain_signal(int) {
  // request_drain is async-signal-safe (one pipe write).
  if (g_server != nullptr) g_server->request_drain();
}

int run_serve(const Options& o) {
  try {
    tr::util::fault::install_from_env();

    server::ServerConfig config;
    config.host = o.host;
    config.port = o.port;
    config.service.workers = o.workers;
    config.service.max_queue = static_cast<std::size_t>(o.max_queue);
    config.service.catalog_capacity =
        static_cast<std::size_t>(o.catalog_capacity);

    server::Server daemon(config);
    daemon.start();

    g_server = &daemon;
    std::signal(SIGTERM, handle_drain_signal);
    std::signal(SIGINT, handle_drain_signal);
    // MSG_NOSIGNAL covers the framed writes; ignoring SIGPIPE as well
    // keeps any stray fd write from killing the daemon.
    std::signal(SIGPIPE, SIG_IGN);

    if (!o.port_file.empty()) {
      std::ofstream out(o.port_file);
      require(out.good(), "cannot write port file '" + o.port_file + "'");
      out << daemon.port() << "\n";
    }
    std::cerr << "tr_opt: serving on " << config.host << ":" << daemon.port()
              << " (" << o.workers << " workers, queue " << o.max_queue
              << ", catalog capacity "
              << (o.catalog_capacity == 0 ? std::string("unbounded")
                                          : std::to_string(o.catalog_capacity))
              << ")\n";

    daemon.serve();
    g_server = nullptr;

    // The drain-time metrics dump: the one place the cross-request
    // cache hit rate and eviction counters are reported.
    daemon.write_metrics_json(std::cout);
    std::cout << "\n";
    std::cerr << "tr_opt: drained\n";
    return 0;
  } catch (const std::exception& e) {
    g_server = nullptr;
    std::cerr << "tr_opt: fatal: " << e.what() << "\n";
    return 1;
  }
}

/// Splits HOST:PORT (or bare PORT, meaning loopback). Exits with a
/// usage error on anything else.
void parse_endpoint(const std::string& spec, std::string& host, int& port) {
  const std::size_t colon = spec.rfind(':');
  std::string port_text;
  if (colon == std::string::npos) {
    host = "127.0.0.1";
    port_text = spec;
  } else {
    host = spec.substr(0, colon);
    port_text = spec.substr(colon + 1);
  }
  const long long value = parse_int("--connect port", port_text);
  if (value < 1 || value > 65535) {
    std::exit(usage("--connect port must be in 1..65535"));
  }
  port = static_cast<int>(value);
}

std::string render_request(const Options& o) {
  std::ostringstream out;
  util::JsonWriter w(out);
  w.begin_object();
  w.key("circuits");
  w.begin_array();
  for (const std::string& spec : o.circuit_specs) w.value(spec);
  w.end_array();
  w.key("scenario");
  w.value(std::string(1, o.scenario));
  w.key("seed");
  w.value(o.seed);
  w.key("jobs");
  w.value(o.batch.jobs);
  w.key("threads_per_circuit");
  w.value(o.batch.threads_per_circuit);
  w.key("objective");
  w.value(o.batch.opt.objective == opt::Objective::minimize_power
              ? "minimize"
              : "maximize");
  w.key("model");
  w.value(o.batch.opt.model == power::ModelKind::extended ? "extended"
                                                          : "output_only");
  w.key("delay_budget");
  if (o.batch.opt.max_circuit_delay_increase) {
    w.value(*o.batch.opt.max_circuit_delay_increase);
  } else {
    w.null_value();
  }
  w.key("engine");
  w.value(opt::engine_name(o.batch.opt.engine));
  w.key("anneal_seed");
  w.value(o.batch.opt.anneal.seed);
  w.key("anneal_iters");
  w.value(o.batch.opt.anneal.iterations_per_gate);
  w.key("restrict_instance");
  w.value(o.batch.opt.restrict_to_instance);
  w.key("keep_going");
  w.value(o.batch.keep_going);
  w.key("deadline_ms");
  if (o.deadline_ms >= 0.0) {
    w.value(o.deadline_ms);
  } else {
    w.null_value();
  }
  w.key("priority");
  w.value(o.priority);
  w.key("gate_configs");
  w.value(o.json.include_gate_configs);
  if (!o.request_id.empty()) {
    w.key("request_id");
    w.value(o.request_id);
  }
  w.end_object();
  return out.str();
}

/// Maps a terminal frame onto the CLI exit codes so `--connect` scripts
/// interchange with one-shot runs.
int connect_exit_code(const server::ClientResult& result) {
  const util::JsonValue doc = util::json_parse(result.payload);
  if (result.type == server::kFrameResponse) {
    const util::JsonValue* totals = doc.find("totals");
    require(totals != nullptr, "client: response carries no totals");
    if (totals->find("circuits_error")->as_i64("circuits_error") > 0) {
      return 3;
    }
    if (totals->find("circuits_cancelled")->as_i64("circuits_cancelled") >
        0) {
      return 4;
    }
    return 0;
  }
  const std::string& code = doc.find("code")->as_string("code");
  std::cerr << "tr_opt: server error [" << code
            << "]: " << doc.find("message")->as_string("message") << "\n";
  if (code == "cancelled") return 4;
  if (code == "internal" || code == "unknown") return 1;
  return 3;
}

int run_connect(const Options& o) {
  try {
    std::string host;
    int port = 0;
    parse_endpoint(o.connect, host, port);

    if (o.shutdown) {
      require(server::send_shutdown(host, port),
              "client: shutdown not acknowledged");
      std::cerr << "tr_opt: server draining\n";
      return 0;
    }

    if (o.circuit_specs.empty()) {
      return usage("no circuits given");
    }
    server::RetryPolicy policy;
    policy.max_retries = o.retries;
    policy.base_backoff_ms = o.retry_base_ms;
    policy.timeout_ms = o.timeout_ms;
    // The jitter stream derives from the master seed so a scripted
    // client's whole retry schedule replays from one --seed value.
    policy.jitter_seed = o.seed;
    policy.on_retry = [](int attempt, double delay_ms,
                         const std::string& why) {
      std::cerr << "tr_opt: retry " << attempt << " in "
                << format_fixed(delay_ms, 0) << " ms: " << why << "\n";
    };
    const server::ClientResult result = server::run_request_with_retry(
        host, port, render_request(o), policy,
        [](const std::string& payload) { std::cerr << payload << "\n"; });
    // The payload goes out verbatim — byte-comparable against a
    // one-shot run with --no-timing --no-cache-stats.
    std::cout << result.payload;
    return connect_exit_code(result);
  } catch (const Error& e) {
    std::cerr << "tr_opt: error: " << e.what() << "\n";
    return e.code() == ErrorCode::cancelled ? 4 : 1;
  } catch (const std::exception& e) {
    std::cerr << "tr_opt: fatal: " << e.what() << "\n";
    return 1;
  }
}

#endif  // TR_HAVE_SERVER

}  // namespace

int main(int argc, char** argv) {
  Options o;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::exit(usage((std::string(flag) + " needs a value").c_str()));
      }
      return argv[++i];
    };
    if (arg == "--suite") {
      const std::string suite = next("--suite");
      try {
        for (std::string& spec : opt::suite_circuit_specs(suite)) {
          o.circuit_specs.push_back(std::move(spec));
        }
      } catch (const Error& e) {
        return usage(e.what());
      }
    } else if (arg == "--scenario") {
      const std::string s = next("--scenario");
      if (s != "A" && s != "B") return usage("scenario must be A or B");
      o.scenario = s[0];
    } else if (arg == "--seed") {
      o.seed = parse_u64("--seed", next("--seed"));
    } else if (arg == "--jobs") {
      o.batch.jobs = static_cast<int>(parse_int("--jobs", next("--jobs")));
    } else if (arg == "--threads-per-circuit") {
      o.batch.threads_per_circuit = static_cast<int>(
          parse_int("--threads-per-circuit", next("--threads-per-circuit")));
    } else if (arg == "--objective") {
      const std::string obj = next("--objective");
      if (obj == "minimize") {
        o.batch.opt.objective = opt::Objective::minimize_power;
      } else if (obj == "maximize") {
        o.batch.opt.objective = opt::Objective::maximize_power;
      } else {
        return usage("objective must be minimize or maximize");
      }
    } else if (arg == "--model") {
      const std::string m = next("--model");
      if (m == "extended") {
        o.batch.opt.model = power::ModelKind::extended;
      } else if (m == "output_only") {
        o.batch.opt.model = power::ModelKind::output_only;
      } else {
        return usage("model must be extended or output_only");
      }
    } else if (arg == "--delay-budget") {
      const double budget =
          parse_double("--delay-budget", next("--delay-budget"));
      // A negative budget used to be the "off" sentinel; now that unset
      // is explicit it is a plain usage error.
      if (budget < 0.0) {
        return usage("--delay-budget expects a non-negative number");
      }
      o.batch.opt.max_circuit_delay_increase = budget;
    } else if (arg == "--engine") {
      try {
        o.batch.opt.engine = opt::engine_from_name(next("--engine"));
      } catch (const Error& e) {
        return usage(e.what());
      }
    } else if (arg == "--anneal-seed") {
      o.batch.opt.anneal.seed =
          parse_u64("--anneal-seed", next("--anneal-seed"));
    } else if (arg == "--anneal-iters") {
      const long long iters =
          parse_int("--anneal-iters", next("--anneal-iters"));
      if (iters < 1) return usage("--anneal-iters must be at least 1");
      o.batch.opt.anneal.iterations_per_gate = static_cast<int>(iters);
    } else if (arg == "--restrict-instance") {
      o.batch.opt.restrict_to_instance = true;
    } else if (arg == "--keep-going") {
      o.batch.keep_going = true;
    } else if (arg == "--fail-fast") {
      o.batch.keep_going = false;
    } else if (arg == "--deadline-ms") {
      o.deadline_ms = parse_double("--deadline-ms", next("--deadline-ms"));
      if (o.deadline_ms < 0.0) {
        return usage("--deadline-ms expects a non-negative number");
      }
    } else if (arg == "--out") {
      o.out_dir = next("--out");
    } else if (arg == "--checkpoint") {
      o.checkpoint_dir = next("--checkpoint");
    } else if (arg == "--resume") {
      o.resume = true;
    } else if (arg == "--retries") {
      const long long retries = parse_int("--retries", next("--retries"));
      if (retries < 0) return usage("--retries must be non-negative");
      o.retries = static_cast<int>(retries);
    } else if (arg == "--retry-base-ms") {
      o.retry_base_ms =
          parse_double("--retry-base-ms", next("--retry-base-ms"));
      if (o.retry_base_ms < 0.0) {
        return usage("--retry-base-ms expects a non-negative number");
      }
    } else if (arg == "--timeout-ms") {
      o.timeout_ms = parse_double("--timeout-ms", next("--timeout-ms"));
      if (o.timeout_ms <= 0.0) {
        return usage("--timeout-ms expects a positive number");
      }
    } else if (arg == "--request-id") {
      o.request_id = next("--request-id");
      if (o.request_id.empty()) {
        return usage("--request-id expects a non-empty key");
      }
    } else if (arg == "--no-timing") {
      o.json.include_timing = false;
    } else if (arg == "--no-gate-configs") {
      o.json.include_gate_configs = false;
    } else if (arg == "--no-cache-stats") {
      o.json.include_cache_stats = false;
    } else if (arg == "--serve") {
      o.serve = true;
    } else if (arg == "--connect") {
      o.connect = next("--connect");
    } else if (arg == "--shutdown") {
      o.shutdown = true;
    } else if (arg == "--port") {
      const long long port = parse_int("--port", next("--port"));
      if (port < 0 || port > 65535) {
        return usage("--port must be in 0..65535");
      }
      o.port = static_cast<int>(port);
    } else if (arg == "--host") {
      o.host = next("--host");
    } else if (arg == "--port-file") {
      o.port_file = next("--port-file");
    } else if (arg == "--workers") {
      const long long workers = parse_int("--workers", next("--workers"));
      if (workers < 1) return usage("--workers must be at least 1");
      o.workers = static_cast<int>(workers);
    } else if (arg == "--max-queue") {
      o.max_queue = parse_int("--max-queue", next("--max-queue"));
      if (o.max_queue < 1) return usage("--max-queue must be at least 1");
    } else if (arg == "--catalog-capacity") {
      o.catalog_capacity =
          parse_u64("--catalog-capacity", next("--catalog-capacity"));
    } else if (arg == "--priority") {
      o.priority =
          static_cast<int>(parse_int("--priority", next("--priority")));
    } else if (arg == "--help" || arg == "-h") {
      return usage(nullptr);
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(("unknown option '" + arg + "'").c_str());
    } else {
      o.circuit_specs.push_back(arg);
    }
  }

  if (o.serve && !o.connect.empty()) {
    return usage("--serve and --connect are mutually exclusive");
  }
  if (o.shutdown && o.connect.empty()) {
    return usage("--shutdown requires --connect");
  }
  if (o.resume && o.checkpoint_dir.empty()) {
    return usage("--resume requires --checkpoint DIR");
  }
  if (!o.checkpoint_dir.empty() && (o.serve || !o.connect.empty())) {
    return usage("--checkpoint applies to one-shot batch mode only");
  }
  if ((o.retries != 0 || o.timeout_ms > 0.0 || !o.request_id.empty()) &&
      o.connect.empty()) {
    return usage("--retries/--timeout-ms/--request-id require --connect");
  }

#ifdef TR_HAVE_SERVER
  if (o.serve) {
    if (!o.circuit_specs.empty()) {
      return usage("--serve takes no circuits");
    }
    return run_serve(o);
  }
  if (!o.connect.empty()) return run_connect(o);
#else
  if (o.serve || !o.connect.empty()) {
    return usage("server mode is not available on this platform");
  }
#endif

  if (o.circuit_specs.empty()) return usage("no circuits given");
  return run_batch(o);
}
