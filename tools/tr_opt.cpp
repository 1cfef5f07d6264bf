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
// Usage and options: `tr_opt --help`, generated from the option tables
// — the run options of opt/run_options.hpp (each one also a daemon
// request field) and kToolOptions below (output, journaling, daemon and
// client settings).
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

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "celllib/library.hpp"
#include "opt/batch.hpp"
#include "opt/batch_report.hpp"
#include "opt/checkpoint.hpp"
#include "opt/circuit_load.hpp"
#include "opt/run_options.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

// The daemon and client settings are parsed on every platform; only
// TR_HAVE_SERVER builds link the server that runs them.
#include "server/client.hpp"
#include "server/server.hpp"

#ifdef TR_HAVE_SERVER
#include <csignal>
#endif

namespace {

using namespace tr;

/// tr_opt's own settings around the run options: output, journaling,
/// the daemon and its client.
struct ToolOptions {
  bool help = false;
  opt::RunOptions run;
  std::string out_dir;
  bool no_timing = false;
  bool no_cache_stats = false;
  std::string checkpoint_dir;  ///< empty = journaling off
  bool resume = false;

  bool serve = false;
  server::ServerConfig server;
  std::string port_file;
  /// --connect HOST:PORT; unset = one-shot batch mode.
  std::optional<std::pair<std::string, int>> connect;
  bool shutdown = false;
  server::RetryPolicy retry;
};

using enum opt::OptionKind;
using ToolSpec = opt::OptionSpec<ToolOptions>;

constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();

template <class Field>
constexpr ToolSpec tool(const opt::OptionMeta& meta, Field f) {
  return opt::bind<ToolOptions>(meta, f);
}

/// The port half of --connect HOST:PORT.
constexpr opt::OptionMeta kConnectPort{
    .name = "connect", .kind = integer, .lo = 1, .hi = 65535,
    .expects = "HOST:PORT with a port in 1..65535"};

/// The CLI-only flags, in --help order.
const ToolSpec kToolOptions[] = {
    tool({.name = "help", .kind = boolean,
          .cli = {{{"--help", true}, {"-h", true}}}, .help = "this text"},
         [](auto& o) -> auto& { return o.help; }),
    tool({.name = "out", .kind = text, .hint = "DIR",
          .help = "write batch.json + one <circuit>.json per circuit"},
         [](auto& o) -> auto& { return o.out_dir; }),
    tool({.name = "no_timing", .kind = boolean,
          .help = "omit wall-clock fields (byte-stable output)"},
         [](auto& o) -> auto& { return o.no_timing; }),
    // With --no-timing this byte-compares a one-shot run against a
    // daemon response, which always omits both (DESIGN.md Sec. 13.3).
    tool({.name = "no_cache_stats", .kind = boolean,
          .help = "omit the catalog_cache block"},
         [](auto& o) -> auto& { return o.no_cache_stats; }),
    tool({.name = "checkpoint", .kind = text, .hint = "DIR",
          .help = "journal every completed circuit into DIR"},
         [](auto& o) -> auto& { return o.checkpoint_dir; }),
    tool({.name = "resume", .kind = boolean,
          .help = "with --checkpoint: re-emit the journaled circuits"},
         [](auto& o) -> auto& { return o.resume; }),
    tool({.name = "serve", .kind = boolean,
          .help = "run the optimization daemon"},
         [](auto& o) -> auto& { return o.serve; }),
    tool({.name = "port", .kind = integer, .hint = "N", .lo = 0,
          .hi = 65535, .help = "daemon TCP port, 0 = ephemeral (default)"},
         [](auto& o) -> auto& { return o.server.port; }),
    tool({.name = "host", .kind = text, .hint = "ADDR",
          .help = "daemon bind address (default 127.0.0.1)"},
         [](auto& o) -> auto& { return o.server.host; }),
    tool({.name = "port_file", .kind = text, .hint = "PATH",
          .help = "write the daemon's bound port to PATH"},
         [](auto& o) -> auto& { return o.port_file; }),
    tool({.name = "workers", .kind = integer, .hint = "N", .lo = 1,
          .hi = kIntMax, .help = "concurrent request executors (default 2)"},
         [](auto& o) -> auto& { return o.server.service.workers; }),
    tool({.name = "max_queue", .kind = integer, .hint = "N",
          .lo = 1, .hi = kIntMax, .help = "queued-request bound (default 64)"},
         [](auto& o) -> auto& { return o.server.service.max_queue; }),
    tool({.name = "catalog_capacity", .kind = u64, .hint = "N",
          .help = "LRU bound on cached catalogs, 0 = unbounded (default)"},
         [](auto& o) -> auto& { return o.server.service.catalog_capacity; }),
    {{.name = "connect", .kind = text, .hint = "HOST:PORT",
      .help = "send the run to a daemon as one request"},
     [](ToolOptions& o, const util::JsonValue& v) {
       // A bare PORT (no colon: npos + 1 == 0) means loopback.
       const std::size_t colon = v.string.rfind(':');
       o.connect = {colon == std::string::npos ? "127.0.0.1"
                                               : v.string.substr(0, colon),
                    static_cast<int>(opt::parse_cli_value(
                        kConnectPort, v.string.substr(colon + 1)).i64)};
     }},
    tool({.name = "shutdown", .kind = boolean,
          .help = "with --connect: ask the daemon to drain"},
         [](auto& o) -> auto& { return o.shutdown; }),
    tool({.name = "retries", .kind = integer, .hint = "N", .lo = 0,
          .hi = kIntMax, .help = "retries after a retryable error (default 0)"},
         [](auto& o) -> auto& { return o.retry.max_retries; }),
    tool({.name = "retry_base_ms", .kind = number, .hint = "F",
          .help = "first retry backoff, doubling, seeded jitter (default 100)"},
         [](auto& o) -> auto& { return o.retry.base_backoff_ms; }),
    {{.name = "timeout_ms", .kind = number, .hint = "F",
      .help = "per-attempt connect/read timeout"},
     [](ToolOptions& o, const util::JsonValue& v) {
       require(v.number > 0.0, "--timeout-ms must be a positive number");
       o.retry.timeout_ms = v.number;
     }},
};

int usage(const char* error) {
  if (error != nullptr) {
    std::cerr << "tr_opt: " << error << "\n(tr_opt --help lists the options)\n";
    return 2;
  }
  std::cerr
      << "usage: tr_opt [circuit ...] [options]            one-shot batch\n"
         "       tr_opt --serve [options]                  daemon\n"
         "       tr_opt --connect HOST:PORT [circuit ...] [options]\n"
         "       tr_opt --connect HOST:PORT --shutdown\n"
         "run options (each is a daemon request field too, '-' -> '_'):\n";
  for (const auto& spec : opt::run_option_table()) {
    std::cerr << opt::help_line(spec.meta);
  }
  std::cerr << "tool options:\n";
  for (const ToolSpec& spec : kToolOptions) {
    std::cerr << opt::help_line(spec.meta);
  }
  return 2;
}

/// The exit code of a run-ending error, by its ErrorCode name: parse,
/// invalid input, injected faults and resource errors are 3.
int error_exit_code(std::string_view code) {
  if (code == "cancelled") return 4;
  return code == "internal" || code == "unknown" ? 1 : 3;
}

int run_batch(ToolOptions& o) {
  try {
    // CI recovery drills poison the pipeline through the environment.
    tr::util::fault::install_from_env();

    const celllib::CellLibrary library = celllib::CellLibrary::standard();
    const celllib::Tech tech;

    std::vector<opt::BatchCircuit> batch;
    batch.reserve(o.run.circuits.size());
    for (const std::string& spec : o.run.circuits) {
      batch.push_back(opt::make_scenario_circuit_guarded(
          spec, o.run.scenario, o.run.seed, library,
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
    opt::BatchOptions& options = o.run.batch;
    if (o.run.deadline_ms) {
      options.cancel =
          util::CancellationToken::with_deadline_ms(*o.run.deadline_ms);
    }

    // Checkpoint journaling (DESIGN.md Sec. 15.2): the manifest pins the
    // run fingerprint, resume re-applies journaled results onto the
    // freshly loaded batch, and the journal hook makes each freshly
    // completed circuit durable before its progress is visible.
    std::optional<opt::checkpoint::CheckpointJournal> journal;
    if (!o.checkpoint_dir.empty()) {
      journal.emplace(o.checkpoint_dir, o.resume,
                      opt::checkpoint::render_manifest(o.run));
      if (o.resume) {
        const int resumed = journal->load(batch);
        std::cerr << "tr_opt: resumed " << resumed << "/" << batch.size()
                  << " circuits from " << o.checkpoint_dir << "\n";
      }
      options.journal = [&journal](std::size_t i,
                                   const opt::BatchCircuit& circuit,
                                   const opt::BatchCircuitResult& result) {
        journal->record(i, circuit, result);
      };
    }

    const opt::BatchOptimizer optimizer(library, tech, options);
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

    const opt::BatchJsonOptions json{.include_timing = !o.no_timing,
                                     .include_gate_configs = o.run.gate_configs,
                                     .include_cache_stats = !o.no_cache_stats};
    if (o.out_dir.empty()) {
      write_batch_json(batch, report, options, std::cout, json);
    } else {
      namespace fs = std::filesystem;
      fs::create_directories(o.out_dir);
      {
        std::ofstream out(fs::path(o.out_dir) / "batch.json");
        require(out.good(), "cannot write to '", o.out_dir, "'");
        write_batch_json(batch, report, options, out, json);
      }
      // Deterministic, collision-proof file names: bump a suffix until
      // the final name is genuinely unused ("a", "a", "a_2" must yield
      // three distinct files, not overwrite one another).
      std::set<std::string> taken;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const std::string base = safe_file_name(report.circuits[i].name);
        std::string final_name = base;
        for (int suffix = 2; taken.contains(final_name); ++suffix) {
          final_name = base + "_" + std::to_string(suffix);
        }
        taken.insert(final_name);
        std::ofstream out(fs::path(o.out_dir) / (final_name + ".json"));
        require(out.good(), "cannot write circuit report for '", final_name,
                "'");
        write_circuit_json(batch[i], report.circuits[i], out, json);
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
    return error_exit_code(error_code_name(e.code()));
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

int run_serve(const ToolOptions& o) {
  try {
    tr::util::fault::install_from_env();

    const server::ServiceConfig& config = o.server.service;
    server::Server daemon(o.server);
    daemon.start();

    g_server = &daemon;
    std::signal(SIGTERM, handle_drain_signal);
    std::signal(SIGINT, handle_drain_signal);
    // MSG_NOSIGNAL covers the framed writes; ignoring SIGPIPE as well
    // keeps any stray fd write from killing the daemon.
    std::signal(SIGPIPE, SIG_IGN);

    if (!o.port_file.empty()) {
      std::ofstream out(o.port_file);
      require(out.good(), "cannot write port file '", o.port_file, "'");
      out << daemon.port() << "\n";
    }
    std::cerr << "tr_opt: serving on " << o.server.host << ":"
              << daemon.port() << " (" << config.workers
              << " workers, queue " << config.max_queue
              << ", catalog capacity "
              << (config.catalog_capacity == 0
                      ? std::string("unbounded")
                      : std::to_string(config.catalog_capacity))
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

/// Maps a terminal frame onto the CLI exit codes so `--connect` scripts
/// interchange with one-shot runs.
int connect_exit_code(const server::ClientResult& result) {
  const util::JsonValue doc = util::json_parse(result.payload);
  if (result.type == server::kFrameResponse) {
    const util::JsonValue& totals = doc.at("totals");
    if (totals.at("circuits_error").as_i64("circuits_error") > 0) return 3;
    if (totals.at("circuits_cancelled").as_i64("circuits_cancelled") > 0) {
      return 4;
    }
    return 0;
  }
  const std::string& code = doc.at("code").as_string("code");
  std::cerr << "tr_opt: server error [" << code
            << "]: " << doc.at("message").as_string("message") << "\n";
  return error_exit_code(code);
}

int run_connect(const ToolOptions& o) {
  const auto& [host, port] = *o.connect;
  try {
    if (o.shutdown) {
      require(server::send_shutdown(host, port),
              "client: shutdown not acknowledged");
      std::cerr << "tr_opt: server draining\n";
      return 0;
    }

    if (o.run.circuits.empty()) return usage("no circuits given");
    server::RetryPolicy policy = o.retry;
    // The jitter stream derives from the master seed so a scripted
    // client's whole retry schedule replays from one --seed value.
    policy.jitter_seed = o.run.seed;
    policy.on_retry = [](int attempt, double delay_ms,
                         const std::string& why) {
      std::cerr << "tr_opt: retry " << attempt << " in "
                << format_fixed(delay_ms, 0) << " ms: " << why << "\n";
    };
    const server::ClientResult result = server::run_request_with_retry(
        host, port, opt::render_request(o.run), policy,
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
  ToolOptions o;
  const std::vector<std::string_view> args(argv + 1, argv + argc);
  try {
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (!opt::apply_cli_flag(opt::run_option_table(), o.run, args, i) &&
          !opt::apply_cli_flag<ToolOptions>(kToolOptions, o, args, i)) {
        return usage(
            ("unknown option '" + std::string(args[i]) + "'").c_str());
      }
    }
  } catch (const Error& e) {
    return usage(e.what());
  }

  if (o.help) return usage(nullptr);
  if (o.serve && o.connect) {
    return usage("--serve and --connect are mutually exclusive");
  }
  if (o.shutdown && !o.connect) {
    return usage("--shutdown requires --connect");
  }
  if (o.resume && o.checkpoint_dir.empty()) {
    return usage("--resume requires --checkpoint DIR");
  }
  if (!o.checkpoint_dir.empty() && (o.serve || o.connect)) {
    return usage("--checkpoint applies to one-shot batch mode only");
  }
  if ((o.retry.max_retries != 0 || o.retry.timeout_ms > 0.0 ||
       !o.run.request_id.empty()) &&
      !o.connect) {
    return usage("--retries/--timeout-ms/--request-id require --connect");
  }

#ifdef TR_HAVE_SERVER
  if (o.serve) {
    if (!o.run.circuits.empty()) return usage("--serve takes no circuits");
    return run_serve(o);
  }
  if (o.connect) return run_connect(o);
#else
  if (o.serve || o.connect) {
    return usage("server mode is not available on this platform");
  }
#endif

  if (o.run.circuits.empty()) return usage("no circuits given");
  return run_batch(o);
}
