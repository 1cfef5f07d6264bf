// The one option schema (opt/run_options): every test here iterates the
// table, so an entry added later is covered without touching the test.
// Each wire field round-trips CLI argv -> render_request -> the wire
// parse; each validator refuses the same inputs on both surfaces; only
// the shapes_output entries move the checkpoint manifest; and the flag
// and field sets stay those of the hand-written parsers the table
// replaced.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "opt/checkpoint.hpp"
#include "opt/run_options.hpp"
#include "util/error.hpp"

#ifdef TR_OPT_PATH
#include <sys/wait.h>  // WIFEXITED for the tr_opt runs below
#endif

namespace tr::opt {
namespace {

using Spec = OptionSpec<RunOptions>;

/// Parses argv-style `args` the way tr_opt does for its run options.
RunOptions parse_args(const std::vector<std::string>& args) {
  const std::vector<std::string_view> views(args.begin(), args.end());
  RunOptions run;
  for (std::size_t i = 0; i < views.size(); ++i) {
    if (!apply_cli_flag(run_option_table(), run, views, i)) {
      throw Error("unclaimed argument '" + args[i] + "'");
    }
  }
  return run;
}

/// The enum names an entry's --help hint lists ("minimize|maximize").
std::vector<std::string> hint_names(const OptionMeta& meta) {
  std::vector<std::string> names;
  std::stringstream hint(meta.hint);
  for (std::string name; std::getline(hint, name, '|');) {
    names.push_back(name);
  }
  return names;
}

/// The entry's rendered field, as render_request writes it ("" when
/// the entry is never rendered).
std::string value_of(const Spec& spec, const RunOptions& run) {
  if (spec.write == nullptr) return "";
  std::ostringstream out;
  util::JsonWriter w(out);
  w.begin_object();
  spec.write(w, spec.meta.name, run);
  w.end_object();
  return out.str();
}

/// CLI arguments giving `spec` a value other than its default; the
/// circuit c17 rides along so the run is a valid request.
std::vector<std::string> sample_args(const Spec& spec) {
  const OptionMeta& meta = spec.meta;
  const std::vector<std::string> flags = cli_flags(meta);
  if (meta.kind == OptionKind::circuits) return {"fulladder", "cmp2"};
  if (spec.write == nullptr) return {flags[0], hint_names(meta)[0]};  // suite
  std::vector<std::string> candidates;
  switch (meta.kind) {
    case OptionKind::integer:
      candidates = {std::to_string(meta.lo), std::to_string(meta.hi)};
      break;
    case OptionKind::u64: candidates = {"0", "7"}; break;
    case OptionKind::number: candidates = {"0.25", "0.5"}; break;
    case OptionKind::enumeration: candidates = hint_names(meta); break;
    case OptionKind::text: candidates = {"key-1"}; break;
    default: break;
  }
  const std::string default_value = value_of(spec, parse_args({"c17"}));
  if (meta.kind == OptionKind::boolean) {
    for (const std::string& flag : flags) {
      if (value_of(spec, parse_args({"c17", flag})) != default_value) {
        return {"c17", flag};
      }
    }
  }
  for (const std::string& candidate : candidates) {
    const std::vector<std::string> args = {"c17", flags[0], candidate};
    if (value_of(spec, parse_args(args)) != default_value) return args;
  }
  ADD_FAILURE() << meta.name << ": no non-default sample";
  return {};
}

struct Rejected {
  std::vector<std::string> cli;   ///< argv values the CLI must refuse
  std::vector<std::string> wire;  ///< JSON values the wire must refuse
};

/// Inputs outside each kind's validator, for both surfaces.
Rejected rejected_inputs(const OptionMeta& meta) {
  switch (meta.kind) {
    case OptionKind::integer: {
      std::vector<std::string> out_of_range = {std::to_string(meta.hi + 1)};
      if (meta.lo > std::numeric_limits<std::int64_t>::min()) {
        out_of_range.push_back(std::to_string(meta.lo - 1));
      }
      Rejected r{out_of_range, out_of_range};
      r.cli.insert(r.cli.end(), {"x", "1.5", " 5", "4294967298"});
      r.wire.insert(r.wire.end(), {"\"3\"", "1.5", "4294967298"});
      return r;
    }
    case OptionKind::u64:
      return {{"-1", "x", " 5", "18446744073709551616"},
              {"-1", "\"3\"", "18446744073709551616"}};
    case OptionKind::number:
      return {{"-1", "nan", "inf", "x", " 1", "null"}, {"-1", "\"1\""}};
    case OptionKind::enumeration:
      return {{"bogus", ""}, {"\"bogus\"", "1"}};
    case OptionKind::text: return {{""}, {"\"\"", "1"}};
    case OptionKind::boolean: return {{}, {"1", "\"true\"", "null"}};
    case OptionKind::circuits:
      return {{}, {"\"c17\"", "[\"/etc/passwd.blif\"]", "[1]", "null"}};
  }
  return {};
}

/// A one-field request document (plus c17 unless the field is circuits).
std::string request_with(const OptionMeta& meta, const std::string& json) {
  const std::string field =
      std::string("\"").append(meta.name).append("\": ").append(json);
  return meta.kind == OptionKind::circuits
             ? "{" + field + "}"
             : "{\"circuits\": [\"c17\"], " + field + "}";
}

TEST(RunOptions, SurfaceMatchesTheHandWrittenParsers) {
  std::set<std::string> fields;
  std::set<std::string> flags;
  for (const Spec& spec : run_option_table()) {
    EXPECT_TRUE(fields.insert(spec.meta.name).second) << spec.meta.name;
    for (const std::string& flag : cli_flags(spec.meta)) {
      EXPECT_TRUE(flags.insert(flag).second) << flag;
    }
  }
  EXPECT_EQ(fields,
            (std::set<std::string>{
                "circuits", "suite", "scenario", "seed", "jobs",
                "threads_per_circuit", "objective", "model", "delay_budget",
                "restrict_instance", "keep_going", "deadline_ms",
                "priority", "gate_configs", "request_id"}));
  EXPECT_EQ(flags,
            (std::set<std::string>{
                "--suite", "--scenario", "--seed", "--jobs",
                "--threads-per-circuit", "--objective", "--model",
                "--delay-budget", "--restrict-instance", "--keep-going",
                "--fail-fast", "--deadline-ms", "--priority",
                "--no-gate-configs", "--request-id"}));
}

TEST(RunOptions, EveryWireFieldRoundTripsFromTheCommandLine) {
  const RunOptions defaults = parse_args({"c17"});
  for (const Spec& spec : run_option_table()) {
    SCOPED_TRACE(spec.meta.name);
    const RunOptions cli = parse_args(sample_args(spec));
    const std::string request = render_request(cli);
    const RunOptions wire = parse_request(request);
    EXPECT_EQ(render_request(wire), request);
    EXPECT_EQ(wire.circuits, cli.circuits);
    EXPECT_NE(render_request(cli), render_request(defaults));
    if (spec.write != nullptr) {
      EXPECT_EQ(value_of(spec, wire), value_of(spec, cli));
      EXPECT_NE(value_of(spec, cli), value_of(spec, defaults));
    }
  }
}

TEST(RunOptions, BoundsAreAcceptedOnBothSurfaces) {
  for (const Spec& spec : run_option_table()) {
    if (spec.meta.kind != OptionKind::integer) continue;
    for (const std::int64_t bound : {spec.meta.lo, spec.meta.hi}) {
      SCOPED_TRACE(std::string(spec.meta.name) + " " + std::to_string(bound));
      const std::string text = std::to_string(bound);
      const RunOptions cli =
          parse_args({"c17", cli_flags(spec.meta)[0], text});
      const RunOptions wire = parse_request(request_with(spec.meta, text));
      const std::string rendered =
          "{\n  \"" + std::string(spec.meta.name) + "\": " + text + "\n}\n";
      EXPECT_EQ(value_of(spec, cli), rendered);
      EXPECT_EQ(value_of(spec, wire), rendered);
    }
  }
}

TEST(RunOptions, EveryValidatorRefusesTheSameInputsOnBothSurfaces) {
  for (const Spec& spec : run_option_table()) {
    const Rejected rejected = rejected_inputs(spec.meta);
    for (const std::string& text : rejected.cli) {
      SCOPED_TRACE(std::string(spec.meta.name) + " CLI '" + text + "'");
      try {
        parse_args({"c17", cli_flags(spec.meta)[0], text});
        ADD_FAILURE() << "accepted";
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::invalid_argument) << e.what();
      }
    }
    for (const std::string& json : rejected.wire) {
      SCOPED_TRACE(std::string(spec.meta.name) + " wire " + json);
      try {
        parse_request(request_with(spec.meta, json));
        ADD_FAILURE() << "accepted";
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::invalid_argument) << e.what();
      }
    }
  }
}

TEST(RunOptions, RangeViolationsNameTheFieldOnBothSurfaces) {
  try {
    parse_args({"c17", "--jobs", "4294967298"});
    FAIL() << "accepted";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(),
                 "--jobs must be an integer in 0..2147483647, got "
                 "'4294967298'");
  }
  try {
    parse_request(R"({"circuits": ["c17"], "threads_per_circuit": -1})");
    FAIL() << "accepted";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(),
                 "request: threads_per_circuit must be an integer in "
                 "0..2147483647");
  }
}

TEST(RunOptions, OnlyOutputShapingOptionsMoveTheManifest) {
  const std::string base = checkpoint::render_manifest(parse_args({"c17"}));
  for (const Spec& spec : run_option_table()) {
    SCOPED_TRACE(spec.meta.name);
    std::vector<std::string> args = sample_args(spec);
    if (spec.meta.kind == OptionKind::circuits) {
      args.insert(args.begin(), "c17");
    }
    const std::string manifest = checkpoint::render_manifest(parse_args(args));
    if (spec.meta.shapes_output) {
      EXPECT_NE(manifest, base);
    } else {
      EXPECT_EQ(manifest, base);
    }
  }
}

#ifdef TR_OPT_PATH

/// Runs tr_opt with `args` (single-quoted for the shell); returns the
/// exit status and captures stdout+stderr into `output`.
int run_tr_opt(const std::vector<std::string>& args, std::string* output) {
  std::string command = TR_OPT_PATH;
  for (const std::string& arg : args) command += " '" + arg + "'";
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return -1;
  char buffer[4096];
  for (std::size_t n; (n = fread(buffer, 1, sizeof buffer, pipe)) > 0;) {
    if (output != nullptr) output->append(buffer, n);
  }
  const int status = pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(RunOptionsCli, RejectedInputsAreUsageErrors) {
  for (const Spec& spec : run_option_table()) {
    for (const std::string& text : rejected_inputs(spec.meta).cli) {
      SCOPED_TRACE(std::string(spec.meta.name) + " '" + text + "'");
      EXPECT_EQ(run_tr_opt({"c17", cli_flags(spec.meta)[0], text}, nullptr),
                2);
    }
  }
}

TEST(RunOptionsCli, HelpListsTheHandWrittenParsersFlagSet) {
  std::string help;
  EXPECT_EQ(run_tr_opt({"--help"}, &help), 2);
  std::set<std::string> flags;
  for (std::size_t at = help.find("--"); at != std::string::npos;
       at = help.find("--", at + 2)) {
    std::size_t end = at + 2;
    while (end < help.size() && (std::islower(help[end]) || help[end] == '-')) {
      ++end;
    }
    flags.insert(help.substr(at, end - at));
  }
  EXPECT_EQ(
      flags,
      (std::set<std::string>{
          "--suite", "--scenario", "--seed", "--jobs",
          "--threads-per-circuit", "--objective", "--model",
          "--delay-budget", "--restrict-instance", "--keep-going",
          "--fail-fast",
          "--deadline-ms", "--priority", "--no-gate-configs",
          "--request-id", "--out", "--no-timing", "--no-cache-stats",
          "--checkpoint", "--resume", "--serve", "--port", "--host",
          "--port-file", "--workers", "--max-queue", "--catalog-capacity",
          "--connect", "--shutdown", "--retries", "--retry-base-ms",
          "--timeout-ms", "--help"}));
}

#endif  // TR_OPT_PATH

}  // namespace
}  // namespace tr::opt
