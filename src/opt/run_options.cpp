#include "opt/run_options.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <sstream>

#include "opt/circuit_load.hpp"

namespace tr::opt {

namespace {

using enum OptionKind;
using Json = util::JsonValue;

constexpr std::int64_t kIntMin = std::numeric_limits<int>::min();
constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();

// The enum fields parse and render through their one spelling; the
// other field types take the generic assign() and JsonWriter::value().
using opt::assign;
void assign(Objective& f, const Json& v) { f = objective_from_name(v.string); }
void assign(power::ModelKind& f, const Json& v) {
  f = model_from_name(v.string);
}
void assign(char& scenario, const Json& v) {
  if (v.string != "A" && v.string != "B") {
    throw Error("scenario must be \"A\" or \"B\"", ErrorCode::invalid_argument);
  }
  scenario = v.string[0];
}
void assign(std::vector<std::string>& specs, const Json& v) {
  for (const Json& spec : v.array) specs.push_back(spec.string);
}

void emit(util::JsonWriter& w, const char* name, const auto& value) {
  w.key(name);
  w.value(value);
}
void emit(util::JsonWriter& w, const char* name, Objective value) {
  emit(w, name, objective_name(value));
}
void emit(util::JsonWriter& w, const char* name, power::ModelKind value) {
  emit(w, name, model_name(value));
}
void emit(util::JsonWriter& w, const char* name, char scenario) {
  emit(w, name, std::string(1, scenario));
}
void emit(util::JsonWriter& w, const char* name, const std::string& text) {
  if (!text.empty()) emit(w, name, std::string_view(text));  // empty = unset
}
void emit(util::JsonWriter& w, const char* name,
          const std::optional<double>& value) {
  w.key(name);
  value ? w.value(*value) : w.null_value();
}
void emit(util::JsonWriter& w, const char* name,
          const std::vector<std::string>& specs) {
  w.key(name);
  w.begin_array();
  for (const std::string& spec : specs) w.value(spec);
  w.end_array();
}

/// bind() plus the renderer: a run option is also rendered.
template <class Field>
constexpr OptionSpec<RunOptions> field(const OptionMeta& meta, Field) {
  return {meta,
          [](RunOptions& run, const Json& v) { assign(Field{}(run), v); },
          [](util::JsonWriter& w, const char* name, const RunOptions& run) {
            emit(w, name, Field{}(run));
          }};
}

}  // namespace

std::span<const OptionSpec<RunOptions>> run_option_table() {
  static const OptionSpec<RunOptions> table[] = {
      field({.name = "circuits", .kind = circuits, .shapes_output = true,
             .help = "BLIF/Verilog file, embedded classic (c17 ...) or "
                     "suite entry (b1 ... syn8000); a request names no files"},
            [](auto& r) -> auto& { return r.circuits; }),
      {{.name = "suite", .kind = enumeration, .hint = "classic|table3|scaled",
        .shapes_output = true, .help = "append the whole suite"},
       [](RunOptions& r, const Json& v) {
         const std::vector<std::string> specs = suite_circuit_specs(v.string);
         r.circuits.insert(r.circuits.end(), specs.begin(), specs.end());
       }},
      field({.name = "scenario", .kind = enumeration, .hint = "A|B",
             .shapes_output = true, .help = "input statistics (default A)"},
            [](auto& r) -> auto& { return r.scenario; }),
      field({.name = "seed", .kind = u64, .hint = "N", .shapes_output = true,
             .help = "master seed of the per-circuit streams (default 1)"},
            [](auto& r) -> auto& { return r.seed; }),
      field({.name = "jobs", .kind = integer, .hint = "N", .lo = 0,
             .hi = kIntMax, .help = "circuit workers, 0 = hardware (default)"},
            [](auto& r) -> auto& { return r.batch.jobs; }),
      // Rendered as each circuit's "threads" field, so it shapes bytes.
      field({.name = "threads_per_circuit", .kind = integer, .hint = "N",
             .lo = 0, .hi = kIntMax, .shapes_output = true,
             .help = "gate workers per circuit, 0 = hardware (default 1)"},
            [](auto& r) -> auto& { return r.batch.threads_per_circuit; }),
      field({.name = "objective", .kind = enumeration,
             .hint = "minimize|maximize", .shapes_output = true,
             .help = "power objective (default minimize)"},
            [](auto& r) -> auto& { return r.batch.opt.objective; }),
      field({.name = "model", .kind = enumeration,
             .hint = "extended|output_only", .shapes_output = true,
             .help = "gate power model (default extended)"},
            [](auto& r) -> auto& { return r.batch.opt.model; }),
      field({.name = "delay_budget", .kind = number, .hint = "F",
             .nullable = true, .shapes_output = true,
             .help = "keep the critical path within (1+F)x (default off)"},
            [](auto& r) -> auto& {
              return r.batch.opt.max_circuit_delay_increase;
            }),
      field({.name = "restrict_instance", .kind = boolean,
             .shapes_output = true,
             .help = "only same-layout-instance reorderings"},
            [](auto& r) -> auto& { return r.batch.opt.restrict_to_instance; }),
      field({.name = "keep_going", .kind = boolean,
             .cli = {{{"--keep-going", true}, {"--fail-fast", false}}},
             .help = "contain circuit failures (default), or abort"},
            [](auto& r) -> auto& { return r.batch.keep_going; }),
      // "Finite" mirrors CancellationToken::with_deadline_ms: a NaN
      // deadline would never latch (JSON numbers are always finite).
      field({.name = "deadline_ms", .kind = number, .hint = "F",
             .nullable = true, .expects = "a finite non-negative number",
             .help = "cancel outstanding circuits F ms after the start"},
            [](auto& r) -> auto& { return r.deadline_ms; }),
      field({.name = "priority", .kind = integer, .hint = "N", .lo = kIntMin,
             .hi = kIntMax, .help = "daemon queue priority, higher first"},
            [](auto& r) -> auto& { return r.priority; }),
      field({.name = "gate_configs", .kind = boolean,
             .cli = {{{"--no-gate-configs", false}}},
             .help = "omit the per-gate configuration arrays"},
            [](auto& r) -> auto& { return r.gate_configs; }),
      field({.name = "request_id", .kind = text, .hint = "ID",
             .help = "idempotency key: the daemon replays a completed ID"},
            [](auto& r) -> auto& { return r.request_id; }),
  };
  return table;
}

namespace {

/// The "must be ..." phrase of an entry's validator.
std::string expected(const OptionMeta& meta) {
  if (meta.expects != nullptr) return meta.expects;
  switch (meta.kind) {
    case integer:
      return "an integer in " + std::to_string(meta.lo) + ".." +
             std::to_string(meta.hi);
    case u64: return "a non-negative integer";
    case number: return "a non-negative number";
    default: return "a non-empty string";
  }
}

[[noreturn]] void reject(const std::string& message) {
  throw Error("request: " + message, ErrorCode::invalid_argument);
}

/// The validator: throws the JSON accessor's error for a value of the
/// wrong type, and returns whether one of the right type is in range.
bool in_range(const OptionMeta& meta, const Json& v) {
  const std::string name = meta.name;
  switch (meta.kind) {
    case integer: {
      const std::int64_t i = v.as_i64(name);
      return i >= meta.lo && i <= meta.hi;
    }
    case u64: v.as_u64(name); return true;
    case number:
      return (meta.nullable && v.is_null()) || v.as_double(name) >= 0.0;
    case boolean: v.as_bool(name); return true;
    case text: return !v.as_string(name).empty();
    case enumeration: v.as_string(name); return true;  // the setter parses
    case circuits: break;  // wire only: the CLI takes files positionally
  }
  if (v.kind != Json::Kind::array) {
    reject("circuits must be an array of circuit names");
  }
  for (const Json& entry : v.array) {
    const std::string& spec = entry.as_string("circuits entry");
    if (!is_embedded_spec(spec)) {
      reject("unknown circuit '" + spec +
             "' (the server serves embedded classics and suite entries only)");
    }
  }
  return true;
}

/// `text` as a JSON number when all of it is one in std::from_chars's
/// grammar (the CLI's number syntax); null otherwise.
Json cli_number(std::string_view text) {
  const auto whole = [text](auto& out) {
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out);
    return !text.empty() && ec == std::errc() && ptr == end;
  };
  Json value;
  value.has_i64 = whole(value.i64);
  value.has_u64 = whole(value.u64);
  if (whole(value.number) && std::isfinite(value.number)) {
    value.kind = Json::Kind::number;
  }
  return value;
}

}  // namespace

Json parse_cli_value(const OptionMeta& meta, std::string_view text) {
  const std::string quoted = '"' + util::json_escape(text) + '"';
  if (meta.kind == circuits) return util::json_parse('[' + quoted + ']');
  const bool numeric =
      meta.kind == integer || meta.kind == u64 || meta.kind == number;
  const Json value = numeric ? cli_number(text) : util::json_parse(quoted);
  try {
    if (!value.is_null() && in_range(meta, value)) return value;
  } catch (const Error&) {  // the wrong type: refused below
  }
  throw Error(cli_flags(meta)[0] + " must be " + expected(meta) + ", got '" +
                  std::string(text) + "'",
              ErrorCode::invalid_argument);
}

std::optional<Json> match_cli(const OptionMeta& meta,
                              std::span<const std::string_view> args,
                              std::size_t& i) {
  const std::vector<std::string> flags = cli_flags(meta);
  for (std::size_t k = 0; k < flags.size(); ++k) {
    if (args[i] != flags[k]) continue;
    if (meta.kind == boolean) {
      const bool value = meta.cli[0].first == nullptr || meta.cli[k].second;
      return util::json_parse(value ? "true" : "false");
    }
    if (i + 1 >= args.size()) {
      throw Error(flags[k] + " needs a value", ErrorCode::invalid_argument);
    }
    return parse_cli_value(meta, args[++i]);
  }
  if (meta.kind == circuits && !args[i].starts_with('-')) {
    return parse_cli_value(meta, args[i]);
  }
  return std::nullopt;
}

std::vector<std::string> cli_flags(const OptionMeta& meta) {
  std::vector<std::string> flags;
  for (const auto& [flag, value] : meta.cli) {
    if (flag != nullptr) flags.emplace_back(flag);
  }
  if (flags.empty() && meta.kind != circuits) {
    std::string flag = std::string("--") + meta.name;
    std::replace(flag.begin(), flag.end(), '_', '-');
    flags.push_back(flag);
  }
  return flags;
}

std::string help_line(const OptionMeta& meta) {
  std::string usage = "  ";
  for (const std::string& flag : cli_flags(meta)) {
    usage += (usage.size() > 2 ? " | " : "") + flag;
  }
  if (meta.kind == circuits) usage += "circuit ...";
  if (*meta.hint != '\0') usage += std::string(" ") + meta.hint;
  constexpr std::size_t kColumn = 33;
  usage += usage.size() < kColumn ? std::string(kColumn - usage.size(), ' ')
                                  : "\n" + std::string(kColumn, ' ');
  return usage + meta.help + "\n";
}

RunOptions parse_request(std::string_view json_text) {
  const Json doc = util::json_parse(json_text);
  if (doc.kind != Json::Kind::object) reject("document must be a JSON object");
  const std::span<const OptionSpec<RunOptions>> table = run_option_table();
  RunOptions run;
  for (const auto& [key, json] : doc.object) {
    const auto spec = std::find_if(table.begin(), table.end(), [&](auto& s) {
      return key == s.meta.name;
    });
    if (spec == table.end()) reject("unknown field '" + key + "'");
    const OptionMeta& meta = spec->meta;
    if (!in_range(meta, json)) {
      reject(key + " must be " + expected(meta) +
             (meta.nullable ? " or null" : ""));
    }
    try {
      spec->set(run, json);
    } catch (const Error& e) {
      reject(e.what());
    }
  }
  if (run.circuits.empty()) reject("no circuits given");
  return run;
}

std::string render_request(const RunOptions& run) {
  std::ostringstream out;
  util::JsonWriter w(out);
  w.begin_object();
  write_options(w, run, false);
  w.end_object();
  return out.str();
}

void write_options(util::JsonWriter& w, const RunOptions& run,
                   bool shapes_output_only) {
  for (const OptionSpec<RunOptions>& spec : run_option_table()) {
    if (spec.write != nullptr &&
        (spec.meta.shapes_output || !shapes_output_only)) {
      spec.write(w, spec.meta.name, run);
    }
  }
}

}  // namespace tr::opt
