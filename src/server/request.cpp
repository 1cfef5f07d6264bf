#include "server/request.hpp"

#include <cmath>
#include <limits>
#include <sstream>

#include "opt/circuit_load.hpp"
#include "util/error.hpp"

namespace tr::server {

namespace {

[[noreturn]] void reject(const std::string& message) {
  throw Error("request: " + message, ErrorCode::invalid_argument);
}

int to_int(const util::JsonValue& value, const std::string& what) {
  const std::int64_t wide = value.as_i64(what);
  if (wide < std::numeric_limits<int>::min() ||
      wide > std::numeric_limits<int>::max()) {
    reject(what + " is out of range");
  }
  return static_cast<int>(wide);
}

void append_circuit(const util::JsonValue& value, OptimizeRequest& request) {
  const std::string& spec = value.as_string("circuits entry");
  // The daemon refuses request-named files: only embedded classics and
  // generated suite entries are served over the network.
  if (!opt::is_embedded_spec(spec)) {
    reject("unknown circuit '" + spec +
           "' (the server serves embedded classics and suite entries only)");
  }
  request.circuits.push_back(spec);
}

}  // namespace

OptimizeRequest parse_request(std::string_view json_text) {
  const util::JsonValue doc = util::json_parse(json_text);
  if (doc.kind != util::JsonValue::Kind::object) {
    reject("document must be a JSON object");
  }

  OptimizeRequest request;
  // Fields apply in document order, so circuits / suite interleave the
  // same way positional specs and --suite do on the command line.
  for (const auto& [key, value] : doc.object) {
    if (key == "circuits") {
      if (value.kind != util::JsonValue::Kind::array) {
        reject("circuits must be an array of circuit names");
      }
      for (const util::JsonValue& entry : value.array) {
        append_circuit(entry, request);
      }
    } else if (key == "suite") {
      for (const std::string& spec :
           opt::suite_circuit_specs(value.as_string("suite"))) {
        request.circuits.push_back(spec);
      }
    } else if (key == "scenario") {
      const std::string& s = value.as_string("scenario");
      if (s != "A" && s != "B") reject("scenario must be \"A\" or \"B\"");
      request.scenario = s[0];
    } else if (key == "seed") {
      request.seed = value.as_u64("seed");
    } else if (key == "jobs") {
      request.batch.jobs = to_int(value, "jobs");
    } else if (key == "threads_per_circuit") {
      request.batch.threads_per_circuit = to_int(value, "threads_per_circuit");
    } else if (key == "objective") {
      const std::string& o = value.as_string("objective");
      if (o == "minimize") {
        request.batch.opt.objective = opt::Objective::minimize_power;
      } else if (o == "maximize") {
        request.batch.opt.objective = opt::Objective::maximize_power;
      } else {
        reject("objective must be \"minimize\" or \"maximize\"");
      }
    } else if (key == "model") {
      const std::string& m = value.as_string("model");
      if (m == "extended") {
        request.batch.opt.model = power::ModelKind::extended;
      } else if (m == "output_only") {
        request.batch.opt.model = power::ModelKind::output_only;
      } else {
        reject("model must be \"extended\" or \"output_only\"");
      }
    } else if (key == "delay_budget") {
      if (value.is_null()) {
        request.batch.opt.max_circuit_delay_increase.reset();
      } else {
        const double budget = value.as_double("delay_budget");
        if (!std::isfinite(budget) || budget < 0.0) {
          reject("delay_budget must be a non-negative number or null");
        }
        request.batch.opt.max_circuit_delay_increase = budget;
      }
    } else if (key == "engine") {
      const std::string& e = value.as_string("engine");
      try {
        request.batch.opt.engine = opt::engine_from_name(e);
      } catch (const Error& error) {
        reject(error.what());
      }
    } else if (key == "anneal_seed") {
      request.batch.opt.anneal.seed = value.as_u64("anneal_seed");
    } else if (key == "anneal_iters") {
      const int iters = to_int(value, "anneal_iters");
      if (iters < 1) reject("anneal_iters must be >= 1");
      request.batch.opt.anneal.iterations_per_gate = iters;
    } else if (key == "restrict_instance") {
      request.batch.opt.restrict_to_instance =
          value.as_bool("restrict_instance");
    } else if (key == "keep_going") {
      request.batch.keep_going = value.as_bool("keep_going");
    } else if (key == "deadline_ms") {
      if (value.is_null()) {
        request.deadline_ms.reset();
      } else {
        const double deadline = value.as_double("deadline_ms");
        // The finite check mirrors CancellationToken::with_deadline_ms:
        // a NaN comparison is always false, so an unchecked NaN deadline
        // would silently never latch.
        if (!std::isfinite(deadline) || deadline < 0.0) {
          reject("deadline_ms must be a finite non-negative number or null");
        }
        request.deadline_ms = deadline;
      }
    } else if (key == "priority") {
      request.priority = to_int(value, "priority");
    } else if (key == "gate_configs") {
      request.gate_configs = value.as_bool("gate_configs");
    } else if (key == "request_id") {
      request.request_id = value.as_string("request_id");
      if (request.request_id.empty()) {
        reject("request_id must be a non-empty string");
      }
    } else {
      reject("unknown field '" + key + "'");
    }
  }

  if (request.circuits.empty()) reject("no circuits given");
  return request;
}

std::string render_progress(std::size_t index,
                            const opt::BatchCircuitResult& result) {
  std::ostringstream out;
  util::JsonWriter w(out);
  w.begin_object();
  w.key("type");
  w.value("progress");
  w.key("index");
  w.value(static_cast<std::int64_t>(index));
  w.key("circuit");
  w.value(result.name);
  w.key("status");
  w.value(opt::circuit_status_name(result.status));
  w.end_object();
  return out.str();
}

std::string render_error(const opt::CircuitError& error) {
  std::ostringstream out;
  util::JsonWriter w(out);
  w.begin_object();
  w.key("type");
  w.value("error");
  w.key("code");
  w.value(error_code_name(error.code));
  w.key("retryable");
  w.value(is_retryable(error.code));
  w.key("site");
  w.value(error.site);
  w.key("message");
  w.value(error.message);
  w.end_object();
  return out.str();
}

}  // namespace tr::server
