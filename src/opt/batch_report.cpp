#include "opt/batch_report.hpp"

#include <ostream>
#include <string>

#include "netlist/config_io.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace tr::opt {

namespace {

using util::JsonWriter;

void write_error_object(JsonWriter& w, const CircuitError& error) {
  w.begin_object();
  write_error_members(w, error);
  w.end_object();
}

void write_cache_object(JsonWriter& w, const celllib::CatalogCacheStats& c) {
  w.begin_object();
  w.key("hits");
  w.value(c.hits);
  w.key("misses");
  w.value(c.misses);
  w.key("lookups");
  w.value(c.lookups());
  w.key("hit_rate");
  w.value(c.hit_rate());
  w.end_object();
}

}  // namespace

void write_error_members(JsonWriter& w, const CircuitError& error) {
  w.key("code");
  w.value(error_code_name(error.code));
  // Schema v4: the machine-readable retry classification rides next to
  // the code, so clients need not hard-code the taxonomy.
  w.key("retryable");
  w.value(is_retryable(error.code));
  w.key("site");
  w.value(error.site);
  w.key("message");
  w.value(error.message);
}

void write_circuit_object(JsonWriter& w, const BatchCircuit& circuit,
                          const BatchCircuitResult& result,
                          const BatchJsonOptions& json) {
  w.begin_object();
  w.key("name");
  w.value(result.name);
  w.key("status");
  w.value(circuit_status_name(result.status));
  if (result.status != CircuitStatus::ok) {
    // The all-or-nothing contract in the schema itself: a failed or
    // cancelled circuit gets its error record and nothing numeric.
    w.key("error");
    write_error_object(w, result.error ? *result.error : CircuitError{});
    if (json.include_timing) {
      w.key("elapsed_ms");
      w.value(result.elapsed_ms);
    }
    w.end_object();
    return;
  }
  w.key("gates");
  w.value(result.gates);
  w.key("primary_inputs");
  w.value(result.primary_inputs);
  w.key("primary_outputs");
  w.value(result.primary_outputs);
  // The engine (schema v4 keeps the key; greedy is the only one) and the
  // worker threads the scoring phase really used.
  w.key("engine");
  w.value("catalog");
  w.key("threads");
  w.value(result.report.threads_used);
  w.key("model_power_before_w");
  w.value(result.report.model_power_before);
  w.key("model_power_after_w");
  w.value(result.report.model_power_after);
  w.key("power_reduction_pct");
  w.value(percent_reduction(result.report.model_power_before,
                            result.report.model_power_after));
  w.key("critical_path_before_s");
  w.value(result.report.critical_path_before);
  w.key("critical_path_after_s");
  w.value(result.report.critical_path_after);
  w.key("gates_changed");
  w.value(result.report.gates_changed);
  w.key("configs_rejected_by_delay");
  w.value(result.report.configs_rejected_by_delay);
  w.key("configs_rejected_by_instance");
  w.value(result.report.configs_rejected_by_instance);
  if (json.include_gate_configs) {
    // Committed configurations of every *changed* gate, GateId order —
    // enough to re-apply the result to a canonically-configured netlist
    // (the same contract as the configuration sidecar, config_io.hpp).
    w.key("gate_configs");
    w.begin_array();
    for (const GateDecision& decision : result.report.decisions) {
      if (!decision.changed) continue;
      const netlist::GateInst& inst = circuit.netlist.gate(decision.gate);
      w.begin_object();
      w.key("gate");
      w.value(inst.name);
      w.key("cell");
      w.value(inst.cell);
      w.key("output");
      w.value(circuit.netlist.net(inst.output).name);
      w.key("config");
      w.value(inst.config.canonical_key());
      w.key("power_before_w");
      w.value(decision.original_power);
      w.key("power_after_w");
      w.value(decision.chosen_power);
      w.end_object();
    }
    w.end_array();
  }
  if (json.include_timing) {
    w.key("elapsed_ms");
    w.value(result.elapsed_ms);
  }
  w.end_object();
}

BatchCircuitResult read_circuit_object(const util::JsonValue& object,
                                       BatchCircuit& circuit) {
  const auto count = [&](const char* key) {
    return static_cast<int>(object.at(key).as_i64(key));
  };
  const auto number = [](const util::JsonValue& doc, const char* key) {
    return doc.at(key).as_double(key);
  };
  // Only an ok object carries "gates" and the numbers below.
  const std::string& name = object.at("name").as_string("name");
  BatchCircuitResult result;
  result.name = circuit.name;
  result.gates = count("gates");
  if (name != circuit.name || result.gates != circuit.netlist.gate_count()) {
    throw Error("circuit object of '" + name + "' with " +
                    std::to_string(result.gates) + " gates does not fit '" +
                    circuit.name + "' with " +
                    std::to_string(circuit.netlist.gate_count()),
                ErrorCode::invalid_argument);
  }
  result.primary_inputs = count("primary_inputs");
  result.primary_outputs = count("primary_outputs");
  result.report.threads_used = count("threads");
  result.report.model_power_before = number(object, "model_power_before_w");
  result.report.model_power_after = number(object, "model_power_after_w");
  result.report.critical_path_before = number(object, "critical_path_before_s");
  result.report.critical_path_after = number(object, "critical_path_after_s");
  result.report.gates_changed = count("gates_changed");
  result.report.configs_rejected_by_delay = count("configs_rejected_by_delay");
  result.report.configs_rejected_by_instance =
      count("configs_rejected_by_instance");

  // The netlist loads deterministically, so each output net names the
  // gate the original run rewrote. The configurations go onto a copy
  // that replaces the netlist only once every entry applies.
  const util::JsonValue& configs = object.at("gate_configs");
  if (configs.kind != util::JsonValue::Kind::array) {
    throw Error("gate_configs must be an array", ErrorCode::parse);
  }
  netlist::Netlist applied = circuit.netlist;
  for (const util::JsonValue& entry : configs.array) {
    const std::string& output = entry.at("output").as_string("output");
    const std::string& cell = entry.at("cell").as_string("cell");
    GateDecision decision;
    decision.gate = netlist::apply_config_key(
        applied, output, entry.at("config").as_string("config"));
    if (decision.gate < 0 || applied.gate(decision.gate).cell != cell) {
      throw Error("no '" + cell + "' gate drives a net named '" + output +
                      "'",
                  ErrorCode::invalid_argument);
    }
    decision.changed = true;
    decision.original_power = number(entry, "power_before_w");
    decision.chosen_power = number(entry, "power_after_w");
    result.report.decisions.push_back(decision);
  }
  circuit.netlist = std::move(applied);
  return result;
}

void write_batch_json(const std::vector<BatchCircuit>& batch,
                      const BatchReport& report, const BatchOptions& options,
                      std::ostream& out, const BatchJsonOptions& json) {
  require(batch.size() == report.circuits.size(),
          "write_batch_json: batch and report sizes differ");
  JsonWriter w(out);
  w.begin_object();
  // Schema v3: the top-level engine key became "engine_requested", and
  // every ok circuit carries "engine" + "threads" (what actually ran).
  // With one engine left both engine keys are the literal "catalog".
  // Schema v4: error objects carry "retryable" (the ErrorCode retry
  // classification, DESIGN.md Sec. 15.3).
  w.key("schema_version");
  w.value(4);
  w.key("generator");
  w.value("tr_opt");
  w.key("objective");
  w.value(std::string(objective_name(options.opt.objective)) + "_power");
  w.key("model");
  w.value(model_name(options.opt.model));
  w.key("engine_requested");
  w.value("catalog");
  w.key("delay_budget");
  if (options.opt.max_circuit_delay_increase) {
    w.value(*options.opt.max_circuit_delay_increase);
  } else {
    w.null_value();
  }
  w.key("restrict_to_instance");
  w.value(options.opt.restrict_to_instance);

  w.key("circuits");
  w.begin_array();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    write_circuit_object(w, batch[i], report.circuits[i], json);
  }
  w.end_array();

  // Non-ok circuits repeated as a flat index, so "did anything fail"
  // needs no scan of the circuits array.
  w.key("errors");
  w.begin_array();
  for (const BatchCircuitResult& result : report.circuits) {
    if (result.status == CircuitStatus::ok) continue;
    w.begin_object();
    w.key("name");
    w.value(result.name);
    w.key("status");
    w.value(circuit_status_name(result.status));
    w.key("error");
    write_error_object(w, result.error ? *result.error : CircuitError{});
    w.end_object();
  }
  w.end_array();

  w.key("totals");
  w.begin_object();
  w.key("circuits");
  w.value(static_cast<std::int64_t>(report.circuits.size()));
  w.key("circuits_ok");
  w.value(report.circuits_ok);
  w.key("circuits_error");
  w.value(report.circuits_failed);
  w.key("circuits_cancelled");
  w.value(report.circuits_cancelled);
  w.key("gates");
  w.value(report.gates_total);
  w.key("gates_changed");
  w.value(report.gates_changed);
  w.key("model_power_before_w");
  w.value(report.model_power_before);
  w.key("model_power_after_w");
  w.value(report.model_power_after);
  w.key("power_reduction_pct");
  w.value(percent_reduction(report.model_power_before,
                            report.model_power_after));
  w.end_object();

  if (json.include_cache_stats) {
    w.key("catalog_cache");
    write_cache_object(w, report.cache);
  }

  if (json.include_timing) {
    w.key("timing");
    w.begin_object();
    w.key("jobs");
    w.value(report.jobs);
    w.key("elapsed_ms");
    w.value(report.elapsed_ms);
    w.end_object();
  }
  w.end_object();
}

void write_circuit_json(const BatchCircuit& circuit,
                        const BatchCircuitResult& result, std::ostream& out,
                        const BatchJsonOptions& json) {
  JsonWriter w(out);
  write_circuit_object(w, circuit, result, json);
}

}  // namespace tr::opt
