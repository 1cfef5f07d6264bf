#include "opt/checkpoint.hpp"

#include <filesystem>
#include <map>
#include <sstream>

#include "gategraph/sp_parse.hpp"
#include "util/journal.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace tr::opt::checkpoint {

namespace fs = std::filesystem;

namespace {

/// Journal payload schema version (independent of the report schema:
/// entries are internal to one tr_opt version's checkpoint directory).
constexpr std::int64_t kEntryVersion = 1;

constexpr const char* kManifestName = "manifest.jnl";

}  // namespace

std::string entry_name(std::size_t index, const std::string& circuit_name) {
  std::string number = std::to_string(index);
  if (number.size() < 4) number.insert(0, 4 - number.size(), '0');
  return "circuit-" + number + "-" + safe_file_name(circuit_name) + ".jnl";
}

std::string render_manifest(const RunOptions& run) {
  std::ostringstream out;
  util::JsonWriter w(out);
  w.begin_object();
  w.key("journal_version");
  w.value(kEntryVersion);
  w.key("generator");
  w.value("tr_opt_checkpoint");
  write_options(w, run, true);
  w.end_object();
  return out.str();
}

std::string render_entry(std::size_t index, const BatchCircuit& circuit,
                         const BatchCircuitResult& result) {
  TR_ASSERT(result.status == CircuitStatus::ok);
  std::ostringstream out;
  util::JsonWriter w(out);
  w.begin_object();
  w.key("journal_version");
  w.value(kEntryVersion);
  w.key("index");
  w.value(static_cast<std::int64_t>(index));
  w.key("name");
  w.value(result.name);
  w.key("gates");
  w.value(result.gates);
  w.key("primary_inputs");
  w.value(result.primary_inputs);
  w.key("primary_outputs");
  w.value(result.primary_outputs);
  w.key("threads");
  w.value(result.report.threads_used);
  w.key("model_power_before_w");
  w.value(result.report.model_power_before);
  w.key("model_power_after_w");
  w.value(result.report.model_power_after);
  w.key("critical_path_before_s");
  w.value(result.critical_path_before);
  w.key("critical_path_after_s");
  w.value(result.critical_path_after);
  w.key("gates_changed");
  w.value(result.report.gates_changed);
  w.key("configs_rejected_by_delay");
  w.value(result.report.configs_rejected_by_delay);
  w.key("configs_rejected_by_instance");
  w.value(result.report.configs_rejected_by_instance);
  // Only *changed* decisions are journaled: they are exactly what the
  // report renders and what the netlist needs re-applied; unchanged
  // gates are already in their loaded configuration.
  w.key("decisions");
  w.begin_array();
  for (const GateDecision& decision : result.report.decisions) {
    if (!decision.changed) continue;
    const netlist::GateInst& inst = circuit.netlist.gate(decision.gate);
    w.begin_object();
    // Keyed by output net name — the identity BLIF round-trips preserve
    // (same convention as the configuration sidecar, config_io.hpp).
    w.key("output");
    w.value(circuit.netlist.net(inst.output).name);
    w.key("cell");
    w.value(inst.cell);
    w.key("config");
    w.value(inst.config.canonical_key());
    w.key("power_before_w");
    w.value(decision.original_power);
    w.key("power_after_w");
    w.value(decision.chosen_power);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return out.str();
}

CheckpointJournal::CheckpointJournal(std::string dir, bool resume,
                                     std::string manifest)
    : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    throw Error("checkpoint: cannot create directory '" + dir_ +
                    "': " + ec.message(),
                ErrorCode::resource);
  }

  const std::string manifest_path = dir_ + "/" + kManifestName;
  const util::journal::ReadResult existing =
      util::journal::read_entry(manifest_path);

  if (resume) {
    if (existing.status == util::journal::EntryStatus::missing) {
      throw Error("checkpoint: --resume but '" + dir_ +
                      "' holds no readable manifest (" + kManifestName +
                      " missing) — was the directory ever checkpointed?",
                  ErrorCode::invalid_argument);
    }
    if (existing.status != util::journal::EntryStatus::ok) {
      throw Error(
          "checkpoint: manifest '" + manifest_path + "' is damaged (" +
              util::journal::entry_status_name(existing.status) +
              "); refusing to resume from an unidentifiable journal — "
              "remove the directory to start fresh",
          ErrorCode::parse);
    }
    if (existing.payload != manifest) {
      throw Error(
          "checkpoint: manifest mismatch — the journal in '" + dir_ +
              "' was written under different options/circuits/seed than "
              "this run; resuming would mix incompatible results "
              "(remove the directory to start fresh)",
          ErrorCode::invalid_argument);
    }
    return;  // manifest verified; entries are loaded by load()
  }

  if (existing.status != util::journal::EntryStatus::missing) {
    throw Error("checkpoint: '" + dir_ +
                    "' already holds a journal; pass --resume to continue "
                    "it or remove the directory to start fresh",
                ErrorCode::invalid_argument);
  }
  util::journal::write_entry(dir_, kManifestName, manifest);
}

int CheckpointJournal::load(std::vector<BatchCircuit>& batch) {
  int resumed = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    BatchCircuit& circuit = batch[i];
    if (circuit.load_error) continue;  // nothing to apply results onto
    const std::string name = entry_name(i, circuit.name);
    const std::string path = dir_ + "/" + name;
    const util::journal::ReadResult entry = util::journal::read_entry(path);
    if (entry.status == util::journal::EntryStatus::missing) continue;
    if (entry.status != util::journal::EntryStatus::ok) {
      // The crash window (torn temp file never renamed, truncated
      // write) or plain disk damage: detected, reported, re-run.
      const std::lock_guard<std::mutex> lock(mutex_);
      warnings_.push_back(
          {name, ErrorCode::parse,
           std::string("journal entry is damaged (") +
               util::journal::entry_status_name(entry.status) +
               "); re-optimizing '" + circuit.name + "'"});
      continue;
    }

    try {
      const util::JsonValue doc = util::json_parse(entry.payload);
      if (doc.at("journal_version").as_i64("journal_version") !=
          kEntryVersion) {
        throw Error("checkpoint: entry version is not " +
                        std::to_string(kEntryVersion),
                    ErrorCode::parse);
      }
      if (doc.at("index").as_i64("index") !=
              static_cast<std::int64_t>(i) ||
          doc.at("name").as_string("name") != circuit.name) {
        throw Error("checkpoint: entry does not describe batch index " +
                        std::to_string(i) + " ('" + circuit.name + "')",
                    ErrorCode::invalid_argument);
      }

      BatchCircuitResult result;
      result.name = circuit.name;
      result.status = CircuitStatus::ok;
      result.gates = static_cast<int>(doc.at("gates").as_i64("gates"));
      if (result.gates != circuit.netlist.gate_count()) {
        throw Error(
            "checkpoint: entry was journaled for a netlist with " +
                std::to_string(result.gates) + " gates, reloaded netlist "
                "has " + std::to_string(circuit.netlist.gate_count()),
            ErrorCode::invalid_argument);
      }
      result.primary_inputs = static_cast<int>(
          doc.at("primary_inputs").as_i64("primary_inputs"));
      result.primary_outputs = static_cast<int>(
          doc.at("primary_outputs").as_i64("primary_outputs"));
      result.report.threads_used =
          static_cast<int>(doc.at("threads").as_i64("threads"));
      result.report.model_power_before =
          doc.at("model_power_before_w").as_double("model_power_before_w");
      result.report.model_power_after =
          doc.at("model_power_after_w").as_double("model_power_after_w");
      result.critical_path_before =
          doc.at("critical_path_before_s")
              .as_double("critical_path_before_s");
      result.critical_path_after =
          doc.at("critical_path_after_s")
              .as_double("critical_path_after_s");
      result.report.gates_changed = static_cast<int>(
          doc.at("gates_changed").as_i64("gates_changed"));
      result.report.configs_rejected_by_delay =
          static_cast<int>(doc.at("configs_rejected_by_delay")
                               .as_i64("configs_rejected_by_delay"));
      result.report.configs_rejected_by_instance =
          static_cast<int>(doc.at("configs_rejected_by_instance")
                               .as_i64("configs_rejected_by_instance"));

      // Re-apply the committed configurations. The reloaded netlist is
      // deterministic, so output-net lookup pins each decision to the
      // same gate the original run rewrote; set_config re-validates
      // that the key computes the gate's function. They go onto a copy
      // that replaces the netlist only once every decision is accepted,
      // so a rejected entry leaves the circuit as it was loaded.
      const util::JsonValue& decisions = doc.at("decisions");
      if (decisions.kind != util::JsonValue::Kind::array) {
        throw Error("checkpoint: decisions must be an array",
                    ErrorCode::parse);
      }
      netlist::Netlist applied = circuit.netlist;
      std::map<std::string, netlist::GateId> by_output;
      for (netlist::GateId g = 0; g < applied.gate_count(); ++g) {
        by_output.emplace(applied.net(applied.gate(g).output).name, g);
      }
      for (const util::JsonValue& entry_doc : decisions.array) {
        const std::string& output =
            entry_doc.at("output").as_string("output");
        const auto it = by_output.find(output);
        if (it == by_output.end()) {
          throw Error("checkpoint: no gate drives a net named '" + output +
                          "'",
                      ErrorCode::invalid_argument);
        }
        const netlist::GateInst& inst = applied.gate(it->second);
        if (inst.cell != entry_doc.at("cell").as_string("cell")) {
          throw Error("checkpoint: gate driving '" + output +
                          "' is not a '" +
                          entry_doc.at("cell").as_string("cell") + "'",
                      ErrorCode::invalid_argument);
        }
        applied.set_config(
            it->second,
            gategraph::topology_from_key(
                entry_doc.at("config").as_string("config"),
                static_cast<int>(inst.inputs.size())));
        GateDecision decision;
        decision.gate = it->second;
        decision.changed = true;
        decision.original_power =
            entry_doc.at("power_before_w").as_double("power_before_w");
        decision.chosen_power =
            entry_doc.at("power_after_w").as_double("power_after_w");
        result.report.decisions.push_back(decision);
      }

      circuit.netlist = std::move(applied);
      circuit.resumed = std::move(result);
      ++resumed;
    } catch (...) {
      // Stale or semantically inconsistent entry (or a bug in an old
      // writer): report it and fall back to re-running the circuit.
      const CircuitError why = describe_current_exception();
      const std::lock_guard<std::mutex> lock(mutex_);
      warnings_.push_back({name, why.code,
                           why.message + "; re-optimizing '" +
                               circuit.name + "'"});
      circuit.resumed.reset();
    }
  }
  return resumed;
}

void CheckpointJournal::record(std::size_t index, const BatchCircuit& circuit,
                               const BatchCircuitResult& result) {
  if (result.status != CircuitStatus::ok) return;
  const std::string name = entry_name(index, result.name);
  try {
    util::journal::write_entry(dir_, name,
                               render_entry(index, circuit, result));
  } catch (...) {
    // Durability lost for this circuit, but its in-memory result is
    // intact: surface a warning instead of failing the batch.
    const CircuitError why = describe_current_exception();
    const std::lock_guard<std::mutex> lock(mutex_);
    warnings_.push_back({name, why.code, why.message});
  }
}

std::vector<JournalWarning> CheckpointJournal::warnings() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return warnings_;
}

}  // namespace tr::opt::checkpoint
