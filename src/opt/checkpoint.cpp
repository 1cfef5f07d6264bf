#include "opt/checkpoint.hpp"

#include <filesystem>
#include <sstream>

#include "opt/batch_report.hpp"
#include "util/journal.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace tr::opt::checkpoint {

namespace fs = std::filesystem;

namespace {

/// Journal payload version (independent of the report schema: entries
/// are internal to one tr_opt version's checkpoint directory). The
/// manifest carries it, so another version's directory never resumes.
constexpr std::int64_t kEntryVersion = 2;

constexpr const char* kManifestName = "manifest.jnl";

/// One entry payload: the report's circuit object, framed.
std::string render_entry(std::size_t index, const BatchCircuit& circuit,
                         const BatchCircuitResult& result) {
  TR_ASSERT(result.status == CircuitStatus::ok);
  BatchJsonOptions json;
  json.include_timing = false;
  json.include_gate_configs = true;
  std::ostringstream out;
  util::JsonWriter w(out);
  w.begin_object();
  w.key("journal_version");
  w.value(kEntryVersion);
  w.key("index");
  w.value(static_cast<std::int64_t>(index));
  w.key("circuit");
  write_circuit_object(w, circuit, result, json);
  w.end_object();
  return out.str();
}

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
      if (doc.at("index").as_i64("index") != static_cast<std::int64_t>(i)) {
        throw Error("checkpoint: entry does not describe batch index " +
                        std::to_string(i) + " ('" + circuit.name + "')",
                    ErrorCode::invalid_argument);
      }
      circuit.resumed = read_circuit_object(doc.at("circuit"), circuit);
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
