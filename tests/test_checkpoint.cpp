// Checkpoint/resume journaling (ISSUE 10, opt/checkpoint): the
// byte-identity contract — a resumed batch renders output identical to
// an uninterrupted run — plus the manifest fingerprint, damaged-entry
// fallback (warn + re-run, never trust), stale-entry validation (an
// entry of another version included), the ok-only journaling rule, and
// the round trip of the one per-circuit record through
// read_circuit_object (opt/batch_report). In-process equivalent of the
// chaos_soak.sh phase-1 drill, minus the SIGKILL.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "celllib/library.hpp"
#include "celllib/tech.hpp"
#include "opt/batch.hpp"
#include "opt/batch_report.hpp"
#include "opt/checkpoint.hpp"
#include "opt/circuit_load.hpp"
#include "opt/run_options.hpp"
#include "util/error.hpp"
#include "util/journal.hpp"
#include "util/json.hpp"

namespace tr::opt::checkpoint {
namespace {

namespace fs = std::filesystem;

const std::vector<std::string> kSpecs = {"c17", "fulladder", "cmp2"};

/// The manifest of a run over `specs` under `options`.
std::string manifest_of(const std::vector<std::string>& specs, char scenario,
                        std::uint64_t seed, const BatchOptions& options) {
  RunOptions run;
  run.circuits = specs;
  run.scenario = scenario;
  run.seed = seed;
  run.batch = options;
  return render_manifest(run);
}

class CheckpointTest : public ::testing::Test {
protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            (std::string("tr_checkpoint_test_") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::vector<BatchCircuit> load_batch(const celllib::CellLibrary& library,
                                       std::uint64_t seed = 1) {
    std::vector<BatchCircuit> batch;
    for (const std::string& spec : kSpecs) {
      batch.push_back(make_scenario_circuit_guarded(
          spec, 'A', seed, library,
          [&] { return load_circuit_spec(spec, library); }));
      EXPECT_FALSE(batch.back().load_error);
    }
    return batch;
  }

  /// Deterministic report bytes: timing and cache deltas excluded, the
  /// same carve-outs as the CLI/daemon byte-identity contracts.
  static std::string render(const std::vector<BatchCircuit>& batch,
                            const BatchReport& report,
                            const BatchOptions& options) {
    BatchJsonOptions json;
    json.include_timing = false;
    json.include_cache_stats = false;
    std::ostringstream out;
    write_batch_json(batch, report, options, out, json);
    return out.str();
  }

  std::string dir_;
};

TEST_F(CheckpointTest, ManifestPinsEverythingThatShapesBytes) {
  BatchOptions base;
  const std::string manifest = manifest_of(kSpecs, 'A', 1, base);
  EXPECT_EQ(manifest, manifest_of(kSpecs, 'A', 1, base));

  // Every knob that changes result bytes must change the fingerprint.
  EXPECT_NE(manifest, manifest_of({"c17"}, 'A', 1, base));
  EXPECT_NE(manifest, manifest_of(kSpecs, 'B', 1, base));
  EXPECT_NE(manifest, manifest_of(kSpecs, 'A', 2, base));
  BatchOptions changed = base;
  changed.opt.objective = Objective::maximize_power;
  EXPECT_NE(manifest, manifest_of(kSpecs, 'A', 1, changed));
  changed = base;
  changed.opt.model = power::ModelKind::output_only;
  EXPECT_NE(manifest, manifest_of(kSpecs, 'A', 1, changed));
  changed = base;
  changed.opt.max_circuit_delay_increase = 0.1;
  EXPECT_NE(manifest, manifest_of(kSpecs, 'A', 1, changed));
  changed = base;
  changed.opt.restrict_to_instance = true;
  EXPECT_NE(manifest, manifest_of(kSpecs, 'A', 1, changed));
  // threads_per_circuit shapes the rendered "threads" field, so it is
  // pinned too...
  changed = base;
  changed.threads_per_circuit = 4;
  EXPECT_NE(manifest, manifest_of(kSpecs, 'A', 1, changed));
  // ...but jobs never changes bytes — resuming under a different --jobs
  // is the whole point of crash recovery on a different machine.
  changed = base;
  changed.jobs = 7;
  EXPECT_EQ(manifest, manifest_of(kSpecs, 'A', 1, changed));
}

TEST_F(CheckpointTest, EntryNamesAreOrderedAndSanitized) {
  EXPECT_EQ(entry_name(0, "c17"), "circuit-0000-c17.jnl");
  EXPECT_EQ(entry_name(12, "alu2"), "circuit-0012-alu2.jnl");
  EXPECT_EQ(entry_name(3, "../evil name"), "circuit-0003-.._evil_name.jnl");
}

TEST_F(CheckpointTest, FreshModeRefusesAnExistingJournal) {
  const std::string manifest = manifest_of(kSpecs, 'A', 1, {});
  CheckpointJournal first(dir_, false, manifest);
  try {
    CheckpointJournal second(dir_, false, manifest);
    FAIL() << "expected tr::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::invalid_argument);
    EXPECT_NE(std::string(e.what()).find("--resume"), std::string::npos);
  }
}

TEST_F(CheckpointTest, ResumeRequiresAManifest) {
  fs::create_directories(dir_);
  EXPECT_THROW(CheckpointJournal(dir_, true, "whatever"), Error);
}

TEST_F(CheckpointTest, ResumeRefusesAMismatchedManifest) {
  const std::string manifest = manifest_of(kSpecs, 'A', 1, {});
  // A journal written under another seed, and one written before the
  // engine options were retired (it still carries them, at their
  // defaults): neither is this run's fingerprint.
  std::string retired_engine = manifest;
  const std::size_t at = retired_engine.find("\"restrict_instance\"");
  ASSERT_NE(at, std::string::npos);
  retired_engine.insert(at,
                        "\"engine\": \"catalog\", \"anneal_seed\": 1, "
                        "\"anneal_iters\": 256, ");
  for (const std::string& stale :
       {manifest_of(kSpecs, 'A', 2, {}), retired_engine}) {
    fs::remove_all(dir_);
    CheckpointJournal fresh(dir_, false, stale);
    try {
      CheckpointJournal other(dir_, true, manifest);
      FAIL() << "expected tr::Error";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::invalid_argument);
      EXPECT_NE(std::string(e.what()).find("manifest mismatch"),
                std::string::npos);
    }
  }
}

TEST_F(CheckpointTest, ResumeRefusesADamagedManifest) {
  CheckpointJournal fresh(dir_, false, manifest_of(kSpecs, 'A', 1, {}));
  // Torn manifest: keep half the bytes.
  const std::string path = dir_ + "/manifest.jnl";
  std::ifstream in(path, std::ios::binary);
  std::string raw(std::istreambuf_iterator<char>(in), {});
  in.close();
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(raw.data(), static_cast<std::streamsize>(raw.size() / 2));
  EXPECT_THROW(CheckpointJournal(dir_, true, manifest_of(kSpecs, 'A', 1, {})),
               Error);
}

/// Runs the batch with journaling on and returns the rendered bytes.
std::string run_journaled(const celllib::CellLibrary& library,
                          std::vector<BatchCircuit>& batch,
                          BatchOptions options, CheckpointJournal& journal) {
  options.journal = [&journal](std::size_t i, const BatchCircuit& circuit,
                               const BatchCircuitResult& result) {
    journal.record(i, circuit, result);
  };
  const celllib::Tech tech;
  const BatchOptimizer optimizer(library, tech, options);
  const BatchReport report = optimizer.run(batch);
  std::ostringstream out;
  BatchJsonOptions json;
  json.include_timing = false;
  json.include_cache_stats = false;
  write_batch_json(batch, report, options, out, json);
  return out.str();
}

TEST_F(CheckpointTest, ResumedRunRendersByteIdenticalOutput) {
  for (const std::optional<double> budget :
       {std::optional<double>(), std::optional<double>(0.05)}) {
    SCOPED_TRACE(budget ? "budgeted" : "unbudgeted");
    fs::remove_all(dir_);
    const celllib::CellLibrary library = celllib::CellLibrary::standard();
    BatchOptions options;
    options.jobs = 1;
    options.opt.max_circuit_delay_increase = budget;
    const std::string manifest = manifest_of(kSpecs, 'A', 1, options);

    std::vector<BatchCircuit> original = load_batch(library);
    CheckpointJournal journal(dir_, false, manifest);
    const std::string uninterrupted =
        run_journaled(library, original, options, journal);
    EXPECT_TRUE(journal.warnings().empty());

    // Resume into a *fresh* process state: newly loaded netlists, a
    // different jobs value — the journaled results must carry everything.
    BatchOptions resumed_options;
    resumed_options.jobs = 3;
    resumed_options.opt.max_circuit_delay_increase = budget;
    std::vector<BatchCircuit> resumed = load_batch(library);
    CheckpointJournal resume(dir_, true, manifest);
    EXPECT_EQ(resume.load(resumed), static_cast<int>(kSpecs.size()));
    for (const BatchCircuit& circuit : resumed) {
      EXPECT_TRUE(circuit.resumed.has_value()) << circuit.name;
    }

    const celllib::Tech tech;
    const BatchOptimizer optimizer(library, tech, resumed_options);
    const BatchReport report = optimizer.run(resumed);
    std::ostringstream out;
    BatchJsonOptions json;
    json.include_timing = false;
    json.include_cache_stats = false;
    // Render under the *original* options (the manifest guarantees they
    // match up to jobs, which the report header does not carry).
    write_batch_json(resumed, report, resumed_options, out, json);
    EXPECT_EQ(out.str(), uninterrupted);
  }
}

TEST_F(CheckpointTest, DamagedEntryWarnsAndRerunsByteIdentical) {
  const celllib::CellLibrary library = celllib::CellLibrary::standard();
  BatchOptions options;
  const std::string manifest = manifest_of(kSpecs, 'A', 1, options);

  std::vector<BatchCircuit> original = load_batch(library);
  CheckpointJournal journal(dir_, false, manifest);
  const std::string uninterrupted =
      run_journaled(library, original, options, journal);

  // Bit-flip one entry's payload: detected via checksum, re-run.
  const std::string victim = dir_ + "/" + entry_name(1, "fulladder");
  std::ifstream in(victim, std::ios::binary);
  std::string raw(std::istreambuf_iterator<char>(in), {});
  in.close();
  raw[raw.size() - 3] = static_cast<char>(raw[raw.size() - 3] ^ 0x40);
  std::ofstream(victim, std::ios::binary | std::ios::trunc)
      .write(raw.data(), static_cast<std::streamsize>(raw.size()));

  std::vector<BatchCircuit> resumed = load_batch(library);
  CheckpointJournal resume(dir_, true, manifest);
  EXPECT_EQ(resume.load(resumed), static_cast<int>(kSpecs.size()) - 1);
  ASSERT_EQ(resume.warnings().size(), 1u);
  EXPECT_EQ(resume.warnings()[0].file, entry_name(1, "fulladder"));
  EXPECT_NE(resume.warnings()[0].message.find("bad_checksum"),
            std::string::npos);
  EXPECT_FALSE(resumed[1].resumed.has_value());

  const std::string bytes =
      run_journaled(library, resumed, options, resume);
  EXPECT_EQ(bytes, uninterrupted);
}

TEST_F(CheckpointTest, StaleEntryForADifferentCircuitIsRejected) {
  const celllib::CellLibrary library = celllib::CellLibrary::standard();
  BatchOptions options;
  const std::string manifest = manifest_of(kSpecs, 'A', 1, options);

  std::vector<BatchCircuit> original = load_batch(library);
  CheckpointJournal journal(dir_, false, manifest);
  run_journaled(library, original, options, journal);

  // Masquerade: c17's entry under fulladder's file name. The embedded
  // index/name must unmask it — a frame-valid entry is still untrusted
  // until it matches the circuit it claims to describe.
  fs::copy_file(dir_ + "/" + entry_name(0, "c17"),
                dir_ + "/" + entry_name(1, "fulladder"),
                fs::copy_options::overwrite_existing);

  std::vector<BatchCircuit> resumed = load_batch(library);
  CheckpointJournal resume(dir_, true, manifest);
  EXPECT_EQ(resume.load(resumed), static_cast<int>(kSpecs.size()) - 1);
  ASSERT_EQ(resume.warnings().size(), 1u);
  EXPECT_EQ(resume.warnings()[0].code, ErrorCode::invalid_argument);
  EXPECT_FALSE(resumed[1].resumed.has_value());
}

TEST_F(CheckpointTest, RejectedTrailingDecisionLeavesTheNetlistUntouched) {
  const celllib::CellLibrary library = celllib::CellLibrary::standard();
  BatchOptions options;
  const std::string manifest = manifest_of(kSpecs, 'A', 1, options);

  std::vector<BatchCircuit> original = load_batch(library);
  CheckpointJournal journal(dir_, false, manifest);
  const std::string uninterrupted =
      run_journaled(library, original, options, journal);

  // A frame-valid entry whose valid decisions are followed by one for a
  // net that does not exist: the whole entry is rejected, and none of
  // its earlier decisions may stay applied to the circuit that re-runs.
  const std::string victim = entry_name(1, "fulladder");
  const util::journal::ReadResult entry =
      util::journal::read_entry(dir_ + "/" + victim);
  ASSERT_EQ(entry.status, util::journal::EntryStatus::ok);
  std::string payload = entry.payload;
  const std::size_t close = payload.rfind(']');
  ASSERT_NE(close, std::string::npos);
  ASSERT_NE(payload.find("\"output\""), std::string::npos);
  payload.insert(close,
                 R"(, {"output": "no_such_net", "cell": "nand2", )"
                 R"("config": "x", "power_before_w": 0, "power_after_w": 0})");
  util::journal::write_entry(dir_, victim, payload);

  std::vector<BatchCircuit> resumed = load_batch(library);
  CheckpointJournal resume(dir_, true, manifest);
  EXPECT_EQ(resume.load(resumed), static_cast<int>(kSpecs.size()) - 1);
  ASSERT_EQ(resume.warnings().size(), 1u);
  EXPECT_NE(resume.warnings()[0].message.find("no_such_net"),
            std::string::npos);
  EXPECT_FALSE(resumed[1].resumed.has_value());

  EXPECT_EQ(run_journaled(library, resumed, options, resume), uninterrupted);
}

TEST_F(CheckpointTest, VersionOneEntryWarnsAndReruns) {
  const celllib::CellLibrary library = celllib::CellLibrary::standard();
  BatchOptions options;
  const std::string manifest = manifest_of(kSpecs, 'A', 1, options);

  std::vector<BatchCircuit> original = load_batch(library);
  CheckpointJournal journal(dir_, false, manifest);
  const std::string uninterrupted =
      run_journaled(library, original, options, journal);

  // c17's entry in the version-1 format (a field list of its own, the
  // changed gates under "decisions"), framed validly inside a current
  // directory: it is stale, never read as a current entry.
  const std::string victim = entry_name(0, "c17");
  util::journal::write_entry(dir_, victim, R"json({
  "journal_version": 1,
  "index": 0,
  "name": "c17",
  "gates": 6,
  "primary_inputs": 5,
  "primary_outputs": 2,
  "threads": 1,
  "model_power_before_w": 1.4874833205017656e-06,
  "model_power_after_w": 1.4044760524421406e-06,
  "critical_path_before_s": 1.104e-09,
  "critical_path_after_s": 1.104e-09,
  "gates_changed": 4,
  "configs_rejected_by_delay": 0,
  "configs_rejected_by_instance": 0,
  "decisions": [
    {
      "output": "g10",
      "cell": "nand2",
      "config": "S(T1,T0)|P(T0,T1)",
      "power_before_w": 1.4803622810560775e-07,
      "power_after_w": 1.3030866326411668e-07
    }
  ]
}
)json");

  std::vector<BatchCircuit> resumed = load_batch(library);
  CheckpointJournal resume(dir_, true, manifest);
  EXPECT_EQ(resume.load(resumed), static_cast<int>(kSpecs.size()) - 1);
  ASSERT_EQ(resume.warnings().size(), 1u);
  EXPECT_EQ(resume.warnings()[0].file, victim);
  EXPECT_NE(resume.warnings()[0].message.find("entry version is not 2"),
            std::string::npos)
      << resume.warnings()[0].message;
  EXPECT_FALSE(resumed[0].resumed.has_value());

  EXPECT_EQ(run_journaled(library, resumed, options, resume), uninterrupted);
}

/// One circuit's object bytes, as a checkpoint entry holds it.
std::string circuit_object_bytes(const BatchCircuit& circuit,
                                 const BatchCircuitResult& result) {
  BatchJsonOptions json;
  json.include_timing = false;
  std::ostringstream out;
  util::JsonWriter w(out);
  write_circuit_object(w, circuit, result, json);
  return out.str();
}

TEST_F(CheckpointTest, CircuitObjectRoundTripsThroughTheReader) {
  // Every ok circuit of classic + table3, unbudgeted and budgeted: the
  // object read back onto a freshly loaded copy writes the same bytes.
  std::vector<std::string> specs = suite_circuit_specs("classic");
  for (const std::string& spec : suite_circuit_specs("table3")) {
    specs.push_back(spec);
  }
  const celllib::CellLibrary library = celllib::CellLibrary::standard();
  const celllib::Tech tech;
  const auto load = [&](const std::string& spec) {
    return make_scenario_circuit_guarded(
        spec, 'A', 1, library, [&] { return load_circuit_spec(spec, library); });
  };
  for (const std::optional<double> budget :
       {std::optional<double>(), std::optional<double>(0.05)}) {
    SCOPED_TRACE(budget ? "budgeted" : "unbudgeted");
    std::vector<BatchCircuit> batch;
    for (const std::string& spec : specs) batch.push_back(load(spec));
    BatchOptions options;
    options.opt.max_circuit_delay_increase = budget;
    const BatchReport report = BatchOptimizer(library, tech, options).run(batch);
    EXPECT_EQ(report.circuits_ok, static_cast<int>(specs.size()));

    for (std::size_t i = 0; i < specs.size(); ++i) {
      const BatchCircuitResult& result = report.circuits[i];
      if (result.status != CircuitStatus::ok) continue;
      const std::string written = circuit_object_bytes(batch[i], result);
      BatchCircuit fresh = load(specs[i]);
      const BatchCircuitResult read =
          read_circuit_object(util::json_parse(written), fresh);
      EXPECT_EQ(circuit_object_bytes(fresh, read), written) << specs[i];
    }
  }
}

TEST_F(CheckpointTest, OnlyOkCircuitsAreJournaled) {
  const celllib::CellLibrary library = celllib::CellLibrary::standard();
  BatchCircuit circuit = make_scenario_circuit_guarded(
      "c17", 'A', 1, library, [&] { return load_circuit_spec("c17", library); });
  BatchCircuitResult failed;
  failed.name = "c17";
  failed.status = CircuitStatus::error;

  CheckpointJournal journal(dir_, false, manifest_of({"c17"}, 'A', 1, {}));
  journal.record(0, circuit, failed);
  EXPECT_TRUE(journal.warnings().empty());
  EXPECT_FALSE(fs::exists(dir_ + "/" + entry_name(0, "c17")));
}

}  // namespace
}  // namespace tr::opt::checkpoint
