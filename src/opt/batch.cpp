#include "opt/batch.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "opt/scenario.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/thread_pool.hpp"

namespace tr::opt {

namespace {

double ms_between(std::chrono::steady_clock::time_point t0,
                  std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

const char* circuit_status_name(CircuitStatus status) noexcept {
  switch (status) {
    case CircuitStatus::ok:
      return "ok";
    case CircuitStatus::error:
      return "error";
    case CircuitStatus::cancelled:
      return "cancelled";
  }
  return "error";
}

CircuitError describe_current_exception() {
  try {
    throw;
  } catch (const Error& e) {
    return {e.code(), e.site_chain(), e.what()};
  } catch (const std::bad_alloc&) {
    return {ErrorCode::resource, "", "allocation failure (std::bad_alloc)"};
  } catch (const std::exception& e) {
    return {ErrorCode::unknown, "", e.what()};
  } catch (...) {
    return {ErrorCode::unknown, "", "unknown exception"};
  }
}

BatchOptimizer::BatchOptimizer(const celllib::CellLibrary& library,
                               const celllib::Tech& tech, BatchOptions options)
    : library_(&library), tech_(tech), options_(std::move(options)) {
  require(options_.threads_per_circuit >= 0,
          "BatchOptimizer: threads_per_circuit must be >= 0");
}

BatchReport BatchOptimizer::run(std::vector<BatchCircuit>& batch) const {
  for (const BatchCircuit& circuit : batch) {
    require(&circuit.netlist.library() == library_, "BatchOptimizer: circuit '",
            circuit.name,
            "' references a different CellLibrary than the shared one; "
            "cross-circuit catalog sharing requires one library "
            "instance for the whole batch");
  }

  const celllib::CatalogCacheStats before = library_->catalog_cache_stats();
  const auto batch_t0 = std::chrono::steady_clock::now();

  BatchReport report;
  report.circuits.resize(batch.size());

  // Never more circuit workers than circuits; only timing.jobs shows it.
  const int hardware =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int jobs =
      std::clamp(options_.jobs > 0 ? options_.jobs : hardware, 1,
                 static_cast<int>(std::max<std::size_t>(1, batch.size())));

  OptimizeOptions per_circuit = options_.opt;
  // threads == 0 would give every circuit a pool of all hardware
  // threads; the batch driver hands each optimize() its share instead:
  // the hardware threads left per circuit worker, so jobs x threads
  // never exceeds the hardware thread count.
  per_circuit.threads = options_.threads_per_circuit == 0
                            ? std::max(1, hardware / jobs)
                            : options_.threads_per_circuit;

  per_circuit.cancel = options_.cancel;

  util::ThreadPool pool(jobs);
  pool.parallel_for(batch.size(), [&](std::size_t i) {
    BatchCircuit& circuit = batch[i];
    BatchCircuitResult& result = report.circuits[i];
    const auto t0 = std::chrono::steady_clock::now();
    result.name = circuit.name;

    if (circuit.load_error) {
      // The circuit never loaded; its placeholder netlist carries no
      // work. Surface the stored record (which may itself be a
      // cancellation) without running anything.
      result.status = circuit.load_error->code == ErrorCode::cancelled
                          ? CircuitStatus::cancelled
                          : CircuitStatus::error;
      result.error = circuit.load_error;
      result.elapsed_ms = ms_between(t0, std::chrono::steady_clock::now());
      if (!options_.keep_going) {
        throw Error(circuit.name + ": " + circuit.load_error->message,
                    circuit.load_error->code);
      }
      if (options_.progress) options_.progress(i, result);
      return;
    }

    if (circuit.resumed) {
      // Checkpoint resume: adopt the journaled result verbatim — the
      // configurations are already applied to the netlist, no scoring
      // runs, no cache traffic, no fault sites. Only the wall clock is
      // this run's own (it measures the adoption, and is excluded from
      // the byte-identity contract like all timing).
      result = *circuit.resumed;
      result.elapsed_ms = ms_between(t0, std::chrono::steady_clock::now());
      if (options_.progress) options_.progress(i, result);
      return;
    }

    // Name this worker's unit of work so `site @ circuit` fault
    // targeting is deterministic regardless of jobs. The context is
    // thread-local: with threads_per_circuit == 1 the whole circuit runs
    // on this thread and every site below sees it.
    const util::fault::ScopedContext fault_context(circuit.name);

    // All-or-nothing: optimize() mutates the netlist as it commits, so
    // keep the incoming configuration to move back on any failure. One
    // netlist copy per circuit — noise next to the scoring work.
    netlist::Netlist snapshot = circuit.netlist;
    try {
      options_.cancel.check("batch");
      if (util::fault::enabled()) {
        util::fault::check("batch.circuit");
      }
      result.gates = circuit.netlist.gate_count();
      result.primary_inputs =
          static_cast<int>(circuit.netlist.primary_inputs().size());
      result.primary_outputs =
          static_cast<int>(circuit.netlist.primary_outputs().size());
      result.report =
          optimize(circuit.netlist, circuit.pi_stats, tech_, per_circuit);
      result.elapsed_ms = ms_between(t0, std::chrono::steady_clock::now());
      // Durability before visibility: journal the completed circuit
      // first, so an emitted progress frame implies the entry survives
      // a crash from here on.
      if (options_.journal) options_.journal(i, circuit, result);
      if (options_.progress) options_.progress(i, result);
    } catch (...) {
      circuit.netlist = std::move(snapshot);
      const CircuitError error = describe_current_exception();
      // Reset to defaults first: nothing numeric from the failed attempt
      // may survive into the record.
      result = BatchCircuitResult{};
      result.name = circuit.name;
      result.status = error.code == ErrorCode::cancelled
                          ? CircuitStatus::cancelled
                          : CircuitStatus::error;
      result.error = error;
      result.elapsed_ms = ms_between(t0, std::chrono::steady_clock::now());
      if (!options_.keep_going) throw;
      if (options_.progress) options_.progress(i, result);
    }
  });

  for (const BatchCircuitResult& result : report.circuits) {
    switch (result.status) {
      case CircuitStatus::ok:
        ++report.circuits_ok;
        break;
      case CircuitStatus::error:
        ++report.circuits_failed;
        continue;
      case CircuitStatus::cancelled:
        ++report.circuits_cancelled;
        continue;
    }
    report.gates_total += result.gates;
    report.gates_changed += result.report.gates_changed;
    report.model_power_before += result.report.model_power_before;
    report.model_power_after += result.report.model_power_after;
  }

  const celllib::CatalogCacheStats after = library_->catalog_cache_stats();
  report.cache.hits = after.hits - before.hits;
  report.cache.misses = after.misses - before.misses;
  report.cache.evictions = after.evictions - before.evictions;
  report.jobs = pool.thread_count();
  report.elapsed_ms = ms_between(batch_t0, std::chrono::steady_clock::now());
  return report;
}

std::uint64_t circuit_seed(std::uint64_t master_seed,
                           const std::string& name) {
  // FNV-1a over the master seed's bytes, then the name — stable across
  // platforms and releases (same rationale as benchgen's suite seeds).
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (int shift = 0; shift < 64; shift += 8) {
    h ^= (master_seed >> shift) & 0xffULL;
    h *= 0x100000001b3ULL;
  }
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

BatchCircuit make_scenario_circuit(netlist::Netlist netlist, char scenario,
                                   std::uint64_t master_seed) {
  require(scenario == 'A' || scenario == 'B',
          "make_scenario_circuit: scenario must be 'A' or 'B'");
  BatchCircuit circuit{netlist.name(), std::move(netlist), {}, {}, {}};
  circuit.pi_stats =
      scenario == 'A'
          ? scenario_a(circuit.netlist,
                       circuit_seed(master_seed, circuit.name))
          : scenario_b(circuit.netlist);
  return circuit;
}

BatchCircuit make_scenario_circuit_guarded(
    const std::string& name, char scenario, std::uint64_t master_seed,
    const celllib::CellLibrary& library,
    const std::function<netlist::Netlist()>& loader) {
  try {
    // A successful load keeps the netlist's own name, exactly like
    // make_scenario_circuit; `name` labels only the failure placeholder.
    return with_error_site("load", [&] {
      return make_scenario_circuit(loader(), scenario, master_seed);
    });
  } catch (...) {
    BatchCircuit placeholder{name, netlist::Netlist(library, name), {}, {},
                                 {}};
    placeholder.load_error = describe_current_exception();
    return placeholder;
  }
}

}  // namespace tr::opt
