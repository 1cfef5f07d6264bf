#include "sim/sim_engine.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <map>
#include <memory>
#include <span>
#include <utility>

#include "boolfn/truth_table.hpp"
#include "celllib/catalog.hpp"
#include "celllib/cell.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace tr::sim {

using netlist::GateId;
using netlist::NetId;
using NodeMask = ReplicationScratch::NodeMask;

static_assert(sizeof(ReplicationScratch::GateMut) == 24);  // mask in padding

std::size_t ReplicationScratch::high_water_bytes() const noexcept {
  return net_value.capacity() * sizeof(std::uint8_t) +
         net_obs.capacity() * sizeof(NetObs) +
         gate_mut.capacity() * sizeof(GateMut) +
         scheduler.allocated_bytes();
}

/// The event loop (DESIGN.md Sec. 10.2): same algorithm, same RNG draw
/// order, same floating-point accumulation order as the pre-rewrite
/// reference loop (tests/oracle/reference_sim.hpp) — pinned bit-identical
/// by the differential suite — but running entirely on the engine's flat
/// structure-of-arrays tables, the scratch's per-gate records and the
/// indexed event scheduler.
struct SimEngine::EventLoop {
  EventLoop(const SimEngine& engine, ReplicationScratch& scratch,
          SimResult& out, std::uint64_t seed)
      : e(engine), s(scratch), result(out), rng(seed) {}

  void run() {
    initialize_state();
    const double t_end = e.options_.warmup_time + e.options_.measure_time;
    const std::uint64_t max_events = e.options_.max_events;
    const bool cancellable = e.options_.cancel.valid();
    double t_final = t_end;

    EventScheduler::Event ev;
    while (s.scheduler.peek(ev)) {
      if (ev.time > t_end) break;
      if (result.event_count >= max_events) {
        result.truncated = true;
        t_final = last_event_time;
        break;
      }
      s.scheduler.pop();
      ++result.event_count;
      // Polled every 8192 events: bounded cancellation lag at a cost the
      // throughput gate cannot see (one hoisted bool test per event).
      if (cancellable && (result.event_count & 8191u) == 0) {
        e.options_.cancel.check("simulate");
      }
      last_event_time = ev.time;
      if ((ev.payload & 1u) == 0) {
        handle_pi_toggle(static_cast<NetId>(ev.payload >> 1), ev.time);
      } else {
        handle_gate_commit(static_cast<GateId>(ev.payload >> 1), ev.time,
                           ev.order & EventScheduler::max_seq);
      }
    }

    finalize(t_final);
  }

private:
  void initialize_state() {
    const std::size_t nets = static_cast<std::size_t>(e.netlist_.net_count());
    const std::size_t gates =
        static_cast<std::size_t>(e.netlist_.gate_count());
    s.net_value.assign(nets, 0);
    s.net_obs.assign(nets, ReplicationScratch::NetObs{});
    s.gate_mut.resize(gates);  // every field is (re)written below

    result.energy = 0.0;
    result.power = 0.0;
    result.output_node_energy = 0.0;
    result.internal_node_energy = 0.0;
    result.pi_energy = 0.0;
    result.per_gate_energy.assign(gates, 0.0);
    result.per_gate_output_energy.assign(gates, 0.0);
    result.event_count = 0;
    result.truncated = false;
    result.measured_time = 0.0;

    // Initial PI values are equilibrium draws, in the fixed pi_order_,
    // so the RNG stream is identical for every replication index scheme.
    for (NetId id : e.pi_order_) {
      s.net_value[static_cast<std::size_t>(id)] =
          rng.bernoulli(e.pi_[static_cast<std::size_t>(id)].prob) ? 1 : 0;
    }

    // Steady-state logic values from the initial PI assignment.
    for (GateId g : e.topo_order_) {
      const std::size_t gi = static_cast<std::size_t>(g);
      const GateHot& hot = e.flat_gate_[gi];
      std::uint64_t minterm = 0;
      const std::uint32_t in_begin = e.flat_in_off_[gi];
      const std::uint32_t in_end = e.flat_in_off_[gi + 1];
      for (std::uint32_t i = in_begin; i < in_end; ++i) {
        if (s.net_value[static_cast<std::size_t>(e.flat_in_net_[i])]) {
          minterm |= std::uint64_t{1} << (i - in_begin);
        }
      }
      s.gate_mut[gi] = ReplicationScratch::GateMut{
          minterm, 0, e.flat_mask_[hot.mask_begin + minterm].h, 0, 0};
      s.net_value[static_cast<std::size_t>(hot.out_net)] =
          static_cast<std::uint8_t>((hot.out_fn >> minterm) & 1u);
    }

    s.scheduler.reset(e.scheduler_width_, e.scheduler_buckets_);
    // In-flight events: one outstanding toggle per PI plus pending and
    // not-yet-expired stale commits. Reserving for the typical case up
    // front means replication reuse reaches its allocation-free steady
    // state immediately on most circuits.
    s.scheduler.reserve(e.pi_order_.size() + gates + 64,
                        e.pi_order_.size() + 64);
    for (NetId id : e.pi_order_) schedule_pi_toggle(id, 0.0);
  }

  void schedule_pi_toggle(NetId id, double now) {
    const PiProcess& p = e.pi_[static_cast<std::size_t>(id)];
    const double rate =
        s.net_value[static_cast<std::size_t>(id)] ? p.rate_down : p.rate_up;
    if (rate <= 0.0) return;  // frozen input
    const std::uint64_t seq = next_seq++;
    TR_ASSERT(seq <= EventScheduler::max_seq);
    s.scheduler.push(now + rng.exponential(rate), seq /* level 0 */,
                     static_cast<std::uint32_t>(id) << 1);
  }

  void handle_pi_toggle(NetId net, double now) {
    const std::size_t v = static_cast<std::size_t>(net);
    record_net_change(net, now);
    s.net_value[v] ^= 1u;  // a PI toggle always flips (one event stream)
    if (now >= e.options_.warmup_time && e.options_.count_pi_energy) {
      const double energy = e.pi_[v].energy;
      result.pi_energy += energy;
      result.energy += energy;
    }
    propagate_net_change(net, now);
    schedule_pi_toggle(net, now);
  }

  void handle_gate_commit(GateId gate, double now, std::uint64_t seq) {
    const std::size_t gi = static_cast<std::size_t>(gate);
    ReplicationScratch::GateMut& mut = s.gate_mut[gi];
    if (!mut.pending_flag || seq != mut.pending_seq) return;  // cancelled
    mut.pending_flag = 0;
    const GateHot& hot = e.flat_gate_[gi];
    const NetId net = hot.out_net;
    const std::uint8_t value = mut.pending_value;
    if (s.net_value[static_cast<std::size_t>(net)] == value) return;
    record_net_change(net, now);
    s.net_value[static_cast<std::size_t>(net)] = value;
    if (now >= e.options_.warmup_time) {
      const double energy = hot.out_energy;
      result.output_node_energy += energy;
      result.energy += energy;
      result.per_gate_energy[gi] += energy;
      result.per_gate_output_energy[gi] += energy;
    }
    propagate_net_change(net, now);
  }

  void propagate_net_change(NetId net, double now) {
    const double warmup = e.options_.warmup_time;
    const std::uint32_t arc_end =
        e.flat_arc_off_[static_cast<std::size_t>(net) + 1];
    for (std::uint32_t a = e.flat_arc_off_[static_cast<std::size_t>(net)];
         a < arc_end; ++a) {
      const Arc arc = e.flat_arc_[a];
      const std::size_t gi = arc.gate_pin >> 3;
      const GateHot& hot = e.flat_gate_[gi];
      ReplicationScratch::GateMut& mut = s.gate_mut[gi];
      const std::uint64_t minterm =
          (mut.input_minterm ^= std::uint64_t{1} << (arc.gate_pin & 7u));

      // Internal stack nodes, all in one word: charge on H, discharge on
      // G, retain else. Toggled nodes add their energy in ascending node
      // order, the reference loop's summation order.
      const NodeMasks masks = e.flat_mask_[hot.mask_begin + minterm];
      const NodeMask next = masks.h | (mut.node_state & ~masks.g);
      NodeMask toggled = now >= warmup ? next ^ mut.node_state : 0;
      mut.node_state = next;
      for (; toggled != 0; toggled &= toggled - 1) {
        const double energy =
            e.flat_node_energy_[hot.node_begin + std::countr_zero(toggled)];
        result.internal_node_energy += energy;
        result.energy += energy;
        result.per_gate_energy[gi] += energy;
      }

      // Output evaluation with inertial filtering: a pulse shorter than
      // the gate delay is swallowed because the commit is re-targeted
      // (same decision tree as the reference loop's evaluate_output,
      // whose explicit cancel branch is unreachable — when a commit is
      // pending, target IS the pending value, so steady == target
      // implies the pending commit already drives toward steady and
      // stays valid).
      const std::uint8_t steady =
          static_cast<std::uint8_t>((hot.out_fn >> minterm) & 1u);
      const std::uint8_t target =
          mut.pending_flag
              ? mut.pending_value
              : s.net_value[static_cast<std::size_t>(hot.out_net)];
      if (steady == target) continue;
      mut.pending_flag = 1;
      mut.pending_value = steady;
      const std::uint64_t seq = next_seq++;
      TR_ASSERT(seq <= EventScheduler::max_seq);
      mut.pending_seq = seq;
      s.scheduler.push(now + arc.delay, hot.level_order | seq,
                       (static_cast<std::uint32_t>(gi) << 1) | 1u);
    }
  }

  void record_net_change(NetId net, double now) {
    const std::size_t v = static_cast<std::size_t>(net);
    ReplicationScratch::NetObs& obs = s.net_obs[v];
    const double start = e.options_.warmup_time;
    if (now > start) {
      const double from = obs.last_change > start ? obs.last_change : start;
      if (s.net_value[v]) obs.ones_time += now - from;
      ++obs.transitions;
    }
    obs.last_change = now;
  }

  void finalize(double t_final) {
    result.nets.resize(static_cast<std::size_t>(e.netlist_.net_count()));
    const double start = e.options_.warmup_time;
    const double window = std::max(0.0, t_final - start);
    result.measured_time = window;
    for (NetId id = 0; id < e.netlist_.net_count(); ++id) {
      const std::size_t v = static_cast<std::size_t>(id);
      const ReplicationScratch::NetObs& obs = s.net_obs[v];
      double ones = obs.ones_time;
      if (s.net_value[v] && t_final > start) {
        const double from = obs.last_change > start ? obs.last_change : start;
        ones += t_final - from;
      }
      result.nets[v].prob = window > 0.0 ? ones / window : 0.0;
      result.nets[v].density =
          window > 0.0 ? static_cast<double>(obs.transitions) / window : 0.0;
    }
    result.power = window > 0.0 ? result.energy / window : 0.0;
  }

  const SimEngine& e;
  ReplicationScratch& s;
  SimResult& result;
  Rng rng;
  std::uint64_t next_seq = 0;
  double last_event_time = 0.0;
};

SimEngine::SimEngine(const netlist::Netlist& netlist,
                     const std::map<NetId, boolfn::SignalStats>& pi_stats,
                     const celllib::Tech& tech, const SimOptions& options)
    : netlist_(netlist), tech_(tech), options_(options) {
  netlist_.validate();
  require(options_.measure_time > 0.0, "switch_sim: measure_time must be > 0");
  if (options_.delay_model == DelayModel::unit) {
    require(options_.unit_delay > 0.0, "switch_sim: unit_delay must be > 0");
  }
  topo_order_ = netlist_.topological_order();
  build_pis(pi_stats);
  build_gates();
}

void SimEngine::build_pis(
    const std::map<NetId, boolfn::SignalStats>& pi_stats) {
  pi_.resize(static_cast<std::size_t>(netlist_.net_count()));
  pi_order_ = netlist_.primary_inputs();
  for (NetId id : pi_order_) {
    const auto it = pi_stats.find(id);
    require(it != pi_stats.end(),
            "switch_sim: missing statistics for primary input '",
            netlist_.net(id).name, "'");
    const boolfn::SignalStats& s = it->second;
    require(s.prob >= 0.0 && s.prob <= 1.0 && s.density >= 0.0,
            "switch_sim: invalid PI statistics");
    PiProcess p;
    // Two-state CTMC: P(1) = r_up / (r_up + r_down) and the transition
    // density (both edges) is 2 r_up r_down / (r_up + r_down) = D,
    // giving r_up = D / (2 (1-P)), r_down = D / (2 P).
    if (s.density > 0.0 && s.prob > 0.0 && s.prob < 1.0) {
      p.rate_up = s.density / (2.0 * (1.0 - s.prob));
      p.rate_down = s.density / (2.0 * s.prob);
      pi_rate_sum_ += s.density;  // equilibrium toggle rate of this PI
    }
    p.prob = s.prob;
    p.energy = tech_.energy_per_transition(netlist_.fanout_load(id, tech_));
    pi_[static_cast<std::size_t>(id)] = p;
  }
}

void SimEngine::build_gates() {
  const std::size_t gates = static_cast<std::size_t>(netlist_.gate_count());
  const std::size_t nets = static_cast<std::size_t>(netlist_.net_count());

  // Encoding limits of the packed 16-byte event (DESIGN.md Sec. 10.1):
  // single-word truth tables (<= 6 input pins, and <= 8 for the arc
  // packing), levels in 16 bits, ids in 28. A circuit outside them is
  // refused here, before any table is built.
  require(gates < (std::size_t{1} << 28) && nets < (std::size_t{1} << 28),
          "switch_sim: ", gates, " gates / ", nets,
          " nets exceed the simulator's 2^28 id range");
  // Net levelization for the delta-cycle event ordering.
  std::vector<int> net_level(nets, 0);
  std::size_t pins = 0;
  for (GateId g : topo_order_) {
    const netlist::GateInst& inst = netlist_.gate(g);
    pins += inst.inputs.size();
    require(inst.inputs.size() <= 6, "switch_sim: gate '", inst.name,
            "' (cell ", inst.cell, ") has ", inst.inputs.size(),
            " inputs; the simulator supports at most 6");
    const int nodes = inst.config.internal_node_count();
    require(nodes <= ReplicationScratch::max_gate_nodes, "switch_sim: gate '",
            inst.name, "' (cell ", inst.cell, ") has ", nodes,
            " internal nodes; the simulator supports at most ",
            ReplicationScratch::max_gate_nodes);
    int level = 0;
    for (NetId in : inst.inputs) {
      level = std::max(level, net_level[static_cast<std::size_t>(in)]);
    }
    require(level < EventScheduler::max_level, "switch_sim: gate '",
            inst.name, "' sits at level ", level + 1,
            "; the simulator supports at most ", EventScheduler::max_level,
            " levels");
    net_level[static_cast<std::size_t>(inst.output)] = level + 1;
  }

  // Per-gate tables off the catalog holding each gate's configuration,
  // pin delays into a per-input-pin array the arcs below pick up. The
  // gates of one (catalog, configuration) pair share a mask table and a
  // run of internal-node energies, which do not depend on the load.
  flat_gate_.resize(gates);
  flat_in_off_.reserve(gates + 1);
  flat_in_off_.assign(1, 0);
  flat_in_net_.reserve(pins);
  std::vector<double> pin_delay;  // per input pin, like flat_in_net_
  pin_delay.reserve(pins);
  std::map<std::pair<std::shared_ptr<const celllib::ReorderCatalog>, int>,
           std::pair<std::uint64_t, std::uint32_t>>
      shared;  // -> (mask_begin, node_begin)
  for (std::size_t gi = 0; gi < gates; ++gi) {
    const netlist::GateInst& inst = netlist_.gate(static_cast<GateId>(gi));
    const auto slot = netlist_.library().catalog_slot(inst.config);
    const std::vector<celllib::CatalogNode>& pool = slot.catalog->nodes();
    const std::vector<int>& nodes =
        slot.catalog->configs()[static_cast<std::size_t>(slot.index)].nodes;
    const celllib::CatalogNode& output =
        pool[static_cast<std::size_t>(nodes.back())];
    const double load =
        netlist_.external_load(static_cast<GateId>(gi), tech_);

    GateHot& hot = flat_gate_[gi];
    hot.out_fn = output.h.words()[0];  // H of the output: pull-up = y
    hot.level_order = static_cast<std::uint64_t>(
                          net_level[static_cast<std::size_t>(inst.output)])
                      << EventScheduler::seq_bits;
    const auto [it, added] = shared.try_emplace(
        {slot.catalog, slot.index}, flat_mask_.size(),
        static_cast<std::uint32_t>(flat_node_energy_.size()));
    if (added) {
      // Bit k of mask entry m is internal node k's H (G) at minterm m.
      const std::size_t mask_begin = flat_mask_.size();
      flat_mask_.resize(mask_begin + (std::size_t{1} << inst.inputs.size()));
      for (std::size_t k = 0; k + 1 < nodes.size(); ++k) {
        const celllib::CatalogNode& node =
            pool[static_cast<std::size_t>(nodes[k])];
        const std::uint64_t h = node.h.words()[0];
        const std::uint64_t g = node.g.words()[0];
        for (std::size_t m = 0; mask_begin + m < flat_mask_.size(); ++m) {
          flat_mask_[mask_begin + m].h |= NodeMask((h >> m) & 1u) << k;
          flat_mask_[mask_begin + m].g |= NodeMask((g >> m) & 1u) << k;
        }
        flat_node_energy_.push_back(tech_.energy_per_transition(
            celllib::node_capacitance(tech_, node.terminal_count, false,
                                      load)));
      }
    }
    hot.mask_begin = it->second.first;
    hot.node_begin = it->second.second;
    hot.out_net = inst.output;
    hot.out_energy = tech_.energy_per_transition(celllib::node_capacitance(
        tech_, output.terminal_count, true, load));

    flat_in_net_.insert(flat_in_net_.end(), inst.inputs.begin(),
                        inst.inputs.end());
    flat_in_off_.push_back(static_cast<std::uint32_t>(flat_in_net_.size()));
    if (options_.delay_model == DelayModel::elmore) {
      const std::span<const double> delays =
          slot.catalog->pin_delays(tech_, load).pins(slot.index);
      pin_delay.insert(pin_delay.end(), delays.begin(), delays.end());
    } else {
      pin_delay.insert(pin_delay.end(), inst.inputs.size(),
                       options_.delay_model == DelayModel::unit
                           ? options_.unit_delay
                           : 0.0);
    }
  }

  // Fanout arcs, CSR by net. Every (gate, pin) appears as exactly one
  // arc, so the per-pin Elmore delay becomes a per-arc field.
  flat_arc_off_.assign(nets + 1, 0);
  for (std::size_t v = 0; v < nets; ++v) {
    flat_arc_off_[v + 1] =
        flat_arc_off_[v] +
        static_cast<std::uint32_t>(netlist_.net(static_cast<NetId>(v))
                                       .fanouts.size());
  }
  flat_arc_.resize(flat_arc_off_[nets]);
  for (std::size_t v = 0; v < nets; ++v) {
    std::uint32_t a = flat_arc_off_[v];
    for (const auto& [gate, pin] : netlist_.net(static_cast<NetId>(v)).fanouts) {
      flat_arc_[a].delay =
          pin_delay[flat_in_off_[static_cast<std::size_t>(gate)] +
                    static_cast<std::size_t>(pin)];
      flat_arc_[a].gate_pin = (static_cast<std::uint32_t>(gate) << 3) |
                              static_cast<std::uint32_t>(pin);
      ++a;
    }
  }

  // Calendar sizing (DESIGN.md Sec. 10.1). The bucket width targets the
  // mean gap between *popped* events, which is the PI toggle rate times
  // the downstream activity amplification — approximated by the
  // gate-to-PI ratio, the static fanout-cone proxy: too-wide buckets
  // make commit avalanches pile into the cursor bucket and the min-scan
  // quadratic in the burst, which is exactly the measured failure mode.
  // The bucket count scales with the expected in-flight population (one
  // outstanding toggle per PI plus the pending-commit burst). Without a
  // toggling input no event is ever pushed, so any valid grid will do.
  const std::size_t pis = pi_order_.size();
  const double amplification =
      std::max(1.0, static_cast<double>(gates) /
                        static_cast<double>(std::max<std::size_t>(pis, 1)));
  std::size_t buckets = 64;
  while (buckets < 4 * pis && buckets < 65536) buckets *= 2;
  scheduler_buckets_ = static_cast<int>(buckets);
  scheduler_width_ =
      pi_rate_sum_ > 0.0 ? 1.0 / (2.0 * pi_rate_sum_ * amplification) : 1.0;
}

SimResult SimEngine::run(std::uint64_t seed) const {
  ReplicationScratch scratch;
  SimResult result;
  run(seed, scratch, result);
  return result;
}

SimResult SimEngine::run(std::uint64_t seed,
                         ReplicationScratch& scratch) const {
  SimResult result;
  run(seed, scratch, result);
  return result;
}

void SimEngine::run(std::uint64_t seed, ReplicationScratch& scratch,
                    SimResult& result) const {
  if (util::fault::enabled()) util::fault::check("sim.replicate");
  const auto start = std::chrono::steady_clock::now();
  EventLoop(*this, scratch, result, seed).run();
  // The wall-clock diagnostics, the only SimResult fields that are not a
  // pure function of the seed.
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  result.elapsed_seconds = elapsed;
  result.events_per_sec =
      elapsed > 0.0 ? static_cast<double>(result.event_count) / elapsed : 0.0;
  result.scratch_bytes = scratch.high_water_bytes();
}

}  // namespace tr::sim
