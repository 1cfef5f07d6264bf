#include "sim/sim_engine.hpp"

#include <algorithm>
#include <chrono>
#include <queue>

#include "celllib/cell.hpp"
#include "delay/elmore.hpp"
#include "gategraph/gate_graph.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace tr::sim {

using gategraph::GateGraph;
using netlist::GateId;
using netlist::NetId;

namespace {

/// Padded reference event — kept byte-for-byte as before the hot-path
/// rewrite; the compact replacement is EventScheduler's 16-byte key +
/// 4-byte payload (DESIGN.md Sec. 10.1).
struct Event {
  double time = 0.0;
  /// Topological level of the driven net (0 for primary inputs).
  /// Events at identical times process in level order (delta-cycle
  /// levelization), which makes the zero-delay mode glitch-free: a gate
  /// re-evaluates only after all same-instant fan-in updates have
  /// settled, so only functionally required transitions commit.
  int level = 0;
  std::uint64_t seq = 0;  ///< FIFO tie-break within a level
  enum class Kind : std::uint8_t { pi_toggle, gate_commit } kind = Kind::pi_toggle;
  int index = 0;  ///< NetId for pi_toggle, GateId for gate_commit
  bool value = false;
  std::uint64_t version = 0;  ///< gate_commit validity check

  bool operator>(const Event& rhs) const {
    if (time != rhs.time) return time > rhs.time;
    if (level != rhs.level) return level > rhs.level;
    return seq > rhs.seq;
  }
};

/// Per-gate mutable state of one reference replication.
struct GateState {
  std::uint64_t input_minterm = 0;
  std::vector<bool> internal_state;
  /// Inertial-delay bookkeeping: a scheduled commit is valid only if its
  /// version matches.
  std::uint64_t version = 0;
  bool has_pending = false;
  bool pending_value = false;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Fills the wall-clock diagnostics, the only SimResult fields that are
/// not a pure function of the seed.
void stamp_diagnostics(SimResult& result, double elapsed,
                       std::size_t scratch_bytes) {
  result.elapsed_seconds = elapsed;
  result.events_per_sec =
      elapsed > 0.0 ? static_cast<double>(result.event_count) / elapsed : 0.0;
  result.scratch_bytes = scratch_bytes;
}

}  // namespace

std::size_t ReplicationScratch::high_water_bytes() const noexcept {
  return net_value.capacity() * sizeof(std::uint8_t) +
         net_obs.capacity() * sizeof(NetObs) +
         gate_mut.capacity() * sizeof(GateMut) +
         internal_state.capacity() * sizeof(std::uint8_t) +
         scheduler.allocated_bytes();
}

/// One reference replication: the pre-rewrite event loop, retained
/// verbatim as the differential oracle (DESIGN.md Sec. 10.5). Owns every
/// piece of mutable simulation state and reads the engine's immutable
/// tables; constructing and running a Replication never touches the
/// engine, which is what makes concurrent SimEngine runs safe and
/// thread-count independent.
struct SimEngine::Replication {
  Replication(const SimEngine& engine, std::uint64_t seed)
      : e(engine), rng(seed) {}

  SimResult run() {
    initialize_state();
    const SimOptions& options = e.options_;
    const double t_end = options.warmup_time + options.measure_time;
    const bool cancellable = options.cancel.valid();
    double t_final = t_end;

    while (!queue.empty()) {
      const Event ev = queue.top();
      if (ev.time > t_end) break;
      if (result.event_count >= options.max_events) {
        // Runaway guard (oscillation or pathological configuration):
        // stop and report the partial window instead of silently
        // pretending the full window was measured.
        result.truncated = true;
        t_final = last_event_time;
        break;
      }
      queue.pop();
      ++result.event_count;
      // Same polling period as FastRun so both loops cancel within the
      // same bounded event lag (DESIGN.md Sec. 12.3).
      if (cancellable && (result.event_count & 8191u) == 0) {
        options.cancel.check("simulate");
      }
      last_event_time = ev.time;
      if (ev.kind == Event::Kind::pi_toggle) {
        handle_pi_toggle(ev);
      } else {
        handle_gate_commit(ev);
      }
    }

    finalize(t_final);
    return std::move(result);
  }

private:
  void initialize_state() {
    const int n = e.netlist_.net_count();
    net_value.assign(static_cast<std::size_t>(n), false);
    last_change.assign(static_cast<std::size_t>(n), 0.0);
    ones_time.assign(static_cast<std::size_t>(n), 0.0);
    transitions.assign(static_cast<std::size_t>(n), 0);
    gate_state.resize(e.gates_.size());
    result.per_gate_energy.assign(
        static_cast<std::size_t>(e.netlist_.gate_count()), 0.0);
    result.per_gate_output_energy.assign(
        static_cast<std::size_t>(e.netlist_.gate_count()), 0.0);

    // Initial PI values are equilibrium draws, in the fixed pi_order_ so
    // the RNG stream is identical for every replication index scheme.
    for (NetId id : e.pi_order_) {
      net_value[static_cast<std::size_t>(id)] =
          rng.bernoulli(e.pi_[static_cast<std::size_t>(id)].prob);
    }

    // Steady-state logic values from the initial PI assignment.
    for (GateId g : e.topo_order_) {
      const netlist::GateInst& inst = e.netlist_.gate(g);
      const GateTables& tables = e.gates_[static_cast<std::size_t>(g)];
      GateState& st = gate_state[static_cast<std::size_t>(g)];
      std::uint64_t minterm = 0;
      for (std::size_t pin = 0; pin < inst.inputs.size(); ++pin) {
        if (net_value[static_cast<std::size_t>(inst.inputs[pin])]) {
          minterm |= 1ULL << pin;
        }
      }
      st.input_minterm = minterm;
      net_value[static_cast<std::size_t>(inst.output)] =
          tables.output_fn.value_at(minterm);
      st.internal_state.assign(tables.h_fns.size(), false);
      for (std::size_t k = 0; k < tables.h_fns.size(); ++k) {
        // Undriven nodes start discharged; any driven node takes its
        // rail value.
        st.internal_state[k] = tables.h_fns[k].value_at(minterm);
      }
    }

    // Seed PI toggle events.
    for (NetId id : e.pi_order_) schedule_pi_toggle(id, 0.0);
  }

  void schedule_pi_toggle(NetId id, double now) {
    const PiProcess& p = e.pi_[static_cast<std::size_t>(id)];
    const bool current = net_value[static_cast<std::size_t>(id)];
    const double rate = current ? p.rate_down : p.rate_up;
    if (rate <= 0.0) return;  // frozen input
    Event ev;
    ev.time = now + rng.exponential(rate);
    ev.level = 0;
    ev.seq = next_seq++;
    ev.kind = Event::Kind::pi_toggle;
    ev.index = id;
    ev.value = !current;
    queue.push(ev);
  }

  void handle_pi_toggle(const Event& ev) {
    const NetId net = ev.index;
    TR_ASSERT(net_value[static_cast<std::size_t>(net)] != ev.value);
    record_net_change(net, ev.time);
    net_value[static_cast<std::size_t>(net)] = ev.value;
    if (ev.time >= e.options_.warmup_time && e.options_.count_pi_energy) {
      const double energy = e.tech_.energy_per_transition(
          e.pi_[static_cast<std::size_t>(net)].load_cap);
      result.pi_energy += energy;
      result.energy += energy;
    }
    propagate_net_change(net, ev.time);
    schedule_pi_toggle(net, ev.time);
  }

  void handle_gate_commit(const Event& ev) {
    GateState& st = gate_state[static_cast<std::size_t>(ev.index)];
    if (!st.has_pending || ev.version != st.version) return;  // cancelled
    st.has_pending = false;
    const NetId net = e.netlist_.gate(ev.index).output;
    if (net_value[static_cast<std::size_t>(net)] == ev.value) return;
    record_net_change(net, ev.time);
    net_value[static_cast<std::size_t>(net)] = ev.value;
    if (ev.time >= e.options_.warmup_time) {
      const double energy = e.tech_.energy_per_transition(
          e.gates_[static_cast<std::size_t>(ev.index)].output_cap);
      result.output_node_energy += energy;
      result.energy += energy;
      result.per_gate_energy[static_cast<std::size_t>(ev.index)] += energy;
      result.per_gate_output_energy[static_cast<std::size_t>(ev.index)] +=
          energy;
    }
    propagate_net_change(net, ev.time);
  }

  void propagate_net_change(NetId net, double now) {
    for (const auto& [gate, pin] : e.netlist_.net(net).fanouts) {
      GateState& st = gate_state[static_cast<std::size_t>(gate)];
      st.input_minterm ^= 1ULL << pin;
      update_internal_nodes(gate, st, now);
      evaluate_output(gate, st, pin, now);
    }
  }

  void update_internal_nodes(GateId gate, GateState& st, double now) {
    const GateTables& tables = e.gates_[static_cast<std::size_t>(gate)];
    for (std::size_t k = 0; k < tables.h_fns.size(); ++k) {
      const bool h = tables.h_fns[k].value_at(st.input_minterm);
      const bool g = tables.g_fns[k].value_at(st.input_minterm);
      TR_ASSERT(!(h && g));  // no rail-to-rail short
      const bool next = h ? true : (g ? false : st.internal_state[k]);
      if (next != st.internal_state[k]) {
        st.internal_state[k] = next;
        if (now >= e.options_.warmup_time) {
          const double energy =
              e.tech_.energy_per_transition(tables.internal_caps[k]);
          result.internal_node_energy += energy;
          result.energy += energy;
          result.per_gate_energy[static_cast<std::size_t>(gate)] += energy;
        }
      }
    }
  }

  void evaluate_output(GateId gate, GateState& st, int pin, double now) {
    const GateTables& tables = e.gates_[static_cast<std::size_t>(gate)];
    const bool steady = tables.output_fn.value_at(st.input_minterm);
    const NetId out = e.netlist_.gate(gate).output;
    const bool target = st.has_pending
                            ? st.pending_value
                            : net_value[static_cast<std::size_t>(out)];
    if (steady == target) {
      // Inertial filtering: a pending pulse shorter than the gate delay is
      // swallowed by cancelling the scheduled commit.
      if (st.has_pending && st.pending_value != steady) {
        st.has_pending = false;
        ++st.version;
      }
      return;
    }
    ++st.version;
    st.has_pending = true;
    st.pending_value = steady;
    Event ev;
    ev.time = now + tables.pin_delay[static_cast<std::size_t>(pin)];
    ev.level = tables.level;
    ev.seq = next_seq++;
    ev.kind = Event::Kind::gate_commit;
    ev.index = gate;
    ev.value = steady;
    ev.version = st.version;
    queue.push(ev);
  }

  void record_net_change(NetId net, double now) {
    const double start = e.options_.warmup_time;
    if (now > start) {
      const double from = last_change[static_cast<std::size_t>(net)] > start
                              ? last_change[static_cast<std::size_t>(net)]
                              : start;
      if (net_value[static_cast<std::size_t>(net)]) {
        ones_time[static_cast<std::size_t>(net)] += now - from;
      }
      ++transitions[static_cast<std::size_t>(net)];
    }
    last_change[static_cast<std::size_t>(net)] = now;
  }

  void finalize(double t_final) {
    result.nets.resize(static_cast<std::size_t>(e.netlist_.net_count()));
    const double start = e.options_.warmup_time;
    const double window = std::max(0.0, t_final - start);
    result.measured_time = window;
    for (NetId id = 0; id < e.netlist_.net_count(); ++id) {
      const std::size_t v = static_cast<std::size_t>(id);
      double ones = ones_time[v];
      if (net_value[v] && t_final > start) {
        const double from = last_change[v] > start ? last_change[v] : start;
        ones += t_final - from;
      }
      result.nets[v].prob = window > 0.0 ? ones / window : 0.0;
      result.nets[v].density =
          window > 0.0 ? static_cast<double>(transitions[v]) / window : 0.0;
    }
    result.power = window > 0.0 ? result.energy / window : 0.0;
  }

  const SimEngine& e;
  Rng rng;

  std::vector<GateState> gate_state;
  std::vector<bool> net_value;
  std::vector<double> last_change;
  std::vector<double> ones_time;
  std::vector<std::uint64_t> transitions;

  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::uint64_t next_seq = 0;
  double last_event_time = 0.0;
  SimResult result;
};

/// The rewritten hot path (DESIGN.md Sec. 10.2): same algorithm, same
/// RNG draw order, same floating-point accumulation order as the
/// reference Replication above — pinned bit-identical by the
/// differential suite — but running entirely on the engine's flat
/// structure-of-arrays tables, the scratch's byte arenas and the indexed
/// event scheduler.
struct SimEngine::FastRun {
  FastRun(const SimEngine& engine, ReplicationScratch& scratch,
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
    const std::size_t nodes = e.flat_node_.size();
    s.net_value.assign(nets, 0);
    s.net_obs.assign(nets, ReplicationScratch::NetObs{});
    s.gate_mut.resize(gates);  // every field is (re)written below
    s.internal_state.resize(nodes);

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

    // Initial PI values are equilibrium draws, in the fixed pi_order_
    // (identical RNG stream to the reference loop).
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
      s.gate_mut[gi] =
          ReplicationScratch::GateMut{minterm, 0, 0, 0};
      s.net_value[static_cast<std::size_t>(hot.out_net)] =
          static_cast<std::uint8_t>((hot.out_fn >> minterm) & 1u);
      for (std::uint32_t j = hot.node_begin; j < hot.node_end; ++j) {
        s.internal_state[j] =
            static_cast<std::uint8_t>((e.flat_node_[j].h_fn >> minterm) & 1u);
      }
    }

    s.scheduler.reset(e.scheduler_width_,
                      e.options_.scheduler == SchedulerKind::heap
                          ? 0
                          : e.scheduler_buckets_);
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

      // Internal stack nodes: charge on H, discharge on G, retain else.
      for (std::uint32_t j = hot.node_begin; j < hot.node_end; ++j) {
        const NodeHot& node = e.flat_node_[j];
        const std::uint8_t h =
            static_cast<std::uint8_t>((node.h_fn >> minterm) & 1u);
        const std::uint8_t g =
            static_cast<std::uint8_t>((node.g_fn >> minterm) & 1u);
        TR_ASSERT((h & g) == 0);  // no rail-to-rail short
        const std::uint8_t next =
            static_cast<std::uint8_t>(h | (s.internal_state[j] & (g ^ 1u)));
        if (next != s.internal_state[j]) {
          s.internal_state[j] = next;
          if (now >= warmup) {
            const double energy = node.energy;
            result.internal_node_energy += energy;
            result.energy += energy;
            result.per_gate_energy[gi] += energy;
          }
        }
      }

      // Output evaluation with inertial filtering: identical decision
      // tree to the reference loop's evaluate_output (whose explicit
      // cancel branch is unreachable — when a commit is pending, target
      // IS the pending value, so steady == target implies the pending
      // commit already drives toward steady and stays valid).
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
                     const PiStatsTable& pi_stats, const celllib::Tech& tech,
                     const SimOptions& options)
    : netlist_(netlist), tech_(tech), options_(options) {
  netlist_.validate();
  require(options_.measure_time > 0.0, "switch_sim: measure_time must be > 0");
  delay_model_ = options_.delay_model;
  if (delay_model_ == DelayModel::automatic) {
    delay_model_ =
        options_.use_gate_delays ? DelayModel::elmore : DelayModel::zero;
  }
  if (delay_model_ == DelayModel::unit) {
    require(options_.unit_delay > 0.0, "switch_sim: unit_delay must be > 0");
  }
  topo_order_ = netlist_.topological_order();
  build_gates();
  build_pis(pi_stats);
  build_flat();
}

SimEngine::SimEngine(const netlist::Netlist& netlist,
                     const std::map<NetId, boolfn::SignalStats>& pi_stats,
                     const celllib::Tech& tech, const SimOptions& options)
    : SimEngine(netlist, PiStatsTable(netlist.net_count(), pi_stats), tech,
                options) {}

void SimEngine::build_gates() {
  // Net levelization for the delta-cycle event ordering.
  std::vector<int> net_level(static_cast<std::size_t>(netlist_.net_count()),
                             0);
  for (GateId g : topo_order_) {
    const netlist::GateInst& inst = netlist_.gate(g);
    int level = 0;
    for (NetId in : inst.inputs) {
      level = std::max(level, net_level[static_cast<std::size_t>(in)]);
    }
    net_level[static_cast<std::size_t>(inst.output)] = level + 1;
  }

  gates_.reserve(static_cast<std::size_t>(netlist_.gate_count()));
  for (GateId g = 0; g < netlist_.gate_count(); ++g) {
    const netlist::GateInst& inst = netlist_.gate(g);
    const GateGraph graph(inst.config);
    const std::vector<double> caps = celllib::node_capacitances(
        graph, tech_, netlist_.external_load(g, tech_));

    GateTables tables;
    tables.output_fn = inst.config.output_function();
    for (int k = 0; k < graph.internal_node_count(); ++k) {
      const int node = GateGraph::first_internal_node + k;
      tables.h_fns.push_back(graph.h_function(node));
      tables.g_fns.push_back(graph.g_function(node));
      tables.internal_caps.push_back(caps[static_cast<std::size_t>(node)]);
    }
    tables.output_cap = caps[GateGraph::output_node];
    switch (delay_model_) {
      case DelayModel::elmore:
        tables.pin_delay = delay::gate_delays(graph, caps, tech_).pin_delay;
        break;
      case DelayModel::unit:
        tables.pin_delay.assign(inst.inputs.size(), options_.unit_delay);
        break;
      default:  // zero-delay (automatic already resolved)
        tables.pin_delay.assign(inst.inputs.size(), 0.0);
        break;
    }
    tables.level = net_level[static_cast<std::size_t>(inst.output)];
    gates_.push_back(std::move(tables));
  }
}

void SimEngine::build_pis(const PiStatsTable& pi_stats) {
  pi_.resize(static_cast<std::size_t>(netlist_.net_count()));
  pi_order_ = netlist_.primary_inputs();
  for (NetId id : pi_order_) {
    const boolfn::SignalStats* s = pi_stats.find(id);
    require(s != nullptr, "switch_sim: missing statistics for primary input '",
            netlist_.net(id).name, "'");
    require(s->prob >= 0.0 && s->prob <= 1.0 && s->density >= 0.0,
            "switch_sim: invalid PI statistics");
    PiProcess p;
    // Two-state CTMC: P(1) = r_up / (r_up + r_down) and the transition
    // density (both edges) is 2 r_up r_down / (r_up + r_down) = D,
    // giving r_up = D / (2 (1-P)), r_down = D / (2 P).
    if (s->density > 0.0 && s->prob > 0.0 && s->prob < 1.0) {
      p.rate_up = s->density / (2.0 * (1.0 - s->prob));
      p.rate_down = s->density / (2.0 * s->prob);
      pi_rate_sum_ += s->density;  // equilibrium toggle rate of this PI
    }
    p.prob = s->prob;
    p.load_cap = tech_.c_wire;
    for (const auto& [fan_gate, pin] : netlist_.net(id).fanouts) {
      p.load_cap += netlist_.library()
                        .cell(netlist_.gate(fan_gate).cell)
                        .pin_capacitance(tech_, pin);
    }
    p.energy = tech_.energy_per_transition(p.load_cap);
    pi_[static_cast<std::size_t>(id)] = p;
  }
}

void SimEngine::build_flat() {
  const std::size_t gates = gates_.size();
  const std::size_t nets = static_cast<std::size_t>(netlist_.net_count());

  // Encoding limits of the packed 16-byte event (DESIGN.md Sec. 10.1):
  // single-word truth tables (<= 6 input pins, and <= 8 for the arc
  // packing), levels in 16 bits, ids in 31. Wider circuits keep working
  // through the reference loop.
  fast_ok_ = netlist_.gate_count() < (1 << 28) &&
             netlist_.net_count() < (1 << 28);
  for (const GateTables& tables : gates_) {
    if (tables.output_fn.var_count() > 6 || tables.level > EventScheduler::max_level) {
      fast_ok_ = false;
    }
  }
  if (!fast_ok_) return;

  flat_gate_.resize(gates);
  flat_in_off_.assign(gates + 1, 0);
  std::uint32_t node_count = 0;
  for (std::size_t gi = 0; gi < gates; ++gi) {
    const GateTables& tables = gates_[gi];
    const netlist::GateInst& inst = netlist_.gate(static_cast<GateId>(gi));
    GateHot& hot = flat_gate_[gi];
    hot.out_fn =
        tables.output_fn.words().empty() ? 0 : tables.output_fn.words()[0];
    hot.level_order = static_cast<std::uint64_t>(tables.level)
                      << EventScheduler::seq_bits;
    hot.node_begin = node_count;
    node_count += static_cast<std::uint32_t>(tables.h_fns.size());
    hot.node_end = node_count;
    hot.out_net = inst.output;
    hot.out_energy = tech_.energy_per_transition(tables.output_cap);
    flat_in_off_[gi + 1] =
        flat_in_off_[gi] + static_cast<std::uint32_t>(inst.inputs.size());
  }

  flat_node_.resize(node_count);
  flat_in_net_.resize(flat_in_off_[gates]);
  for (std::size_t gi = 0; gi < gates; ++gi) {
    const GateTables& tables = gates_[gi];
    const netlist::GateInst& inst = netlist_.gate(static_cast<GateId>(gi));
    for (std::size_t k = 0; k < tables.h_fns.size(); ++k) {
      NodeHot& node = flat_node_[flat_gate_[gi].node_begin + k];
      node.h_fn = tables.h_fns[k].words()[0];
      node.g_fn = tables.g_fns[k].words()[0];
      node.energy = tech_.energy_per_transition(tables.internal_caps[k]);
    }
    for (std::size_t pin = 0; pin < inst.inputs.size(); ++pin) {
      flat_in_net_[flat_in_off_[gi] + pin] = inst.inputs[pin];
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
      flat_arc_[a].delay = gates_[static_cast<std::size_t>(gate)]
                               .pin_delay[static_cast<std::size_t>(pin)];
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
  // outstanding toggle per PI plus the pending-commit burst). Degenerate
  // processes (no toggling inputs) get pure heap mode.
  if (pi_rate_sum_ > 0.0) {
    const std::size_t pis = pi_order_.size();
    const double amplification =
        std::max(1.0, static_cast<double>(gates) /
                          static_cast<double>(std::max<std::size_t>(pis, 1)));
    std::size_t buckets = 64;
    while (buckets < 4 * pis && buckets < 65536) buckets *= 2;
    scheduler_buckets_ = static_cast<int>(buckets);
    scheduler_width_ = 1.0 / (2.0 * pi_rate_sum_ * amplification);
  } else {
    scheduler_buckets_ = 0;
    scheduler_width_ = 0.0;
  }
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
  if (!fast_ok_) {
    result = Replication(*this, seed).run();
    stamp_diagnostics(result, seconds_since(start), 0);
    return;
  }
  FastRun(*this, scratch, result, seed).run();
  stamp_diagnostics(result, seconds_since(start),
                    scratch.high_water_bytes());
}

SimResult SimEngine::run_reference(std::uint64_t seed) const {
  const auto start = std::chrono::steady_clock::now();
  SimResult result = Replication(*this, seed).run();
  stamp_diagnostics(result, seconds_since(start), 0);
  return result;
}

}  // namespace tr::sim
