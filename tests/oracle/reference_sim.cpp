#include "oracle/reference_sim.hpp"

#include <algorithm>
#include <queue>

#include "celllib/cell.hpp"
#include "delay/elmore.hpp"
#include "gategraph/gate_graph.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace tr::oracle {

using gategraph::GateGraph;
using netlist::GateId;
using netlist::NetId;
using sim::DelayModel;
using sim::SimOptions;
using sim::SimResult;

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

}  // namespace

/// One reference replication: the pre-rewrite event loop, kept verbatim
/// as the differential oracle (DESIGN.md Sec. 10.5). Owns every piece of
/// mutable simulation state and reads the oracle's immutable tables, so
/// concurrent runs of one ReferenceSim are safe.
struct ReferenceSim::Replication {
  Replication(const ReferenceSim& engine, std::uint64_t seed)
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
      // Same polling period as SimEngine's event loop so both loops
      // cancel within the same bounded event lag (DESIGN.md Sec. 12.3).
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

  const ReferenceSim& e;
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

ReferenceSim::ReferenceSim(const netlist::Netlist& netlist,
                     const std::map<NetId, boolfn::SignalStats>& pi_stats,
                     const celllib::Tech& tech, const SimOptions& options)
    : netlist_(netlist), tech_(tech), options_(options) {
  netlist_.validate();
  require(options_.measure_time > 0.0, "switch_sim: measure_time must be > 0");
  if (options_.delay_model == DelayModel::unit) {
    require(options_.unit_delay > 0.0, "switch_sim: unit_delay must be > 0");
  }
  topo_order_ = netlist_.topological_order();
  build_gates();
  build_pis(pi_stats);
}

void ReferenceSim::build_gates() {
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
    switch (options_.delay_model) {
      case DelayModel::elmore:
        tables.pin_delay = delay::gate_delays(graph, caps, tech_).pin_delay;
        break;
      case DelayModel::unit:
        tables.pin_delay.assign(inst.inputs.size(), options_.unit_delay);
        break;
      case DelayModel::zero:
        tables.pin_delay.assign(inst.inputs.size(), 0.0);
        break;
    }
    tables.level = net_level[static_cast<std::size_t>(inst.output)];
    gates_.push_back(std::move(tables));
  }
}

void ReferenceSim::build_pis(
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
    }
    p.prob = s.prob;
    p.load_cap = tech_.c_wire;
    for (const auto& [fan_gate, pin] : netlist_.net(id).fanouts) {
      p.load_cap += netlist_.library()
                        .cell(netlist_.gate(fan_gate).cell)
                        .pin_capacitance(tech_, pin);
    }
    pi_[static_cast<std::size_t>(id)] = p;
  }
}

SimResult ReferenceSim::run(std::uint64_t seed) const {
  return Replication(*this, seed).run();
}

}  // namespace tr::oracle
