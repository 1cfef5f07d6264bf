#include "netlist/netlist.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace tr::netlist {

Netlist::Netlist(const celllib::CellLibrary& library, std::string name)
    : library_(&library), name_(std::move(name)) {}

NetId Netlist::add_net(const std::string& net_name) {
  require(!net_name.empty(), "Netlist::add_net: empty net name");
  require(!net_index_.contains(net_name), "Netlist::add_net: duplicate net '",
          net_name, "'");
  const NetId id = static_cast<NetId>(nets_.size());
  Net n;
  n.name = net_name;
  nets_.push_back(std::move(n));
  net_index_.emplace(net_name, id);
  return id;
}

NetId Netlist::find_net(const std::string& net_name) const {
  const auto it = net_index_.find(net_name);
  return it == net_index_.end() ? -1 : it->second;
}

NetId Netlist::ensure_net(const std::string& net_name) {
  const NetId existing = find_net(net_name);
  return existing >= 0 ? existing : add_net(net_name);
}

void Netlist::mark_primary_input(NetId id) {
  require(id >= 0 && id < net_count(), "Netlist: bad net id");
  require(nets_[static_cast<std::size_t>(id)].driver < 0, "Netlist: net '",
          nets_[static_cast<std::size_t>(id)].name,
          "' cannot be a primary input, it has a driver");
  nets_[static_cast<std::size_t>(id)].is_primary_input = true;
}

void Netlist::mark_primary_output(NetId id) {
  require(id >= 0 && id < net_count(), "Netlist: bad net id");
  nets_[static_cast<std::size_t>(id)].is_primary_output = true;
}

GateId Netlist::add_gate(const std::string& instance_name,
                         const std::string& cell_name,
                         std::vector<NetId> inputs, NetId output) {
  const celllib::Cell& cell = library_->cell(cell_name);
  require(static_cast<int>(inputs.size()) == cell.input_count(),
          "Netlist::add_gate: '", instance_name, "' binds ", inputs.size(),
          " pins, cell ", cell_name, " has ", cell.input_count());
  require(output >= 0 && output < net_count(),
          "Netlist::add_gate: bad output net");
  Net& out = nets_[static_cast<std::size_t>(output)];
  require(out.driver < 0 && !out.is_primary_input, "Netlist::add_gate: net '",
          out.name, "' already driven");
  for (NetId in : inputs) {
    require(in >= 0 && in < net_count(), "Netlist::add_gate: bad input net");
    require(in != output, "Netlist::add_gate: '", instance_name,
            "' drives its own input");
  }

  const GateId id = static_cast<GateId>(gates_.size());
  GateInst inst{instance_name, cell_name, std::move(inputs), output,
                cell.topology()};
  for (std::size_t pin = 0; pin < inst.inputs.size(); ++pin) {
    nets_[static_cast<std::size_t>(inst.inputs[pin])].fanouts.emplace_back(
        id, static_cast<int>(pin));
  }
  out.driver = id;
  gates_.push_back(std::move(inst));
  return id;
}

const Net& Netlist::net(NetId id) const {
  require(id >= 0 && id < net_count(), "Netlist::net: bad id");
  return nets_[static_cast<std::size_t>(id)];
}

const GateInst& Netlist::gate(GateId id) const {
  require(id >= 0 && id < gate_count(), "Netlist::gate: bad id");
  return gates_[static_cast<std::size_t>(id)];
}

std::vector<NetId> Netlist::primary_inputs() const {
  std::vector<NetId> out;
  for (NetId id = 0; id < net_count(); ++id) {
    if (nets_[static_cast<std::size_t>(id)].is_primary_input) out.push_back(id);
  }
  return out;
}

std::vector<NetId> Netlist::primary_outputs() const {
  std::vector<NetId> out;
  for (NetId id = 0; id < net_count(); ++id) {
    if (nets_[static_cast<std::size_t>(id)].is_primary_output) out.push_back(id);
  }
  return out;
}

void Netlist::set_config(GateId id, gategraph::GateTopology config) {
  require(id >= 0 && id < gate_count(), "Netlist::set_config: bad id");
  GateInst& inst = gates_[static_cast<std::size_t>(id)];
  // add_gate seeds `config` with the cell's topology and this is the only
  // writer, so the current function is always the cell's cached one.
  require(config.output_function() == library_->cell(inst.cell).function(),
          "Netlist::set_config: configuration changes the logic function "
          "of '", inst.name, "'");
  inst.config = std::move(config);
}

std::vector<GateId> Netlist::topological_order() const {
  // Kahn's algorithm over gate->gate edges through nets.
  std::vector<int> pending(gates_.size(), 0);
  for (std::size_t g = 0; g < gates_.size(); ++g) {
    for (NetId in : gates_[g].inputs) {
      if (nets_[static_cast<std::size_t>(in)].driver >= 0) ++pending[g];
    }
  }
  std::vector<GateId> ready;
  for (std::size_t g = 0; g < gates_.size(); ++g) {
    if (pending[g] == 0) ready.push_back(static_cast<GateId>(g));
  }
  std::vector<GateId> order;
  order.reserve(gates_.size());
  for (std::size_t head = 0; head < ready.size(); ++head) {
    const GateId g = ready[head];
    order.push_back(g);
    const Net& out = nets_[static_cast<std::size_t>(gates_[static_cast<std::size_t>(g)].output)];
    for (const auto& [fan_gate, pin] : out.fanouts) {
      if (--pending[static_cast<std::size_t>(fan_gate)] == 0) {
        ready.push_back(fan_gate);
      }
    }
  }
  require(order.size() == gates_.size(),
          "Netlist::topological_order: combinational cycle detected");
  return order;
}

double Netlist::fanout_load(NetId id, const celllib::Tech& tech) const {
  double load = tech.c_wire;
  for (const auto& [fan_gate, pin] : net(id).fanouts) {
    load += library_->cell(gate(fan_gate).cell).pin_capacitance(tech, pin);
  }
  return load;
}

double Netlist::external_load(GateId id, const celllib::Tech& tech) const {
  const NetId out = gate(id).output;
  const double load = fanout_load(out, tech);
  return net(out).is_primary_output ? load + tech.c_wire : load;
}

std::vector<bool> Netlist::evaluate(const std::vector<bool>& pi_values) const {
  const std::vector<NetId> pis = primary_inputs();
  require(pi_values.size() == pis.size(),
          "Netlist::evaluate: input arity mismatch");
  std::vector<bool> value(nets_.size(), false);
  for (std::size_t i = 0; i < pis.size(); ++i) {
    value[static_cast<std::size_t>(pis[i])] = pi_values[i];
  }
  for (GateId g : topological_order()) {
    const GateInst& inst = gates_[static_cast<std::size_t>(g)];
    std::uint64_t minterm = 0;
    for (std::size_t pin = 0; pin < inst.inputs.size(); ++pin) {
      if (value[static_cast<std::size_t>(inst.inputs[pin])]) {
        minterm |= 1ULL << pin;
      }
    }
    value[static_cast<std::size_t>(inst.output)] =
        library_->cell(inst.cell).function().value_at(minterm);
  }
  std::vector<bool> out;
  for (NetId id : primary_outputs()) {
    out.push_back(value[static_cast<std::size_t>(id)]);
  }
  return out;
}

void Netlist::validate() const {
  require(!nets_.empty(), "Netlist: no nets");
  for (const Net& n : nets_) {
    require(n.is_primary_input || n.driver >= 0, "Netlist: net '", n.name,
            "' has no driver and is not a PI");
    require(!(n.is_primary_input && n.driver >= 0), "Netlist: PI net '", n.name,
            "' has a driver");
  }
  bool has_po = false;
  for (const Net& n : nets_) has_po = has_po || n.is_primary_output;
  require(has_po, "Netlist: no primary outputs");
  for (const GateInst& g : gates_) {
    const celllib::Cell& cell = library_->cell(g.cell);
    require(static_cast<int>(g.inputs.size()) == cell.input_count(),
            "Netlist: gate '", g.name, "' pin arity mismatch");
  }
  (void)topological_order();  // throws on cycles
}

}  // namespace tr::netlist
