#pragma once
// Mapped gate-level netlist: instances of library cells connected by
// nets. This is the circuit representation the optimization algorithm
// (paper Fig. 3) traverses, and the one the switch-level simulator runs.
//
// Each gate instance carries its *current transistor configuration*
// (a gategraph::GateTopology); the optimizer rewrites these in place.
// The cell library must outlive the netlist.

#include <string>
#include <vector>

#include "celllib/library.hpp"
#include "celllib/tech.hpp"
#include "gategraph/gate_topology.hpp"

namespace tr::netlist {

using NetId = int;
using GateId = int;

/// A net (wire). Either a primary input or driven by exactly one gate.
struct Net {
  std::string name;
  GateId driver = -1;  ///< driving gate, or -1 for primary inputs
  /// (gate, pin) pairs this net feeds.
  std::vector<std::pair<GateId, int>> fanouts;
  bool is_primary_input = false;
  bool is_primary_output = false;
};

/// An instance of a library cell.
struct GateInst {
  std::string name;                  ///< instance name (unique)
  std::string cell;                  ///< library cell name
  std::vector<NetId> inputs;         ///< nets bound to pins, pin order
  NetId output = -1;                 ///< driven net
  gategraph::GateTopology config;    ///< current transistor configuration
};

/// A mapped combinational circuit.
class Netlist {
public:
  /// `library` must outlive the netlist (non-owning).
  explicit Netlist(const celllib::CellLibrary& library, std::string name = "top");

  const std::string& name() const noexcept { return name_; }
  const celllib::CellLibrary& library() const noexcept { return *library_; }

  /// Creates a net; names must be unique and non-empty.
  NetId add_net(const std::string& net_name);
  /// Returns the net id for a name, or -1 if absent.
  NetId find_net(const std::string& net_name) const;
  /// Finds or creates.
  NetId ensure_net(const std::string& net_name);

  void mark_primary_input(NetId net);
  void mark_primary_output(NetId net);

  /// Instantiates `cell_name` with the given pin binding. The output net
  /// must not already have a driver. The instance starts in the cell's
  /// canonical configuration.
  GateId add_gate(const std::string& instance_name,
                  const std::string& cell_name, std::vector<NetId> inputs,
                  NetId output);

  int net_count() const noexcept { return static_cast<int>(nets_.size()); }
  int gate_count() const noexcept { return static_cast<int>(gates_.size()); }
  const Net& net(NetId id) const;
  const GateInst& gate(GateId id) const;
  const std::vector<Net>& nets() const noexcept { return nets_; }
  const std::vector<GateInst>& gates() const noexcept { return gates_; }

  std::vector<NetId> primary_inputs() const;
  std::vector<NetId> primary_outputs() const;

  /// Replaces a gate's transistor configuration. The new configuration
  /// must compute the same logic function over the same pins.
  void set_config(GateId id, gategraph::GateTopology config);

  /// Gates ordered so every gate appears after all its transitive fan-in
  /// gates (the traversal order of paper Fig. 3). Throws on
  /// combinational cycles.
  std::vector<GateId> topological_order() const;

  /// Wire capacitance plus the gate capacitance of every fanout pin of
  /// net `id`: the load a primary input's driver charges.
  double fanout_load(NetId id, const celllib::Tech& tech) const;

  /// External load on a gate's output net: its fanout_load, plus one more
  /// wire load for a primary output (the pad).
  double external_load(GateId id, const celllib::Tech& tech) const;

  /// Structural sanity: every non-PI net has a driver, every gate's pin
  /// arity matches its cell, no combinational cycles, POs exist.
  void validate() const;

  /// Logic simulation of one input vector: `pi_values` follows
  /// primary_inputs() order; the result follows primary_outputs() order.
  /// Used by equivalence tests (mapper vs source network).
  std::vector<bool> evaluate(const std::vector<bool>& pi_values) const;

private:
  const celllib::CellLibrary* library_;
  std::string name_;
  std::vector<Net> nets_;
  std::vector<GateInst> gates_;
  std::map<std::string, NetId> net_index_;
};

}  // namespace tr::netlist
