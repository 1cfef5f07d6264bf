#pragma once
// Persistence for optimized transistor configurations.
//
// BLIF .gate lines identify the cell and the pin binding but not the
// transistor ordering the optimizer chose, so a mapped netlist written
// to BLIF silently reverts to canonical configurations on re-read. The
// configuration sidecar fixes that: a small text format mapping each
// gate — identified by its *output net name*, which BLIF preserves,
// unlike instance names — to the configuration's canonical key,
//
//   # reordering configuration sidecar v1
//   <output-net-name> <nmos-tree>|<pmos-tree>
//
// written next to the BLIF and re-applied after reading it back. The
// journal's record reader (opt/batch_report.hpp) shares apply_config_key.

#include <iosfwd>

#include "netlist/netlist.hpp"

namespace tr::netlist {

/// Gives the gate driving net `output_net` the configuration `key`
/// (set_config checks its function). Returns that gate, or -1, netlist
/// untouched, when no gate drives such a net.
GateId apply_config_key(Netlist& netlist, const std::string& output_net,
                        const std::string& key);

/// Writes one line per gate whose configuration differs from the cell's
/// canonical topology (identical configurations are omitted).
void write_config_sidecar(const Netlist& netlist, std::ostream& out);

/// Applies a sidecar to `netlist`. Unknown output net names and
/// function-changing keys raise tr::Error; gates absent from the sidecar
/// keep their current configuration. Returns the number of gates
/// reconfigured.
int read_config_sidecar(Netlist& netlist, std::istream& in,
                        const std::string& source_name = "<sidecar>");

}  // namespace tr::netlist
