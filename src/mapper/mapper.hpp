#pragma once
// Technology mapping onto the paper's Table 2 library.
//
// Strategy (paper Sec. 5.1 maps the MCNC circuits "into the gate library
// shown in Table 2"):
//   1. direct match: the node function equals a library cell under an
//      input permutation, or else its complement does (mapped with an
//      inverter after the cell; always tried, there is no option) —
//      this catches NAND/NOR/AOI/OAI shapes directly;
//   2. otherwise two-level NAND-NAND decomposition of an irredundant SOP
//      cover (Minato-Morreale ISOP), with wide ANDs split across
//      nand2/3/4 and cached inverters for negative literals.
//
// The result is functionally equivalent to the source network (verified
// by tests via exhaustive or randomised simulation).

#include "celllib/library.hpp"
#include "netlist/logic_network.hpp"
#include "netlist/netlist.hpp"

namespace tr::mapper {

/// Maps a generic logic network onto `library`. Throws tr::Error on
/// constant nodes (the combinational power flow has no constant sources).
/// The library must outlive the returned netlist.
netlist::Netlist map_network(const netlist::LogicNetwork& network,
                             const celllib::CellLibrary& library);

}  // namespace tr::mapper
