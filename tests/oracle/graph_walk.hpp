#pragma once
// Graph-walk oracles for the catalog readers (DESIGN.md Sec. 7.1).
//
// power::circuit_power and delay::circuit_delay read each gate's
// configuration off the reordering catalog that characterised it. These
// are the implementations they replaced: per gate, a fresh GateGraph,
// its node capacitances, and the model or the Elmore kernel run on that
// graph. They live with the tests — the shipped library never calls
// them — as the oracles the catalog readers are pinned against
// field for field (tests/test_catalog_readers.cpp) and as the walk side
// of the bench's same-run speedup ratios (bench/perf_optimize_suite).

#include <vector>

#include "boolfn/signal.hpp"
#include "celllib/tech.hpp"
#include "delay/elmore.hpp"
#include "gategraph/gate_graph.hpp"
#include "netlist/netlist.hpp"
#include "power/circuit_power.hpp"
#include "power/gate_power.hpp"

namespace tr::oracle {

/// The model with internal nodes ignored: the output node's switching
/// power alone, the classic 1/2 C V^2 D estimate. Its one node is the
/// output node evaluate_gate_power computes.
power::GatePower evaluate_output_only_power(
    const gategraph::GateGraph& graph, const std::vector<double>& node_caps,
    const std::vector<boolfn::SignalStats>& inputs, const celllib::Tech& tech);

/// Model power of every gate in its current configuration, by one graph
/// build per gate.
power::CircuitPower circuit_power_walk(
    const netlist::Netlist& netlist, const power::CircuitActivity& activity,
    const celllib::Tech& tech,
    power::ModelKind kind = power::ModelKind::extended);

/// Static timing by one graph build and one delay::gate_delays per gate.
delay::CircuitDelay circuit_delay_walk(const netlist::Netlist& netlist,
                                       const celllib::Tech& tech);

}  // namespace tr::oracle
