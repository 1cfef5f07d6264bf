#pragma once
// Reference oracles for the shipped fast paths (DESIGN.md Sec. 14.3).
//
// These are the original, deliberately naive implementations the
// library's table-driven code is pinned against. They live with the
// tests — the shipped library never calls them — and are linked by the
// test binaries and the perf benches that time the fast paths against
// them:
//
//  * enumerate_orderings_brute / all_reorderings_brute — direct
//    construction of every series ordering; the oracle for the paper's
//    pivot exploration (GateTopology::all_reorderings) and the catalog
//    enumeration built on it. Exponential allocation behaviour.
//  * score_configurations_reference — rebuilds a GateGraph and re-runs
//    the path-function DFS per candidate; the oracle for score_catalog.
//  * optimize_reference — the pre-catalog sequential engine: one
//    topological walk that scores every candidate by graph rebuild and,
//    under a delay budget, re-times it from the already-committed fan-in
//    arrivals. The oracle for optimize(): bit-identical reports and
//    configurations with and without a budget.

#include <map>
#include <utility>
#include <vector>

#include "boolfn/signal.hpp"
#include "celllib/tech.hpp"
#include "gategraph/gate_topology.hpp"
#include "gategraph/sp_tree.hpp"
#include "netlist/netlist.hpp"
#include "opt/optimizer.hpp"

namespace tr::oracle {

/// All distinct orderings of the tree by direct recursive construction
/// (series-child permutations x child orderings). Parallel children are
/// emitted in canonical (encoding-sorted) order.
std::vector<gategraph::SpNode> enumerate_orderings_brute(
    const gategraph::SpNode& node);

/// Every distinct configuration of `gate` (both trees, all orderings),
/// deduplicated by canonical key.
std::vector<gategraph::GateTopology> all_reorderings_brute(
    const gategraph::GateTopology& gate);

/// Scores every reordering of `config` by per-candidate graph rebuild;
/// (configuration, model power) pairs in enumeration order.
std::vector<std::pair<gategraph::GateTopology, double>>
score_configurations_reference(
    const gategraph::GateTopology& config,
    const std::vector<boolfn::SignalStats>& inputs, double external_load,
    const celllib::Tech& tech,
    power::ModelKind model = power::ModelKind::extended);

/// The sequential reference engine: optimizes `netlist` in place gate by
/// gate along the topological order (paper Fig. 3), honouring
/// objective, model, instance restriction, delay budget and
/// cancellation (polled per gate; a cancelled run leaves the gates
/// committed so far). options.threads is ignored.
opt::OptimizeReport optimize_reference(
    netlist::Netlist& netlist,
    const std::map<netlist::NetId, boolfn::SignalStats>& pi_stats,
    const celllib::Tech& tech, const opt::OptimizeOptions& options = {});

}  // namespace tr::oracle
