#include "sim/switch_sim.hpp"

#include "sim/sim_engine.hpp"

namespace tr::sim {

SimResult simulate(const netlist::Netlist& netlist,
                   const std::map<netlist::NetId, boolfn::SignalStats>& pi_stats,
                   const celllib::Tech& tech, const SimOptions& options) {
  return SimEngine(netlist, pi_stats, tech, options).run();
}

}  // namespace tr::sim
