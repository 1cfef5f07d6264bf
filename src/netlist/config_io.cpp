#include "netlist/config_io.hpp"

#include <istream>
#include <ostream>

#include "gategraph/sp_parse.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace tr::netlist {

GateId apply_config_key(Netlist& netlist, const std::string& output_net,
                        const std::string& key) {
  const NetId net = netlist.find_net(output_net);
  if (net < 0) return -1;
  const GateId gate = netlist.net(net).driver;
  if (gate < 0) return -1;
  const int inputs = static_cast<int>(netlist.gate(gate).inputs.size());
  netlist.set_config(gate, gategraph::topology_from_key(key, inputs));
  return gate;
}

void write_config_sidecar(const Netlist& netlist, std::ostream& out) {
  out << "# reordering configuration sidecar v1\n";
  out << "# model " << netlist.name() << "\n";
  for (const GateInst& gate : netlist.gates()) {
    const auto& canonical =
        netlist.library().cell(gate.cell).topology();
    if (gate.config.canonical_key() == canonical.canonical_key()) continue;
    out << netlist.net(gate.output).name << ' '
        << gate.config.canonical_key() << '\n';
  }
}

int read_config_sidecar(Netlist& netlist, std::istream& in,
                        const std::string& source_name) {
  int applied = 0;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view body = trim(line);
    if (body.empty() || body.front() == '#') continue;
    const std::vector<std::string> tokens = split(body);
    if (tokens.size() != 2) {
      throw ParseError(source_name, line_no,
                       "expected '<instance> <config-key>'");
    }
    if (apply_config_key(netlist, tokens[0], tokens[1]) < 0) {
      throw ParseError(source_name, line_no,
                       "no gate drives a net named '" + tokens[0] + "'");
    }
    ++applied;
  }
  return applied;
}

}  // namespace tr::netlist
