#include "netlist/activity_io.hpp"

#include <istream>
#include <ostream>
#include <set>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace tr::netlist {

void write_activity(const Netlist& netlist,
                    const std::vector<boolfn::SignalStats>& net_stats,
                    std::ostream& out, bool all_nets) {
  require(net_stats.size() == static_cast<std::size_t>(netlist.net_count()),
          "write_activity: statistics arity mismatch");
  out << "# activity v1\n";
  out << "# net  P(net=1)  transitions/s\n";
  for (NetId id = 0; id < netlist.net_count(); ++id) {
    const Net& net = netlist.net(id);
    if (!all_nets && !net.is_primary_input) continue;
    const auto& s = net_stats[static_cast<std::size_t>(id)];
    out << net.name << ' ' << format_fixed(s.prob, 6) << ' '
        << format_fixed(s.density, 3) << '\n';
  }
}

std::map<NetId, boolfn::SignalStats> read_activity(
    const Netlist& netlist, std::istream& in, const std::string& source_name) {
  std::map<NetId, boolfn::SignalStats> stats;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view body = trim(line);
    if (body.empty() || body.front() == '#') continue;
    const std::vector<std::string> tokens = split(body);
    if (tokens.size() != 3) {
      throw ParseError(source_name, line_no,
                       "expected '<net> <probability> <density>'");
    }
    const NetId id = netlist.find_net(tokens[0]);
    if (id < 0) {
      throw ParseError(source_name, line_no,
                       "unknown net '" + tokens[0] + "'");
    }
    if (!netlist.net(id).is_primary_input) {
      throw ParseError(source_name, line_no,
                       "net '" + tokens[0] + "' is not a primary input");
    }
    boolfn::SignalStats s;
    try {
      s.prob = std::stod(tokens[1]);
      s.density = std::stod(tokens[2]);
    } catch (const std::exception&) {
      throw ParseError(source_name, line_no, "malformed number");
    }
    if (s.prob < 0.0 || s.prob > 1.0 || s.density < 0.0) {
      throw ParseError(source_name, line_no,
                       "probability must be in [0,1], density >= 0");
    }
    if (!stats.emplace(id, s).second) {
      throw ParseError(source_name, line_no,
                       "duplicate entry for net '" + tokens[0] + "'");
    }
  }
  for (NetId id : netlist.primary_inputs()) {
    require(stats.contains(id), source_name,
            ": missing activity for primary input '", netlist.net(id).name,
            "'");
  }
  return stats;
}

}  // namespace tr::netlist
