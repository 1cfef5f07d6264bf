#include "mapper/mapper.hpp"

#include <map>

#include "boolfn/isop.hpp"
#include "util/error.hpp"

namespace tr::mapper {

using boolfn::TruthTable;
using celllib::CellLibrary;
using netlist::LogicNetwork;
using netlist::LogicNode;
using netlist::NetId;
using netlist::Netlist;

namespace {

/// Builds the mapped netlist node by node, caching inverters per net so a
/// signal is complemented at most once.
class MapContext {
public:
  MapContext(const LogicNetwork& network, const CellLibrary& library)
      : network_(network), library_(library), out_(library, network.model()) {}

  Netlist run() {
    for (const std::string& name : network_.inputs()) {
      const NetId net = out_.add_net(name);
      out_.mark_primary_input(net);
      signal_net_.emplace(name, net);
    }
    for (int index : network_.topological_nodes()) {
      map_node(network_.nodes()[static_cast<std::size_t>(index)]);
    }
    for (const std::string& name : network_.outputs()) {
      out_.mark_primary_output(resolve(name));
    }
    out_.validate();
    return std::move(out_);
  }

private:
  NetId resolve(const std::string& name) const {
    const auto it = signal_net_.find(name);
    require(it != signal_net_.end(), "mapper: signal '", name,
            "' has no mapped net");
    return it->second;
  }

  NetId fresh_net() {
    return out_.add_net("_m" + std::to_string(counter_++));
  }

  std::string fresh_instance(const std::string& cell) {
    return cell + "_i" + std::to_string(instance_counter_++);
  }

  /// Inverter with caching. If `target` >= 0 the inverter drives that
  /// specific net (and is cached for later reuse).
  NetId make_inv(NetId src, NetId target = -1) {
    if (target < 0) {
      const auto it = inverter_cache_.find(src);
      if (it != inverter_cache_.end()) return it->second;
    }
    const NetId net = target >= 0 ? target : fresh_net();
    out_.add_gate(fresh_instance("inv"), "inv", {src}, net);
    inverter_cache_.emplace(src, net);
    return net;
  }

  /// NAND of the given nets (>= 2 of them), into `target` or a fresh net.
  /// Wide NANDs split into an AND-tree feeding a nand2.
  NetId make_nand(const std::vector<NetId>& ins, NetId target = -1) {
    TR_ASSERT(ins.size() >= 2);
    if (ins.size() <= 4) {
      static const char* cells[] = {nullptr, nullptr, "nand2", "nand3",
                                    "nand4"};
      const NetId net = target >= 0 ? target : fresh_net();
      out_.add_gate(fresh_instance(cells[ins.size()]), cells[ins.size()], ins,
                    net);
      return net;
    }
    const std::size_t half = ins.size() / 2;
    const NetId left = make_and({ins.begin(), ins.begin() + half});
    const NetId right = make_and({ins.begin() + half, ins.end()});
    const NetId net = target >= 0 ? target : fresh_net();
    out_.add_gate(fresh_instance("nand2"), "nand2", {left, right}, net);
    return net;
  }

  /// AND of the given nets (>= 1).
  NetId make_and(const std::vector<NetId>& ins) {
    if (ins.size() == 1) return ins[0];
    return make_inv(make_nand(ins));
  }

  void map_node(const LogicNode& node) {
    const std::vector<int> support = node.function.support();
    require(!support.empty(), "mapper: node '", node.name,
            "' is constant; constant sources are not supported by the "
            "combinational power flow");
    const TruthTable f = node.function.compacted(support);
    std::vector<NetId> fanin_nets;
    fanin_nets.reserve(support.size());
    for (int v : support) {
      fanin_nets.push_back(resolve(node.fanins[static_cast<std::size_t>(v)]));
    }

    // Wire / single-literal nodes.
    if (support.size() == 1) {
      if (f == TruthTable::variable(1, 0)) {
        signal_net_.emplace(node.name, fanin_nets[0]);  // pure alias
        return;
      }
      // ~x: a named inverter.
      const NetId net = out_.add_net(node.name);
      make_inv(fanin_nets[0], net);
      signal_net_.emplace(node.name, net);
      return;
    }

    // Direct cell match under input permutation.
    if (const auto match = library_.match_function(f)) {
      const auto& [cell_name, pin_to_var] = *match;
      std::vector<NetId> pins;
      pins.reserve(pin_to_var.size());
      for (int var : pin_to_var) {
        pins.push_back(fanin_nets[static_cast<std::size_t>(var)]);
      }
      const NetId net = out_.add_net(node.name);
      out_.add_gate(fresh_instance(cell_name), cell_name, std::move(pins), net);
      signal_net_.emplace(node.name, net);
      return;
    }

    // Complemented match + inverter.
    if (const auto match = library_.match_function(~f)) {
      const auto& [cell_name, pin_to_var] = *match;
      std::vector<NetId> pins;
      pins.reserve(pin_to_var.size());
      for (int var : pin_to_var) {
        pins.push_back(fanin_nets[static_cast<std::size_t>(var)]);
      }
      const NetId inner = fresh_net();
      out_.add_gate(fresh_instance(cell_name), cell_name, std::move(pins),
                    inner);
      const NetId net = out_.add_net(node.name);
      make_inv(inner, net);
      signal_net_.emplace(node.name, net);
      return;
    }

    // Two-level NAND-NAND over an irredundant SOP:
    //   f = sum_i c_i = NAND(!c_1, ..., !c_n), !c_i = NAND(literals of c_i).
    const std::vector<boolfn::Cube> cubes = boolfn::isop(f);
    TR_ASSERT(!cubes.empty());
    std::vector<NetId> cube_bars;
    cube_bars.reserve(cubes.size());
    for (const boolfn::Cube& cube : cubes) {
      std::vector<NetId> literals;
      for (std::size_t j = 0; j < cube.size(); ++j) {
        if (cube[j] == '1') {
          literals.push_back(fanin_nets[j]);
        } else if (cube[j] == '0') {
          literals.push_back(make_inv(fanin_nets[j]));
        }
      }
      TR_ASSERT(!literals.empty());
      cube_bars.push_back(literals.size() == 1 ? make_inv(literals[0])
                                               : make_nand(literals));
    }
    const NetId net = out_.add_net(node.name);
    if (cube_bars.size() == 1) {
      make_inv(cube_bars[0], net);
    } else {
      make_nand(cube_bars, net);
    }
    signal_net_.emplace(node.name, net);
  }

  const LogicNetwork& network_;
  const CellLibrary& library_;
  Netlist out_;
  std::map<std::string, NetId> signal_net_;
  std::map<NetId, NetId> inverter_cache_;
  int counter_ = 0;
  int instance_counter_ = 0;
};

}  // namespace

Netlist map_network(const LogicNetwork& network, const CellLibrary& library) {
  network.validate();
  return MapContext(network, library).run();
}

}  // namespace tr::mapper
