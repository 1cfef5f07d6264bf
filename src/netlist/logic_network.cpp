#include "netlist/logic_network.hpp"

#include <map>
#include <set>

#include "util/error.hpp"

namespace tr::netlist {

void LogicNetwork::add_input(const std::string& name) {
  require(!name.empty(), "LogicNetwork::add_input: empty name");
  require(!is_input(name) && node_index(name) < 0,
          "LogicNetwork::add_input: duplicate signal '", name, "'");
  inputs_.push_back(name);
}

void LogicNetwork::add_output(const std::string& name) {
  require(!name.empty(), "LogicNetwork::add_output: empty name");
  outputs_.push_back(name);
}

void LogicNetwork::add_node(LogicNode node) {
  require(!node.name.empty(), "LogicNetwork::add_node: empty node name");
  require(!is_input(node.name) && node_index(node.name) < 0,
          "LogicNetwork::add_node: duplicate signal '", node.name, "'");
  require(static_cast<int>(node.fanins.size()) == node.function.var_count(),
          "LogicNetwork::add_node: '", node.name,
          "' fanin arity does not match its function");
  nodes_.push_back(std::move(node));
}

int LogicNetwork::node_index(const std::string& name) const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

bool LogicNetwork::is_input(const std::string& name) const {
  for (const std::string& in : inputs_) {
    if (in == name) return true;
  }
  return false;
}

std::vector<int> LogicNetwork::topological_nodes() const {
  std::vector<int> pending(nodes_.size(), 0);
  std::map<std::string, std::vector<int>> waiters;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    for (const std::string& fanin : nodes_[i].fanins) {
      if (is_input(fanin)) continue;
      require(node_index(fanin) >= 0, "LogicNetwork: fanin '", fanin,
              "' of node '", nodes_[i].name, "' is not driven");
      ++pending[i];
      waiters[fanin].push_back(static_cast<int>(i));
    }
  }
  std::vector<int> ready;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (pending[i] == 0) ready.push_back(static_cast<int>(i));
  }
  std::vector<int> order;
  order.reserve(nodes_.size());
  for (std::size_t head = 0; head < ready.size(); ++head) {
    const int i = ready[head];
    order.push_back(i);
    const auto it = waiters.find(nodes_[static_cast<std::size_t>(i)].name);
    if (it == waiters.end()) continue;
    for (int w : it->second) {
      if (--pending[static_cast<std::size_t>(w)] == 0) ready.push_back(w);
    }
  }
  require(order.size() == nodes_.size(),
          "LogicNetwork: combinational cycle detected");
  return order;
}

void LogicNetwork::validate() const {
  std::set<std::string> names(inputs_.begin(), inputs_.end());
  require(names.size() == inputs_.size(), "LogicNetwork: duplicate inputs");
  for (const LogicNode& n : nodes_) {
    require(names.insert(n.name).second, "LogicNetwork: duplicate signal '",
            n.name, "'");
  }
  for (const std::string& out : outputs_) {
    require(names.contains(out), "LogicNetwork: output '", out,
            "' is not driven");
  }
  (void)topological_nodes();
}

std::vector<bool> LogicNetwork::evaluate(
    const std::vector<bool>& input_values) const {
  require(input_values.size() == inputs_.size(),
          "LogicNetwork::evaluate: input arity mismatch");
  std::map<std::string, bool> values;
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    values[inputs_[i]] = input_values[i];
  }
  for (int i : topological_nodes()) {
    const LogicNode& node = nodes_[static_cast<std::size_t>(i)];
    std::uint64_t minterm = 0;
    for (std::size_t j = 0; j < node.fanins.size(); ++j) {
      const auto it = values.find(node.fanins[j]);
      require(it != values.end(), "LogicNetwork::evaluate: undriven fanin '",
              node.fanins[j], "'");
      if (it->second) minterm |= 1ULL << j;
    }
    values[node.name] = node.function.value_at(minterm);
  }
  std::vector<bool> out;
  out.reserve(outputs_.size());
  for (const std::string& name : outputs_) {
    const auto it = values.find(name);
    require(it != values.end(), "LogicNetwork::evaluate: output '", name,
            "' undriven");
    out.push_back(it->second);
  }
  return out;
}

}  // namespace tr::netlist
