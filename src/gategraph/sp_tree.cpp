#include "gategraph/sp_tree.hpp"

#include <algorithm>
#include <map>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace tr::gategraph {

SpNode SpNode::transistor(int input_index) {
  require(input_index >= 0, "SpNode::transistor: negative input index");
  SpNode n;
  n.kind = Kind::transistor;
  n.input = input_index;
  return n;
}

namespace {
SpNode make_composite(SpNode::Kind kind, std::vector<SpNode> children) {
  require(children.size() >= 2,
          "SpNode: composite nodes need at least two children");
  SpNode n;
  n.kind = kind;
  // Flatten nested same-kind composites so that the tree is canonical in
  // depth: series(series(a,b),c) == series(a,b,c). This keeps the internal
  // node <-> series gap correspondence unambiguous.
  for (SpNode& child : children) {
    if (child.kind == kind) {
      for (SpNode& grandchild : child.children) {
        n.children.push_back(std::move(grandchild));
      }
    } else {
      n.children.push_back(std::move(child));
    }
  }
  return n;
}
}  // namespace

SpNode SpNode::series(std::vector<SpNode> children) {
  return make_composite(Kind::series, std::move(children));
}

SpNode SpNode::parallel(std::vector<SpNode> children) {
  return make_composite(Kind::parallel, std::move(children));
}

bool SpNode::operator==(const SpNode& rhs) const {
  if (kind != rhs.kind) return false;
  if (kind == Kind::transistor) return input == rhs.input;
  return children == rhs.children;
}

int transistor_count(const SpNode& node) {
  if (node.is_leaf()) return 1;
  int total = 0;
  for (const SpNode& c : node.children) total += transistor_count(c);
  return total;
}

int internal_node_count(const SpNode& node) {
  if (node.is_leaf()) return 0;
  int total = node.kind == SpNode::Kind::series
                  ? static_cast<int>(node.children.size()) - 1
                  : 0;
  for (const SpNode& c : node.children) total += internal_node_count(c);
  return total;
}

int max_input_plus_one(const SpNode& node) {
  if (node.is_leaf()) return node.input + 1;
  int mx = 0;
  for (const SpNode& c : node.children) mx = std::max(mx, max_input_plus_one(c));
  return mx;
}

SpNode dual(const SpNode& node) {
  if (node.is_leaf()) return node;
  SpNode d;
  d.kind = node.kind == SpNode::Kind::series ? SpNode::Kind::parallel
                                             : SpNode::Kind::series;
  d.children.reserve(node.children.size());
  for (const SpNode& c : node.children) d.children.push_back(dual(c));
  return d;
}

boolfn::TruthTable conduction_function(const SpNode& node, DeviceType type,
                                       int var_count) {
  using boolfn::TruthTable;
  if (node.is_leaf()) {
    TruthTable lit = TruthTable::variable(var_count, node.input);
    return type == DeviceType::nmos ? lit : ~lit;
  }
  if (node.kind == SpNode::Kind::series) {
    TruthTable f = TruthTable::one(var_count);
    for (const SpNode& c : node.children) {
      f &= conduction_function(c, type, var_count);
    }
    return f;
  }
  TruthTable f = TruthTable::zero(var_count);
  for (const SpNode& c : node.children) {
    f |= conduction_function(c, type, var_count);
  }
  return f;
}

std::string encode(const SpNode& node) {
  if (node.is_leaf()) return numbered("T", node.input);
  std::vector<std::string> parts;
  parts.reserve(node.children.size());
  for (const SpNode& c : node.children) parts.push_back(encode(c));
  if (node.kind == SpNode::Kind::parallel) {
    std::sort(parts.begin(), parts.end());
  }
  std::string out(node.kind == SpNode::Kind::series ? "S(" : "P(");
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += ',';
    out += parts[i];
  }
  out += ')';
  return out;
}

namespace {
void encode_anon_rec(const SpNode& node, std::map<int, int>& renumber,
                     std::string& out) {
  if (node.is_leaf()) {
    const auto [it, inserted] =
        renumber.emplace(node.input, static_cast<int>(renumber.size()));
    out += numbered("T", it->second);
    (void)inserted;
    return;
  }
  std::vector<const SpNode*> order;
  order.reserve(node.children.size());
  for (const SpNode& c : node.children) order.push_back(&c);
  if (node.kind == SpNode::Kind::parallel) {
    // Sort by *shape* (anonymised with a fresh scratch numbering) so the
    // traversal order itself is label-independent.
    std::vector<std::pair<std::string, const SpNode*>> keyed;
    keyed.reserve(order.size());
    for (const SpNode* c : order) {
      std::map<int, int> scratch;
      std::string key;
      encode_anon_rec(*c, scratch, key);
      keyed.emplace_back(std::move(key), c);
    }
    std::stable_sort(keyed.begin(), keyed.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    order.clear();
    for (auto& [key, child] : keyed) order.push_back(child);
  }
  out += node.kind == SpNode::Kind::series ? "S(" : "P(";
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i > 0) out += ',';
    encode_anon_rec(*order[i], renumber, out);
  }
  out += ')';
}
}  // namespace

std::string encode_anonymized(const SpNode& node) {
  std::map<int, int> renumber;
  std::string out;
  encode_anon_rec(node, renumber, out);
  return out;
}

std::uint64_t ordering_count(const SpNode& node) {
  if (node.is_leaf()) return 1;
  std::uint64_t product = 1;
  for (const SpNode& c : node.children) product *= ordering_count(c);
  if (node.kind == SpNode::Kind::series) {
    std::uint64_t fact = 1;
    for (std::uint64_t k = 2; k <= node.children.size(); ++k) fact *= k;
    product *= fact;
  }
  return product;
}

}  // namespace tr::gategraph
