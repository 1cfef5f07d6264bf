#include "benchgen/generators.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace tr::benchgen {

using netlist::NetId;
using netlist::Netlist;

Netlist ripple_carry_adder(const celllib::CellLibrary& library, int bits) {
  require(bits >= 1, "ripple_carry_adder: need at least one bit");
  Netlist nl(library, "rca" + std::to_string(bits));

  std::vector<NetId> a(static_cast<std::size_t>(bits));
  std::vector<NetId> b(static_cast<std::size_t>(bits));
  for (int i = 0; i < bits; ++i) {
    a[static_cast<std::size_t>(i)] = nl.add_net(numbered("a", i));
    b[static_cast<std::size_t>(i)] = nl.add_net(numbered("b", i));
    nl.mark_primary_input(a[static_cast<std::size_t>(i)]);
    nl.mark_primary_input(b[static_cast<std::size_t>(i)]);
  }
  NetId carry = nl.add_net("cin");
  nl.mark_primary_input(carry);

  for (int i = 0; i < bits; ++i) {
    const std::string sfx = std::to_string(i);
    const NetId ai = a[static_cast<std::size_t>(i)];
    const NetId bi = b[static_cast<std::size_t>(i)];
    // Full adder over (ai, bi, carry):
    //   u    = nor3(a,b,c)            v  = nand3(a,b,c)
    //   n1   = nand2(a,b)             o1 = oai21(a,b,c) = !((a+b)c)
    //   cout = nand2(n1,o1) = ab + (a+b)c
    //   sum  = oai21(u,cout,v) = !((u+cout)v) = a^b^c
    const NetId u = nl.add_net("u" + sfx);
    const NetId v = nl.add_net("v" + sfx);
    const NetId n1 = nl.add_net("n1_" + sfx);
    const NetId o1 = nl.add_net("o1_" + sfx);
    const NetId cout = nl.add_net(numbered("c", i + 1));
    const NetId sum = nl.add_net("s" + sfx);
    nl.add_gate("fa" + sfx + "_nor3", "nor3", {ai, bi, carry}, u);
    nl.add_gate("fa" + sfx + "_nand3", "nand3", {ai, bi, carry}, v);
    nl.add_gate("fa" + sfx + "_nand2a", "nand2", {ai, bi}, n1);
    nl.add_gate("fa" + sfx + "_oai21a", "oai21", {ai, bi, carry}, o1);
    nl.add_gate("fa" + sfx + "_nand2b", "nand2", {n1, o1}, cout);
    nl.add_gate("fa" + sfx + "_oai21b", "oai21", {u, cout, v}, sum);
    nl.mark_primary_output(sum);
    carry = cout;
  }
  nl.mark_primary_output(carry);
  nl.validate();
  return nl;
}

namespace {
/// XOR of two nets: xor(a,b) = !(ab + !(a+b)) = aoi21(a, b, nor2(a,b)).
NetId make_xor(Netlist& nl, NetId a, NetId b, int& counter) {
  const std::string sfx = std::to_string(counter++);
  const NetId nor_ab = nl.add_net("_xn" + sfx);
  const NetId out = nl.add_net("_xo" + sfx);
  nl.add_gate("xor" + sfx + "_nor2", "nor2", {a, b}, nor_ab);
  nl.add_gate("xor" + sfx + "_aoi21", "aoi21", {a, b, nor_ab}, out);
  return out;
}
}  // namespace

Netlist parity_tree(const celllib::CellLibrary& library, int inputs) {
  require(inputs >= 2, "parity_tree: need at least two inputs");
  Netlist nl(library, "parity" + std::to_string(inputs));
  std::vector<NetId> level;
  for (int i = 0; i < inputs; ++i) {
    const NetId net = nl.add_net(numbered("x", i));
    nl.mark_primary_input(net);
    level.push_back(net);
  }
  int counter = 0;
  while (level.size() > 1) {
    std::vector<NetId> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(make_xor(nl, level[i], level[i + 1], counter));
    }
    if (level.size() % 2 == 1) next.push_back(level.back());
    level = std::move(next);
  }
  nl.mark_primary_output(level.front());
  nl.validate();
  return nl;
}

Netlist mux_tree(const celllib::CellLibrary& library, int select_bits) {
  require(select_bits >= 1 && select_bits <= 6,
          "mux_tree: select_bits must be in 1..6");
  Netlist nl(library, "mux" + std::to_string(1 << select_bits));

  std::vector<NetId> data;
  const int leaves = 1 << select_bits;
  for (int i = 0; i < leaves; ++i) {
    const NetId net = nl.add_net(numbered("d", i));
    nl.mark_primary_input(net);
    data.push_back(net);
  }
  std::vector<NetId> selects, select_bars;
  for (int s = 0; s < select_bits; ++s) {
    const NetId sel = nl.add_net("sel" + std::to_string(s));
    nl.mark_primary_input(sel);
    selects.push_back(sel);
    const NetId bar = nl.add_net("_selb" + std::to_string(s));
    nl.add_gate("selinv" + std::to_string(s), "inv", {sel}, bar);
    select_bars.push_back(bar);
  }

  int counter = 0;
  std::vector<NetId> level = data;
  for (int s = 0; s < select_bits; ++s) {
    std::vector<NetId> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      // mux = !aoi22(sel, hi, !sel, lo) : sel ? hi : lo.
      const std::string sfx = std::to_string(counter++);
      const NetId inner = nl.add_net("_ma" + sfx);
      const NetId out = nl.add_net("_mo" + sfx);
      nl.add_gate("mux" + sfx + "_aoi22", "aoi22",
                  {selects[static_cast<std::size_t>(s)], level[i + 1],
                   select_bars[static_cast<std::size_t>(s)], level[i]},
                  inner);
      nl.add_gate("mux" + sfx + "_inv", "inv", {inner}, out);
      next.push_back(out);
    }
    level = std::move(next);
  }
  nl.mark_primary_output(level.front());
  nl.validate();
  return nl;
}

Netlist random_circuit(const celllib::CellLibrary& library,
                       const RandomCircuitSpec& spec) {
  require(spec.target_gates >= 1, "random_circuit: target_gates must be >= 1");
  require(spec.primary_inputs >= 2, "random_circuit: need >= 2 inputs");
  Rng rng(spec.seed);
  Netlist nl(library, spec.name);

  // Realistic cell mix (weights loosely follow SIS mappings of the MCNC
  // suite: inverters and 2-input gates dominate, complex gates taper off).
  static const std::pair<const char*, int> mix[] = {
      {"inv", 10},    {"nand2", 16}, {"nor2", 12},  {"nand3", 8},
      {"nor3", 6},    {"aoi21", 8},  {"oai21", 8},  {"aoi22", 5},
      {"oai22", 5},   {"nand4", 3},  {"nor4", 2},   {"aoi211", 3},
      {"oai211", 3},  {"aoi221", 2}, {"oai221", 2}, {"aoi31", 2},
      {"oai31", 2},   {"aoi222", 1}, {"oai222", 1},
  };
  int total_weight = 0;
  for (const auto& [cell, w] : mix) total_weight += w;

  std::vector<NetId> pool;
  for (int i = 0; i < spec.primary_inputs; ++i) {
    const NetId net = nl.add_net("pi" + std::to_string(i));
    nl.mark_primary_input(net);
    pool.push_back(net);
  }

  for (int g = 0; g < spec.target_gates; ++g) {
    // Weighted cell pick.
    int roll = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(total_weight)));
    const char* cell_name = mix[0].first;
    for (const auto& [cell, w] : mix) {
      if (roll < w) {
        cell_name = cell;
        break;
      }
      roll -= w;
    }
    const celllib::Cell& cell = library.cell(cell_name);
    const int arity = cell.input_count();
    if (arity > static_cast<int>(pool.size())) {
      cell_name = "nand2";
    }
    const celllib::Cell& chosen = library.cell(cell_name);

    // Distinct inputs, quadratically biased towards recent nets so the
    // circuit acquires logic depth instead of staying flat.
    std::vector<NetId> inputs;
    while (static_cast<int>(inputs.size()) < chosen.input_count()) {
      const double r = rng.next_double();
      const std::size_t idx = pool.size() - 1 -
                              static_cast<std::size_t>(r * r *
                                                       static_cast<double>(
                                                           pool.size()));
      const NetId candidate = pool[idx < pool.size() ? idx : pool.size() - 1];
      bool duplicate = false;
      for (NetId used : inputs) duplicate = duplicate || used == candidate;
      if (!duplicate) inputs.push_back(candidate);
    }
    const NetId out = nl.add_net(numbered("n", g));
    nl.add_gate(std::string(cell_name) + "_g" + std::to_string(g), cell_name,
                inputs, out);
    pool.push_back(out);
  }

  // Every sink (driven net without fanout) becomes a primary output.
  int po_count = 0;
  for (NetId id = 0; id < nl.net_count(); ++id) {
    const netlist::Net& net = nl.net(id);
    if (!net.is_primary_input && net.fanouts.empty()) {
      nl.mark_primary_output(id);
      ++po_count;
    }
  }
  require(po_count > 0, "random_circuit: generated circuit has no sinks");
  nl.validate();
  return nl;
}

}  // namespace tr::benchgen
