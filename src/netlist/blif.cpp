#include "netlist/blif.hpp"

#include <fstream>
#include <ostream>
#include <sstream>

#include "boolfn/isop.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/strings.hpp"

namespace tr::netlist {

namespace {

struct Line {
  int number = 0;  ///< 1-based line number of the first physical line
  std::vector<std::string> tokens;
};

/// Reads physical lines, strips comments, folds '\' continuations and
/// tokenises. Empty lines are dropped.
std::vector<Line> logical_lines(std::istream& in) {
  std::vector<Line> lines;
  std::string physical;
  int line_no = 0;
  std::string pending;
  int pending_start = 0;
  while (std::getline(in, physical)) {
    ++line_no;
    const std::size_t hash = physical.find('#');
    if (hash != std::string::npos) physical.erase(hash);
    std::string_view body = trim(physical);
    bool continues = false;
    if (!body.empty() && body.back() == '\\') {
      continues = true;
      body.remove_suffix(1);
    }
    if (pending.empty()) pending_start = line_no;
    pending += ' ';
    pending += body;
    if (continues) continue;
    const std::vector<std::string> tokens = split(pending);
    if (!tokens.empty()) lines.push_back({pending_start, tokens});
    pending.clear();
  }
  return lines;
}

[[noreturn]] void fail(const std::string& source, int line,
                       const std::string& message) {
  throw ParseError(source, line, message);
}

/// Parses the cover rows of a .names block starting after `header_index`;
/// advances `i` past the block. Returns the node.
LogicNode parse_names_block(const std::vector<Line>& lines, std::size_t& i,
                            const std::string& source) {
  const Line& header = lines[i];
  TR_ASSERT(header.tokens[0] == ".names");
  if (header.tokens.size() < 2) {
    fail(source, header.number, ".names needs at least an output signal");
  }
  LogicNode node;
  node.name = header.tokens.back();
  node.fanins.assign(header.tokens.begin() + 1, header.tokens.end() - 1);
  const int n = static_cast<int>(node.fanins.size());
  if (n > boolfn::TruthTable::max_vars) {
    fail(source, header.number,
         ".names node '" + node.name + "' has too many fanins");
  }

  std::vector<std::string> cubes;
  char output_phase = 0;
  ++i;
  for (; i < lines.size(); ++i) {
    const Line& row = lines[i];
    if (row.tokens[0].front() == '.') break;  // next directive
    std::string cube;
    char value = 0;
    if (n == 0) {
      if (row.tokens.size() != 1 || row.tokens[0].size() != 1) {
        fail(source, row.number, "constant .names row must be a single bit");
      }
      value = row.tokens[0][0];
    } else {
      if (row.tokens.size() != 2) {
        fail(source, row.number, ".names row must be '<cube> <value>'");
      }
      cube = row.tokens[0];
      if (static_cast<int>(cube.size()) != n) {
        fail(source, row.number, "cube width does not match fanin count");
      }
      if (row.tokens[1].size() != 1) {
        fail(source, row.number, "output value must be a single bit");
      }
      value = row.tokens[1][0];
    }
    if (value != '0' && value != '1') {
      fail(source, row.number, "output value must be 0 or 1");
    }
    if (output_phase == 0) output_phase = value;
    if (value != output_phase) {
      fail(source, row.number, "mixed output phases in one .names block");
    }
    cubes.push_back(cube);
  }

  if (n == 0) {
    node.function = cubes.empty() || output_phase == '0'
                        ? boolfn::TruthTable::zero(0)
                        : boolfn::TruthTable::one(0);
    return node;
  }
  boolfn::TruthTable cover = boolfn::TruthTable::from_cubes(n, cubes);
  node.function = output_phase == '0' ? ~cover : cover;
  return node;
}

struct ModelHeader {
  std::string model = "top";
  std::vector<std::string> inputs;
  std::vector<std::string> outputs;
};

/// Parses directives common to both dialects; returns body line indices of
/// .names / .gate headers for the caller to process.
ModelHeader parse_header_directives(const std::vector<Line>& lines,
                                    const std::string& source) {
  ModelHeader h;
  for (const Line& line : lines) {
    const std::string& kw = line.tokens[0];
    if (kw == ".model") {
      if (line.tokens.size() >= 2) h.model = line.tokens[1];
    } else if (kw == ".inputs") {
      h.inputs.insert(h.inputs.end(), line.tokens.begin() + 1,
                      line.tokens.end());
    } else if (kw == ".outputs") {
      h.outputs.insert(h.outputs.end(), line.tokens.begin() + 1,
                       line.tokens.end());
    } else if (kw == ".latch" || kw == ".clock") {
      fail(source, line.number,
           "sequential BLIF is not supported (combinational flow only)");
    }
  }
  return h;
}

}  // namespace

LogicNetwork read_blif_logic(std::istream& in, const std::string& source) {
  if (util::fault::enabled()) util::fault::check("parse.blif");
  const std::vector<Line> lines = logical_lines(in);
  const ModelHeader header = parse_header_directives(lines, source);

  LogicNetwork network(header.model);
  for (const std::string& name : header.inputs) network.add_input(name);
  for (const std::string& name : header.outputs) network.add_output(name);

  for (std::size_t i = 0; i < lines.size();) {
    const std::string& kw = lines[i].tokens[0];
    if (kw == ".names") {
      network.add_node(parse_names_block(lines, i, source));
    } else if (kw == ".gate") {
      fail(source, lines[i].number,
           "mapped BLIF: use read_blif_mapped for .gate models");
    } else {
      ++i;
    }
  }
  network.validate();
  return network;
}

LogicNetwork read_blif_logic_string(const std::string& text,
                                    const std::string& source) {
  std::istringstream in(text);
  return read_blif_logic(in, source);
}

LogicNetwork read_blif_logic_file(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), "cannot open BLIF file '", path, "'");
  return read_blif_logic(in, path);
}

Netlist read_blif_mapped(std::istream& in, const celllib::CellLibrary& library,
                         const std::string& source) {
  if (util::fault::enabled()) util::fault::check("parse.blif_mapped");
  const std::vector<Line> lines = logical_lines(in);
  const ModelHeader header = parse_header_directives(lines, source);

  Netlist netlist(library, header.model);
  for (const std::string& name : header.inputs) {
    netlist.mark_primary_input(netlist.ensure_net(name));
  }

  int instance_counter = 0;
  for (const Line& line : lines) {
    if (line.tokens[0] != ".gate") continue;
    if (line.tokens.size() < 3) {
      fail(source, line.number, ".gate needs a cell name and pin bindings");
    }
    const std::string& cell_name = line.tokens[1];
    const celllib::Cell* cell = library.find(cell_name);
    if (cell == nullptr) {
      fail(source, line.number, "unknown cell '" + cell_name + "'");
    }
    std::vector<NetId> inputs(static_cast<std::size_t>(cell->input_count()), -1);
    NetId output = -1;
    for (std::size_t t = 2; t < line.tokens.size(); ++t) {
      const std::string& binding = line.tokens[t];
      const std::size_t eq = binding.find('=');
      if (eq == std::string::npos) {
        fail(source, line.number, "pin binding '" + binding +
                                      "' is not of the form pin=net");
      }
      const std::string pin = binding.substr(0, eq);
      const std::string net_name = binding.substr(eq + 1);
      const NetId net = netlist.ensure_net(net_name);
      if (pin == "y") {
        output = net;
        continue;
      }
      int pin_index = -1;
      for (int p = 0; p < cell->input_count(); ++p) {
        if (cell->pin_names()[static_cast<std::size_t>(p)] == pin) {
          pin_index = p;
          break;
        }
      }
      if (pin_index < 0) {
        fail(source, line.number,
             "cell '" + cell_name + "' has no pin '" + pin + "'");
      }
      inputs[static_cast<std::size_t>(pin_index)] = net;
    }
    if (output < 0) {
      fail(source, line.number, "missing output binding y=<net>");
    }
    for (std::size_t p = 0; p < inputs.size(); ++p) {
      if (inputs[p] < 0) {
        fail(source, line.number,
             "missing binding for pin '" + cell->pin_names()[p] + "'");
      }
    }
    netlist.add_gate(cell_name + "_" + std::to_string(instance_counter++),
                     cell_name, std::move(inputs), output);
  }

  for (const std::string& name : header.outputs) {
    const NetId net = netlist.find_net(name);
    require(net >= 0, source, ": primary output '", name, "' is undriven");
    netlist.mark_primary_output(net);
  }
  netlist.validate();
  return netlist;
}

Netlist read_blif_mapped_string(const std::string& text,
                                const celllib::CellLibrary& library,
                                const std::string& source) {
  std::istringstream in(text);
  return read_blif_mapped(in, library, source);
}

void write_blif(const LogicNetwork& network, std::ostream& out) {
  out << ".model " << network.model() << '\n';
  out << ".inputs " << join(network.inputs(), " ") << '\n';
  out << ".outputs " << join(network.outputs(), " ") << '\n';
  for (const LogicNode& node : network.nodes()) {
    out << ".names";
    for (const std::string& fanin : node.fanins) out << ' ' << fanin;
    out << ' ' << node.name << '\n';
    if (node.function.var_count() == 0) {
      if (node.function.is_one()) out << "1\n";
      continue;
    }
    for (const boolfn::Cube& cube : boolfn::isop(node.function)) {
      out << cube << " 1\n";
    }
  }
  out << ".end\n";
}

void write_blif(const Netlist& netlist, std::ostream& out) {
  out << ".model " << netlist.name() << '\n';
  out << ".inputs";
  for (NetId id : netlist.primary_inputs()) out << ' ' << netlist.net(id).name;
  out << '\n';
  out << ".outputs";
  for (NetId id : netlist.primary_outputs()) out << ' ' << netlist.net(id).name;
  out << '\n';
  for (const GateInst& gate : netlist.gates()) {
    const celllib::Cell& cell = netlist.library().cell(gate.cell);
    out << ".gate " << gate.cell;
    for (std::size_t p = 0; p < gate.inputs.size(); ++p) {
      out << ' ' << cell.pin_names()[p] << '='
          << netlist.net(gate.inputs[p]).name;
    }
    out << " y=" << netlist.net(gate.output).name << '\n';
  }
  out << ".end\n";
}

}  // namespace tr::netlist
