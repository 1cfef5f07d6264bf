#pragma once
// Series-parallel (SP) trees describing one pull network of a static CMOS
// gate (paper Sec. 4.3: "the gates of typical libraries can all be
// represented with this type of graphs").
//
// An SpNode is either a transistor leaf (carrying the index of the gate
// input that drives it), a series composition, or a parallel composition.
// *Series child order is significant*: children are listed from the
// output-side terminal towards the rail-side terminal, and each gap
// between two consecutive series children materialises one internal node
// of the transistor graph. Parallel child order is electrically
// irrelevant and is canonicalised away when encoding.

#include <cstdint>
#include <string>
#include <vector>

#include "boolfn/truth_table.hpp"

namespace tr::gategraph {

/// Transistor device type. N devices conduct when their input is 1,
/// P devices when it is 0.
enum class DeviceType : std::uint8_t { nmos, pmos };

/// One node of a series-parallel network tree.
struct SpNode {
  enum class Kind : std::uint8_t { transistor, series, parallel };

  Kind kind = Kind::transistor;
  /// For transistor leaves: index of the driving gate input.
  int input = -1;
  /// For series/parallel nodes: at least two children. Series children are
  /// ordered output-side first, rail-side last.
  std::vector<SpNode> children;

  /// Leaf constructor helper.
  static SpNode transistor(int input_index);
  /// Composite constructor helpers (flatten same-kind children, so
  /// series(series(a,b),c) == series(a,b,c)).
  static SpNode series(std::vector<SpNode> children);
  static SpNode parallel(std::vector<SpNode> children);

  bool is_leaf() const noexcept { return kind == Kind::transistor; }

  bool operator==(const SpNode& rhs) const;
};

/// Total number of transistor leaves in the tree.
int transistor_count(const SpNode& node);

/// Number of internal nodes the tree materialises: one per gap between
/// consecutive children of every series node (at any depth).
int internal_node_count(const SpNode& node);

/// Highest input index referenced plus one (0 for a tree with no leaves).
int max_input_plus_one(const SpNode& node);

/// The dual network: series and parallel swapped, leaves preserved.
/// The pull-up network of a complementary CMOS gate is the dual of its
/// pull-down network.
SpNode dual(const SpNode& node);

/// Conduction function of the network between its two terminals, over
/// `var_count` gate inputs. For DeviceType::nmos a leaf contributes the
/// positive literal of its input; for pmos the negative literal.
boolfn::TruthTable conduction_function(const SpNode& node, DeviceType type,
                                       int var_count);

/// Deterministic structural encoding. Series children keep their order;
/// parallel children are sorted by their own encodings, so two trees that
/// differ only in parallel child order encode identically.
/// Example: "S(T3,P(T1,T2))".
std::string encode(const SpNode& node);

/// Encoding with input indices anonymised by first occurrence during the
/// (canonicalised) traversal. Two configurations share an anonymised
/// encoding iff one is an input-pin permutation of the other — i.e. iff
/// they can be realised by the same sea-of-gates layout *instance*
/// (paper Sec. 5.1, e.g. oai21[A] vs oai21[B]).
std::string encode_anonymized(const SpNode& node);

/// Number of distinct series orderings of the tree (the closed form that
/// the pivot enumeration of paper Fig. 4 must reproduce):
///   transistor -> 1
///   parallel   -> product of child counts
///   series     -> k! * product of child counts   (k = child count)
/// Distinctness assumes distinct input indices on the leaves (true for
/// every library cell).
std::uint64_t ordering_count(const SpNode& node);

}  // namespace tr::gategraph
