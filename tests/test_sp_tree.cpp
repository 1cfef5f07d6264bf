// Tests for series-parallel network trees: structure, duality,
// conduction functions, encodings and ordering counts.

#include <gtest/gtest.h>

#include <set>

#include "gategraph/sp_tree.hpp"
#include "oracle/reference_oracle.hpp"
#include "util/error.hpp"

namespace tr::gategraph {
namespace {

using boolfn::TruthTable;

SpNode T(int i) { return SpNode::transistor(i); }
SpNode S(std::vector<SpNode> c) { return SpNode::series(std::move(c)); }
SpNode P(std::vector<SpNode> c) { return SpNode::parallel(std::move(c)); }

TEST(SpTree, CompositeFlattening) {
  // series(series(a,b),c) flattens to series(a,b,c).
  const SpNode nested = S({S({T(0), T(1)}), T(2)});
  ASSERT_EQ(nested.children.size(), 3u);
  EXPECT_EQ(nested.children[0].input, 0);
  EXPECT_EQ(nested.children[2].input, 2);
  // Mixed kinds do not flatten.
  const SpNode mixed = S({P({T(0), T(1)}), T(2)});
  EXPECT_EQ(mixed.children.size(), 2u);
}

TEST(SpTree, CountsAndInputs) {
  const SpNode g = P({S({T(0), T(1)}), T(2)});  // aoi21 pulldown
  EXPECT_EQ(transistor_count(g), 3);
  EXPECT_EQ(internal_node_count(g), 1);  // one gap in the series pair
  EXPECT_EQ(max_input_plus_one(g), 3);
  const SpNode chain = S({T(0), T(1), T(2), T(3)});
  EXPECT_EQ(internal_node_count(chain), 3);
}

TEST(SpTree, CompositeNeedsTwoChildren) {
  EXPECT_THROW(S({T(0)}), Error);
  EXPECT_THROW(SpNode::transistor(-1), Error);
}

TEST(SpTree, DualSwapsSeriesParallel) {
  const SpNode g = S({P({T(0), T(1)}), T(2)});
  const SpNode d = dual(g);
  EXPECT_EQ(d.kind, SpNode::Kind::parallel);
  ASSERT_EQ(d.children.size(), 2u);
  EXPECT_EQ(d.children[0].kind, SpNode::Kind::series);
  EXPECT_TRUE(d.children[1].is_leaf());
  // Involution.
  EXPECT_EQ(dual(d), g);
}

TEST(SpTree, ConductionFunctionNmos) {
  // series(parallel(a,b), c) conducts iff (a|b) & c.
  const SpNode g = S({P({T(0), T(1)}), T(2)});
  const TruthTable expected = (TruthTable::variable(3, 0) |
                               TruthTable::variable(3, 1)) &
                              TruthTable::variable(3, 2);
  EXPECT_EQ(conduction_function(g, DeviceType::nmos, 3), expected);
}

TEST(SpTree, ConductionFunctionPmosUsesNegativeLiterals) {
  const SpNode g = S({T(0), T(1)});
  const TruthTable expected =
      ~TruthTable::variable(2, 0) & ~TruthTable::variable(2, 1);
  EXPECT_EQ(conduction_function(g, DeviceType::pmos, 2), expected);
}

TEST(SpTree, DualOfPulldownIsComplementaryPullup) {
  // For every SP network: conduction of the dual with P devices equals
  // the complement of the N conduction (De Morgan).
  const std::vector<SpNode> shapes = {
      T(0),
      S({T(0), T(1), T(2)}),
      P({T(0), T(1)}),
      S({P({T(0), T(1)}), T(2)}),
      P({S({T(0), T(1)}), S({T(2), T(3)}), T(4)}),
      S({P({T(0), T(1), T(2)}), P({T(3), T(4)})}),
  };
  for (const SpNode& shape : shapes) {
    const int n = max_input_plus_one(shape);
    EXPECT_EQ(conduction_function(dual(shape), DeviceType::pmos, n),
              ~conduction_function(shape, DeviceType::nmos, n));
  }
}

TEST(SpTree, EncodeCanonicalisesParallelOnly) {
  // Series order is significant.
  EXPECT_NE(encode(S({T(0), T(1)})), encode(S({T(1), T(0)})));
  // Parallel order is not.
  EXPECT_EQ(encode(P({T(0), T(1)})), encode(P({T(1), T(0)})));
  EXPECT_EQ(encode(S({P({T(2), T(1)}), T(0)})),
            encode(S({P({T(1), T(2)}), T(0)})));
}

TEST(SpTree, EncodeAnonymizedIdentifiesLayoutInstances) {
  // Same shape, permuted inputs -> same instance key.
  EXPECT_EQ(encode_anonymized(S({P({T(0), T(1)}), T(2)})),
            encode_anonymized(S({P({T(2), T(0)}), T(1)})));
  // Different shapes -> different keys (singleton near rail vs output).
  EXPECT_NE(encode_anonymized(S({P({T(0), T(1)}), T(2)})),
            encode_anonymized(S({T(2), P({T(0), T(1)})})));
}

TEST(SpTree, OrderingCountClosedForms) {
  EXPECT_EQ(ordering_count(T(0)), 1u);
  EXPECT_EQ(ordering_count(S({T(0), T(1)})), 2u);
  EXPECT_EQ(ordering_count(S({T(0), T(1), T(2)})), 6u);
  EXPECT_EQ(ordering_count(S({T(0), T(1), T(2), T(3)})), 24u);
  EXPECT_EQ(ordering_count(P({T(0), T(1), T(2)})), 1u);
  // aoi22 pulldown: parallel of two series pairs: 2*2 = 4.
  EXPECT_EQ(ordering_count(P({S({T(0), T(1)}), S({T(2), T(3)})})), 4u);
  // oai221 pulldown: series(p2, p2, t): 3! = 6.
  EXPECT_EQ(ordering_count(S({P({T(0), T(1)}), P({T(2), T(3)}), T(4)})), 6u);
}

TEST(SpTree, BruteEnumerationIsDistinctAndComplete) {
  const std::vector<SpNode> shapes = {
      S({T(0), T(1), T(2)}),
      P({S({T(0), T(1)}), S({T(2), T(3)})}),
      S({P({T(0), T(1)}), T(2), T(3)}),
  };
  for (const SpNode& shape : shapes) {
    const auto all = oracle::enumerate_orderings_brute(shape);
    EXPECT_EQ(all.size(), ordering_count(shape));
    std::set<std::string> keys;
    for (const SpNode& config : all) {
      EXPECT_TRUE(keys.insert(encode(config)).second) << "duplicate ordering";
      // Reordering never changes the conduction function.
      EXPECT_EQ(conduction_function(config, DeviceType::nmos,
                                    max_input_plus_one(shape)),
                conduction_function(shape, DeviceType::nmos,
                                    max_input_plus_one(shape)));
    }
  }
}

}  // namespace
}  // namespace tr::gategraph
