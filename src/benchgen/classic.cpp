#include "benchgen/classic.hpp"

#include <map>

#include "util/error.hpp"

namespace tr::benchgen {

namespace {

const std::map<std::string, std::string>& registry() {
  static const std::map<std::string, std::string> circuits = {
      {"c17", R"(# ISCAS-85 c17: six 2-input NANDs
.model c17
.inputs g1 g2 g3 g6 g7
.outputs g22 g23
.names g1 g3 g10
0- 1
-0 1
.names g3 g6 g11
0- 1
-0 1
.names g2 g11 g16
0- 1
-0 1
.names g11 g7 g19
0- 1
-0 1
.names g10 g16 g22
0- 1
-0 1
.names g16 g19 g23
0- 1
-0 1
.end
)"},
      {"fulladder", R"(# one-bit full adder
.model fulladder
.inputs a b cin
.outputs sum cout
.names a b cin sum
100 1
010 1
001 1
111 1
.names a b cin cout
11- 1
1-1 1
-11 1
.end
)"},
      {"cmp2", R"(# 2-bit magnitude comparator: gt = (a1a0 > b1b0), eq
.model cmp2
.inputs a1 a0 b1 b0
.outputs gt eq
.names a1 b1 w_gt1
10 1
.names a1 b1 w_eq1
11 1
00 1
.names a0 b0 w_gt0
10 1
.names a0 b0 w_eq0
11 1
00 1
.names w_gt1 w_eq1 w_gt0 gt
1-- 1
-11 1
.names w_eq1 w_eq0 eq
11 1
.end
)"},
      {"dec2to4", R"(# 2-to-4 decoder with enable
.model dec2to4
.inputs en s1 s0
.outputs y0 y1 y2 y3
.names en s1 s0 y0
100 1
.names en s1 s0 y1
101 1
.names en s1 s0 y2
110 1
.names en s1 s0 y3
111 1
.end
)"},
  };
  return circuits;
}

}  // namespace

std::vector<std::string> classic_names() {
  std::vector<std::string> names;
  for (const auto& [name, text] : registry()) names.push_back(name);
  return names;
}

const std::string& classic_blif(const std::string& name) {
  const auto it = registry().find(name);
  require(it != registry().end(), "classic_blif: unknown circuit '", name, "'");
  return it->second;
}

}  // namespace tr::benchgen
