#include "boolfn/truth_table.hpp"

#include <bit>
#include <utility>

#include "boolfn/minterm_weights.hpp"
#include "util/error.hpp"

namespace tr::boolfn {

namespace {
/// Bit mask of the in-word positions where variable `var` (< 6) is 1.
constexpr std::uint64_t kVarPattern[6] = {
    0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
    0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL};
}  // namespace

TruthTable::TruthTable(int var_count) : var_count_(var_count) {
  require(var_count >= 0 && var_count <= max_vars,
          "TruthTable: var_count out of range [0, ", max_vars, "]: ",
          var_count);
  words_.assign(word_count(), 0);
}

TruthTable TruthTable::zero(int var_count) { return TruthTable(var_count); }

TruthTable TruthTable::one(int var_count) {
  TruthTable t(var_count);
  for (auto& w : t.words_) w = ~0ULL;
  t.mask_tail();
  return t;
}

TruthTable TruthTable::variable(int var_count, int var) {
  require(var >= 0 && var < var_count, "TruthTable::variable: index ", var,
          " out of range for ", var_count, " variables");
  TruthTable t(var_count);
  if (var >= 6) {
    // Whole words alternate in blocks of 2^(var-6).
    const std::uint64_t block = 1ULL << (var - 6);
    for (std::uint64_t w = 0; w < t.word_count(); ++w) {
      if ((w / block) & 1ULL) t.words_[w] = ~0ULL;
    }
  } else {
    // Pattern repeats within each word.
    std::uint64_t pattern = 0;
    for (int bit = 0; bit < 64; ++bit) {
      if ((bit >> var) & 1) pattern |= 1ULL << bit;
    }
    for (auto& w : t.words_) w = pattern;
  }
  t.mask_tail();
  return t;
}

TruthTable TruthTable::from_bits(int var_count, const std::vector<bool>& bits) {
  TruthTable t(var_count);
  require(bits.size() == t.minterm_count(), "TruthTable::from_bits: expected ",
          t.minterm_count(), " bits, got ", bits.size());
  for (std::uint64_t m = 0; m < bits.size(); ++m) {
    if (bits[m]) t.words_[m >> 6] |= 1ULL << (m & 63);
  }
  return t;
}

TruthTable TruthTable::from_cubes(int var_count,
                                  const std::vector<std::string>& cubes) {
  TruthTable result(var_count);
  for (const std::string& cube : cubes) {
    require(static_cast<int>(cube.size()) == var_count,
            "TruthTable::from_cubes: cube '", cube, "' has ", cube.size(),
            " literals, expected ", var_count);
    TruthTable term = one(var_count);
    for (int j = 0; j < var_count; ++j) {
      switch (cube[static_cast<std::size_t>(j)]) {
        case '1': term &= variable(var_count, j); break;
        case '0': term &= ~variable(var_count, j); break;
        case '-': break;
        default:
          throw Error("TruthTable::from_cubes: bad literal '" +
                      std::string(1, cube[static_cast<std::size_t>(j)]) +
                      "' in cube '" + cube + "'");
      }
    }
    result |= term;
  }
  return result;
}

bool TruthTable::is_zero() const noexcept {
  for (auto w : words_) {
    if (w != 0) return false;
  }
  return true;
}

bool TruthTable::is_one() const noexcept { return count_ones() == minterm_count(); }

bool TruthTable::value_at(std::uint64_t minterm) const {
  TR_ASSERT(minterm < minterm_count());
  return (words_[minterm >> 6] >> (minterm & 63)) & 1ULL;
}

std::uint64_t TruthTable::count_ones() const noexcept {
  std::uint64_t total = 0;
  for (auto w : words_) total += static_cast<std::uint64_t>(std::popcount(w));
  return total;
}

bool TruthTable::depends_on(int var) const {
  return !boolean_difference(var).is_zero();
}

std::vector<int> TruthTable::support() const {
  std::vector<int> vars;
  for (int j = 0; j < var_count_; ++j) {
    if (depends_on(j)) vars.push_back(j);
  }
  return vars;
}

TruthTable TruthTable::operator&(const TruthTable& rhs) const {
  TruthTable t(*this);
  t &= rhs;
  return t;
}
TruthTable TruthTable::operator|(const TruthTable& rhs) const {
  TruthTable t(*this);
  t |= rhs;
  return t;
}
TruthTable TruthTable::operator^(const TruthTable& rhs) const {
  TruthTable t(*this);
  t ^= rhs;
  return t;
}

TruthTable TruthTable::operator~() const {
  TruthTable t(*this);
  for (auto& w : t.words_) w = ~w;
  t.mask_tail();
  return t;
}

TruthTable& TruthTable::operator&=(const TruthTable& rhs) {
  require(var_count_ == rhs.var_count_,
          "TruthTable: operands have different variable counts");
  for (std::uint64_t i = 0; i < words_.size(); ++i) words_[i] &= rhs.words_[i];
  return *this;
}
TruthTable& TruthTable::operator|=(const TruthTable& rhs) {
  require(var_count_ == rhs.var_count_,
          "TruthTable: operands have different variable counts");
  for (std::uint64_t i = 0; i < words_.size(); ++i) words_[i] |= rhs.words_[i];
  return *this;
}
TruthTable& TruthTable::operator^=(const TruthTable& rhs) {
  require(var_count_ == rhs.var_count_,
          "TruthTable: operands have different variable counts");
  for (std::uint64_t i = 0; i < words_.size(); ++i) words_[i] ^= rhs.words_[i];
  return *this;
}

bool TruthTable::operator==(const TruthTable& rhs) const {
  return var_count_ == rhs.var_count_ && words_ == rhs.words_;
}

TruthTable TruthTable::cofactor(int var, bool value) const {
  require(var >= 0 && var < var_count_,
          "TruthTable::cofactor: variable index out of range");
  TruthTable t(var_count_);
  if (var < 6) {
    // In-word: copy the selected half onto the other half of every word.
    const int shift = 1 << var;
    const std::uint64_t mask = kVarPattern[var];
    for (std::size_t i = 0; i < words_.size(); ++i) {
      if (value) {
        const std::uint64_t hi = words_[i] & mask;
        t.words_[i] = hi | (hi >> shift);
      } else {
        const std::uint64_t lo = words_[i] & ~mask;
        t.words_[i] = lo | (lo << shift);
      }
    }
    t.mask_tail();
  } else {
    // Whole-word: every word reads its partner with the var bit forced.
    const std::size_t block = 1ULL << (var - 6);
    for (std::size_t i = 0; i < words_.size(); ++i) {
      t.words_[i] = words_[value ? (i | block) : (i & ~block)];
    }
  }
  return t;
}

TruthTable TruthTable::boolean_difference(int var) const {
  return cofactor(var, true) ^ cofactor(var, false);
}

TruthTable TruthTable::exists(int var) const {
  return cofactor(var, true) | cofactor(var, false);
}

TruthTable TruthTable::compose(int var, const TruthTable& g) const {
  require(var_count_ == g.var_count_,
          "TruthTable::compose: operands have different variable counts");
  return (g & cofactor(var, true)) | (~g & cofactor(var, false));
}

TruthTable TruthTable::widened(int new_var_count) const {
  require(new_var_count >= var_count_,
          "TruthTable::widened: cannot shrink the variable universe");
  TruthTable t(new_var_count);
  if (var_count_ >= 6) {
    // Whole words replicate with the old table's period.
    const std::size_t period = words_.size();
    for (std::size_t i = 0; i < t.words_.size(); ++i) {
      t.words_[i] = words_[i % period];
    }
  } else {
    // Replicate the 2^var_count-bit chunk across one word, then copy.
    std::uint64_t pattern = words_.empty() ? 0 : words_[0];
    for (int width = 1 << var_count_; width < 64; width *= 2) {
      pattern |= pattern << width;
    }
    for (auto& w : t.words_) w = pattern;
    t.mask_tail();
  }
  return t;
}

void TruthTable::swap_vars_inplace(int a, int b) {
  if (a == b) return;
  if (a > b) std::swap(a, b);
  if (b < 6) {
    // Delta swap inside each word: positions with var_a=1, var_b=0 trade
    // places with their partner `delta` bits up.
    const int delta = (1 << b) - (1 << a);
    const std::uint64_t mask = kVarPattern[a] & ~kVarPattern[b];
    for (auto& w : words_) {
      const std::uint64_t t = ((w >> delta) ^ w) & mask;
      w ^= t ^ (t << delta);
    }
  } else if (a < 6) {
    // Swap the var_a=1 bits of the var_b=0 word with the var_a=0 bits of
    // its var_b=1 partner word.
    const std::size_t block = 1ULL << (b - 6);
    const int shift = 1 << a;
    const std::uint64_t mask = kVarPattern[a];
    for (std::size_t i = 0; i < words_.size(); ++i) {
      if (i & block) continue;
      std::uint64_t& lo_word = words_[i];
      std::uint64_t& hi_word = words_[i | block];
      const std::uint64_t new_lo =
          (lo_word & ~mask) | ((hi_word & ~mask) << shift);
      const std::uint64_t new_hi =
          (hi_word & mask) | ((lo_word & mask) >> shift);
      lo_word = new_lo;
      hi_word = new_hi;
    }
  } else {
    // Both above the word boundary: swap whole words between block pairs.
    const std::size_t block_a = 1ULL << (a - 6);
    const std::size_t block_b = 1ULL << (b - 6);
    for (std::size_t i = 0; i < words_.size(); ++i) {
      if ((i & block_a) && !(i & block_b)) {
        std::swap(words_[i], words_[(i & ~block_a) | block_b]);
      }
    }
  }
}

TruthTable TruthTable::permute_vars(const std::vector<int>& perm) const {
  require(static_cast<int>(perm.size()) == var_count_,
          "TruthTable::permute_vars: permutation arity mismatch");
  std::vector<bool> seen(static_cast<std::size_t>(var_count_), false);
  for (int p : perm) {
    require(p >= 0 && p < var_count_ && !seen[static_cast<std::size_t>(p)],
            "TruthTable::permute_vars: not a permutation");
    seen[static_cast<std::size_t>(p)] = true;
  }
  TruthTable t(*this);
  // Decompose into variable swaps: `where[j]` tracks the position currently
  // playing the role of old variable j.
  std::vector<int> where(static_cast<std::size_t>(var_count_));
  std::vector<int> occupant(static_cast<std::size_t>(var_count_));
  for (int j = 0; j < var_count_; ++j) {
    where[static_cast<std::size_t>(j)] = j;
    occupant[static_cast<std::size_t>(j)] = j;
  }
  for (int j = 0; j < var_count_; ++j) {
    const int target = perm[static_cast<std::size_t>(j)];
    const int current = where[static_cast<std::size_t>(j)];
    if (current == target) continue;
    t.swap_vars_inplace(current, target);
    const int displaced = occupant[static_cast<std::size_t>(target)];
    std::swap(occupant[static_cast<std::size_t>(current)],
              occupant[static_cast<std::size_t>(target)]);
    where[static_cast<std::size_t>(displaced)] = current;
    where[static_cast<std::size_t>(j)] = target;
  }
  return t;
}

TruthTable TruthTable::compacted(const std::vector<int>& support) const {
  for (int v : support) {
    require(v >= 0 && v < var_count_, "TruthTable::compacted: bad variable");
  }
  for (int j = 0; j < var_count_; ++j) {
    bool kept = false;
    for (int v : support) kept = kept || v == j;
    require(kept || !depends_on(j), "TruthTable::compacted: dropped variable ",
            j, " is not vacuous");
  }
  TruthTable t(static_cast<int>(support.size()));
  const std::uint64_t n = t.minterm_count();
  for (std::uint64_t m = 0; m < n; ++m) {
    std::uint64_t src = 0;
    for (std::size_t i = 0; i < support.size(); ++i) {
      if ((m >> i) & 1ULL) src |= 1ULL << support[i];
    }
    if (value_at(src)) t.words_[m >> 6] |= 1ULL << (m & 63);
  }
  return t;
}

double TruthTable::probability(const std::vector<double>& probs) const {
  require(static_cast<int>(probs.size()) == var_count_,
          "TruthTable::probability: expected ", var_count_,
          " probabilities, got ", probs.size());
  return MintermWeights(probs).sum(*this);
}

std::string TruthTable::to_binary_string() const {
  const std::uint64_t n = minterm_count();
  std::string s;
  s.reserve(n);
  for (std::uint64_t m = 0; m < n; ++m) s += value_at(m) ? '1' : '0';
  return s;
}

void TruthTable::mask_tail() {
  const std::uint64_t n = minterm_count();
  if (n % 64 != 0) {
    words_.back() &= (1ULL << (n % 64)) - 1;
  }
}

}  // namespace tr::boolfn
