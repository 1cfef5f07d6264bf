#include "boolfn/minterm_weights.hpp"

#include <bit>

#include "util/error.hpp"

namespace tr::boolfn {

void MintermWeights::assign(const std::vector<double>& probs) {
  require(probs.size() <= static_cast<std::size_t>(TruthTable::max_vars),
          "MintermWeights: too many variables");
  for (double p : probs) {
    require(p >= 0.0 && p <= 1.0,
            "MintermWeights: probability out of [0,1]");
  }
  var_count_ = static_cast<int>(probs.size());

  // Doubling construction: after step j, low_[m] is the weight of minterm
  // m over variables 0..j.
  const int low_vars = var_count_ < 6 ? var_count_ : 6;
  low_[0] = 1.0;
  for (int j = 0; j < low_vars; ++j) {
    const double p = probs[static_cast<std::size_t>(j)];
    const int half = 1 << j;
    for (int m = 0; m < half; ++m) {
      low_[static_cast<std::size_t>(half + m)] =
          low_[static_cast<std::size_t>(m)] * p;
      low_[static_cast<std::size_t>(m)] *= 1.0 - p;
    }
  }

  // Same construction over the word-index bits (variables >= 6).
  word_factor_.assign(1, 1.0);
  for (int j = 6; j < var_count_; ++j) {
    const double p = probs[static_cast<std::size_t>(j)];
    const std::size_t half = word_factor_.size();
    word_factor_.resize(half * 2);
    for (std::size_t w = 0; w < half; ++w) {
      word_factor_[half + w] = word_factor_[w] * p;
      word_factor_[w] *= 1.0 - p;
    }
  }
}

double MintermWeights::sum(const TruthTable& f) const {
  require(f.var_count() == var_count_, "MintermWeights::sum: expected ",
          var_count_, " variables, got ", f.var_count());
  const std::vector<std::uint64_t>& words = f.words();
  double total = 0.0;
  for (std::size_t wi = 0; wi < words.size(); ++wi) {
    std::uint64_t w = words[wi];
    if (w == 0) continue;
    double word_sum = 0.0;
    while (w != 0) {
      word_sum += low_[static_cast<std::size_t>(std::countr_zero(w))];
      w &= w - 1;
    }
    total += word_factor_[wi] * word_sum;
  }
  return total;
}

}  // namespace tr::boolfn
