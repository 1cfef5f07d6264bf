// Allocation guard for the configuration-scoring kernel (DESIGN.md
// Sec. 7.2): a warm opt::score_catalog call reusing its scratch must not
// touch the heap, on every cell of the standard library. Checks build
// their messages only on failure, so they cost nothing here; the failure
// path must still throw tr::Error with the full message.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "boolfn/minterm_weights.hpp"
#include "celllib/library.hpp"
#include "opt/optimizer.hpp"
#include "util/error.hpp"

// ---------------------------------------------------------------------------
// Allocation counter (the idiom of test_sim_differential.cpp): global
// operator new instrumented, counting gated by a flag so gtest's own
// bookkeeping outside the measured window stays invisible. The nothrow
// form is replaced too (std::stable_sort allocates through it), so every
// block is freed by the allocator that made it, as AddressSanitizer
// checks.
// ---------------------------------------------------------------------------
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<long> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size ? size : 1);
}

void* operator new(std::size_t size) {
  if (void* p = operator new(size, std::nothrow)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace tr::opt {
namespace {

using boolfn::SignalStats;
using celllib::CellLibrary;

TEST(ScoreKernel, WarmScoreCatalogAllocatesNothing) {
  const CellLibrary lib = CellLibrary::standard();
  const celllib::Tech tech;
  ScoreScratch scratch;
  for (const std::string& name : lib.cell_names()) {
    SCOPED_TRACE(name);
    const auto catalog = lib.catalog(lib.cell(name).topology());
    std::vector<SignalStats> inputs;
    for (int i = 0; i < catalog->input_count(); ++i) {
      inputs.push_back(SignalStats{0.2 + 0.1 * i, 0.1 + 0.05 * i});
    }
    for (const power::ModelKind model :
         {power::ModelKind::extended, power::ModelKind::output_only}) {
      const std::vector<double> cold =
          score_catalog(*catalog, inputs, 7e-15, tech, model, scratch);
      g_alloc_count.store(0);
      g_count_allocs.store(true);
      const std::vector<double>& warm =
          score_catalog(*catalog, inputs, 7e-15, tech, model, scratch);
      g_count_allocs.store(false);
      EXPECT_EQ(g_alloc_count.load(), 0) << "warm score_catalog allocated";
      EXPECT_EQ(warm, cold);  // bit-identical, same scratch
    }
  }
}

TEST(ScoreKernel, ArityMismatchStillThrowsWithItsMessage) {
  const boolfn::MintermWeights weights(std::vector<double>{0.5, 0.25});
  try {
    weights.sum(boolfn::TruthTable(3));
    ADD_FAILURE() << "expected tr::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::invalid_argument);
    EXPECT_STREQ(e.what(), "MintermWeights::sum: expected 2 variables, got 3");
  }
}

}  // namespace
}  // namespace tr::opt
