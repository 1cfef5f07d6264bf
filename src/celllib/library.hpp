#pragma once
// The standard cell library of the paper (Table 2): inverter, NAND/NOR
// stacks, and the AOI/OAI complex-gate families, all series-parallel and
// all reorderable. Extended with nand4/nor2/aoi31/oai31/aoi32/oai32/
// aoi33/oai33 so the mapper has a complete 2-to-6 input complex-gate
// family (documented in DESIGN.md Sec. 4.4).

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "celllib/cell.hpp"

namespace tr::celllib {

class ReorderCatalog;

/// A catalog and a configuration's index in it (CellLibrary::catalog_slot).
struct CatalogSlot {
  std::shared_ptr<const ReorderCatalog> catalog;
  int index = 0;
};

/// Cumulative catalog-cache counters (see CellLibrary::catalog). A hit
/// returns an already-built characterisation; a miss pays for one
/// ReorderCatalog::build; an eviction drops the least-recently-used
/// catalog of a capacity-bounded cache (DESIGN.md Sec. 13.4). Counts
/// are monotone over the library's lifetime; batch consumers diff two
/// snapshots to get per-run stats (opt::BatchOptimizer, DESIGN.md
/// Sec. 9.2), the server reports the process-lifetime totals at drain.
struct CatalogCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;

  std::uint64_t lookups() const noexcept { return hits + misses; }
  /// Hits per lookup in [0,1]; 0 when no lookups happened.
  double hit_rate() const noexcept {
    return lookups() == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(lookups());
  }
};

/// An immutable collection of cells indexed by name.
class CellLibrary {
public:
  /// The paper's Table 2 library.
  static CellLibrary standard();

  /// Builds an empty library (for tests).
  CellLibrary() = default;

  /// Copies/moves transfer the cells and the already-built catalogs
  /// (shared, immutable) but never the mutex guarding the cache.
  CellLibrary(const CellLibrary& rhs);
  CellLibrary& operator=(const CellLibrary& rhs);
  CellLibrary(CellLibrary&& rhs) noexcept;
  CellLibrary& operator=(CellLibrary&& rhs) noexcept;

  /// Adds a cell; rejects duplicate names.
  void add(Cell cell);

  bool contains(const std::string& name) const;
  /// Throws tr::Error for unknown names.
  const Cell& cell(const std::string& name) const;
  /// Returns nullptr for unknown names.
  const Cell* find(const std::string& name) const;

  std::vector<std::string> cell_names() const;
  std::size_t size() const noexcept { return cells_.size(); }

  /// Finds a cell and an input permutation realising `f`:
  /// returns (cell name, perm) such that
  /// cell.function().permuted(perm) == f widened to f.var_count().
  /// perm[cell_pin] = function variable index. Only cells whose input
  /// count equals |support(f)| are considered. nullopt if no match.
  std::optional<std::pair<std::string, std::vector<int>>> match_function(
      const boolfn::TruthTable& f) const;

  /// Reordering catalog for the configuration `start`, built on first
  /// request and cached by the topology's stored structural key, so every
  /// gate of a netlist instantiating the same cell in the same
  /// configuration (the common case in mapped netlists) shares one
  /// characterisation. Thread-safe; the returned catalog is immutable and
  /// outlives the library via shared ownership.
  std::shared_ptr<const ReorderCatalog> catalog(
      const gategraph::GateTopology& start) const;

  /// Where `config` is characterised. Each built catalog registers every
  /// configuration's stored key (the first to register a key keeps it;
  /// eviction drops them), so what optimize() commits resolves without a
  /// build, counter or recency update; any other key falls back to
  /// catalog(config), index 0. Thread-safe.
  CatalogSlot catalog_slot(const gategraph::GateTopology& config) const;

  /// Snapshot of the cumulative catalog-cache counters. Thread-safe.
  /// Copies/moves reset the copy's counters to zero (they describe this
  /// instance's lookup history, not the transferred catalogs).
  CatalogCacheStats catalog_cache_stats() const;

  /// Number of distinct structural forms currently cached. Thread-safe.
  std::size_t cached_catalog_count() const;

  /// Bounds the catalog cache to `capacity` entries, evicting the
  /// least-recently-used catalogs immediately if it is already over.
  /// 0 (the default) means unbounded — the batch driver's behaviour,
  /// where the library itself bounds the number of structural forms.
  /// A long-running server sets a finite capacity so an adversarial
  /// request stream of novel forms cannot grow the process without
  /// bound. Eviction only drops the cache entry; in-flight users keep
  /// their catalogs alive through shared ownership, and a re-request
  /// rebuilds deterministically (a miss, never a wrong answer).
  /// Thread-safe.
  void set_catalog_capacity(std::size_t capacity);

  /// The current capacity bound; 0 = unbounded. Thread-safe.
  std::size_t catalog_capacity() const;

private:
  struct CatalogEntry {
    std::shared_ptr<const ReorderCatalog> catalog;
    /// Position in lru_; kept valid by std::list's iterator stability.
    std::list<std::string>::iterator lru;
  };

  /// Drops LRU entries, and the slots their catalogs registered, until
  /// the cache fits the capacity bound. Caller holds catalog_mutex_.
  void evict_to_capacity_locked() const;

  std::map<std::string, Cell> cells_;
  std::vector<std::string> insertion_order_;
  /// Lazily built reordering catalogs, keyed by stored structural form,
  /// with an LRU recency list (front = most recent) for the optional
  /// capacity bound.
  mutable std::mutex catalog_mutex_;
  mutable std::map<std::string, CatalogEntry> catalogs_;
  mutable std::list<std::string> lru_;
  mutable std::map<std::string, CatalogSlot> slots_;  ///< by stored key
  mutable std::size_t catalog_capacity_ = 0;  ///< 0 = unbounded
  mutable CatalogCacheStats cache_stats_;
};

}  // namespace tr::celllib
