#include "celllib/library.hpp"

#include <algorithm>
#include <utility>

#include "celllib/catalog.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace tr::celllib {

using gategraph::SpNode;

// Copies rebuild the catalog map by walking the copied recency list:
// the stored recency iterators must point into the *new* list
// (recency order is preserved, counters reset).
CellLibrary::CellLibrary(const CellLibrary& rhs)
    : cells_(rhs.cells_), insertion_order_(rhs.insertion_order_) {
  const std::lock_guard<std::mutex> lock(rhs.catalog_mutex_);
  lru_ = rhs.lru_;
  for (auto it = lru_.begin(); it != lru_.end(); ++it) {
    catalogs_.emplace(*it, CatalogEntry{rhs.catalogs_.at(*it).catalog, it});
  }
  slots_ = rhs.slots_;
  catalog_capacity_ = rhs.catalog_capacity_;
}

CellLibrary& CellLibrary::operator=(const CellLibrary& rhs) {
  if (this != &rhs) *this = CellLibrary(rhs);
  return *this;
}

// Moving the std::list transfers its nodes, so the recency iterators
// stored in the moved map stay valid — plain member moves suffice.
CellLibrary::CellLibrary(CellLibrary&& rhs) noexcept
    : cells_(std::move(rhs.cells_)),
      insertion_order_(std::move(rhs.insertion_order_)),
      catalogs_(std::move(rhs.catalogs_)),
      lru_(std::move(rhs.lru_)),
      slots_(std::move(rhs.slots_)),
      catalog_capacity_(rhs.catalog_capacity_) {}

CellLibrary& CellLibrary::operator=(CellLibrary&& rhs) noexcept {
  if (this == &rhs) return *this;
  cells_ = std::move(rhs.cells_);
  insertion_order_ = std::move(rhs.insertion_order_);
  catalogs_ = std::move(rhs.catalogs_);
  lru_ = std::move(rhs.lru_);
  slots_ = std::move(rhs.slots_);
  catalog_capacity_ = rhs.catalog_capacity_;
  cache_stats_ = {};  // counters describe this instance's lookup history
  return *this;
}

namespace {
/// Catalog cache key: the stored structural form of both pull trees, with
/// series AND parallel child order significant. This refines
/// canonical_key (which sorts parallel children away): the reordering
/// enumeration walks the stored tree, so only configurations with equal
/// stored forms are guaranteed the same enumeration order — sharing a
/// catalog across them keeps the fast path's tie-breaking bit-identical
/// to the per-gate reference enumeration. Gates instantiating the same
/// cell share stored forms, so the common case still caches perfectly.
void encode_stored(const SpNode& node, std::string& out) {
  if (node.is_leaf()) {
    out += 'T';
    out += std::to_string(node.input);
    return;
  }
  out += node.kind == SpNode::Kind::series ? "S(" : "P(";
  for (std::size_t i = 0; i < node.children.size(); ++i) {
    if (i > 0) out += ',';
    encode_stored(node.children[i], out);
  }
  out += ')';
}

std::string stored_key(const gategraph::GateTopology& topology) {
  // input_count is part of the key: identical trees declared over
  // different variable universes (trailing vacuous inputs) need catalogs
  // with different table widths.
  std::string key = std::to_string(topology.input_count());
  key += ':';
  encode_stored(topology.nmos(), key);
  key += '|';
  encode_stored(topology.pmos(), key);
  return key;
}
}  // namespace

std::shared_ptr<const ReorderCatalog> CellLibrary::catalog(
    const gategraph::GateTopology& start) const {
  // Before the cache lookup, so a targeted fault fires for its circuit
  // regardless of whether another circuit already populated the key.
  if (util::fault::enabled()) util::fault::check("celllib.characterize");
  const std::string key = stored_key(start);
  const std::lock_guard<std::mutex> lock(catalog_mutex_);
  auto it = catalogs_.find(key);
  if (it == catalogs_.end()) {
    // Build under the lock: concurrent first lookups of the same key must
    // characterise exactly once (the batch driver's cache-sharing
    // contract, DESIGN.md Sec. 9.2); later lookups wait and then hit.
    ++cache_stats_.misses;
    auto built =
        std::make_shared<const ReorderCatalog>(ReorderCatalog::build(start));
    lru_.push_front(key);  // after the build: a throwing build leaves none
    it = catalogs_.emplace(key, CatalogEntry{std::move(built), lru_.begin()})
             .first;
    // Every configuration becomes a catalog_slot key (first holder wins).
    const std::vector<CatalogConfig>& configs = it->second.catalog->configs();
    for (std::size_t i = 0; i < configs.size(); ++i) {
      slots_.try_emplace(stored_key(configs[i].topology),
                         CatalogSlot{it->second.catalog, static_cast<int>(i)});
    }
    // The just-inserted entry sits at the recency front, so a capacity
    // of >= 1 never evicts what this lookup is about to return.
    evict_to_capacity_locked();
  } else {
    ++cache_stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second.lru);
  }
  return it->second.catalog;
}

CatalogSlot CellLibrary::catalog_slot(
    const gategraph::GateTopology& config) const {
  const std::string key = stored_key(config);
  {
    const std::lock_guard<std::mutex> lock(catalog_mutex_);
    if (const auto it = slots_.find(key); it != slots_.end()) return it->second;
  }
  return {catalog(config), 0};
}

void CellLibrary::evict_to_capacity_locked() const {
  if (catalog_capacity_ == 0) return;
  while (catalogs_.size() > catalog_capacity_) {
    const ReorderCatalog* evicted = catalogs_.at(lru_.back()).catalog.get();
    std::erase_if(slots_, [&](const auto& slot) {
      return slot.second.catalog.get() == evicted;
    });
    catalogs_.erase(lru_.back());
    lru_.pop_back();
    ++cache_stats_.evictions;
  }
}

void CellLibrary::set_catalog_capacity(std::size_t capacity) {
  const std::lock_guard<std::mutex> lock(catalog_mutex_);
  catalog_capacity_ = capacity;
  evict_to_capacity_locked();
}

std::size_t CellLibrary::catalog_capacity() const {
  const std::lock_guard<std::mutex> lock(catalog_mutex_);
  return catalog_capacity_;
}

CatalogCacheStats CellLibrary::catalog_cache_stats() const {
  const std::lock_guard<std::mutex> lock(catalog_mutex_);
  return cache_stats_;
}

std::size_t CellLibrary::cached_catalog_count() const {
  const std::lock_guard<std::mutex> lock(catalog_mutex_);
  return catalogs_.size();
}

void CellLibrary::add(Cell cell) {
  require(!cells_.contains(cell.name()), "CellLibrary: duplicate cell name '",
          cell.name(), "'");
  insertion_order_.push_back(cell.name());
  cells_.emplace(cell.name(), std::move(cell));
}

bool CellLibrary::contains(const std::string& name) const {
  return cells_.contains(name);
}

const Cell& CellLibrary::cell(const std::string& name) const {
  const auto it = cells_.find(name);
  require(it != cells_.end(), "CellLibrary: unknown cell '", name, "'");
  return it->second;
}

const Cell* CellLibrary::find(const std::string& name) const {
  const auto it = cells_.find(name);
  return it == cells_.end() ? nullptr : &it->second;
}

std::vector<std::string> CellLibrary::cell_names() const {
  return insertion_order_;
}

namespace {
SpNode T(int i) { return SpNode::transistor(i); }
SpNode S(std::vector<SpNode> c) { return SpNode::series(std::move(c)); }
SpNode P(std::vector<SpNode> c) { return SpNode::parallel(std::move(c)); }

std::vector<std::string> pins(int n) {
  static const char* names[] = {"a", "b", "c", "d", "e", "f"};
  require(n >= 1 && n <= 6, "pins: supported pin counts are 1..6");
  return {names, names + n};
}
}  // namespace

CellLibrary CellLibrary::standard() {
  CellLibrary lib;
  // Single-input and simple stacks.
  lib.add(Cell("inv", pins(1), T(0)));
  lib.add(Cell("nand2", pins(2), S({T(0), T(1)})));
  lib.add(Cell("nand3", pins(3), S({T(0), T(1), T(2)})));
  lib.add(Cell("nand4", pins(4), S({T(0), T(1), T(2), T(3)})));
  lib.add(Cell("nor2", pins(2), P({T(0), T(1)})));
  lib.add(Cell("nor3", pins(3), P({T(0), T(1), T(2)})));
  lib.add(Cell("nor4", pins(4), P({T(0), T(1), T(2), T(3)})));
  // AND-OR-INVERT family: y = !(products summed).
  lib.add(Cell("aoi21", pins(3), P({S({T(0), T(1)}), T(2)})));
  lib.add(Cell("aoi22", pins(4), P({S({T(0), T(1)}), S({T(2), T(3)})})));
  lib.add(Cell("aoi31", pins(4), P({S({T(0), T(1), T(2)}), T(3)})));
  lib.add(Cell("aoi211", pins(4), P({S({T(0), T(1)}), T(2), T(3)})));
  lib.add(Cell("aoi221", pins(5),
               P({S({T(0), T(1)}), S({T(2), T(3)}), T(4)})));
  lib.add(Cell("aoi222", pins(6),
               P({S({T(0), T(1)}), S({T(2), T(3)}), S({T(4), T(5)})})));
  lib.add(Cell("aoi32", pins(5),
               P({S({T(0), T(1), T(2)}), S({T(3), T(4)})})));
  lib.add(Cell("aoi33", pins(6),
               P({S({T(0), T(1), T(2)}), S({T(3), T(4), T(5)})})));
  // OR-AND-INVERT family: y = !(sums multiplied).
  lib.add(Cell("oai21", pins(3), S({P({T(0), T(1)}), T(2)})));
  lib.add(Cell("oai22", pins(4), S({P({T(0), T(1)}), P({T(2), T(3)})})));
  lib.add(Cell("oai31", pins(4), S({P({T(0), T(1), T(2)}), T(3)})));
  lib.add(Cell("oai211", pins(4), S({P({T(0), T(1)}), T(2), T(3)})));
  lib.add(Cell("oai221", pins(5),
               S({P({T(0), T(1)}), P({T(2), T(3)}), T(4)})));
  lib.add(Cell("oai222", pins(6),
               S({P({T(0), T(1)}), P({T(2), T(3)}), P({T(4), T(5)})})));
  lib.add(Cell("oai32", pins(5),
               S({P({T(0), T(1), T(2)}), P({T(3), T(4)})})));
  lib.add(Cell("oai33", pins(6),
               S({P({T(0), T(1), T(2)}), P({T(3), T(4), T(5)})})));
  return lib;
}

std::optional<std::pair<std::string, std::vector<int>>>
CellLibrary::match_function(const boolfn::TruthTable& f) const {
  const std::vector<int> support = f.support();
  const int n = f.var_count();

  for (const std::string& name : insertion_order_) {
    const Cell& cell = cells_.at(name);
    if (cell.input_count() != static_cast<int>(support.size())) continue;

    // Try every assignment of cell pins to the support variables.
    std::vector<int> sigma(support.size());
    for (std::size_t i = 0; i < sigma.size(); ++i) sigma[i] = static_cast<int>(i);
    const boolfn::TruthTable widened = cell.function().widened(n);
    do {
      std::vector<int> perm(static_cast<std::size_t>(n), -1);
      std::vector<bool> used(static_cast<std::size_t>(n), false);
      for (std::size_t j = 0; j < sigma.size(); ++j) {
        const int target = support[static_cast<std::size_t>(sigma[j])];
        perm[j] = target;
        used[static_cast<std::size_t>(target)] = true;
      }
      int next_free = 0;
      for (int j = cell.input_count(); j < n; ++j) {
        while (used[static_cast<std::size_t>(next_free)]) ++next_free;
        perm[static_cast<std::size_t>(j)] = next_free;
        used[static_cast<std::size_t>(next_free)] = true;
      }
      if (widened.permuted(perm) == f) {
        std::vector<int> pin_to_var(sigma.size());
        for (std::size_t j = 0; j < sigma.size(); ++j) {
          pin_to_var[j] = support[static_cast<std::size_t>(sigma[j])];
        }
        return std::make_pair(name, pin_to_var);
      }
    } while (std::next_permutation(sigma.begin(), sigma.end()));
  }
  return std::nullopt;
}

}  // namespace tr::celllib
