#include "util/fault.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <mutex>
#include <new>
#include <stdexcept>

namespace tr::util::fault {
namespace {

struct Config {
  std::string site;
  std::uint64_t nth = 1;
  FaultKind kind = FaultKind::error;
  std::optional<std::string> context;
  std::uint64_t hits = 0;
  bool fired = false;
};

// `armed` is the disarmed-fast-path gate; `config` (guarded by `mu`)
// holds the single active fault. thread_local `current_context` names
// the work unit on this thread for `@context` targeting.
std::atomic<bool> armed{false};
std::mutex mu;
Config config;
thread_local std::string current_context;

[[noreturn]] void throw_kind(FaultKind kind, const std::string& site) {
  switch (kind) {
    case FaultKind::error:
      throw FaultInjected(site);
    case FaultKind::internal:
      throw InternalError("injected internal fault at site '" + site + "'");
    case FaultKind::bad_alloc:
      throw std::bad_alloc();
    case FaultKind::runtime:
      throw std::runtime_error("injected runtime fault at site '" + site +
                               "'");
  }
  throw FaultInjected(site);
}

bool parse_kind(const std::string& text, FaultKind& kind) {
  if (text == "error") {
    kind = FaultKind::error;
  } else if (text == "internal") {
    kind = FaultKind::internal;
  } else if (text == "bad_alloc") {
    kind = FaultKind::bad_alloc;
  } else if (text == "runtime") {
    kind = FaultKind::runtime;
  } else {
    return false;
  }
  return true;
}

void arm(const std::string& site, std::uint64_t nth, FaultKind kind,
         std::optional<std::string> context) {
  const auto& registry = sites();
  require(std::find(registry.begin(), registry.end(), site) != registry.end(),
          "unknown fault site '", site, "'");
  require(nth >= 1, "fault nth must be >= 1");
  std::lock_guard<std::mutex> lock(mu);
  require(!armed.load(std::memory_order_relaxed),
          "a fault is already armed (site '", config.site, "')");
  config = Config{site, nth, kind, std::move(context), 0, false};
  armed.store(true, std::memory_order_relaxed);
}

}  // namespace

const std::vector<std::string>& sites() {
  static const std::vector<std::string> registry = {
      "parse.blif",           "parse.blif_mapped", "parse.verilog",
      "celllib.characterize", "opt.score",         "sim.replicate",
      "batch.circuit",        "server.request",    "util.thread_spawn",
  };
  return registry;
}

bool enabled() noexcept { return armed.load(std::memory_order_relaxed); }

void check(const char* site) {
  if (!enabled()) return;
  FaultKind kind;
  {
    std::lock_guard<std::mutex> lock(mu);
    if (!armed.load(std::memory_order_relaxed)) return;
    if (config.site != site) return;
    if (config.context && *config.context != current_context) return;
    ++config.hits;
    if (config.hits != config.nth || config.fired) return;
    config.fired = true;
    kind = config.kind;
  }
  // Throw outside the lock so the unwinding path can re-enter check().
  throw_kind(kind, site);
}

ScopedContext::ScopedContext(const std::string& context)
    : previous_(std::move(current_context)) {
  current_context = context;
}

ScopedContext::~ScopedContext() { current_context = std::move(previous_); }

ScopedFault::ScopedFault(const std::string& site, std::uint64_t nth,
                         FaultKind kind, std::optional<std::string> context) {
  arm(site, nth, kind, std::move(context));
}

ScopedFault::~ScopedFault() { clear(); }

std::uint64_t ScopedFault::hits() const {
  std::lock_guard<std::mutex> lock(mu);
  return config.hits;
}

bool ScopedFault::fired() const {
  std::lock_guard<std::mutex> lock(mu);
  return config.fired;
}

bool install_from_env() {
  const char* env = std::getenv("TR_FAULT");
  if (env == nullptr || *env == '\0') return false;
  std::string spec = env;

  // site[:nth][:kind][@context]
  std::optional<std::string> context;
  if (auto at = spec.find('@'); at != std::string::npos) {
    context = spec.substr(at + 1);
    spec.resize(at);
  }
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    auto colon = spec.find(':', start);
    parts.push_back(spec.substr(start, colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  require(!parts.empty() && !parts[0].empty(),
          "TR_FAULT: expected site[:nth][:kind][@context], got '", env, "'");

  std::uint64_t nth = 1;
  FaultKind kind = FaultKind::error;
  for (std::size_t i = 1; i < parts.size(); ++i) {
    const std::string& part = parts[i];
    if (!part.empty() &&
        std::all_of(part.begin(), part.end(),
                    [](unsigned char c) { return std::isdigit(c); })) {
      nth = std::stoull(part);
    } else if (!parse_kind(part, kind)) {
      throw Error("TR_FAULT: unknown field '" + part +
                  "' (expected a count or error|internal|bad_alloc|runtime)");
    }
  }
  arm(parts[0], nth, kind, std::move(context));
  return true;
}

void clear() {
  std::lock_guard<std::mutex> lock(mu);
  armed.store(false, std::memory_order_relaxed);
  config = Config{};
}

}  // namespace tr::util::fault
