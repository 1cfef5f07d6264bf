#pragma once
// Error handling for the transistor-reordering library.
//
// All recoverable failures (malformed netlists, unknown cells, invalid
// arguments at API boundaries) throw tr::Error. Programming errors inside
// the library use TR_ASSERT, which throws tr::InternalError so that tests
// can exercise failure paths without aborting the process.
//
// Every tr::Error carries a machine-readable ErrorCode and a site chain
// (DESIGN.md Sec. 12.1): boundaries append their site name as the
// exception unwinds, so a containment layer (opt::BatchOptimizer, the
// tr_opt CLI) can report *where* in the pipeline a circuit failed —
// "optimize/score" — without parsing the message. The code, not the C++
// type, is the classification contract: containment layers map codes to
// report fields and exit codes.

#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace tr {

/// Failure classification carried by every tr::Error (DESIGN.md
/// Sec. 12.1). Containment boundaries switch on the code — never on the
/// exception's dynamic type — when building error records and exit
/// codes, so foreign exceptions can be folded into the same taxonomy.
enum class ErrorCode : std::uint8_t {
  invalid_argument,  ///< bad user-supplied data at an API boundary
  parse,             ///< malformed netlist/BLIF/Verilog input
  internal,          ///< violated invariant (library bug, TR_ASSERT)
  cancelled,         ///< cooperative cancellation / deadline exceeded
  fault_injected,    ///< util::fault test harness injection
  resource,          ///< allocation failure (mapped from std::bad_alloc)
  unknown,           ///< foreign exception folded in at a boundary
  disconnect,        ///< peer went away / transport failure (sockets)
};

/// Stable lowercase names, the JSON/report encoding of ErrorCode.
const char* error_code_name(ErrorCode code) noexcept;

/// Retry classification (DESIGN.md Sec. 15.3): true when the same
/// request may legitimately succeed on a later attempt, so a resilient
/// client should back off and retry; false when the failure is a
/// property of the request itself (or a bug) and retrying can only burn
/// time repeating it.
///
///   retryable:      cancelled (the caller's budget, not the input),
///                   resource (allocation/queue pressure is transient),
///                   disconnect (the daemon may come back),
///                   fault_injected (the harness fires on one passage —
///                   chaos drills retry straight through it)
///   not retryable:  invalid_argument, parse (deterministic rejections
///                   of the input), internal (a bug does not heal),
///                   unknown (unclassified — retrying blind is worse
///                   than surfacing it)
constexpr bool is_retryable(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::cancelled:
    case ErrorCode::resource:
    case ErrorCode::disconnect:
    case ErrorCode::fault_injected:
      return true;
    case ErrorCode::invalid_argument:
    case ErrorCode::parse:
    case ErrorCode::internal:
    case ErrorCode::unknown:
      return false;
  }
  return false;
}

/// Base class for all exceptions thrown by the library.
class Error : public std::runtime_error {
public:
  explicit Error(const std::string& what_arg,
                 ErrorCode code = ErrorCode::invalid_argument)
      : std::runtime_error(what_arg), code_(code) {}

  ErrorCode code() const noexcept { return code_; }

  /// Appends a boundary name to the site chain as the exception unwinds
  /// (innermost site first); see with_error_site.
  void add_site(std::string site) { sites_.push_back(std::move(site)); }

  /// The recorded boundary names, innermost first.
  const std::vector<std::string>& sites() const noexcept { return sites_; }

  /// The chain rendered outermost-first as a path ("optimize/score");
  /// empty when no boundary annotated the error.
  std::string site_chain() const {
    std::string chain;
    for (auto it = sites_.rbegin(); it != sites_.rend(); ++it) {
      if (!chain.empty()) chain += '/';
      chain += *it;
    }
    return chain;
  }

private:
  ErrorCode code_;
  std::vector<std::string> sites_;
};

/// Thrown when parsing a netlist/BLIF file fails.
class ParseError : public Error {
public:
  ParseError(const std::string& file, int line, const std::string& message)
      : Error(file + ":" + std::to_string(line) + ": " + message,
              ErrorCode::parse),
        file_(file),
        line_(line) {}

  const std::string& file() const noexcept { return file_; }
  int line() const noexcept { return line_; }

private:
  std::string file_;
  int line_;
};

/// Thrown when an internal invariant is violated (library bug).
class InternalError : public Error {
public:
  explicit InternalError(const std::string& what_arg)
      : Error(what_arg, ErrorCode::internal) {}
};

inline const char* error_code_name(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::invalid_argument:
      return "invalid_argument";
    case ErrorCode::parse:
      return "parse";
    case ErrorCode::internal:
      return "internal";
    case ErrorCode::cancelled:
      return "cancelled";
    case ErrorCode::fault_injected:
      return "fault_injected";
    case ErrorCode::resource:
      return "resource";
    case ErrorCode::unknown:
      return "unknown";
    case ErrorCode::disconnect:
      return "disconnect";
  }
  return "unknown";
}

/// Runs `f()`, appending `site` to the chain of any tr::Error that
/// escapes (rethrown unchanged otherwise). Free on the success path.
template <typename F>
decltype(auto) with_error_site(const char* site, F&& f) {
  try {
    return std::forward<F>(f)();
  } catch (Error& e) {
    e.add_site(site);
    throw;
  }
}

namespace detail {
[[noreturn]] inline void assert_fail(const char* expr,
                                     const std::source_location& loc) {
  throw InternalError(std::string("internal invariant violated: ") + expr +
                      " at " + loc.file_name() + ":" +
                      std::to_string(loc.line()) + " (" +
                      loc.function_name() + ")");
}
}  // namespace detail

/// Checks an internal invariant; throws InternalError when violated.
/// Always enabled (the checks are cheap relative to the algorithms).
#define TR_ASSERT(expr)                                                  \
  do {                                                                   \
    if (!(expr)) {                                                       \
      ::tr::detail::assert_fail(#expr, std::source_location::current()); \
    }                                                                    \
  } while (false)

namespace detail {
inline void append_part(std::string& out, std::string_view part) {
  out += part;
}
inline void append_part(std::string& out, char part) { out += part; }
template <class Number>
  requires std::is_arithmetic_v<Number>
void append_part(std::string& out, Number part) {
  out += std::to_string(part);
}
}  // namespace detail

/// Throws tr::Error if `cond` is false. Used for validating user-supplied
/// data at API boundaries. The message is the concatenation of `parts`
/// (strings, characters, and numbers rendered by std::to_string), built
/// only when the check fails:
///
///   require(var < n, "index ", var, " out of range for ", n, " variables");
///
/// Checks sit on hot paths (the scoring kernel runs millions per batch and
/// must not allocate; DESIGN.md Sec. 7.2), so a message is never built
/// up front: a std::string temporary as a part is a compile error.
template <class... Parts>
void require(bool cond, Parts&&... parts) {
  static_assert(sizeof...(Parts) > 0, "require needs a message");
  static_assert((!std::is_same_v<Parts, std::string> && ...),
                "pass the message's parts, not a string built on every call");
  if (!cond) [[unlikely]] {
    std::string message;
    (detail::append_part(message, parts), ...);
    throw Error(message);
  }
}

}  // namespace tr
