#pragma once
// The one option schema (DESIGN.md Sec. 13.2): every setting of a run
// is one entry of run_option_table(), and the tr_opt argv parser and
// --help text, the client's request render, the daemon's request parser
// and the checkpoint manifest are all driven by that table. A tool's own
// flags sit in a second table of the same entry type, parsed by the same
// functions.
//
// A wire field and its CLI flag are one word with '_' and '-' swapped;
// only boolean entries may spell their flags explicitly. A value reaches
// an entry's setter as JSON — the request's own value, or the CLI text
// made into one — after the one validator of its kind: a violation is a
// usage error on the CLI and an invalid_argument "request: ..." error on
// the wire.

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "opt/batch.hpp"
#include "util/json.hpp"

namespace tr::opt {

/// One run's settings: a tr_opt batch run or one daemon request.
struct RunOptions {
  std::vector<std::string> circuits;  ///< specs, in argument order
  char scenario = 'A';
  std::uint64_t seed = 1;
  BatchOptions batch;  ///< cancel/progress/journal are wired by the runner
  std::optional<double> deadline_ms;  ///< unset = no deadline
  int priority = 0;                   ///< daemon queue order, higher first
  bool gate_configs = true;           ///< emit the per-gate arrays
  std::string request_id;  ///< daemon idempotency key, empty = none
};

/// The shape of an option's value.
enum class OptionKind : std::uint8_t {
  integer,      ///< an integer within [lo, hi]
  u64,          ///< any unsigned 64-bit integer
  number,       ///< a finite number >= 0
  enumeration,  ///< a name the entry's setter parses
  boolean,      ///< CLI: a bare flag; wire: true/false
  text,         ///< a non-empty string
  circuits,     ///< CLI: positional specs; wire: array of embedded specs
};

/// The declarative half of an entry: everything but the binding.
struct OptionMeta {
  const char* name;  ///< wire field; the CLI flag swaps '_' for '-'
  OptionKind kind;
  const char* hint = "";  ///< --help value placeholder ("N", "A|B")
  std::int64_t lo = 0;    ///< integer: inclusive bounds
  std::int64_t hi = 0;
  bool nullable = false;  ///< number: JSON null = unset (rendered as null)
  bool shapes_output = false;  ///< pinned by the checkpoint manifest
  const char* expects = nullptr;  ///< replaces the derived "must be" phrase
  /// boolean: explicit CLI spellings and the value each sets; none =
  /// "--name" sets true.
  std::array<std::pair<const char*, bool>, 2> cli{};
  const char* help = "";  ///< --help description
};

/// An entry bound to the struct `T` it fills: `set` stores a validated
/// value, `write` renders the field as "name": value (nullptr: never
/// rendered; an empty text renders nothing).
template <class T>
struct OptionSpec {
  OptionMeta meta;
  void (*set)(T&, const util::JsonValue&);
  void (*write)(util::JsonWriter&, const char*, const T&) = nullptr;
};

/// The run options, in --help and rendering order.
std::span<const OptionSpec<RunOptions>> run_option_table();

/// Stores a validated scalar value into a field.
template <class Field>
void assign(Field& field, const util::JsonValue& value) {
  if constexpr (std::is_same_v<Field, bool>) {
    field = value.boolean;
  } else if constexpr (std::is_same_v<Field, std::string>) {
    field = value.string;
  } else if constexpr (std::is_unsigned_v<Field>) {
    field = value.u64;
  } else if constexpr (std::is_integral_v<Field>) {
    // The entry's range validator has already bounded the value.
    field = static_cast<Field>(value.i64);
  } else if constexpr (std::is_same_v<Field, std::optional<double>>) {
    field = value.is_null() ? std::nullopt : std::optional(value.number);
  } else {
    field = value.number;
  }
}

/// Binds `meta` to the field `Field{}(target)` names, where `Field` is a
/// captureless `[](auto& t) -> auto& { return t.member; }`; never
/// rendered.
template <class T, class Field>
constexpr OptionSpec<T> bind(const OptionMeta& meta, Field) {
  return {meta, [](T& target, const util::JsonValue& value) {
            assign(Field{}(target), value);
          }};
}

/// The CLI spellings of an entry: "--" + its name with '_' -> '-', or a
/// boolean's explicit spellings; none for the positional circuits.
std::vector<std::string> cli_flags(const OptionMeta& meta);

/// Parses and validates one CLI value of `meta`'s kind; throws tr::Error
/// (invalid_argument) naming the flag when the validator refuses it.
util::JsonValue parse_cli_value(const OptionMeta& meta, std::string_view text);

/// Matches args[i] against one entry's CLI spellings: on a match,
/// consumes the flag's value (advancing `i`) and returns it validated;
/// throws tr::Error (invalid_argument) for a missing or invalid value.
std::optional<util::JsonValue> match_cli(
    const OptionMeta& meta, std::span<const std::string_view> args,
    std::size_t& i);

/// Stores args[i] into `target` if an entry of `table` claims it;
/// returns false otherwise. Throws like match_cli and the setters.
template <class T>
bool apply_cli_flag(std::span<const OptionSpec<T>> table, T& target,
                    std::span<const std::string_view> args, std::size_t& i) {
  for (const OptionSpec<T>& spec : table) {
    if (const auto value = match_cli(spec.meta, args, i)) {
      spec.set(target, *value);
      return true;
    }
  }
  return false;
}

/// The entry's --help line.
std::string help_line(const OptionMeta& meta);

/// Parses a request document: fields apply in document order (circuits
/// and suite interleave like positional specs and --suite), unknown
/// fields are refused, and circuits must be embedded classics or suite
/// entries — the daemon never reads a request-named file. Throws
/// tr::Error (invalid_argument, "request: ...") on a schema violation
/// and propagates the JSON parser's errors.
RunOptions parse_request(std::string_view json_text);

/// Renders `run` as the request document parse_request reads back.
std::string render_request(const RunOptions& run);

/// Writes the rendered entries of `run` as object members; with
/// `shapes_output_only`, the manifest's fields.
void write_options(util::JsonWriter& w, const RunOptions& run,
                   bool shapes_output_only);

}  // namespace tr::opt
