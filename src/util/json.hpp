#pragma once
// A minimal streaming JSON writer + strict recursive-descent parser for
// the machine-readable reports the batch driver emits and the requests
// the optimization server accepts (DESIGN.md Sec. 9.3, Sec. 13.2).
//
// Hand-rolled on purpose: the container image carries no JSON library,
// and the golden-file regression layer needs *byte-stable* output — the
// writer therefore fixes every formatting decision (2-space indentation,
// one key per line, no trailing whitespace) and renders doubles with the
// shortest representation that round-trips to the same IEEE-754 value
// (std::to_chars), so equal numbers always serialise to equal bytes.
//
// Non-finite doubles are rendered as `null` by contract: JSON has no
// nan/inf literals, and a server must never stream invalid JSON to a
// client. Report producers keep their rate fields finite by guarding
// zero-elapsed divisions (sim_engine, monte_carlo, percent_reduction),
// so a `null` in a numeric field marks a producer bug — visible, but
// still parseable by every client.
//
// The writer renders into its own buffer — escapes, doubles and integers
// are appended in place, with no temporaries — and hands the buffer to
// the stream in large writes: when the root container closes, whenever
// the buffer passes 64 KiB, and in the destructor (so a writer destroyed
// with its root still open still delivers what it rendered). Bytes
// reach the stream in rendering order either way.
//
// Usage is push-style and validated with assertions, not a DOM:
//
//   JsonWriter w(out);
//   w.begin_object();
//   w.key("name"); w.value("alu2");
//   w.key("gates"); w.value(401);
//   w.key("circuits"); w.begin_array();
//   ... w.end_array();
//   w.end_object();  // emits the final newline

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tr::util {

/// Renders one double as the shortest decimal string that parses back to
/// the identical IEEE-754 value. Non-finite values (which valid reports
/// never contain — see the producer audit above) render as null.
std::string json_double(double value);

/// Escapes a string body per RFC 8259 (quotes, backslash, control chars).
std::string json_escape(std::string_view text);

class JsonWriter {
public:
  /// Writes to `out`; the stream must outlive the writer.
  explicit JsonWriter(std::ostream& out);
  /// Flushes whatever is still buffered.
  ~JsonWriter();

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  /// Containers. end_object / end_array close the innermost container;
  /// closing the outermost container emits a trailing newline.
  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Key of the next value; only valid directly inside an object.
  void key(std::string_view name);

  /// Scalars.
  void value(std::string_view text);
  void value(const char* text) { value(std::string_view(text)); }
  void value(double number);
  void value(std::int64_t number);
  void value(std::uint64_t number);
  void value(int number) { value(static_cast<std::int64_t>(number)); }
  void value(bool flag);
  void null_value();

private:
  enum class Frame { object, array };

  void prepare_value();  ///< comma/newline/indent bookkeeping before a value
  void write_indent();
  void write_string(std::string_view text);  ///< quoted and escaped
  void end_container(char close);
  void flush();  ///< hands the buffer to the stream

  std::ostream* out_;
  std::string buffer_;
  std::vector<Frame> stack_;
  std::vector<bool> has_entries_;  ///< per frame: wrote at least one entry
  bool key_pending_ = false;
};

/// One parsed JSON value (the server's request-side DOM). Numbers keep
/// both the double rendering and, when the lexeme was integral and fits,
/// the exact 64-bit value — a request seed of 2^63 must not round-trip
/// through a double. Object member order is preserved.
struct JsonValue {
  enum class Kind : std::uint8_t { null, boolean, number, string, array, object };

  Kind kind = Kind::null;
  bool boolean = false;
  double number = 0.0;      ///< always set for numbers
  std::int64_t i64 = 0;     ///< exact value when has_i64
  std::uint64_t u64 = 0;    ///< exact value when has_u64
  bool has_i64 = false;     ///< lexeme was integral and fits int64
  bool has_u64 = false;     ///< lexeme was integral, non-negative, fits uint64
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const noexcept { return kind == Kind::null; }

  /// Object member lookup; nullptr when absent (or not an object).
  const JsonValue* find(std::string_view key) const noexcept;

  /// Required object member; throws tr::Error (ErrorCode::parse) naming
  /// `key` when absent (or not an object).
  const JsonValue& at(std::string_view key) const;

  /// Typed accessors; throw tr::Error (invalid_argument) naming `what`
  /// on a kind/range mismatch, so request parsing reports the field.
  bool as_bool(const std::string& what) const;
  double as_double(const std::string& what) const;
  std::int64_t as_i64(const std::string& what) const;
  std::uint64_t as_u64(const std::string& what) const;
  const std::string& as_string(const std::string& what) const;
};

/// Parses one complete JSON document (RFC 8259: objects, arrays,
/// strings with full \uXXXX escapes incl. surrogate pairs, numbers,
/// true/false/null). Strict by design — the wire protocol feeds it
/// untrusted bytes: trailing content, duplicate object keys, unescaped
/// control characters and documents nested deeper than 64 levels are
/// all rejected with tr::Error (ErrorCode::parse, "json: offset N: ...").
/// JSON has no nan/inf literals, so parsed numbers are always finite.
JsonValue json_parse(std::string_view text);

}  // namespace tr::util
