#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <ostream>

#include "util/error.hpp"

namespace tr::util {

namespace {

/// Flush threshold of JsonWriter's buffer.
constexpr std::size_t k_flush_bytes = 64 * 1024;

void append_double(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buffer[64];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  TR_ASSERT(ec == std::errc());
  out.append(buffer, end);
}

template <class Int>
void append_integer(std::string& out, Int value) {
  char buffer[24];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  TR_ASSERT(ec == std::errc());
  out.append(buffer, end);
}

void append_escaped(std::string& out, std::string_view text) {
  static constexpr char hex[] = "0123456789abcdef";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += hex[static_cast<unsigned char>(c) >> 4];
          out += hex[static_cast<unsigned char>(c) & 0xf];
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

std::string json_double(double value) {
  std::string text;
  append_double(text, value);
  return text;
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  append_escaped(out, text);
  return out;
}

JsonWriter::JsonWriter(std::ostream& out) : out_(&out) {}

JsonWriter::~JsonWriter() { flush(); }

void JsonWriter::flush() {
  out_->write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
  buffer_.clear();
}

void JsonWriter::write_indent() {
  buffer_.append(2 * stack_.size(), ' ');
}

void JsonWriter::write_string(std::string_view text) {
  buffer_ += '"';
  append_escaped(buffer_, text);
  buffer_ += '"';
}

void JsonWriter::prepare_value() {
  if (buffer_.size() >= k_flush_bytes) flush();
  if (stack_.empty()) return;  // root value
  if (key_pending_) {
    key_pending_ = false;
    return;  // the key already wrote the separator and indent
  }
  TR_ASSERT(stack_.back() == Frame::array);
  if (has_entries_.back()) buffer_ += ',';
  buffer_ += '\n';
  write_indent();
  has_entries_.back() = true;
}

void JsonWriter::key(std::string_view name) {
  TR_ASSERT(!stack_.empty() && stack_.back() == Frame::object);
  TR_ASSERT(!key_pending_);
  if (buffer_.size() >= k_flush_bytes) flush();
  if (has_entries_.back()) buffer_ += ',';
  buffer_ += '\n';
  write_indent();
  write_string(name);
  buffer_ += ": ";
  has_entries_.back() = true;
  key_pending_ = true;
}

void JsonWriter::begin_object() {
  prepare_value();
  buffer_ += '{';
  stack_.push_back(Frame::object);
  has_entries_.push_back(false);
}

void JsonWriter::end_object() {
  TR_ASSERT(!stack_.empty() && stack_.back() == Frame::object);
  end_container('}');
}

void JsonWriter::begin_array() {
  prepare_value();
  buffer_ += '[';
  stack_.push_back(Frame::array);
  has_entries_.push_back(false);
}

void JsonWriter::end_array() {
  TR_ASSERT(!stack_.empty() && stack_.back() == Frame::array);
  end_container(']');
}

void JsonWriter::end_container(char close) {
  TR_ASSERT(!key_pending_);
  const bool had_entries = has_entries_.back();
  stack_.pop_back();
  has_entries_.pop_back();
  if (had_entries) {
    buffer_ += '\n';
    write_indent();
  }
  buffer_ += close;
  if (stack_.empty()) {
    buffer_ += '\n';
    flush();
  }
}

void JsonWriter::value(std::string_view text) {
  prepare_value();
  write_string(text);
}

void JsonWriter::value(double number) {
  prepare_value();
  append_double(buffer_, number);
}

void JsonWriter::value(std::int64_t number) {
  prepare_value();
  append_integer(buffer_, number);
}

void JsonWriter::value(std::uint64_t number) {
  prepare_value();
  append_integer(buffer_, number);
}

void JsonWriter::value(bool flag) {
  prepare_value();
  buffer_ += flag ? "true" : "false";
}

void JsonWriter::null_value() {
  prepare_value();
  buffer_ += "null";
}

// ---------------------------------------------------------------------------
// Parser

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (kind != Kind::object) return nullptr;
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* value = find(key);
  if (value == nullptr) {
    throw Error("json: missing field '" + std::string(key) + "'",
                ErrorCode::parse);
  }
  return *value;
}

bool JsonValue::as_bool(const std::string& what) const {
  require(kind == Kind::boolean, what, " must be true or false");
  return boolean;
}

double JsonValue::as_double(const std::string& what) const {
  require(kind == Kind::number, what, " must be a number");
  return number;
}

std::int64_t JsonValue::as_i64(const std::string& what) const {
  require(kind == Kind::number && has_i64, what, " must be an integer");
  return i64;
}

std::uint64_t JsonValue::as_u64(const std::string& what) const {
  require(kind == Kind::number && has_u64, what,
          " must be a non-negative integer");
  return u64;
}

const std::string& JsonValue::as_string(const std::string& what) const {
  require(kind == Kind::string, what, " must be a string");
  return string;
}

namespace {

/// Recursive-descent parser over a bounded view. Offsets in diagnostics
/// are byte offsets into the document, stable enough to pin in tests.
class JsonParser {
public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing content after JSON document");
    return value;
  }

private:
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& message) const {
    throw Error("json: offset " + std::to_string(pos_) + ": " + message,
                ErrorCode::parse);
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    skip_whitespace();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "', got '" + text_[pos_] + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value() {
    if (++depth_ > kMaxDepth) fail("document nested deeper than 64 levels");
    const char c = peek();
    JsonValue value;
    switch (c) {
      case '{': value = parse_object(); break;
      case '[': value = parse_array(); break;
      case '"':
        value.kind = JsonValue::Kind::string;
        value.string = parse_string();
        break;
      case 't':
        if (!consume_literal("true")) fail("expected a JSON value");
        value.kind = JsonValue::Kind::boolean;
        value.boolean = true;
        break;
      case 'f':
        if (!consume_literal("false")) fail("expected a JSON value");
        value.kind = JsonValue::Kind::boolean;
        value.boolean = false;
        break;
      case 'n':
        if (!consume_literal("null")) fail("expected a JSON value");
        value.kind = JsonValue::Kind::null;
        break;
      default:
        if (c == '-' || (c >= '0' && c <= '9')) {
          value = parse_number();
        } else {
          fail("expected a JSON value");
        }
    }
    --depth_;
    return value;
  }

  JsonValue parse_object() {
    JsonValue value;
    value.kind = JsonValue::Kind::object;
    expect('{');
    if (peek() == '}') {
      ++pos_;
      return value;
    }
    for (;;) {
      if (peek() != '"') fail("expected an object key string");
      std::string key = parse_string();
      for (const auto& [existing, ignored] : value.object) {
        if (existing == key) fail("duplicate object key '" + key + "'");
      }
      expect(':');
      value.object.emplace_back(std::move(key), parse_value());
      const char next = peek();
      ++pos_;
      if (next == '}') return value;
      if (next != ',') fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    JsonValue value;
    value.kind = JsonValue::Kind::array;
    expect('[');
    if (peek() == ']') {
      ++pos_;
      return value;
    }
    for (;;) {
      value.array.push_back(parse_value());
      const char next = peek();
      ++pos_;
      if (next == ']') return value;
      if (next != ',') fail("expected ',' or ']' in array");
    }
  }

  unsigned parse_hex4() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) fail("unexpected end of input in \\u escape");
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid hex digit in \\u escape");
      }
    }
    return code;
  }

  void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape sequence");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = parse_hex4();
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: require the paired low surrogate.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              fail("unpaired UTF-16 surrogate in \\u escape");
            }
            pos_ += 2;
            const unsigned low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF) {
              fail("unpaired UTF-16 surrogate in \\u escape");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("unpaired UTF-16 surrogate in \\u escape");
          }
          append_utf8(out, code);
          break;
        }
        default:
          fail("invalid escape sequence");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() ||
        !(text_[pos_] >= '0' && text_[pos_] <= '9')) {
      pos_ = start;
      fail("invalid number");
    }
    // Leading zeros are invalid JSON ("01"), a single zero is fine.
    if (text_[pos_] == '0' && pos_ + 1 < text_.size() &&
        text_[pos_ + 1] >= '0' && text_[pos_ + 1] <= '9') {
      fail("invalid number (leading zero)");
    }
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      if (pos_ >= text_.size() ||
          !(text_[pos_] >= '0' && text_[pos_] <= '9')) {
        fail("invalid number (missing fraction digits)");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !(text_[pos_] >= '0' && text_[pos_] <= '9')) {
        fail("invalid number (missing exponent digits)");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }

    const std::string_view lexeme = text_.substr(start, pos_ - start);
    JsonValue value;
    value.kind = JsonValue::Kind::number;
    {
      const auto [end, ec] = std::from_chars(
          lexeme.data(), lexeme.data() + lexeme.size(), value.number);
      if (ec != std::errc() || end != lexeme.data() + lexeme.size()) {
        // from_chars overflows to ERANGE for huge exponents; JSON allows
        // them but a request surface has no use for 1e999.
        fail("number out of double range");
      }
    }
    if (integral) {
      {
        std::int64_t parsed = 0;
        const auto [end, ec] = std::from_chars(
            lexeme.data(), lexeme.data() + lexeme.size(), parsed);
        if (ec == std::errc() && end == lexeme.data() + lexeme.size()) {
          value.i64 = parsed;
          value.has_i64 = true;
        }
      }
      if (lexeme.front() != '-') {
        std::uint64_t parsed = 0;
        const auto [end, ec] = std::from_chars(
            lexeme.data(), lexeme.data() + lexeme.size(), parsed);
        if (ec == std::errc() && end == lexeme.data() + lexeme.size()) {
          value.u64 = parsed;
          value.has_u64 = true;
        }
      }
    }
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

JsonValue json_parse(std::string_view text) {
  return JsonParser(text).parse_document();
}

}  // namespace tr::util
