#include "util/strings.hpp"

#include <cctype>
#include <cstdio>

namespace tr {

std::vector<std::string> split(std::string_view text, std::string_view delims) {
  std::vector<std::string> tokens;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t start = text.find_first_not_of(delims, pos);
    if (start == std::string_view::npos) break;
    std::size_t end = text.find_first_of(delims, start);
    if (end == std::string_view::npos) end = text.size();
    tokens.emplace_back(text.substr(start, end - start));
    pos = end;
  }
  return tokens;
}

std::string_view trim(std::string_view text) {
  const char* ws = " \t\r\n";
  const std::size_t first = text.find_first_not_of(ws);
  if (first == std::string_view::npos) return {};
  const std::size_t last = text.find_last_not_of(ws);
  return text.substr(first, last - first + 1);
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

std::string format_fixed(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

std::string safe_file_name(std::string_view name) {
  std::string out;
  for (const char c : name) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                      c == '.';
    out += safe ? c : '_';
  }
  return out.empty() ? "circuit" : out;
}

std::string numbered(std::string_view prefix, long long n) {
  std::string out(prefix);
  out += std::to_string(n);
  return out;
}

std::string join(const std::vector<std::string>& items, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += sep;
    out += items[i];
  }
  return out;
}

}  // namespace tr
