#pragma once
// Small string helpers shared by the BLIF parser and report printers.

#include <string>
#include <string_view>
#include <vector>

namespace tr {

/// Splits on any run of the characters in `delims`; no empty tokens.
std::vector<std::string> split(std::string_view text,
                               std::string_view delims = " \t");

/// Removes leading and trailing whitespace.
std::string_view trim(std::string_view text);

/// ASCII lower-casing (cell and net names are ASCII).
std::string to_lower(std::string_view text);

/// True if `text` begins with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// Fixed-point formatting with `digits` decimals (printf %.*f).
std::string format_fixed(double value, int digits);

/// `name` with every character outside [A-Za-z0-9._-] replaced by '_'
/// ("circuit" when empty): safe as one path component.
std::string safe_file_name(std::string_view name);

/// `prefix` followed by the decimal digits of `n` ("a", 3 -> "a3"). Unlike
/// `"a" + std::to_string(n)`, it draws no GCC 12 -Wrestrict false alarm.
std::string numbered(std::string_view prefix, long long n);

/// Joins the items with `sep` between them.
std::string join(const std::vector<std::string>& items, std::string_view sep);

}  // namespace tr
