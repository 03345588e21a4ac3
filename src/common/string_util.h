#ifndef AUTOEM_COMMON_STRING_UTIL_H_
#define AUTOEM_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace autoem {

/// Lower-cases ASCII characters; non-ASCII bytes pass through unchanged.
std::string ToLower(std::string_view s);

/// Removes leading and trailing ASCII whitespace.
std::string Trim(std::string_view s);

/// Splits on a single character; empty fields are kept.
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits on runs of ASCII whitespace; empty fields are dropped.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins the pieces with `sep` between them.
std::string Join(const std::vector<std::string>& pieces, std::string_view sep);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Parses all of `s` as a strtod number into *out. False (and *out left
/// unchanged) when `s` is empty or any byte is left over, including bytes
/// after an embedded NUL: "12\0abc" is not the number 12.
bool ParseDouble(std::string_view s, double* out);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace autoem

#endif  // AUTOEM_COMMON_STRING_UTIL_H_
