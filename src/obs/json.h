#ifndef AUTOEM_OBS_JSON_H_
#define AUTOEM_OBS_JSON_H_

#include <cstdio>
#include <string>
#include <string_view>

#include "common/status.h"

namespace autoem {
namespace obs {

/// JSON for the observability outputs and the tools that read them back.
/// Emission is header-only, shared by the log, metrics, and trace sinks.
/// Reading goes through JsonReader (json.cc, compiled into
/// autoem_obs_export), the one parser behind `trace-analyze`, the run
/// report and `bench_compare`.

/// Appends `s` to `*out` with JSON string escaping (quotes, backslash,
/// control characters). Does not add surrounding quotes.
inline void AppendJsonEscaped(std::string* out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

/// `"escaped"` — the quoted JSON string form of `s`.
inline std::string JsonQuote(std::string_view s) {
  std::string out = "\"";
  AppendJsonEscaped(&out, s);
  out += '"';
  return out;
}

/// Renders a double as a JSON number. NaN and infinity are not valid JSON;
/// they are emitted as null.
inline std::string JsonNumber(double v) {
  if (v != v || v > 1.7e308 || v < -1.7e308) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Strict pull reader over one JSON document (RFC 8259). The caller walks
/// the document — enter an object or array, step through its members,
/// read or skip each value — so nothing but the values it asks for is
/// materialized; a multi-megabyte trace streams through in one pass.
///
/// Grammar: whitespace is space, tab, LF and CR only; numbers have no '+',
/// hex, leading zeros or bare '.', and must fit a double (overflow and
/// underflow to zero are errors); strings carry no raw control bytes, and
/// `\u` escapes decode to UTF-8 (a surrogate pair to one code point).
/// Containers nest at most kMaxDepth deep, and skipping is iterative, so no
/// input can exhaust the stack.
///
/// Errors are sticky: the first failure is kept in status() as
/// InvalidArgument("json: <what> at offset <byte>"), and every later call
/// returns false without moving. Loops therefore need no error plumbing:
///
///   reader.BeginObject();
///   while (reader.NextKey(&key)) { ...read or SkipValue()... }
///   reader.End();
///   if (!reader.ok()) return reader.status();
class JsonReader {
 public:
  /// Nesting limit: 64 open containers read, a 65th is an error.
  static constexpr size_t kMaxDepth = 64;

  /// `text` is not copied; it must outlive the reader.
  explicit JsonReader(std::string_view text) : text_(text) {}

  /// First byte of the next value after whitespace, so a caller can branch
  /// on its kind: '{', '[', '"', 't', 'f', 'n', '-' or a digit in valid
  /// input; '\0' at end of input or after an error.
  char Peek();

  /// Enters an object / array; fails on any other value.
  bool BeginObject();
  bool BeginArray();
  /// Steps to the next member of the innermost object: reads its key and
  /// the ':' and returns true, or consumes the '}' and returns false. The
  /// caller must read or skip the member's value before the next call.
  bool NextKey(std::string* key);
  /// Steps to the next element of the innermost array: true when one
  /// follows, false after consuming the ']'.
  bool NextElement();

  bool ReadString(std::string* out);
  bool ReadNumber(double* out);
  /// Skips one value of any kind, checking its grammar.
  bool SkipValue();
  /// Requires that only whitespace remains.
  bool End();

  /// Records `what` at the current offset unless an error is already
  /// recorded; returns false. Callers use it for schema errors too.
  bool Fail(std::string_view what);

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

 private:
  void SkipWhitespace();
  bool Begin(char open, char close);
  bool Next(char close);
  bool ReadEscape(std::string* out);
  bool ReadHex4(unsigned* code);
  bool SkipLiteral();

  std::string_view text_;
  size_t pos_ = 0;
  std::string closers_;  // '}' or ']' per open container, innermost last
  bool first_ = false;   // no member read yet in the innermost container
  std::string scratch_;  // SkipValue's string sink
  Status status_;
};

/// OK when `text` is exactly one JSON value, with whitespace around it only.
Status ValidateJson(std::string_view text);

/// True when `text`, with no whitespace around it, is one JSON number that
/// JsonReader::ReadNumber accepts; stores its value in `*value`.
bool ParseJsonNumber(std::string_view text, double* value);

}  // namespace obs
}  // namespace autoem

#endif  // AUTOEM_OBS_JSON_H_
