#include "obs/json.h"

#include <charconv>

namespace autoem {
namespace obs {

namespace {

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

// Length of the RFC 8259 number at the front of `s`, or 0 if there is none:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
size_t ScanNumber(std::string_view s) {
  size_t i = 0;
  auto digits = [&] {
    size_t start = i;
    while (i < s.size() && IsDigit(s[i])) ++i;
    return i > start;
  };
  if (i < s.size() && s[i] == '-') ++i;
  if (i < s.size() && s[i] == '0') {
    ++i;
  } else if (!digits()) {
    return 0;
  }
  if (i < s.size() && s[i] == '.') {
    ++i;
    if (!digits()) return 0;
  }
  if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
    ++i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
    if (!digits()) return 0;
  }
  return i;
}

void AppendUtf8(unsigned code, std::string* out) {
  static constexpr unsigned char kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
  int tail = code < 0x80 ? 0 : code < 0x800 ? 1 : code < 0x10000 ? 2 : 3;
  out->push_back(static_cast<char>(kLead[tail] | (code >> (6 * tail))));
  for (int i = tail - 1; i >= 0; --i) {
    out->push_back(static_cast<char>(0x80 | ((code >> (6 * i)) & 0x3F)));
  }
}

}  // namespace

bool JsonReader::Fail(std::string_view what) {
  if (ok()) {
    status_ = Status::InvalidArgument("json: " + std::string(what) +
                                      " at offset " + std::to_string(pos_));
  }
  return false;
}

void JsonReader::SkipWhitespace() {
  while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                 text_[pos_] == '\n' || text_[pos_] == '\r')) {
    ++pos_;
  }
}

char JsonReader::Peek() {
  if (!ok()) return '\0';
  SkipWhitespace();
  return pos_ < text_.size() ? text_[pos_] : '\0';
}

bool JsonReader::Begin(char open, char close) {
  if (Peek() != open) {
    return Fail(open == '{' ? "expected object" : "expected array");
  }
  if (closers_.size() == kMaxDepth) return Fail("nesting deeper than 64");
  ++pos_;
  closers_.push_back(close);
  first_ = true;
  return true;
}

bool JsonReader::BeginObject() { return Begin('{', '}'); }
bool JsonReader::BeginArray() { return Begin('[', ']'); }

bool JsonReader::Next(char close) {
  if (!ok()) return false;
  if (closers_.empty() || closers_.back() != close) {
    return Fail(close == '}' ? "not inside an object" : "not inside an array");
  }
  char c = Peek();
  if (c == close) {
    ++pos_;
    closers_.pop_back();
    first_ = false;  // the closed container was a member of its parent
    return false;
  }
  if (!first_) {
    if (c != ',') {
      return Fail(close == '}' ? "expected ',' or '}'" : "expected ',' or ']'");
    }
    ++pos_;
  }
  first_ = false;
  return true;
}

bool JsonReader::NextKey(std::string* key) {
  if (!Next('}') || !ReadString(key)) return false;
  if (Peek() != ':') return Fail("expected ':'");
  ++pos_;
  return true;
}

bool JsonReader::NextElement() { return Next(']'); }

bool JsonReader::ReadString(std::string* out) {
  if (Peek() != '"') return Fail("expected string");
  ++pos_;
  out->clear();
  for (;;) {
    size_t run = pos_;
    while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\' &&
           static_cast<unsigned char>(text_[pos_]) >= 0x20) {
      ++pos_;
    }
    out->append(text_.data() + run, pos_ - run);
    if (pos_ >= text_.size()) return Fail("unterminated string");
    char c = text_[pos_];
    if (c == '"') {
      ++pos_;
      return true;
    }
    if (c != '\\') return Fail("raw control byte in string");
    ++pos_;
    if (!ReadEscape(out)) return false;
  }
}

bool JsonReader::ReadEscape(std::string* out) {
  static constexpr std::string_view kEscaped = "\"\\/bfnrt";
  static constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
  if (pos_ >= text_.size()) return Fail("unterminated string");
  char c = text_[pos_++];
  if (size_t i = kEscaped.find(c); i != std::string_view::npos) {
    out->push_back(kDecoded[i]);
    return true;
  }
  if (c != 'u') return Fail("bad escape");
  unsigned code = 0;
  if (!ReadHex4(&code)) return false;
  // A high surrogate escaped right before a low one is a single code point;
  // an unpaired surrogate is kept as its own three-byte sequence.
  unsigned low = 0;
  if (code >= 0xD800 && code < 0xDC00 && text_.substr(pos_, 2) == "\\u") {
    pos_ += 2;
    if (!ReadHex4(&low)) return false;
    if (low >= 0xDC00 && low < 0xE000) {
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    } else {
      pos_ -= 6;  // not a pair: the second escape is read on its own
    }
  }
  AppendUtf8(code, out);
  return true;
}

bool JsonReader::ReadHex4(unsigned* code) {
  const char* hex = text_.data() + pos_;
  if (text_.size() - pos_ < 4 ||
      std::from_chars(hex, hex + 4, *code, 16).ptr != hex + 4) {
    return Fail("bad \\u escape");
  }
  pos_ += 4;
  return true;
}

bool JsonReader::ReadNumber(double* out) {
  Peek();
  if (!ok()) return false;
  size_t len = ScanNumber(text_.substr(pos_));
  if (len == 0) return Fail("expected number");
  if (!ParseJsonNumber(text_.substr(pos_, len), out)) {
    return Fail("number out of range");
  }
  pos_ += len;
  return true;
}

bool JsonReader::SkipLiteral() {
  for (std::string_view literal : {"true", "false", "null"}) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
  }
  return Fail(pos_ < text_.size() ? "unexpected character"
                                  : "unexpected end of input");
}

bool JsonReader::SkipValue() {
  const size_t floor = closers_.size();
  double number = 0;
  do {
    char c = Peek();
    if (c == '{') {
      BeginObject();
    } else if (c == '[') {
      BeginArray();
    } else if (c == '"') {
      ReadString(&scratch_);
    } else if (c == '-' || IsDigit(c)) {
      ReadNumber(&number);
    } else if (ok()) {
      SkipLiteral();
    }
    // Close every container that ends here; stop where the next value is.
    while (ok() && closers_.size() > floor &&
           !(closers_.back() == '}' ? NextKey(&scratch_) : NextElement())) {
    }
  } while (ok() && closers_.size() > floor);
  return ok();
}

bool JsonReader::End() {
  if (Peek() != '\0' || pos_ != text_.size()) return Fail("trailing data");
  return ok();
}

Status ValidateJson(std::string_view text) {
  JsonReader reader(text);
  reader.SkipValue();
  reader.End();
  return reader.status();
}

bool ParseJsonNumber(std::string_view text, double* value) {
  return ScanNumber(text) == text.size() &&
         std::from_chars(text.data(), text.data() + text.size(), *value).ec ==
             std::errc();
}

}  // namespace obs
}  // namespace autoem
