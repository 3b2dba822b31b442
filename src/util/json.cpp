#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/check.hpp"

namespace mantis {

// ---------------------------------------------------------------------------
// JsonWriter

void JsonWriter::separate() {
  if (after_key_) {
    after_key_ = false;  // a member value follows its key directly
    return;
  }
  if (open_.empty()) return;
  Frame& f = open_.back();
  const bool first = f.empty;
  f.empty = false;
  if (f.layout == Layout::kInline) {
    if (!first) out_ += ", ";
    return;
  }
  if (!first) {
    out_ += ',';
  } else if (f.layout == Layout::kHanging) {
    return;
  }
  newline();
}

void JsonWriter::newline() {
  out_ += '\n';
  out_.append(open_.size() * static_cast<std::size_t>(indent_), ' ');
}

void JsonWriter::begin(char open, Layout layout) {
  separate();
  out_ += open;
  open_.push_back({layout});
}

void JsonWriter::end(char close) {
  expects(!open_.empty() && !after_key_, "JsonWriter: unbalanced end");
  const Frame f = open_.back();
  open_.pop_back();
  if (f.layout != Layout::kInline && !f.empty) newline();
  out_ += close;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  value(k);
  out_ += ": ";
  after_key_ = true;
  return *this;
}

void JsonWriter::value(std::string_view s) {
  separate();
  out_ += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\r': out_ += "\\r"; break;
      case '\t': out_ += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out_ += buf;
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
}

void JsonWriter::literal(std::string_view text) {
  separate();
  out_ += text;
}

void JsonWriter::value(double v) {
  if (std::isnan(v) || std::isinf(v)) return literal("0");
  char buf[64];
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return literal(buf);
  }
  // The shortest precision that still reads back as v.
  for (int prec = 1; prec < 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) return literal(buf);
  }
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  literal(buf);
}

void JsonWriter::value(double v, int places) {
  if (std::isnan(v) || std::isinf(v)) return literal("0");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", places, v);
  literal(buf);
}

void JsonWriter::fixed(std::int64_t units, int places) {
  expects(places > 0 && places < 19, "JsonWriter::fixed: places out of range");
  std::uint64_t scale = 1;
  for (int i = 0; i < places; ++i) scale *= 10;
  const std::uint64_t mag = units < 0 ? 0 - static_cast<std::uint64_t>(units)
                                      : static_cast<std::uint64_t>(units);
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%s%llu.%0*llu", units < 0 ? "-" : "",
                static_cast<unsigned long long>(mag / scale), places,
                static_cast<unsigned long long>(mag % scale));
  literal(buf);
}

// ---------------------------------------------------------------------------
// JsonValue and the reader

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::num_or(std::string_view key) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->type == Type::kNumber ? v->number : 0;
}

std::string JsonValue::str_or(std::string_view key) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->type == Type::kString ? v->str : std::string();
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : s_(text) {}

  JsonValue document() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing content");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw UserError("malformed JSON at byte " + std::to_string(pos_) + ": " +
                    why);
  }

  void skip_ws() {
    constexpr std::string_view kSpace = " \t\n\r";
    while (pos_ < s_.size() && kSpace.find(s_[pos_]) != kSpace.npos) ++pos_;
  }

  /// Skips whitespace, then consumes `c` if it comes next.
  bool eat(char c) {
    skip_ws();
    if (pos_ >= s_.size() || s_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  void expect(char c) {
    if (!eat(c)) fail(std::string("expected '") + c + "'");
  }

  JsonValue value() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end");
    JsonValue v;
    switch (s_[pos_]) {
      case '{':
      case '[': return container();
      case '"':
        v.type = JsonValue::Type::kString;
        v.str = string_body();
        return v;
      case 't': return word("true", JsonValue::Type::kBool, true);
      case 'f': return word("false", JsonValue::Type::kBool, false);
      case 'n': return word("null", JsonValue::Type::kNull, false);
      default: return number();
    }
  }

  JsonValue container() {
    if (++depth_ > kJsonMaxDepth) {
      fail("nesting deeper than " + std::to_string(kJsonMaxDepth));
    }
    const bool object = s_[pos_++] == '{';
    const char close = object ? '}' : ']';
    JsonValue v;
    v.type = object ? JsonValue::Type::kObject : JsonValue::Type::kArray;
    if (!eat(close)) {
      do {
        if (object) {
          skip_ws();
          std::string key = string_body();
          expect(':');
          v.members.emplace_back(std::move(key), value());
        } else {
          v.items.push_back(value());
        }
      } while (eat(','));
      expect(close);
    }
    --depth_;
    return v;
  }

  JsonValue word(std::string_view w, JsonValue::Type type, bool b) {
    if (s_.substr(pos_, w.size()) != w) fail("bad literal");
    pos_ += w.size();
    JsonValue v;
    v.type = type;
    v.boolean = b;
    return v;
  }

  /// Consumes a run of decimal digits; false when there is none.
  bool digits() {
    const std::size_t from = pos_;
    while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    return pos_ > from;
  }

  bool eat_any(std::string_view chars) {
    if (pos_ >= s_.size() || chars.find(s_[pos_]) == chars.npos) return false;
    ++pos_;
    return true;
  }

  /// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?, read by std::from_chars
  /// (locale-free, and it never sees "inf", hex or a leading '+').
  JsonValue number() {
    const std::size_t start = pos_;
    eat_any("-");
    if (!eat_any("0") && !digits()) fail("bad number");
    if (eat_any(".") && !digits()) fail("bad number");
    if (eat_any("eE")) {
      eat_any("+-");
      if (!digits()) fail("bad number");
    }
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    const char* first = s_.data() + start;
    if (std::from_chars(first, s_.data() + pos_, v.number).ec != std::errc()) {
      pos_ = start;
      fail("number out of range");
    }
    return v;
  }

  std::string string_body() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("control byte in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) fail("dangling escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': case '\\': case '/': out.push_back(e); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          // The writer escapes only ASCII control bytes; decode the BMP
          // code point as a single byte when it fits, '?' otherwise.
          unsigned cp = 0;
          const char* hex = s_.data() + pos_;
          if (s_.size() - pos_ < 4 ||
              std::from_chars(hex, hex + 4, cp, 16).ptr != hex + 4) {
            fail("\\u escape without four hex digits");
          }
          pos_ += 4;
          out.push_back(cp < 0x80 ? static_cast<char>(cp) : '?');
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) {
  return JsonParser(text).document();
}

}  // namespace mantis
