// The one JSON writer and reader of the library. Every artefact — the
// compiled-program JSON, metrics snapshots and bench reports, profile
// reports and both Chrome trace exporters — renders through JsonWriter, and
// every consumer (p4r_inspect prof, the tests) parses through parse_json.
#pragma once

#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mantis {

/// Streaming writer with a fixed layout per container, chosen when it is
/// opened. An empty container prints as {} or [] in every layout. Strings
/// are escaped per RFC 8259 (control bytes as \u00XX); other bytes pass
/// through.
class JsonWriter {
 public:
  enum class Layout {
    /// Each element on its own line, `indent` spaces deeper per level.
    kBlock,
    /// All elements on the opening line, ", "-separated.
    kInline,
    /// Like kBlock, but the first element stays on the opening line (the
    /// arrays of p4::emit_json).
    kHanging,
  };

  explicit JsonWriter(int indent = 2) : indent_(indent) {}

  void begin_object(Layout layout = Layout::kBlock) { begin('{', layout); }
  void begin_array(Layout layout = Layout::kBlock) { begin('[', layout); }
  void end_object() { end('}'); }
  void end_array() { end(']'); }

  /// A member key of the enclosing object; the next value is its value.
  JsonWriter& key(std::string_view k);

  void value(std::string_view s);
  void value(const char* s) { value(std::string_view(s)); }
  template <std::integral T>
  void value(T v) {
    if constexpr (std::same_as<T, bool>) {
      literal(v ? "true" : "false");
    } else {
      literal(std::to_string(v));
    }
  }
  /// Shortest text that reads back as `v`; integral values up to 1e15 print
  /// without a fraction. NaN and infinities print as 0.
  void value(double v);
  /// `v` rounded to `places` fraction digits (printf "%.*f"); NaN and
  /// infinities print as 0.
  void value(double v, int places);
  /// The exact decimal units / 10^places, with all `places` fraction digits
  /// (1005 at 3 places prints 1.005).
  void fixed(std::int64_t units, int places);

  /// key(k), then value(v...).
  template <typename... V>
  JsonWriter& field(std::string_view k, V&&... v) {
    key(k).value(std::forward<V>(v)...);
    return *this;
  }

  /// The document so far; the writer is empty afterwards.
  std::string take() { return std::move(out_); }

 private:
  struct Frame {
    Layout layout;
    bool empty = true;
  };

  void begin(char open, Layout layout);
  void end(char close);
  /// Writes the separator (and newline) that precedes the next element.
  void separate();
  void newline();
  void literal(std::string_view text);

  std::string out_;
  std::vector<Frame> open_;
  int indent_;
  bool after_key_ = false;
};

/// A parsed JSON value. Object members keep document order.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> items;                            ///< kArray
  std::vector<std::pair<std::string, JsonValue>> members;  ///< kObject

  /// The first member named `key`; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;
  /// Member `key`'s number or string; 0 or "" when it is absent or not one.
  double num_or(std::string_view key) const;
  std::string str_or(std::string_view key) const;
};

/// Containers nest at most this deep in a parsed document, far beyond the
/// deepest document the library writes.
inline constexpr int kJsonMaxDepth = 512;

/// Parses one RFC 8259 document. Throws UserError naming the byte offset
/// on malformed text, nesting deeper than kJsonMaxDepth, or a number a
/// double cannot hold.
JsonValue parse_json(std::string_view text);

}  // namespace mantis
