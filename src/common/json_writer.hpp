// The one JSON writer behind every document the tools emit: the stats JSON
// and the gnnaverify report (sim/stats_json.hpp) and, through its two
// primitives `JsonString` and `JsonNumber`, the Chrome trace
// (trace/trace.hpp). sim/json.hpp parses them all back.
//
// Layout: each object or array is opened either one-line
// (`{"a": 1, "b": [2, 3]}`) or one member per line. A member of a
// per-line container starts on its own line, indented 2 spaces per
// enclosing per-line container; the closing bracket goes on its own line
// one level out, except that an empty container closes in place (`[]`).
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace gnna {

/// `os << JsonString{s}` writes `s` as a quoted JSON string literal:
/// quotes, backslashes and control characters escaped, other bytes
/// verbatim.
struct JsonString {
  std::string_view s;
};

inline std::ostream& operator<<(std::ostream& os, JsonString j) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out = "\"";
  for (const char c : j.s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += kHex[c >> 4];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

/// `os << JsonNumber{v}` writes the integer or double `v` in the shortest
/// decimal form that parses back to the same value; `null` for a double
/// that is not finite (JSON has no NaN or infinity).
template <class T>
struct JsonNumber {
  T v;
};

template <class T>
std::ostream& operator<<(std::ostream& os, JsonNumber<T> n) {
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(n.v)) return os << "null";
  }
  char buf[32];  // a double's shortest form is at most 24 characters
  const char* end = std::to_chars(buf, buf + sizeof buf, n.v).ptr;
  return os.write(buf, end - buf);
}

/// Streams JSON values to `os` under the layout rule above.
class JsonWriter {
 public:
  enum class Layout : std::uint8_t { kOneLine, kPerLine };

  explicit JsonWriter(std::ostream& os) : os_(os) {}

  JsonWriter& begin_object(Layout layout = Layout::kOneLine) {
    return open('{', '}', layout);
  }
  JsonWriter& begin_array(Layout layout = Layout::kOneLine) {
    return open('[', ']', layout);
  }
  /// Closes the innermost open object or array.
  JsonWriter& end() {
    const Frame f = frames_.back();
    frames_.pop_back();
    if (f.per_line) {
      --per_line_depth_;
      if (!f.empty) newline();
    }
    os_ << f.close;
    return *this;
  }

  /// Starts an object member; the next value or begin_* call is its value.
  JsonWriter& key(std::string_view k) {
    separate();
    os_ << JsonString{k} << ": ";
    after_key_ = true;
    return *this;
  }

  /// A string (anything convertible to std::string_view), bool, integer or
  /// double.
  template <class T>
  JsonWriter& value(const T& v) {
    separate();
    if constexpr (std::is_same_v<T, bool>) {
      os_ << (v ? "true" : "false");
    } else if constexpr (std::is_arithmetic_v<T>) {
      os_ << JsonNumber<T>{v};
    } else {
      os_ << JsonString{v};
    }
    return *this;
  }

  template <class T>
  JsonWriter& member(std::string_view k, const T& v) {
    return key(k).value(v);
  }

 private:
  struct Frame {
    char close;
    bool per_line;
    bool empty;
  };

  JsonWriter& open(char open, char close, Layout layout) {
    separate();
    os_ << open;
    frames_.push_back({close, layout == Layout::kPerLine, true});
    if (frames_.back().per_line) ++per_line_depth_;
    return *this;
  }
  /// Punctuation before a value or key of the innermost container.
  void separate() {
    if (after_key_ || frames_.empty()) {
      after_key_ = false;
      return;
    }
    Frame& f = frames_.back();
    if (!f.empty) os_ << (f.per_line ? "," : ", ");
    if (f.per_line) newline();
    f.empty = false;
  }
  void newline() {
    os_ << '\n' << std::string(2 * per_line_depth_, ' ');
  }

  std::ostream& os_;
  std::vector<Frame> frames_;
  std::size_t per_line_depth_ = 0;
  bool after_key_ = false;
};

}  // namespace gnna
