// Json implementation: recursive-descent parser + stable serializer.
#include "util/json.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/assertx.hpp"

namespace cscv::util {

// ---- accessors -----------------------------------------------------------

bool Json::as_bool() const {
  CSCV_CHECK_MSG(type_ == Type::kBool, "json: not a bool");
  return bool_;
}

double Json::as_double() const {
  CSCV_CHECK_MSG(type_ == Type::kNumber, "json: not a number");
  return number_;
}

std::int64_t Json::as_int() const {
  CSCV_CHECK_MSG(type_ == Type::kNumber, "json: not a number");
  // The cast is only defined inside int64: [-2^63, 2^63), both bounds exact.
  CSCV_CHECK_MSG(number_ >= -0x1p63 && number_ < 0x1p63,
                 "json: number " << number_ << " is outside int64");
  const auto i = static_cast<std::int64_t>(number_);
  CSCV_CHECK_MSG(static_cast<double>(i) == number_, "json: number " << number_
                                                    << " is not integral");
  return i;
}

const std::string& Json::as_string() const {
  CSCV_CHECK_MSG(type_ == Type::kString, "json: not a string");
  return string_;
}

void Json::push_back(Json v) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  CSCV_CHECK_MSG(type_ == Type::kArray, "json: push_back on non-array");
  array_.push_back(std::move(v));
}

std::size_t Json::size() const {
  if (type_ == Type::kArray) return array_.size();
  if (type_ == Type::kObject) return object_.size();
  CSCV_CHECK_MSG(false, "json: size() on scalar");
}

const Json& Json::at(std::size_t i) const {
  CSCV_CHECK_MSG(type_ == Type::kArray, "json: index into non-array");
  CSCV_CHECK_MSG(i < array_.size(), "json: index " << i << " out of range");
  return array_[i];
}

Json& Json::operator[](std::string_view key) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  CSCV_CHECK_MSG(type_ == Type::kObject, "json: operator[] on non-object");
  for (auto& [k, v] : object_) {
    if (k == key) return v;
  }
  object_.emplace_back(std::string(key), Json());
  return object_.back().second;
}

const Json* Json::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  const Json* v = find(key);
  CSCV_CHECK_MSG(v != nullptr, "json: missing key \"" << std::string(key) << '"');
  return *v;
}

const std::vector<std::pair<std::string, Json>>& Json::items() const {
  CSCV_CHECK_MSG(type_ == Type::kObject, "json: items() on non-object");
  return object_;
}

bool Json::erase(std::string_view key) {
  CSCV_CHECK_MSG(type_ == Type::kObject, "json: erase() on non-object");
  for (auto it = object_.begin(); it != object_.end(); ++it) {
    if (it->first == key) {
      object_.erase(it);
      return true;
    }
  }
  return false;
}

// ---- serializer ----------------------------------------------------------

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;  // UTF-8 bytes pass through verbatim
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {  // NaN/inf guard: null, never an invalid token
    out += "null";
    return;
  }
  // Integral values within exact-double range print as integers so counts
  // (nnz, bytes) round-trip token-identically.
  if (v == std::floor(v) && std::abs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    out += buf;
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void append_newline_indent(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth), ' ');
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull: out += "null"; return;
    case Type::kBool: out += bool_ ? "true" : "false"; return;
    case Type::kNumber: append_number(out, number_); return;
    case Type::kString: append_escaped(out, string_); return;
    case Type::kArray: {
      if (array_.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i) out += ',';
        append_newline_indent(out, indent, depth + 1);
        array_[i].dump_to(out, indent, depth + 1);
      }
      append_newline_indent(out, indent, depth);
      out += ']';
      return;
    }
    case Type::kObject: {
      if (object_.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i) out += ',';
        append_newline_indent(out, indent, depth + 1);
        append_escaped(out, object_[i].first);
        out += indent < 0 ? ":" : ": ";
        object_[i].second.dump_to(out, indent, depth + 1);
      }
      append_newline_indent(out, indent, depth);
      out += '}';
      return;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

// ---- parser --------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  // Recursion bound: parse_value recurses once per container level, so a
  // hostile document of thousands of '[' would otherwise turn a CheckError
  // situation into a stack overflow. 256 is far beyond any bench report.
  static constexpr int kMaxDepth = 256;

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    CSCV_CHECK_MSG(pos_ == text_.size(), "json: trailing garbage at offset " << pos_);
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    CSCV_CHECK_MSG(false, "json: " << what << " at offset " << pos_);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json parse_value() {
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Json(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Json(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Json();
      default: return parse_number();
    }
  }

  // Enters one container nesting level for the lifetime of the guard.
  class DepthGuard {
   public:
    explicit DepthGuard(Parser& p) : p_(p) {
      if (++p_.depth_ > kMaxDepth) p_.fail("nesting too deep");
    }
    ~DepthGuard() { --p_.depth_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;

   private:
    Parser& p_;
  };

  Json parse_object() {
    const DepthGuard guard(*this);
    expect('{');
    Json obj = Json::object();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      expect(':');
      obj[key] = parse_value();
      const char c = peek();
      ++pos_;
      if (c == '}') return obj;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  Json parse_array() {
    const DepthGuard guard(*this);
    expect('[');
    Json arr = Json::array();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push_back(parse_value());
      const char c = peek();
      ++pos_;
      if (c == ']') return arr;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // Encode the BMP code point as UTF-8 (surrogate pairs are not
          // needed by the bench schema; keep them as-is byte-wise).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  Json parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("bad number");
    return Json(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

Json read_json_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  CSCV_CHECK_MSG(in.good(), "json: cannot open " << path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return Json::parse(ss.str());
}

void write_json_file(const std::string& path, const Json& value, int indent) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  CSCV_CHECK_MSG(out.good(), "json: cannot write " << path);
  out << value.dump(indent) << '\n';
  CSCV_CHECK_MSG(out.good(), "json: write failed for " << path);
}

// ---- strict readers ------------------------------------------------------

void check_keys(const Json& obj, std::initializer_list<std::string_view> allowed,
                std::string_view where) {
  for (const auto& [key, value] : obj.items()) {
    (void)value;
    CSCV_CHECK_MSG(std::find(allowed.begin(), allowed.end(), key) != allowed.end(),
                   where << ": unknown key \"" << key << "\"");
  }
}

int get_int_field(const Json& obj, std::string_view key, int def) {
  const Json* v = obj.find(key);
  if (v == nullptr) return def;
  CSCV_CHECK_MSG(v->is_number(), "\"" << key << "\" must be a number");
  const double d = v->as_double();
  CSCV_CHECK_MSG(std::trunc(d) == d && d >= std::numeric_limits<int>::min() &&
                     d <= std::numeric_limits<int>::max(),
                 "\"" << key << "\" = " << d << " is not an integer in int range");
  return static_cast<int>(d);
}

double get_double_field(const Json& obj, std::string_view key, double def) {
  const Json* v = obj.find(key);
  if (v == nullptr) return def;
  CSCV_CHECK_MSG(v->is_number(), "\"" << key << "\" must be a number");
  return v->as_double();
}

bool get_bool_field(const Json& obj, std::string_view key, bool def) {
  const Json* v = obj.find(key);
  if (v == nullptr) return def;
  CSCV_CHECK_MSG(v->type() == Json::Type::kBool, "\"" << key << "\" must be a bool");
  return v->as_bool();
}

std::string get_string_field(const Json& obj, std::string_view key, const std::string& def) {
  const Json* v = obj.find(key);
  if (v == nullptr) return def;
  CSCV_CHECK_MSG(v->is_string(), "\"" << key << "\" must be a string");
  return v->as_string();
}

}  // namespace cscv::util
