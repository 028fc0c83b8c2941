// Minimal JSON value type for the benchmark telemetry pipeline.
//
// Design constraints (docs/BENCHMARKING.md):
//   * object keys keep insertion order, so serialized reports are stable
//     and diffable run-to-run (std::map would alphabetize them);
//   * non-finite numbers are guarded at emission — NaN/inf serialize as
//     null, never as the invalid tokens `nan`/`inf`;
//   * integral doubles print without a fractional part (nnz counts round-
//     trip as the same token), everything else via max_digits10.
// No external dependency: the container ships no JSON library and the
// bench harness must not grow one.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cscv::util {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;  // null
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(double v) : type_(Type::kNumber), number_(v) {}
  Json(int v) : Json(static_cast<double>(v)) {}
  Json(unsigned v) : Json(static_cast<double>(v)) {}
  Json(long v) : Json(static_cast<double>(v)) {}
  Json(unsigned long v) : Json(static_cast<double>(v)) {}
  Json(long long v) : Json(static_cast<double>(v)) {}
  Json(unsigned long long v) : Json(static_cast<double>(v)) {}
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  Json(const char* s) : Json(std::string(s)) {}

  static Json array() { Json j; j.type_ = Type::kArray; return j; }
  static Json object() { Json j; j.type_ = Type::kObject; return j; }

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }
  [[nodiscard]] bool is_number() const { return type_ == Type::kNumber; }
  [[nodiscard]] bool is_string() const { return type_ == Type::kString; }
  [[nodiscard]] bool is_array() const { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; CSCV_CHECK on type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] std::int64_t as_int() const;  // checked truncation
  [[nodiscard]] const std::string& as_string() const;

  // ---- arrays ----------------------------------------------------------
  void push_back(Json v);
  [[nodiscard]] std::size_t size() const;  // array or object arity
  [[nodiscard]] const Json& at(std::size_t i) const;

  // ---- objects (insertion-ordered) -------------------------------------
  /// Inserts `key` (appending, preserving order) or returns the existing
  /// slot. Turns a null value into an object on first use.
  Json& operator[](std::string_view key);
  /// nullptr when absent (also for non-objects, so lookups chain safely).
  [[nodiscard]] const Json* find(std::string_view key) const;
  /// find() that CSCV_CHECKs presence.
  [[nodiscard]] const Json& at(std::string_view key) const;
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& items() const;
  /// Removes `key` if present; true when something was removed. CSCV_CHECK
  /// on non-objects.
  bool erase(std::string_view key);

  // ---- serialization ---------------------------------------------------
  /// Compact when indent < 0, otherwise pretty-printed with `indent`
  /// spaces per level. Non-finite numbers emit null.
  [[nodiscard]] std::string dump(int indent = -1) const;

  /// Parses a complete JSON document; throws CheckError with position info
  /// on malformed input or trailing garbage.
  static Json parse(std::string_view text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

/// Reads/writes a whole JSON file; CheckError on I/O or parse failure.
Json read_json_file(const std::string& path);
void write_json_file(const std::string& path, const Json& value, int indent = 2);

// ---- strict readers for wire specs (job specs, shard specs) --------------
/// Rejects a key of `obj` outside `allowed`, so a typo ("iteratons") fails
/// loudly instead of silently running defaults. `where` names the object
/// in the CheckError ("job spec", "geometry", ...).
void check_keys(const Json& obj, std::initializer_list<std::string_view> allowed,
                std::string_view where);
/// Optional fields: `def` when `key` is absent, otherwise the value, with a
/// CheckError naming the key on a wrong type. get_int_field also rejects a
/// non-integral value or one outside int.
int get_int_field(const Json& obj, std::string_view key, int def);
double get_double_field(const Json& obj, std::string_view key, double def);
bool get_bool_field(const Json& obj, std::string_view key, bool def);
std::string get_string_field(const Json& obj, std::string_view key, const std::string& def);

}  // namespace cscv::util
