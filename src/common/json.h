#ifndef FELA_COMMON_JSON_H_
#define FELA_COMMON_JSON_H_

#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fela::common {

/// Minimal JSON document model: enough to emit machine-readable bench /
/// trace / metrics artifacts and to parse them back in tests, with no
/// external dependency. Numbers are doubles (the trace-event format and
/// our bench schema never need 64-bit-exact integers); object key order
/// is preserved so emitted files diff stably.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}           // NOLINT
  Json(double n) : type_(Type::kNumber), number_(n) {}     // NOLINT
  Json(int n) : Json(static_cast<double>(n)) {}            // NOLINT
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}  // NOLINT
  Json(const char* s) : Json(std::string(s)) {}            // NOLINT

  static Json Array() { return Json(Type::kArray); }
  static Json Object() { return Json(Type::kObject); }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }

  // -- Array access --------------------------------------------------------
  size_t size() const { return items_.size(); }
  const Json& at(size_t i) const { return items_[i]; }
  const std::vector<Json>& items() const { return items_; }
  void Append(Json value) { items_.push_back(std::move(value)); }

  // -- Object access -------------------------------------------------------
  /// Member lookup; nullptr when absent (or not an object).
  const Json* Find(std::string_view key) const;
  bool Has(std::string_view key) const { return Find(key) != nullptr; }
  /// Sets (or replaces) an object member, preserving first-set order.
  void Set(std::string key, Json value);
  const std::vector<std::pair<std::string, Json>>& members() const {
    return members_;
  }

  /// Recursively re-orders every object's members into sorted key order.
  /// Exporters call this before Dump so emitted artifacts are
  /// byte-identical regardless of member insertion order.
  void SortKeysRecursive();

  /// Serializes; indent < 0 emits compact single-line JSON, otherwise
  /// pretty-prints with that many spaces per level.
  std::string Dump(int indent = -1) const;

  /// Strict-enough recursive-descent parse of a complete JSON document.
  /// Returns false and fills `error` (with a byte offset) on failure.
  static bool Parse(std::string_view text, Json* out, std::string* error);

  /// Appends `s` as a quoted, escaped JSON string literal.
  static void AppendQuoted(std::string* out, std::string_view s);

  /// Appends `n` as Dump prints it: an integral value below 1e15 in
  /// magnitude as an integer, anything else finite as "%.17g" (exact
  /// round trip), and a NaN or infinity as null.
  static void AppendNumber(std::string* out, double n);

 private:
  explicit Json(Type t) : type_(t) {}
  void DumpTo(std::string* out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> items_;                            // kArray
  std::vector<std::pair<std::string, Json>> members_;  // kObject, ordered
  std::map<std::string, size_t, std::less<>> index_;   // key -> members_ slot
};

/// Writes one JSON array or object straight into a string, in exactly
/// the layout Json::Dump(indent) prints, so a large document streams out
/// without a Json tree in between (Dump itself writes through it).
/// Members and items go out in call order; a nested scope from
/// OpenItem/OpenMember must be closed before its parent goes on.
class JsonScope {
 public:
  /// Opens an array ('[') or object ('{') whose brackets sit at nesting
  /// level `depth`; `indent` is Dump's.
  JsonScope(std::string* out, int indent, int depth, char open);

  /// Starts the next array item; the caller appends its value.
  void Item();
  /// Starts the next object member; the caller appends its value.
  void Key(std::string_view key);

  /// One object member with a string or a number value.
  void Member(std::string_view key, std::string_view value);
  void Member(std::string_view key, double value);

  /// The next item, or member `key`, as a nested array or object.
  JsonScope OpenItem(char open);
  JsonScope OpenMember(std::string_view key, char open);

  /// Writes the closing bracket ("[]" / "{}" when nothing was added).
  void Close();

 private:
  std::string* out_;
  int indent_;
  int depth_;
  char close_;
  bool empty_ = true;
};

}  // namespace fela::common

#endif  // FELA_COMMON_JSON_H_
