#include "common/json.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>

#include "common/string_util.h"

namespace fela::common {

const Json* Json::Find(std::string_view key) const {
  const auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  return &members_[it->second].second;
}

void Json::Set(std::string key, Json value) {
  const auto it = index_.find(key);
  if (it != index_.end()) {
    members_[it->second].second = std::move(value);
    return;
  }
  index_.emplace(key, members_.size());
  members_.emplace_back(std::move(key), std::move(value));
}

void Json::SortKeysRecursive() {
  for (Json& item : items_) item.SortKeysRecursive();
  if (type_ != Type::kObject) return;
  std::sort(members_.begin(), members_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  index_.clear();
  for (size_t i = 0; i < members_.size(); ++i) {
    index_.emplace(members_[i].first, i);
    members_[i].second.SortKeysRecursive();
  }
}

void Json::AppendQuoted(std::string* out, std::string_view s) {
  *out += '"';
  size_t plain = 0;  // start of the run of bytes that need no escape
  for (size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(s.substr(plain, i - plain));
    plain = i + 1;
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
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        *out += "\\u00";
        *out += kHex[c >> 4];
        *out += kHex[c & 0xf];
      }
    }
  }
  out->append(s.substr(plain));
  *out += '"';
}

void Json::AppendNumber(std::string* out, double n) {
  if (!std::isfinite(n)) {
    *out += "null";  // JSON has no Inf/NaN
    return;
  }
  // to_chars prints as "%lld" and "%.17g" do. The range test comes
  // first: casting a double outside long long's range is undefined.
  const bool integral = std::abs(n) < 1e15 &&
                        n == static_cast<double>(static_cast<long long>(n));
  char buf[32];
  const std::to_chars_result r =
      integral ? std::to_chars(buf, buf + sizeof(buf),
                               static_cast<long long>(n))
               : std::to_chars(buf, buf + sizeof(buf), n,
                               std::chars_format::general, 17);
  out->append(buf, r.ptr);
}

void Json::DumpTo(std::string* out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull:
      *out += "null";
      return;
    case Type::kBool:
      *out += bool_ ? "true" : "false";
      return;
    case Type::kNumber:
      AppendNumber(out, number_);
      return;
    case Type::kString:
      AppendQuoted(out, string_);
      return;
    case Type::kArray: {
      JsonScope scope(out, indent, depth, '[');
      for (const Json& item : items_) {
        scope.Item();
        item.DumpTo(out, indent, depth + 1);
      }
      scope.Close();
      return;
    }
    case Type::kObject: {
      JsonScope scope(out, indent, depth, '{');
      for (const auto& [key, value] : members_) {
        scope.Key(key);
        value.DumpTo(out, indent, depth + 1);
      }
      scope.Close();
      return;
    }
  }
}

std::string Json::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0);
  return out;
}

JsonScope::JsonScope(std::string* out, int indent, int depth, char open)
    : out_(out),
      indent_(indent),
      depth_(depth),
      close_(open == '[' ? ']' : '}') {
  *out_ += open;
}

void JsonScope::Item() {
  if (!empty_) *out_ += ',';
  empty_ = false;
  if (indent_ < 0) return;
  *out_ += '\n';
  out_->append(static_cast<size_t>(indent_ * (depth_ + 1)), ' ');
}

void JsonScope::Key(std::string_view key) {
  Item();
  Json::AppendQuoted(out_, key);
  *out_ += indent_ < 0 ? ":" : ": ";
}

void JsonScope::Member(std::string_view key, std::string_view value) {
  Key(key);
  Json::AppendQuoted(out_, value);
}

void JsonScope::Member(std::string_view key, double value) {
  Key(key);
  Json::AppendNumber(out_, value);
}

JsonScope JsonScope::OpenItem(char open) {
  Item();
  return JsonScope(out_, indent_, depth_ + 1, open);
}

JsonScope JsonScope::OpenMember(std::string_view key, char open) {
  Key(key);
  return JsonScope(out_, indent_, depth_ + 1, open);
}

void JsonScope::Close() {
  if (!empty_ && indent_ >= 0) {
    *out_ += '\n';
    out_->append(static_cast<size_t>(indent_ * depth_), ' ');
  }
  *out_ += close_;
}

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  bool Parse(Json* out) {
    SkipWhitespace();
    if (!ParseValue(out, 0)) return false;
    SkipWhitespace();
    if (pos_ != text_.size()) return Fail("trailing characters");
    return true;
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool Fail(const std::string& what) {
    if (error_ != nullptr) {
      *error_ = StrFormat("JSON parse error at offset %zu: %s", pos_,
                          what.c_str());
    }
    return false;
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  bool ParseValue(Json* out, int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    switch (text_[pos_]) {
      case 'n':
        if (!ConsumeLiteral("null")) return Fail("bad literal");
        *out = Json();
        return true;
      case 't':
        if (!ConsumeLiteral("true")) return Fail("bad literal");
        *out = Json(true);
        return true;
      case 'f':
        if (!ConsumeLiteral("false")) return Fail("bad literal");
        *out = Json(false);
        return true;
      case '"': {
        std::string s;
        if (!ParseString(&s)) return false;
        *out = Json(std::move(s));
        return true;
      }
      case '[':
        return ParseArray(out, depth);
      case '{':
        return ParseObject(out, depth);
      default:
        return ParseNumber(out);
    }
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return Fail("expected string");
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("unescaped control character in string");
      }
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) return Fail("bad escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Fail("bad \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs collapse to
          // two 3-byte sequences; good enough for trace details).
          if (code < 0x80) {
            *out += static_cast<char>(code);
          } else if (code < 0x800) {
            *out += static_cast<char>(0xC0 | (code >> 6));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            *out += static_cast<char>(0xE0 | (code >> 12));
            *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return Fail("bad escape");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(Json* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return Fail("bad number");
    *out = Json(value);
    return true;
  }

  bool ParseArray(Json* out, int depth) {
    Consume('[');
    *out = Json::Array();
    SkipWhitespace();
    if (Consume(']')) return true;
    while (true) {
      Json item;
      SkipWhitespace();
      if (!ParseValue(&item, depth + 1)) return false;
      out->Append(std::move(item));
      SkipWhitespace();
      if (Consume(']')) return true;
      if (!Consume(',')) return Fail("expected ',' or ']'");
    }
  }

  bool ParseObject(Json* out, int depth) {
    Consume('{');
    *out = Json::Object();
    SkipWhitespace();
    if (Consume('}')) return true;
    while (true) {
      SkipWhitespace();
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWhitespace();
      if (!Consume(':')) return Fail("expected ':'");
      Json value;
      SkipWhitespace();
      if (!ParseValue(&value, depth + 1)) return false;
      out->Set(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume('}')) return true;
      if (!Consume(',')) return Fail("expected ',' or '}'");
    }
  }

  std::string_view text_;
  std::string* error_;
  size_t pos_ = 0;
};

}  // namespace

bool Json::Parse(std::string_view text, Json* out, std::string* error) {
  return Parser(text, error).Parse(out);
}

}  // namespace fela::common
