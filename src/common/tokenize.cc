#include "common/tokenize.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <system_error>

#include "common/logging.h"
#include "common/string_util.h"

namespace fela::common {
namespace {

/// Runs one complete printf spec against one value. The spec is built
/// at compile time from vetted pieces, never from user input.
template <typename T>
void AppendPrintf(std::string* out, const std::string& spec, T value) {
  char buf[128];
  const int n = std::snprintf(buf, sizeof(buf), spec.c_str(), value);
  if (n < 0) return;
  if (n < static_cast<int>(sizeof(buf))) {
    out->append(buf, static_cast<size_t>(n));
    return;
  }
  std::string big(static_cast<size_t>(n) + 1, '\0');
  std::snprintf(big.data(), big.size(), spec.c_str(), value);
  big.resize(static_cast<size_t>(n));
  out->append(big);
}

bool IsIntegerConv(char c) {
  return c == 'd' || c == 'i' || c == 'u' || c == 'o' || c == 'x' ||
         c == 'X' || c == 'c';
}

bool IsFloatConv(char c) {
  return c == 'f' || c == 'F' || c == 'e' || c == 'E' || c == 'g' ||
         c == 'G' || c == 'a' || c == 'A';
}

bool IsLengthMod(char c) {
  return c == 'l' || c == 'h' || c == 'z' || c == 'j' || c == 't' || c == 'L';
}

bool IsFlag(char c) {
  return c == '-' || c == '+' || c == ' ' || c == '#' || c == '0';
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

/// One conversion spec split the way printf reads it,
/// %[flags][width][.precision][length]conv, from the '%' at `begin`.
struct SpecParts {
  bool bare = false;  // no flag and no width
  size_t width_digits = 0;
  bool has_precision = false;
  std::string_view precision;  // its digits; none after the '.' means 0
  std::string_view head;       // flags, width and precision as written
  size_t conv = 0;  // index of the conversion letter; fmt.size() if none
};

SpecParts SplitSpec(std::string_view fmt, size_t begin) {
  SpecParts parts;
  size_t j = begin + 1;
  while (j < fmt.size() && IsFlag(fmt[j])) ++j;
  const size_t width = j;
  while (j < fmt.size() && IsDigit(fmt[j])) ++j;
  parts.width_digits = j - width;
  parts.bare = j == begin + 1;
  const size_t dot = j;
  if (j < fmt.size() && fmt[j] == '.') {
    ++j;
    while (j < fmt.size() && IsDigit(fmt[j])) ++j;
  }
  parts.has_precision = j > dot;
  if (parts.has_precision) parts.precision = fmt.substr(dot + 1, j - dot - 1);
  parts.head = fmt.substr(begin + 1, j - begin - 1);
  while (j < fmt.size() && IsLengthMod(fmt[j])) ++j;
  parts.conv = j;
  return parts;
}

std::chars_format FormatOf(char conv) {
  switch (conv) {
    case 'e':
      return std::chars_format::scientific;
    case 'f':
      return std::chars_format::fixed;
    default:
      return std::chars_format::general;
  }
}

}  // namespace

CompiledFormat::CompiledFormat(std::string_view fmt) {
  std::string literal;
  const auto flush = [&] {
    if (literal.empty()) return;
    Piece run;
    run.text = std::move(literal);
    pieces_.push_back(std::move(run));
    literal.clear();
  };
  size_t i = 0;
  while (i < fmt.size()) {
    if (fmt[i] != '%') {
      literal += fmt[i++];
      continue;
    }
    if (i + 1 < fmt.size() && fmt[i + 1] == '%') {
      literal += '%';
      i += 2;
      continue;
    }
    const SpecParts parts = SplitSpec(fmt, i);
    const size_t j = parts.conv;
    if (j >= fmt.size()) {
      literal.append(fmt.substr(i));  // dangling '%...' at the end
      break;
    }
    const char conv = fmt[j];
    const std::string_view written = fmt.substr(i, j - i + 1);
    i = j + 1;
    if (!IsIntegerConv(conv) && !IsFloatConv(conv)) {
      literal.append(written);  // %s/%p/%n: never filled
      continue;
    }
    flush();
    Piece p;
    p.conv = conv;
    p.text = written;
    // The length modifier is dropped because every packed integer
    // re-runs at 64-bit width (same digits for every value the original
    // width could hold).
    p.spec = "%";
    p.spec += parts.head;
    if (conv == 'c') {
      p.spec += 'c';
    } else if (IsIntegerConv(conv)) {
      p.spec += "ll";
      p.spec += conv;
      p.to_chars = parts.bare && !parts.has_precision &&
                   (conv == 'd' || conv == 'i' || conv == 'u');
    } else {
      p.spec += conv;
      // Two digits keep the precision small enough for to_chars's buffer
      // on most values; a larger one goes through snprintf.
      p.to_chars = parts.bare &&
                   (conv == 'e' || conv == 'f' || conv == 'g') &&
                   parts.precision.size() <= 2;
      if (p.to_chars && parts.has_precision) {
        p.precision = 0;
        for (const char d : parts.precision) {
          p.precision = p.precision * 10 + (d - '0');
        }
      }
    }
    pieces_.push_back(std::move(p));
  }
  flush();
}

void CompiledFormat::AppendTo(const TokArgs& args, std::string* out) const {
  // Never read past the four slots, whatever the count claims.
  const int count = std::min<int>(args.count, 4);
  int next_arg = 0;
  for (const Piece& p : pieces_) {
    if (p.conv == 0 || next_arg >= count) {
      // A literal run, or more specs than packed args: the spec shows
      // verbatim.
      out->append(p.text);
      continue;
    }
    const uint64_t bits = args.values[next_arg];
    const TokArgType type = args.type(next_arg);
    ++next_arg;
    if (p.conv == 'c') {
      AppendPrintf(out, p.spec, static_cast<int>(static_cast<int64_t>(bits)));
    } else if (IsIntegerConv(p.conv)) {
      uint64_t value = bits;
      if (type == TokArgType::kDouble) {
        // Converting a NaN or a double outside long long's range is
        // undefined, and no digits would be right: show the spec.
        const double d = std::bit_cast<double>(bits);
        if (!(d >= -0x1p63 && d < 0x1p63)) {
          out->append(p.text);
          continue;
        }
        value = static_cast<uint64_t>(static_cast<long long>(d));
      }
      const bool is_signed = p.conv == 'd' || p.conv == 'i';
      if (p.to_chars) {
        char buf[24];
        const std::to_chars_result r =
            is_signed ? std::to_chars(buf, buf + sizeof(buf),
                                      static_cast<long long>(value))
                      : std::to_chars(buf, buf + sizeof(buf),
                                      static_cast<unsigned long long>(value));
        out->append(buf, r.ptr);
      } else if (is_signed) {
        AppendPrintf(out, p.spec, static_cast<long long>(value));
      } else {
        AppendPrintf(out, p.spec, static_cast<unsigned long long>(value));
      }
    } else {
      double value = 0.0;
      switch (type) {
        case TokArgType::kDouble:
          value = std::bit_cast<double>(bits);
          break;
        case TokArgType::kInt:
          value = static_cast<double>(static_cast<int64_t>(bits));
          break;
        default:
          value = static_cast<double>(bits);
          break;
      }
      if (p.to_chars) {
        // The standard defines this overload as printf's %.<precision>
        // of the same letter. Only a value too wide for the buffer
        // falls through to snprintf.
        char buf[128];
        const std::to_chars_result r = std::to_chars(
            buf, buf + sizeof(buf), value, FormatOf(p.conv), p.precision);
        if (r.ec == std::errc()) {
          out->append(buf, r.ptr);
          continue;
        }
      }
      AppendPrintf(out, p.spec, value);
    }
  }
}

std::string DetokFormat(const std::string& fmt, const TokArgs& args) {
  std::string out;
  CompiledFormat(fmt).AppendTo(args, &out);
  return out;
}

Detokenizer::Detokenizer(const TokenRegistry* registry)
    : registry_(registry != nullptr ? *registry : TokenRegistry::Global()) {}

void Detokenizer::Append(const TokenizedDetail& detail, std::string* out) {
  if (detail.empty()) return;
  auto it = formats_.find(detail.token);
  if (it == formats_.end()) {
    const std::string* fmt = registry_.Find(detail.token);
    // An unknown token compiles to its marker, a literal with no '%'.
    it = formats_
             .emplace(detail.token,
                      CompiledFormat(fmt != nullptr
                                         ? *fmt
                                         : StrFormat("<token %08x?>",
                                                     detail.token)))
             .first;
  }
  it->second.AppendTo(detail.args, out);
}

std::string Detokenize(const TokenizedDetail& detail,
                       const TokenRegistry* registry) {
  std::string out;
  Detokenizer(registry).Append(detail, &out);
  return out;
}

bool TokenRegistry::Register(uint32_t token, std::string_view fmt,
                             std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = entries_.emplace(token, std::string(fmt));
  if (!inserted && it->second != fmt) {
    if (error != nullptr) {
      *error = StrFormat("token %08x collision: \"%s\" vs \"%s\"", token,
                         it->second.c_str(), std::string(fmt).c_str());
    }
    return false;
  }
  return true;
}

const std::string* TokenRegistry::Find(uint32_t token) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(token);
  return it == entries_.end() ? nullptr : &it->second;
}

std::vector<std::pair<uint32_t, std::string>> TokenRegistry::Entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {entries_.begin(), entries_.end()};
}

size_t TokenRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

TokenRegistry& TokenRegistry::Global() {
  static TokenRegistry* registry = new TokenRegistry();
  return *registry;
}

std::string TokenDbCsv(const TokenRegistry& registry) {
  std::string out = "token,fmt\n";
  for (const auto& [token, fmt] : registry.Entries()) {
    out += StrFormat("%08x,\"", token);
    for (const char c : fmt) {
      out += c;
      if (c == '"') out += '"';  // CSV quote doubling
    }
    out += "\"\n";
  }
  return out;
}

bool ValidateTokenFormat(std::string_view fmt, std::string* why) {
  int specs = 0;
  for (size_t i = 0; i < fmt.size(); ++i) {
    if (fmt[i] != '%') continue;
    if (i + 1 < fmt.size() && fmt[i + 1] == '%') {
      ++i;
      continue;
    }
    const SpecParts parts = SplitSpec(fmt, i);
    if (parts.conv >= fmt.size()) {
      *why = "dangling % at end of format";
      return false;
    }
    const char conv = fmt[parts.conv];
    if (conv == 's' || conv == 'p' || conv == 'n') {
      *why = StrFormat(
          "%%%c cannot be tokenized (args are packed numerics); write "
          "the text into the format string itself",
          conv);
      return false;
    }
    if (parts.width_digits > 2 || parts.precision.size() > 2) {
      *why = StrFormat("%%%.*s%c: a width or precision of more than two "
                       "digits",
                       static_cast<int>(parts.head.size()), parts.head.data(),
                       conv);
      return false;
    }
    ++specs;
    i = parts.conv;
  }
  if (specs > 4) {
    *why = StrFormat("%d conversion specs; tokenized details carry at most "
                     "4 args",
                     specs);
    return false;
  }
  return true;
}

bool LoadTokenDbCsv(std::string_view csv, TokenRegistry* registry,
                    std::string* error) {
  size_t i = 0;
  size_t line = 1;
  auto fail = [&](const char* msg) {
    if (error != nullptr) *error = StrFormat("tokens csv line %zu: %s", line,
                                             msg);
    return false;
  };
  while (i < csv.size()) {
    if (csv[i] == '\n') {  // blank line
      ++i;
      ++line;
      continue;
    }
    // Token field: hex digits up to ','; the header row says "token".
    const size_t comma = csv.find(',', i);
    if (comma == std::string_view::npos) return fail("missing ','");
    const std::string_view field = csv.substr(i, comma - i);
    if (field == "token") {
      const size_t eol = csv.find('\n', comma);
      if (eol == std::string_view::npos) return true;  // header only
      i = eol + 1;
      ++line;
      continue;
    }
    uint32_t token = 0;
    if (field.empty() || field.size() > 8) return fail("bad token field");
    for (const char c : field) {
      const int d = std::isdigit(static_cast<unsigned char>(c)) != 0
                        ? c - '0'
                        : (c >= 'a' && c <= 'f' ? c - 'a' + 10 : -1);
      if (d < 0) return fail("bad hex digit in token field");
      token = token * 16 + static_cast<uint32_t>(d);
    }
    const size_t row_line = line;
    size_t p = comma + 1;
    if (p >= csv.size() || csv[p] != '"') return fail("format not quoted");
    ++p;
    std::string fmt;
    bool closed = false;
    while (p < csv.size()) {
      const char c = csv[p];
      if (c == '"') {
        if (p + 1 < csv.size() && csv[p + 1] == '"') {
          fmt += '"';
          p += 2;
          continue;
        }
        ++p;
        closed = true;
        break;
      }
      if (c == '\n') ++line;
      fmt += c;
      ++p;
    }
    if (!closed) return fail("unterminated quoted format");
    if (p < csv.size()) {
      if (csv[p] != '\n') return fail("trailing bytes after quoted format");
      ++p;
      ++line;
    }
    std::string why;
    if (!ValidateTokenFormat(fmt, &why)) {
      if (error != nullptr) {
        *error = StrFormat("tokens csv line %zu: \"%s\": %s", row_line,
                           fmt.c_str(), why.c_str());
      }
      return false;
    }
    std::string reg_error;
    if (!registry->Register(token, fmt, &reg_error)) {
      if (error != nullptr) *error = reg_error;
      return false;
    }
    i = p;
  }
  return true;
}

namespace internal_tokenize {

bool RegisterSiteOrDie(uint32_t token, const char* fmt) {
  std::string error;
  const bool ok = TokenRegistry::Global().Register(token, fmt, &error);
  FELA_CHECK(ok) << error;
  return true;
}

}  // namespace internal_tokenize

}  // namespace fela::common
