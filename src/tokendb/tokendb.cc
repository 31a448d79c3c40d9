#include "tokendb/tokendb.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/string_util.h"
#include "lint/lexer.h"

namespace fela::tokendb {

namespace {

int LineOfOffset(const std::string& src, size_t offset) {
  return 1 + static_cast<int>(
                 std::count(src.begin(), src.begin() + offset, '\n'));
}

size_t SkipWhitespace(const std::string& src, size_t pos) {
  while (pos < src.size() &&
         std::isspace(static_cast<unsigned char>(src[pos]))) {
    ++pos;
  }
  return pos;
}

bool IsHex(char c) { return std::isxdigit(static_cast<unsigned char>(c)); }
bool IsOctal(char c) { return c >= '0' && c <= '7'; }

/// Parses one "..." literal starting at the opening quote, appending
/// the unescaped contents. On success *pos is one past the closing
/// quote.
bool ParseOneLiteral(const std::string& src, size_t* pos, std::string* out,
                     std::string* why) {
  size_t i = *pos + 1;  // past the opening quote
  while (i < src.size() && src[i] != '"') {
    if (src[i] != '\\') {
      if (src[i] == '\n') {
        *why = "unterminated string literal";
        return false;
      }
      out->push_back(src[i++]);
      continue;
    }
    if (i + 1 >= src.size()) {
      *why = "dangling backslash";
      return false;
    }
    const char e = src[++i];
    ++i;
    switch (e) {
      case '\\': out->push_back('\\'); break;
      case '"': out->push_back('"'); break;
      case '\'': out->push_back('\''); break;
      case 'n': out->push_back('\n'); break;
      case 't': out->push_back('\t'); break;
      case 'r': out->push_back('\r'); break;
      case 'a': out->push_back('\a'); break;
      case 'b': out->push_back('\b'); break;
      case 'f': out->push_back('\f'); break;
      case 'v': out->push_back('\v'); break;
      case '0': out->push_back('\0'); break;
      case 'x': {
        int v = 0, digits = 0;
        while (i < src.size() && IsHex(src[i]) && digits < 2) {
          v = v * 16 + (std::isdigit(static_cast<unsigned char>(src[i]))
                            ? src[i] - '0'
                            : (std::tolower(src[i]) - 'a' + 10));
          ++i;
          ++digits;
        }
        if (digits == 0) {
          *why = "\\x with no hex digits";
          return false;
        }
        out->push_back(static_cast<char>(v));
        break;
      }
      default:
        if (IsOctal(e)) {
          int v = e - '0', digits = 1;
          while (i < src.size() && IsOctal(src[i]) && digits < 3) {
            v = v * 8 + (src[i] - '0');
            ++i;
            ++digits;
          }
          out->push_back(static_cast<char>(v));
          break;
        }
        *why = common::StrFormat("unsupported escape \\%c", e);
        return false;
    }
  }
  if (i >= src.size()) {
    *why = "unterminated string literal";
    return false;
  }
  *pos = i + 1;
  return true;
}

}  // namespace

bool ExtractTokenFmts(const std::string& path, const std::string& source,
                      std::vector<TokenSite>* out, std::string* error) {
  // The shared lexer's comment-blanking view: comments gone, string
  // literals intact, so FELA_TOK examples in doc comments never reach
  // the scanner but real format literals do.
  const std::string src = lint::StripComments(source);
  size_t pos = 0;
  while (pos < src.size()) {
    // Walk code skipping string/char literal contents, so a FELA_TOK
    // spelled inside a quoted string (lint fixtures, scanner tests)
    // is never mistaken for a real site.
    if (src[pos] == '"' || src[pos] == '\'') {
      const char quote = src[pos];
      ++pos;
      while (pos < src.size() && src[pos] != quote) {
        pos += src[pos] == '\\' ? 2 : 1;
      }
      if (pos < src.size()) ++pos;  // past the closing quote
      continue;
    }
    if (src.compare(pos, 8, "FELA_TOK") != 0) {
      ++pos;
      continue;
    }
    const size_t site = pos;
    pos += 8;  // past "FELA_TOK"
    // Must be the exact identifier, not a prefix of a longer one.
    if (site > 0 && (std::isalnum(static_cast<unsigned char>(src[site - 1])) ||
                     src[site - 1] == '_')) {
      continue;
    }
    if (pos < src.size() &&
        (std::isalnum(static_cast<unsigned char>(src[pos])) ||
         src[pos] == '_')) {
      continue;
    }
    size_t p = SkipWhitespace(src, pos);
    if (p >= src.size() || src[p] != '(') continue;  // e.g. prose mention
    p = SkipWhitespace(src, p + 1);
    if (p >= src.size() || src[p] != '"') {
      // The macro's own definition (`FELA_TOK(fmt)`) lands here; any
      // other non-literal argument defeats compile-time hashing.
      if (p < src.size() && src.compare(p, 4, "fmt)") == 0) continue;
      if (error != nullptr) {
        *error = common::StrFormat(
            "%s:%d: FELA_TOK argument must be a string literal",
            path.c_str(), LineOfOffset(src, site));
      }
      return false;
    }
    std::string fmt;
    std::string why;
    // Adjacent literals ("a" "b") concatenate, as in C++.
    while (p < src.size() && src[p] == '"') {
      if (!ParseOneLiteral(src, &p, &fmt, &why)) {
        if (error != nullptr) {
          *error = common::StrFormat("%s:%d: %s", path.c_str(),
                                     LineOfOffset(src, site), why.c_str());
        }
        return false;
      }
      p = SkipWhitespace(src, p);
    }
    if (p >= src.size() || src[p] != ')') {
      if (error != nullptr) {
        *error = common::StrFormat(
            "%s:%d: FELA_TOK takes exactly one string literal",
            path.c_str(), LineOfOffset(src, site));
      }
      return false;
    }
    if (!common::ValidateTokenFormat(fmt, &why)) {
      if (error != nullptr) {
        *error = common::StrFormat("%s:%d: \"%s\": %s", path.c_str(),
                                   LineOfOffset(src, site), fmt.c_str(),
                                   why.c_str());
      }
      return false;
    }
    out->push_back(TokenSite{path, LineOfOffset(src, site), fmt});
    pos = p + 1;
  }
  return true;
}

bool RegisterSites(const std::vector<TokenSite>& sites,
                   common::TokenRegistry* registry, std::string* error) {
  for (const TokenSite& site : sites) {
    std::string why;
    if (!registry->Register(common::TokenHash32(site.fmt), site.fmt, &why)) {
      if (error != nullptr) {
        *error = common::StrFormat("%s:%d: %s", site.file.c_str(), site.line,
                                   why.c_str());
      }
      return false;
    }
  }
  return true;
}

bool BuildTokenDb(const std::vector<std::string>& roots, std::string* csv,
                  std::string* error) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const std::string& root : roots) {
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
      for (auto it = fs::recursive_directory_iterator(root, ec);
           it != fs::recursive_directory_iterator(); it.increment(ec)) {
        if (ec) break;
        if (!it->is_regular_file()) continue;
        const std::string ext = it->path().extension().string();
        if (ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp") {
          files.push_back(it->path().string());
        }
      }
    } else if (fs::is_regular_file(root, ec)) {
      files.push_back(root);
    } else {
      if (error != nullptr) *error = "cannot read " + root;
      return false;
    }
  }
  std::sort(files.begin(), files.end());

  common::TokenRegistry registry;
  for (const std::string& f : files) {
    std::string contents;
    if (!lint::ReadFile(f, &contents)) {
      if (error != nullptr) *error = "cannot read " + f;
      return false;
    }
    std::vector<TokenSite> sites;
    if (!ExtractTokenFmts(f, contents, &sites, error)) return false;
    if (!RegisterSites(sites, &registry, error)) return false;
  }
  *csv = common::TokenDbCsv(registry);
  return true;
}

int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err) {
  std::string check_path;
  std::string out_path;
  std::vector<std::string> roots;
  for (const std::string& a : args) {
    if (a.rfind("--check=", 0) == 0) {
      check_path = a.substr(8);
    } else if (a.rfind("--out=", 0) == 0) {
      out_path = a.substr(6);
    } else if (a.rfind("--", 0) == 0) {
      err << "fela-tokendb: unknown flag " << a << "\n";
      return 2;
    } else {
      roots.push_back(a);
    }
  }
  if (roots.empty() || (!check_path.empty() && !out_path.empty())) {
    err << "usage: fela-tokendb [--check=<csv> | --out=<csv>] <path>...\n";
    return 2;
  }

  std::string csv;
  std::string error;
  if (!BuildTokenDb(roots, &csv, &error)) {
    err << "fela-tokendb: " << error << "\n";
    // I/O problems are usage-class failures; collisions and bad sites
    // are findings the build should fail on.
    return error.rfind("cannot read", 0) == 0 ? 2 : 1;
  }

  if (!check_path.empty()) {
    std::string existing;
    if (!lint::ReadFile(check_path, &existing)) {
      err << "fela-tokendb: cannot read " << check_path << "\n";
      return 2;
    }
    if (existing != csv) {
      err << "fela-tokendb: " << check_path
          << " is stale; regenerate with:\n  fela-tokendb --out="
          << check_path;
      for (const std::string& r : roots) err << " " << r;
      err << "\n";
      return 1;
    }
    out << "fela-tokendb: " << check_path << " is current ("
        << std::count(csv.begin(), csv.end(), '\n') - 1 << " tokens)\n";
    return 0;
  }

  if (!out_path.empty()) {
    std::ofstream f(out_path, std::ios::binary);
    if (!f) {
      err << "fela-tokendb: cannot write " << out_path << "\n";
      return 2;
    }
    f << csv;
    return 0;
  }

  out << csv;
  return 0;
}

}  // namespace fela::tokendb
