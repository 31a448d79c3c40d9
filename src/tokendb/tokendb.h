#ifndef FELA_TOKENDB_TOKENDB_H_
#define FELA_TOKENDB_TOKENDB_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "common/tokenize.h"

namespace fela::tokendb {

/// Build-time token-database generator: scans source trees for
/// FELA_TOK("...") sites, hashes each format string with the same
/// compile-time FNV-1a the macro uses, and emits the tokens.csv that
/// offline detokenization (tools/fela-detok) loads. Collisions between
/// distinct format strings are detected here — at build time — so a
/// colliding token can never silently ship; the checked-in DB is kept
/// current by the tokendb.src_tree_current tier-1 test.

/// One FELA_TOK site found in a source file.
struct TokenSite {
  std::string file;
  int line = 0;       // 1-based line of the FELA_TOK occurrence
  std::string fmt;    // unescaped format string
};

/// Extracts every FELA_TOK("...") format literal from one source file
/// (comments stripped first; adjacent-literal concatenation honored).
/// Returns false — with file:line context in `error` — when a site is
/// malformed (non-literal argument, bad escape) or its format breaks
/// common::ValidateTokenFormat. The macro definition itself
/// (`FELA_TOK(fmt)`) is skipped.
bool ExtractTokenFmts(const std::string& path, const std::string& source,
                      std::vector<TokenSite>* out, std::string* error);

/// Registers the sites' formats into `registry`; false on a hash
/// collision between two distinct strings (error names both).
bool RegisterSites(const std::vector<TokenSite>& sites,
                   common::TokenRegistry* registry, std::string* error);

/// Scans roots (directories or single files; .h/.hpp/.cc/.cpp) and
/// builds the sorted tokens.csv text. False on I/O error, malformed
/// site, or collision.
bool BuildTokenDb(const std::vector<std::string>& roots, std::string* csv,
                  std::string* error);

/// CLI: fela-tokendb [--check=<csv>] [--out=<csv>] <path>...
/// Writes the generated DB to --out (or stdout when absent); with
/// --check, compares against the given file instead and fails when the
/// checked-in DB is stale. Exit codes: 0 ok, 1 stale DB or collision,
/// 2 usage or I/O error.
int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err);

}  // namespace fela::tokendb

#endif  // FELA_TOKENDB_TOKENDB_H_
