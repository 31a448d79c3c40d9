#ifndef FELA_COMMON_TOKENIZE_H_
#define FELA_COMMON_TOKENIZE_H_

#include <bit>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/annotations.h"

namespace fela::common {

/// Pigweed-style tokenized tracing: the format string of a hot-path
/// trace/span detail is hashed to a 32-bit token at compile time, and
/// the call site stores only {token, packed args} — a handful of raw
/// stores instead of an StrFormat + std::string allocation. The text is
/// reconstructed on demand (in-process via the global TokenRegistry, or
/// offline by tools/fela-detok against the checked-in tools/tokens.csv)
/// byte-identically to what StrFormat would have produced.

/// 32-bit FNV-1a over the format string; constexpr so FELA_TOK sites
/// bake the token into the binary with zero runtime hashing.
constexpr uint32_t TokenHash32(std::string_view s) {
  uint32_t hash = 2166136261u;
  for (const char c : s) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 16777619u;
  }
  return hash;
}

/// Up to four arguments packed into fixed-width slots. Integers widen
/// to 64 bits (so `%d` vs `%zu` call sites need no per-type storage),
/// doubles are stored as their bit pattern; a 2-bit tag per slot keeps
/// the detokenizer honest about which reading to use.
enum class TokArgType : uint8_t { kNone = 0, kInt = 1, kUint = 2, kDouble = 3 };

struct TokArgs {
  uint64_t values[4] = {0, 0, 0, 0};
  uint8_t count = 0;
  uint8_t types = 0;  // 2 bits per slot, slot 0 in the low bits

  TokArgType type(int slot) const {
    return static_cast<TokArgType>((types >> (2 * slot)) & 3u);
  }

  template <typename T>
  void Push(T v) {
    static_assert(std::is_arithmetic_v<T>,
                  "tokenized details take only numeric args; tokenize the "
                  "whole string instead of passing one");
    if constexpr (std::is_floating_point_v<T>) {
      Put(std::bit_cast<uint64_t>(static_cast<double>(v)),
          TokArgType::kDouble);
    } else if constexpr (std::is_signed_v<T>) {
      Put(static_cast<uint64_t>(static_cast<int64_t>(v)), TokArgType::kInt);
    } else {
      Put(static_cast<uint64_t>(v), TokArgType::kUint);
    }
  }

 private:
  void Put(uint64_t bits, TokArgType type) {
    values[count] = bits;
    types = static_cast<uint8_t>(types |
                                 (static_cast<uint8_t>(type) << (2 * count)));
    ++count;
  }
};

/// What FELA_TOK yields: the compile-time token plus the literal it
/// hashes (kept for in-process registration and rendering).
struct TokenizedFmt {
  uint32_t token;
  const char* fmt;
};

/// The stored form of a trace/span detail. token == 0 means "no
/// detail"; construction from FELA_TOK packs the args immediately, so
/// recording is a trivially-copyable struct store.
struct TokenizedDetail {
  uint32_t token = 0;
  TokArgs args;

  TokenizedDetail() = default;
  template <typename... Args>
  explicit TokenizedDetail(TokenizedFmt fmt, Args... a) : token(fmt.token) {
    static_assert(sizeof...(Args) <= 4,
                  "tokenized details pack at most 4 args");
    (args.Push(a), ...);
  }

  bool empty() const { return token == 0; }
};

/// token -> format string map. The process-global instance is filled
/// lazily by FELA_TOK sites on first execution; tools build their own
/// from tokens.csv. Register detects collisions (same token, different
/// format) — the build-time fela-tokendb scan catches them first, this
/// is the runtime backstop.
class TokenRegistry {
 public:
  /// False iff `token` is already mapped to a different format string.
  bool Register(uint32_t token, std::string_view fmt,
                std::string* error = nullptr);

  /// The format for `token`, or nullptr. The pointer stays valid for
  /// the registry's lifetime (entries are never removed).
  const std::string* Find(uint32_t token) const;

  /// All (token, fmt) pairs sorted by token.
  std::vector<std::pair<uint32_t, std::string>> Entries() const;
  size_t size() const;

  static TokenRegistry& Global();

 private:
  mutable std::mutex mu_;
  std::map<uint32_t, std::string> entries_ FELA_GUARDED_BY(mu_);
};

/// One format string compiled for rendering: its literal runs (`%%`
/// already unescaped) and its conversions, each holding the 64-bit
/// printf spec it runs at. Compiling is the only pass over the format's
/// text, so a format rendered many times is parsed once.
class CompiledFormat {
 public:
  explicit CompiledFormat(std::string_view fmt);

  /// Appends the format rendered with `args` to `out`, byte-identical to
  /// what the original printf-family call would have produced: integer
  /// conversions run at 64-bit width (`%d` -> `%lld` etc., the same
  /// digits for every in-range value), floats as double. A %d, %i or %u
  /// with no flag, width or precision, and a %e, %f or %g with no flag,
  /// no width and at most two precision digits, go through
  /// std::to_chars, which prints what printf prints for them; every
  /// other spec, and a value too wide for to_chars's buffer, runs
  /// through snprintf. `%s` and other non-packable conversions
  /// (fela-tokendb rejects them at build time), specs beyond the packed
  /// args, and a NaN or a double outside [-2^63, 2^63) under an integer
  /// conversion render as their spec text, rather than invent bytes.
  void AppendTo(const TokArgs& args, std::string* out) const;

 private:
  struct Piece {
    char conv = 0;          // 0: a literal run; else the conversion letter
    bool to_chars = false;  // std::to_chars prints it (see AppendTo)
    int precision = 6;      // the precision %e %f %g print at
    std::string text;       // the literal bytes, or the spec as written
    std::string spec;       // the spec snprintf runs
  };
  std::vector<Piece> pieces_;
};

/// Renders `fmt` with the packed args (see CompiledFormat::AppendTo).
std::string DetokFormat(const std::string& fmt, const TokArgs& args);

/// Renders stored details against one registry, compiling each token's
/// format the first time the token is seen. A document with tens of
/// thousands of details but a few dozen distinct tokens takes the
/// registry's lock and parses a format a few dozen times. It holds no
/// global state: one instance serves one document on one thread, so
/// concurrent exports each keep their own.
class Detokenizer {
 public:
  /// Reads `registry` (the process-global one when null), which must
  /// outlive the Detokenizer.
  explicit Detokenizer(const TokenRegistry* registry = nullptr);

  /// Appends `detail`'s text to `out`: nothing for an empty detail, and
  /// "<token %08x?>" for a token the registry does not know, so a stale
  /// tokens.csv is visible, not silent.
  void Append(const TokenizedDetail& detail, std::string* out);

 private:
  const TokenRegistry& registry_;
  std::unordered_map<uint32_t, CompiledFormat> formats_;
};

/// Renders one stored detail through a Detokenizer of its own.
std::string Detokenize(const TokenizedDetail& detail,
                       const TokenRegistry* registry = nullptr);

/// The one format policy for tokenized details: no dangling `%`, no
/// `%s`, `%p` or `%n` (the args are packed numerics), at most four
/// conversions (the arg slots), and no width or precision of more than
/// two digits (rendering sizes its output by them). Returns false with
/// the reason in `why` otherwise. fela-tokendb checks every FELA_TOK
/// site against it, and LoadTokenDbCsv every row.
bool ValidateTokenFormat(std::string_view fmt, std::string* why);

/// tokens.csv serialization: one "token,fmt" row per entry sorted by
/// token, the format CSV-quoted. LoadTokenDbCsv accepts exactly what
/// TokenDbCsv emits (and what fela-tokendb writes), and rejects a row
/// whose format breaks ValidateTokenFormat, naming its line.
std::string TokenDbCsv(const TokenRegistry& registry);
bool LoadTokenDbCsv(std::string_view csv, TokenRegistry* registry,
                    std::string* error);

namespace internal_tokenize {
/// FELA_TOK backing: registers into the global registry, CHECK-failing
/// on a collision (two distinct live format strings, one token).
bool RegisterSiteOrDie(uint32_t token, const char* fmt);
}  // namespace internal_tokenize

}  // namespace fela::common

/// Tokenizes a format-string literal at compile time. Yields a
/// TokenizedFmt; pair it with up to 4 numeric args via TokenizedDetail:
///
///   FELA_TRACE(trace, now, id, kind, FELA_TOK("it=%d n=%llu"), it, n);
///   ScopedSpan s(sink, w, phase, it,
///                common::TokenizedDetail(FELA_TOK("it=%d"), it));
///
/// The one-time registration (a static local) is what lets in-process
/// renderers detokenize without the csv database.
#define FELA_TOK(fmt)                                                       \
  ([] {                                                                     \
    constexpr uint32_t fela_tok_hash_ = ::fela::common::TokenHash32(fmt);   \
    static const bool fela_tok_registered_ =                                \
        ::fela::common::internal_tokenize::RegisterSiteOrDie(fela_tok_hash_, \
                                                             fmt);          \
    (void)fela_tok_registered_;                                             \
    return ::fela::common::TokenizedFmt{fela_tok_hash_, fmt};               \
  }())

#endif  // FELA_COMMON_TOKENIZE_H_
