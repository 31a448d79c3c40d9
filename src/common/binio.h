#ifndef FELA_COMMON_BINIO_H_
#define FELA_COMMON_BINIO_H_

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

namespace fela::common {

/// Byte-level little-endian append/read helpers for the compact binary
/// trace and transcript formats. Explicit shifts (not memcpy of host
/// structs) so the encoded bytes are identical on every platform and
/// never depend on struct padding — a prerequisite for hashing the
/// binary form in determinism checks.

/// Store/Load encode and decode one value at a caller's buffer, so a
/// fixed-size record can be built or read whole; the Append and Read
/// helpers below go through them.
inline void StoreU32(char* at, uint32_t v) {
  for (int i = 0; i < 4; ++i) at[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

inline void StoreU64(char* at, uint64_t v) {
  for (int i = 0; i < 8; ++i) at[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

inline uint32_t LoadU32(const char* at) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(at[i])) << (8 * i);
  }
  return v;
}

inline uint64_t LoadU64(const char* at) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(at[i])) << (8 * i);
  }
  return v;
}

inline void AppendU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

inline void AppendU32(std::string* out, uint32_t v) {
  char buf[4];
  StoreU32(buf, v);
  out->append(buf, sizeof(buf));
}

inline void AppendU64(std::string* out, uint64_t v) {
  char buf[8];
  StoreU64(buf, v);
  out->append(buf, sizeof(buf));
}

inline void AppendF64(std::string* out, double v) {
  AppendU64(out, std::bit_cast<uint64_t>(v));
}

/// Readers advance `*pos` past the consumed bytes; a false return means
/// the input ended mid-value (`*pos` is left unchanged), which callers
/// surface as a truncated stream.
inline bool ReadU8(std::string_view in, size_t* pos, uint8_t* v) {
  if (*pos + 1 > in.size()) return false;
  *v = static_cast<uint8_t>(in[*pos]);
  *pos += 1;
  return true;
}

inline bool ReadU32(std::string_view in, size_t* pos, uint32_t* v) {
  if (*pos + 4 > in.size()) return false;
  *v = LoadU32(in.data() + *pos);
  *pos += 4;
  return true;
}

inline bool ReadU64(std::string_view in, size_t* pos, uint64_t* v) {
  if (*pos + 8 > in.size()) return false;
  *v = LoadU64(in.data() + *pos);
  *pos += 8;
  return true;
}

}  // namespace fela::common

#endif  // FELA_COMMON_BINIO_H_
