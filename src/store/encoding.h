// Byte-level codecs shared by the HLOG writer and reader: little-endian
// fixed-width primitives, LEB128 varints, zigzag, and the two exact column
// codecs (XOR-prev f64, delta-zigzag u32). Everything here is pure
// function-of-input — no locale, no platform byte-order dependence — which
// is what makes writer output and reader scans bit-reproducible anywhere.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>

namespace harvest::store {

// ---- fixed-width little-endian primitives ---------------------------------

/// Stores `v` little-endian at p[0..3] (frames filled in after their
/// payload is encoded in place).
inline void set_u32(char* p, std::uint32_t v) {
  p[0] = static_cast<char>(v & 0xFF);
  p[1] = static_cast<char>((v >> 8) & 0xFF);
  p[2] = static_cast<char>((v >> 16) & 0xFF);
  p[3] = static_cast<char>((v >> 24) & 0xFF);
}

inline void put_u32(std::string& out, std::uint32_t v) {
  char bytes[4];
  set_u32(bytes, v);
  out.append(bytes, 4);
}

inline void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
}

inline void put_u64(std::string& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v & 0xFFFFFFFFu));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

inline void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// Bounds-unchecked reads — callers validate lengths against the section
/// framing before decoding (a CRC-verified payload cannot be short).
inline std::uint16_t get_u16(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint16_t>(b[0] | (b[1] << 8));
}

inline std::uint32_t get_u32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

inline std::uint64_t get_u64(const char* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

inline double get_f64(const char* p) {
  return std::bit_cast<double>(get_u64(p));
}

// ---- varint / zigzag ------------------------------------------------------

/// A LEB128 varint of a 64-bit value never takes more than this many bytes.
inline constexpr std::size_t kMaxVarintBytes = 10;

/// Writes `v` as a LEB128 varint at `p` (room for kMaxVarintBytes assumed)
/// and returns one past the last byte written.
inline char* write_varint(char* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<char>((v & 0x7F) | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<char>(v);
  return p;
}

/// Decodes one varint from [*pos, data.size()); advances *pos. Returns false
/// on truncation or a varint longer than 10 bytes (overlong encodings of
/// values that fit 64 bits are accepted; the writer never emits them).
inline bool get_varint(std::string_view data, std::size_t* pos,
                       std::uint64_t* out) {
  if (*pos <= data.size() && data.size() - *pos >= kMaxVarintBytes) {
    // Fast path: a whole maximal varint is in range, so no per-byte bounds
    // check. Same acceptance as the loop below, including *pos advancing
    // past all ten bytes of a varint whose last byte still continues.
    const auto* p = reinterpret_cast<const unsigned char*>(data.data() + *pos);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < kMaxVarintBytes; ++i) {
      v |= static_cast<std::uint64_t>(p[i] & 0x7F) << (7 * i);
      if ((p[i] & 0x80) == 0) {
        *pos += i + 1;
        *out = v;
        return true;
      }
    }
    *pos += kMaxVarintBytes;
    return false;
  }
  std::uint64_t v = 0;
  int shift = 0;
  while (*pos < data.size() && shift < 70) {
    const auto byte = static_cast<unsigned char>(data[*pos]);
    ++*pos;
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *out = v;
      return true;
    }
    shift += 7;
  }
  return false;
}

inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

// ---- column streams -------------------------------------------------------
// Every column is a run of per-row varints. Encoders grow `out` once by the
// worst case (kMaxVarintBytes per row), write through a pointer, and trim to
// the bytes written. Decoders advance a cursor so several streams can share
// one payload (the v2 context column is field-major: one stream per context
// field); a whole-payload column adds `*pos == payload.size()` (trailing
// garbage is corruption that slipped past a CRC collision). The stride lets
// a context field scatter straight into the row-major output array.

/// f64 stream: varint of bits(v[i]) XOR bits(v[i-1]), prev starts at 0.
/// Exact for every bit pattern; constant runs cost one byte per row.
inline void encode_f64_stream(const double* values, std::size_t rows,
                              std::size_t stride, std::string& out) {
  const std::size_t at = out.size();
  out.resize(at + rows * kMaxVarintBytes);
  char* const begin = out.data();
  char* p = begin + at;
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(values[i * stride]);
    p = write_varint(p, bits ^ prev);
    prev = bits;
  }
  out.resize(static_cast<std::size_t>(p - begin));
}

inline bool decode_f64_stream(std::string_view payload, std::size_t* pos,
                              std::size_t rows, double* out,
                              std::size_t stride) {
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    std::uint64_t delta = 0;
    if (!get_varint(payload, pos, &delta)) return false;
    prev ^= delta;
    out[i * stride] = std::bit_cast<double>(prev);
  }
  return true;
}

/// u32 stream (actions, dictionary codes): varint of zigzag(delta), prev
/// starts at 0. Small action sets make every delta a single byte.
inline void encode_u32_stream(std::span<const std::uint32_t> values,
                              std::string& out) {
  const std::size_t at = out.size();
  out.resize(at + values.size() * kMaxVarintBytes);
  char* const begin = out.data();
  char* p = begin + at;
  std::int64_t prev = 0;
  for (const std::uint32_t v : values) {
    p = write_varint(p, zigzag(static_cast<std::int64_t>(v) - prev));
    prev = static_cast<std::int64_t>(v);
  }
  out.resize(static_cast<std::size_t>(p - begin));
}

inline bool decode_u32_stream(std::string_view payload, std::size_t* pos,
                              std::size_t rows, std::uint32_t* out) {
  std::int64_t prev = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    std::uint64_t raw = 0;
    if (!get_varint(payload, pos, &raw)) return false;
    prev += unzigzag(raw);
    if (prev < 0 || prev > 0xFFFFFFFFll) return false;
    out[i] = static_cast<std::uint32_t>(prev);
  }
  return true;
}

// ---- length-prefixed strings (schema section) -----------------------------

inline void put_str(std::string& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

inline bool get_str(std::string_view data, std::size_t* pos,
                    std::string* out) {
  if (*pos + 4 > data.size()) return false;
  const std::uint32_t len = get_u32(data.data() + *pos);
  *pos += 4;
  if (*pos + len > data.size()) return false;
  out->assign(data.substr(*pos, len));
  *pos += len;
  return true;
}

}  // namespace harvest::store
