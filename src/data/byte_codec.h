#ifndef TCROWD_DATA_BYTE_CODEC_H_
#define TCROWD_DATA_BYTE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "data/answer.h"
#include "data/table.h"
#include "data/value.h"

namespace tcrowd {

/// The one byte format behind every framed record the serving stack
/// writes: segment files, the manifest and the journal
/// (inference/segment_codec.h), the event log (platform/event_log.h), and
/// TCNP frames (net/protocol.h). Fields are fixed-width little-endian,
/// written with explicit byte shifts (never a memcpy of the host
/// representation), so the format is platform-defined. Continuous values
/// travel as raw IEEE-754 bit patterns, so a decode is bit-identical to the
/// encode, NaNs and signed zeros included. Each record ends in a CRC-32
/// over everything before it.
///
/// Each format keeps its own magic, version and envelope; this header holds
/// only the shared primitives. The writers append to a std::string, and
/// ByteReader is the matching bounds-checked reader. Everything except
/// Crc32 is header-inline, because it runs per field on the ingest and wire
/// paths.

// ---------------------------------------------------------------------------
// Little-endian writers.

inline void PutU8(uint8_t v, std::string* out) {
  out->push_back(static_cast<char>(v));
}

inline void PutU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

inline void PutU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

inline void PutI32(int32_t v, std::string* out) {
  PutU32(static_cast<uint32_t>(v), out);
}

inline void PutI64(int64_t v, std::string* out) {
  PutU64(static_cast<uint64_t>(v), out);
}

inline void PutDouble(double v, std::string* out) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v), "IEEE-754 double expected");
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits, out);
}

/// A u32 length prefix, then the raw bytes.
inline void PutString(const std::string& s, std::string* out) {
  PutU32(static_cast<uint32_t>(s.size()), out);
  out->append(s);
}

// ---------------------------------------------------------------------------
// Cells, values and answers.

/// Value kind tags: a u8 tag, then an i32 label (categorical) or the
/// IEEE-754 bit pattern (continuous); a missing value is the bare tag.
/// Answers are normally always valid (the service validates before
/// acceptance), but every codec round-trips a missing value rather than
/// aborting on one.
inline constexpr uint8_t kValueKindCategorical = 0;
inline constexpr uint8_t kValueKindContinuous = 1;
inline constexpr uint8_t kValueKindMissing = 2;

/// Smallest encoded cell (row + col) and answer (worker + cell + kind tag).
/// Decoders bound a decoded count by the bytes left before reserving, so a
/// corrupt count field cannot demand a multi-gigabyte allocation.
inline constexpr size_t kMinCellBytes = 2 * 4;
inline constexpr size_t kMinAnswerBytes = 3 * 4 + 1;

inline void PutCell(CellRef cell, std::string* out) {
  PutI32(cell.row, out);
  PutI32(cell.col, out);
}

inline void PutValue(const Value& v, std::string* out) {
  if (v.is_categorical()) {
    PutU8(kValueKindCategorical, out);
    PutI32(v.label(), out);
  } else if (v.is_continuous()) {
    PutU8(kValueKindContinuous, out);
    PutDouble(v.number(), out);
  } else {
    PutU8(kValueKindMissing, out);
  }
}

inline void PutAnswer(const Answer& a, std::string* out) {
  PutI32(a.worker, out);
  PutCell(a.cell, out);
  PutValue(a.value, out);
}

// ---------------------------------------------------------------------------
// Reading.

/// Bounds-checked sequential reader over a decode buffer. Every getter
/// returns false instead of reading past the end; callers give up on the
/// record at the first false.
struct ByteReader {
  const uint8_t* p;
  size_t left;

  ByteReader(const void* data, size_t size)
      : p(static_cast<const uint8_t*>(data)), left(size) {}

  bool U8(uint8_t* v) {
    if (left < 1) return false;
    *v = p[0];
    ++p;
    --left;
    return true;
  }
  bool U32(uint32_t* v) {
    if (left < 4) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) *v |= static_cast<uint32_t>(p[i]) << (8 * i);
    p += 4;
    left -= 4;
    return true;
  }
  bool U64(uint64_t* v) {
    if (left < 8) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) *v |= static_cast<uint64_t>(p[i]) << (8 * i);
    p += 8;
    left -= 8;
    return true;
  }
  bool I32(int32_t* v) {
    uint32_t u;
    if (!U32(&u)) return false;
    *v = static_cast<int32_t>(u);
    return true;
  }
  bool I64(int64_t* v) {
    uint64_t u;
    if (!U64(&u)) return false;
    *v = static_cast<int64_t>(u);
    return true;
  }
  bool Double(double* v) {
    uint64_t bits;
    if (!U64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }
  /// Exactly `n` raw bytes.
  bool Bytes(size_t n, std::string* out) {
    if (left < n) return false;
    out->assign(reinterpret_cast<const char*>(p), n);
    p += n;
    left -= n;
    return true;
  }
  /// A PutString field.
  bool Str(std::string* out) {
    uint32_t n;
    return U32(&n) && Bytes(n, out);
  }
  bool Cell(CellRef* cell) { return I32(&cell->row) && I32(&cell->col); }
  bool Done() const { return left == 0; }
};

/// False on truncation or an unknown kind tag.
inline bool GetValue(ByteReader* r, Value* v) {
  uint8_t kind;
  if (!r->U8(&kind)) return false;
  if (kind == kValueKindCategorical) {
    int32_t label;
    if (!r->I32(&label)) return false;
    *v = Value::Categorical(label);
  } else if (kind == kValueKindContinuous) {
    double number;
    if (!r->Double(&number)) return false;
    *v = Value::Continuous(number);
  } else if (kind == kValueKindMissing) {
    *v = Value();
  } else {
    return false;
  }
  return true;
}

/// Appends `count` PutAnswer encodings to `*out`. False on truncation or
/// garbage, and on a count the remaining bytes cannot hold (checked before
/// reserving).
inline bool GetAnswers(ByteReader* r, uint64_t count,
                       std::vector<Answer>* out) {
  if (count > r->left / kMinAnswerBytes + 1) return false;
  out->reserve(out->size() + static_cast<size_t>(count));
  for (uint64_t k = 0; k < count; ++k) {
    Answer a;
    if (!r->I32(&a.worker) || !r->Cell(&a.cell) || !GetValue(r, &a.value)) {
      return false;
    }
    out->push_back(a);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Integrity.

/// CRC-32 (IEEE 802.3 polynomial, bit-reflected) of `n` bytes, chainable
/// via `seed` (pass the previous call's return value to continue a stream).
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

}  // namespace tcrowd

#endif  // TCROWD_DATA_BYTE_CODEC_H_
