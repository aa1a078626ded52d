#include "data/byte_codec.h"

namespace tcrowd {

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  // Table-free bitwise CRC-32 (IEEE, reflected): every record and frame is
  // small, so simplicity beats a lookup table.
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  for (size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int b = 0; b < 8; ++b) {
      crc = (crc >> 1) ^ (0xedb88320u & (~(crc & 1u) + 1u));
    }
  }
  return ~crc;
}

}  // namespace tcrowd
