#include "sim/encoding.hpp"

#include <bit>

namespace sunbfs::sim {

BlockPlan plan_words(std::span<const uint64_t> words) {
  const uint64_t nwords = words.size();
  if (nwords == 0) return {WireCodec::Bitmap, 0};
  const uint64_t header = 1 + varint_size(nwords);
  const uint64_t raw_bytes = header + nwords * 8;
  uint64_t nbits = 0, sparse_body = 0, prev = 0;
  for (uint64_t w = 0; w < nwords; ++w) {
    uint64_t word = words[w];
    while (word != 0) {
      const uint64_t pos = w * 64 + uint64_t(std::countr_zero(word));
      word &= word - 1;
      sparse_body += varint_size(nbits == 0 ? pos : pos - prev);
      prev = pos;
      ++nbits;
    }
  }
  const uint64_t sparse_bytes = header + varint_size(nbits) + sparse_body;
  if (sparse_bytes < raw_bytes) return {WireCodec::Varint, sparse_bytes};
  return {WireCodec::Bitmap, raw_bytes};
}

uint8_t* write_words(std::span<const uint64_t> words, WireCodec codec,
                     uint8_t* out) {
  const uint64_t nwords = words.size();
  if (nwords == 0) return out;
  *out++ = uint8_t(codec);
  out = put_varint(out, nwords);
  if (codec == WireCodec::Bitmap) {
    std::memcpy(out, words.data(), nwords * 8);
    return out + nwords * 8;
  }
  // Varint: count of set bits, then delta-coded positions.
  uint64_t nbits = 0;
  for (uint64_t w : words) nbits += uint64_t(std::popcount(w));
  out = put_varint(out, nbits);
  uint64_t prev = 0;
  bool first = true;
  for (uint64_t w = 0; w < nwords; ++w) {
    uint64_t word = words[w];
    while (word != 0) {
      const uint64_t pos = w * 64 + uint64_t(std::countr_zero(word));
      word &= word - 1;
      out = put_varint(out, first ? pos : pos - prev);
      prev = pos;
      first = false;
    }
  }
  return out;
}

bool read_words_header(const uint8_t* p, size_t nbytes, WordsHeader* h) {
  if (nbytes == 0) {
    *h = WordsHeader{WireCodec::Bitmap, 0, p};
    return true;
  }
  const uint8_t* end = p + nbytes;
  const uint8_t codec = *p++;
  if (codec != uint8_t(WireCodec::Bitmap) &&
      codec != uint8_t(WireCodec::Varint))
    return false;
  uint64_t nwords = 0;
  p = get_varint(p, end, &nwords);
  if (p == nullptr || nwords == 0) return false;
  *h = WordsHeader{WireCodec(codec), nwords, p};
  return true;
}

bool decode_words(const WordsHeader& h, const uint8_t* end, uint64_t* out) {
  const uint8_t* p = h.body;
  if (h.codec == WireCodec::Bitmap) {
    if (uint64_t(end - p) != h.nwords * 8) return false;
    if (h.nwords > 0) std::memcpy(out, p, h.nwords * 8);
    return true;
  }
  std::memset(out, 0, h.nwords * 8);
  uint64_t nbits = 0;
  p = get_varint(p, end, &nbits);
  if (p == nullptr) return false;
  uint64_t pos = 0;
  for (uint64_t i = 0; i < nbits; ++i) {
    uint64_t delta = 0;
    p = get_varint(p, end, &delta);
    if (p == nullptr) return false;
    pos = (i == 0) ? delta : pos + delta;
    if (pos >= h.nwords * 64) return false;
    out[pos / 64] |= uint64_t(1) << (pos % 64);
  }
  return p == end;
}

}  // namespace sunbfs::sim
