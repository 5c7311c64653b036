#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "support/check.hpp"

/// Stable out-of-place LSD radix sort for short-to-medium arrays.
///
/// PARADIS (paradis.hpp) is the in-place global sort: MSB digits, an
/// American-flag permutation, parallel across buckets.  This is its
/// out-of-place companion for the send path, where the wire encoder
/// (sim/comm_buffer.hpp) sorts every destination block of every exchange
/// and a block-sized scratch buffer is already resident.  LSD counting
/// passes stream each element once per digit with no swap cycles, so they
/// win when the sort value carries long equal-key runs (hub destinations)
/// that an MSB pass would have to recurse into.  Serial, allocation-free
/// and untraced: it runs once per block inside the caller's parallel loop.
namespace sunbfs::sort {

/// Widest digit a pass uses; a sort over `bits` bits takes
/// ceil(bits / kLsdDigitBits) passes of equal width.
inline constexpr int kLsdDigitBits = 11;

/// Stably sort `data` ascending by the low `bits` bits of the uint64
/// `value_of(element)` (0 <= bits <= 64; higher bits must be zero).
/// `scratch` holds at least data.size() elements and is clobbered.  A digit
/// that every element shares costs its histogram only, not a pass.
template <typename T, typename ValueFn>
void lsd_radix_sort(std::span<T> data, std::span<T> scratch, ValueFn value_of,
                    int bits) {
  constexpr int kMaxPasses = (64 + kLsdDigitBits - 1) / kLsdDigitBits;
  const size_t n = data.size();
  if (n <= 1 || bits <= 0) return;
  SUNBFS_CHECK(scratch.size() >= n && n <= UINT32_MAX && bits <= 64);
  const int passes = (bits + kLsdDigitBits - 1) / kLsdDigitBits;
  const int width = (bits + passes - 1) / passes;
  const size_t buckets = size_t(1) << width;
  const uint64_t mask = buckets - 1;

  // One read fills every pass's histogram.
  uint32_t counts[kMaxPasses][size_t(1) << kLsdDigitBits];
  for (int p = 0; p < passes; ++p) std::fill_n(counts[p], buckets, 0u);
  for (const T& x : data) {
    const uint64_t v = value_of(x);
    for (int p = 0; p < passes; ++p) ++counts[p][(v >> (p * width)) & mask];
  }

  T* src = data.data();
  T* dst = scratch.data();
  for (int p = 0; p < passes; ++p) {
    const int shift = p * width;
    uint32_t* c = counts[p];
    if (c[(value_of(src[0]) >> shift) & mask] == n) continue;
    uint32_t sum = 0;
    for (size_t b = 0; b < buckets; ++b) {
      const uint32_t k = c[b];
      c[b] = sum;
      sum += k;
    }
    for (size_t i = 0; i < n; ++i) {
      const T& x = src[i];
      dst[c[(value_of(x) >> shift) & mask]++] = x;
    }
    std::swap(src, dst);
  }
  if (src != data.data()) std::copy(src, src + n, data.data());
}

}  // namespace sunbfs::sort
