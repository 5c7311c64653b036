#pragma once

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <span>

#include "sim/comm_stats.hpp"
#include "sort/lsd_radix.hpp"
#include "support/check.hpp"

/// Adaptive wire encoding for staged collective payloads.
///
/// The paper's traversal wins come from shrinking what crosses the network:
/// bottom-up sub-iterations ship bitmap frontiers while top-down levels ship
/// sparse vertex lists.  This header applies the same switch at the wire
/// level of the simulator: every destination block of an A2aStaging exchange
/// (and every published frontier span of a GatherBuffer gather) is measured
/// against three encodings and ships as whichever is smallest:
///
///   Raw     sorted fixed-width structs — the fallback that bounds every
///           block at raw size + a small header,
///   Varint  messages sorted by key; keys delta-coded as varints, non-key
///           fields ("rests") as per-type varints,
///   Bitmap  a dense bitmap over the key range [0, max_key] plus the rests
///           in key order — only eligible when keys are unique.
///
/// Wire layout of a block: [codec byte][varint message count][body].  A
/// zero-byte block is a valid empty block (zero messages) — this is what a
/// contribution dropped by fault recovery decodes as.  Because the sender
/// picks min(raw, varint, bitmap) with exact measured sizes, an encoded
/// block never exceeds raw size + kBlockHeaderMax, which is what lets
/// A2aStaging pre-reserve encoded buffers and keep comm.staging_allocs at 0
/// in steady state.
///
/// Decoding is fully bounds-checked and non-throwing at this layer: every
/// read_*/decode_* function returns false on truncated or malformed input
/// (callers decide whether that is a test expectation or a fatal error).
/// Encoded bytes flow through Comm::alltoallv_flat / allgatherv_into like
/// any payload, so fault-injection checksums and Topology byte charging
/// cover the encoded representation.
///
/// Message types opt in by specializing WireFormat<T> (see bfs/messages.hpp,
/// service/msbfs.hpp, analytics/sssp.hpp,
/// analytics/propagate.hpp):
///
///   static uint64_t key(const T&);                 // sort/bitmap key
///   static bool less(const T&, const T&);          // total order, key-major
///   static size_t rest_size(const T&);             // encoded non-key bytes
///   static uint8_t* put_rest(const T&, uint8_t*);  // append non-key fields
///   static const uint8_t* get_rest(const uint8_t* p, const uint8_t* end,
///                                  uint64_t key, T&);  // null on error
///   static uint64_t minor(const T&);  // optional: less()'s first tie-break
///
/// less() must be a *total* order (tie-break on every field) so that sorting
/// is deterministic under duplicate keys; receivers are already insensitive
/// to message order (fetch-max parents, atomic bit claims — docs/PERF.md).
/// It must also be key-major over the *unsigned* key(), and, where minor()
/// exists, minor()-major among equal keys: sort_block() radix-sorts on
/// (key, minor) and leaves only the remaining ties to less().
namespace sunbfs::sim {

/// Per-pool encoding policy, threaded from engine options into the staging
/// pools.  Enabled by default: the encoded path is the product path, and the
/// fault suite exercises checksums over encoded bytes.
struct EncodingOptions {
  bool enabled = true;
  /// Blocks with fewer messages than this skip the sort + measure pass and
  /// ship raw: at a handful of messages the header dominates any saving.
  uint32_t min_messages = 8;
};

/// Worst-case block header: codec byte + varint(count or nwords).
inline constexpr size_t kBlockHeaderMax = 11;

inline size_t varint_size(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

inline uint8_t* put_varint(uint8_t* p, uint64_t v) {
  while (v >= 0x80) {
    *p++ = uint8_t(v) | 0x80;
    v >>= 7;
  }
  *p++ = uint8_t(v);
  return p;
}

/// LEB128 decode with bounds checking; nullptr on truncation or a value
/// wider than 64 bits.
inline const uint8_t* get_varint(const uint8_t* p, const uint8_t* end,
                                 uint64_t* out) {
  uint64_t v = 0;
  for (int shift = 0; p < end && shift < 64; shift += 7) {
    uint8_t b = *p++;
    v |= uint64_t(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      *out = v;
      return p;
    }
  }
  return nullptr;
}

/// Zigzag mapping for signed rests (e.g. Vertex parents): small magnitudes
/// of either sign stay short.
inline uint64_t zigzag(int64_t v) {
  return (uint64_t(v) << 1) ^ uint64_t(v >> 63);
}
inline int64_t unzigzag(uint64_t v) {
  return int64_t(v >> 1) ^ -int64_t(v & 1);
}

/// Primary template: only types with an explicit specialization can travel
/// encoded.
template <typename T>
struct WireFormat;

/// Sender-side decision for one block: which codec and exactly how many
/// wire bytes (header included) it will occupy.
struct BlockPlan {
  WireCodec codec = WireCodec::Raw;
  uint64_t bytes = 0;
};

/// Parsed block header: where the body starts and how many messages follow.
struct BlockHeader {
  WireCodec codec = WireCodec::Raw;
  uint64_t count = 0;
  const uint8_t* body = nullptr;
};

/// Types whose first less() tie-break is an unsigned field expose it as
/// minor(), so hub runs of equal keys sort by radix too.
template <typename T>
concept HasWireMinor = requires(const T& m) {
  { WireFormat<T>::minor(m) } -> std::same_as<uint64_t>;
};

/// Blocks shorter than this keep std::sort: below a few hundred messages
/// the radix histograms cost more than the comparisons they replace.
inline constexpr size_t kRadixBlockMin = 256;

/// Sort one block into wire order: exactly the order of
/// std::sort(block, WireFormat<T>::less), which is unique because less() is
/// total.  Stable LSD passes (sort/lsd_radix.hpp) run over the key packed
/// with minor() in the low bits when both fit 64 bits, else over the key
/// alone; std::sort(less) then orders the runs still tied.  `scratch` holds
/// at least block.size() elements.
template <typename T>
void sort_block(std::span<T> block, std::span<T> scratch) {
  using WF = WireFormat<T>;
  if (block.size() < kRadixBlockMin) {
    std::sort(block.begin(), block.end(), WF::less);
    return;
  }
  uint64_t keys = 0, minors = 0;  // OR of all values: their bit widths
  for (const T& m : block) {
    keys |= WF::key(m);
    if constexpr (HasWireMinor<T>) minors |= WF::minor(m);
  }
  const int kb = std::bit_width(keys);
  int mb = std::bit_width(minors);
  if (kb + mb > 64) mb = 0;  // too wide to pack: the key alone
  // mb == 64 only when every key is 0, so the shift stays below 64.
  const int shift = mb & 63;
  const uint64_t minor_mask = mb > 0 ? ~uint64_t(0) : 0;
  auto packed = [shift, minor_mask](const T& m) -> uint64_t {
    if constexpr (HasWireMinor<T>)
      return (WF::key(m) << shift) | (WF::minor(m) & minor_mask);
    else
      return WF::key(m);
  };
  sort::lsd_radix_sort(block, scratch, packed, kb + mb);
  for (size_t i = 0; i < block.size();) {
    const uint64_t v = packed(block[i]);
    size_t j = i + 1;
    while (j < block.size() && packed(block[j]) == v) ++j;
    if (j - i > 1)
      std::sort(block.begin() + ptrdiff_t(i), block.begin() + ptrdiff_t(j),
                WF::less);
    i = j;
  }
  SUNBFS_ASSERT(std::is_sorted(block.begin(), block.end(), WF::less));
}

/// Measure `msgs` under all eligible codecs and return the smallest.
/// `sorted` tells the planner whether the caller ran the key-major sort —
/// unsorted blocks (below EncodingOptions::min_messages) always ship raw.
template <typename T>
BlockPlan plan_block(std::span<const T> msgs, bool sorted) {
  using WF = WireFormat<T>;
  const uint64_t n = msgs.size();
  if (n == 0) return {WireCodec::Raw, 0};
  const uint64_t header = 1 + varint_size(n);
  BlockPlan best{WireCodec::Raw, header + n * sizeof(T)};
  if (!sorted) return best;
  uint64_t rests = 0, deltas = 0, prev = 0;
  bool unique = true;
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t k = WF::key(msgs[i]);
    rests += WF::rest_size(msgs[i]);
    deltas += varint_size(i == 0 ? k : k - prev);
    if (i > 0 && k == prev) unique = false;
    prev = k;
  }
  const uint64_t varint_bytes = header + deltas + rests;
  if (varint_bytes < best.bytes) best = {WireCodec::Varint, varint_bytes};
  if (unique) {
    const uint64_t nwords = (WF::key(msgs[n - 1]) + 1 + 63) / 64;
    const uint64_t bitmap_bytes =
        header + varint_size(nwords) + nwords * 8 + rests;
    if (bitmap_bytes < best.bytes) best = {WireCodec::Bitmap, bitmap_bytes};
  }
  return best;
}

/// Serialize `msgs` under `codec`; returns one past the last byte written
/// (exactly plan_block(...).bytes past `out`).  The caller guarantees the
/// preconditions the plan was made under (same order, unique keys for
/// Bitmap).
template <typename T>
uint8_t* write_block(std::span<const T> msgs, WireCodec codec, uint8_t* out) {
  using WF = WireFormat<T>;
  const uint64_t n = msgs.size();
  if (n == 0) return out;
  *out++ = uint8_t(codec);
  out = put_varint(out, n);
  switch (codec) {
    case WireCodec::Raw:
      std::memcpy(out, msgs.data(), n * sizeof(T));
      return out + n * sizeof(T);
    case WireCodec::Varint: {
      uint64_t prev = 0;
      for (uint64_t i = 0; i < n; ++i) {
        const uint64_t k = WF::key(msgs[i]);
        out = put_varint(out, i == 0 ? k : k - prev);
        prev = k;
        out = WF::put_rest(msgs[i], out);
      }
      return out;
    }
    case WireCodec::Bitmap: {
      const uint64_t nwords = (WF::key(msgs[n - 1]) + 1 + 63) / 64;
      out = put_varint(out, nwords);
      std::memset(out, 0, nwords * 8);
      for (const T& m : msgs) {
        const uint64_t k = WF::key(m);
        out[k >> 3] |= uint8_t(uint8_t(1) << (k & 7));
      }
      out += nwords * 8;
      for (const T& m : msgs) out = WF::put_rest(m, out);
      return out;
    }
  }
  return out;
}

/// Parse the header of an encoded block.  A zero-byte block is the valid
/// empty block (count 0).  Returns false on a malformed header — unknown
/// codec byte, truncated count, or an explicit count of 0 (which must be
/// expressed as the empty block instead).
inline bool read_block_header(const uint8_t* p, size_t nbytes,
                              BlockHeader* h) {
  if (nbytes == 0) {
    *h = BlockHeader{WireCodec::Raw, 0, p};
    return true;
  }
  const uint8_t* end = p + nbytes;
  const uint8_t codec = *p++;
  if (codec > uint8_t(WireCodec::Bitmap)) return false;
  uint64_t n = 0;
  p = get_varint(p, end, &n);
  if (p == nullptr || n == 0) return false;
  *h = BlockHeader{WireCodec(codec), n, p};
  return true;
}

/// Decode the body of a parsed block into `out` (capacity h.count).  The
/// block must consume its byte range exactly; any truncation, overrun,
/// out-of-range key/field or bitmap popcount mismatch returns false.
template <typename T>
bool decode_block(const BlockHeader& h, const uint8_t* end, T* out) {
  using WF = WireFormat<T>;
  const uint8_t* p = h.body;
  switch (h.codec) {
    case WireCodec::Raw: {
      if (uint64_t(end - p) != h.count * sizeof(T)) return false;
      if (h.count > 0) std::memcpy(out, p, h.count * sizeof(T));
      return true;
    }
    case WireCodec::Varint: {
      uint64_t key = 0;
      for (uint64_t i = 0; i < h.count; ++i) {
        uint64_t delta = 0;
        p = get_varint(p, end, &delta);
        if (p == nullptr) return false;
        key = (i == 0) ? delta : key + delta;
        p = WF::get_rest(p, end, key, out[i]);
        if (p == nullptr) return false;
      }
      return p == end;
    }
    case WireCodec::Bitmap: {
      uint64_t nwords = 0;
      p = get_varint(p, end, &nwords);
      if (p == nullptr || nwords > uint64_t(end - p) / 8) return false;
      const uint8_t* bits = p;
      p += nwords * 8;
      uint64_t i = 0;
      for (uint64_t byte = 0; byte < nwords * 8; ++byte) {
        uint8_t b = bits[byte];
        while (b != 0) {
          if (i == h.count) return false;  // more set bits than messages
          const uint64_t key = byte * 8 + uint64_t(std::countr_zero(b));
          b &= uint8_t(b - 1);
          p = WF::get_rest(p, end, key, out[i]);
          if (p == nullptr) return false;
          ++i;
        }
      }
      return i == h.count && p == end;
    }
  }
  return false;
}

/// --- Frontier word streams -----------------------------------------------
///
/// GatherBuffer<uint64_t> payloads are bitmap words, not messages; they get
/// their own two codecs: Bitmap ships the words raw (dense frontiers),
/// Varint ships delta-coded set-bit positions (sparse frontiers).  Layout:
/// [codec byte][varint nwords][body]; empty span = zero-byte block.
/// The decoded word count is position-independent of density, so the raw
/// and encoded gathers produce identical word layouts.
struct WordsHeader {
  WireCodec codec = WireCodec::Bitmap;
  uint64_t nwords = 0;
  const uint8_t* body = nullptr;
};

BlockPlan plan_words(std::span<const uint64_t> words);
uint8_t* write_words(std::span<const uint64_t> words, WireCodec codec,
                     uint8_t* out);
bool read_words_header(const uint8_t* p, size_t nbytes, WordsHeader* h);
/// Decode into `out` (capacity h.nwords); false on malformed body.
bool decode_words(const WordsHeader& h, const uint8_t* end, uint64_t* out);

}  // namespace sunbfs::sim
