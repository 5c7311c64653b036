#pragma once

#include <cstdint>

#include "graph/types.hpp"
#include "sim/encoding.hpp"
#include "sim/exchange.hpp"

/// Wire formats of the engines' visit messages (shared by bfs1d, bfs15d and
/// the reusable staging pools in BfsWorkspace), plus their adaptive wire
/// codecs (sim/encoding.hpp): the destination id is the sort/bitmap key and
/// the remaining fields travel as varints.  The ExchangeMergePolicy
/// specializations below are what staged exchange plans (sim/exchange.hpp)
/// fold in flight; each reproduces the engines' store-max parent reduction.
namespace sunbfs::bfs {

/// Full-width visit message: set `dst`'s parent to `parent`.  Used where the
/// destination must survive re-routing (L2L forwarding) or already is a
/// global id (delayed parent delivery).
struct VisitMsg {
  graph::Vertex dst;     // global L id (L2L forwarding) or global vertex id
  graph::Vertex parent;  // global vertex id
};

/// Compact 8-byte visit message for the hot alltoallv paths: destinations
/// travel as receiver-local indices (or EH ids) and parents as sender-local
/// indices (or EH ids); the receiver reconstructs global ids from the
/// alltoallv source offsets.  Halves the per-edge traffic, as record BFS
/// implementations do.
struct CompactMsg {
  uint32_t dst;
  uint32_t src;
};

/// Speculative visit of the asynchronous engine (bfs/bfsasync.cpp): claim
/// depth `depth` for receiver-local vertex `dst` with global parent
/// `parent`.  Unlike the level-synchronous messages the depth must travel —
/// one exchange round carries claims from many BFS levels at once, and a
/// vertex may be re-claimed by a shallower visit later.  The engine checks
/// that the vertex space fits 32 bits before staging these.
struct AsyncVisitMsg {
  uint32_t dst;     ///< receiver-local vertex index
  uint32_t parent;  ///< global parent id
  uint32_t depth;   ///< speculative depth claimed for dst
};

}  // namespace sunbfs::bfs

namespace sunbfs::sim {

template <>
struct WireFormat<bfs::VisitMsg> {
  static uint64_t key(const bfs::VisitMsg& m) { return uint64_t(m.dst); }
  static bool less(const bfs::VisitMsg& a, const bfs::VisitMsg& b) {
    return a.dst != b.dst ? a.dst < b.dst : a.parent < b.parent;
  }
  static size_t rest_size(const bfs::VisitMsg& m) {
    return varint_size(zigzag(m.parent));
  }
  static uint8_t* put_rest(const bfs::VisitMsg& m, uint8_t* p) {
    return put_varint(p, zigzag(m.parent));
  }
  static const uint8_t* get_rest(const uint8_t* p, const uint8_t* end,
                                 uint64_t key, bfs::VisitMsg& m) {
    if (key > uint64_t(INT64_MAX)) return nullptr;
    uint64_t v = 0;
    p = get_varint(p, end, &v);
    if (p == nullptr) return nullptr;
    m.dst = graph::Vertex(key);
    m.parent = unzigzag(v);
    return p;
  }
};

template <>
struct WireFormat<bfs::CompactMsg> {
  static uint64_t key(const bfs::CompactMsg& m) { return m.dst; }
  static bool less(const bfs::CompactMsg& a, const bfs::CompactMsg& b) {
    return a.dst != b.dst ? a.dst < b.dst : a.src < b.src;
  }
  static uint64_t minor(const bfs::CompactMsg& m) { return m.src; }
  static size_t rest_size(const bfs::CompactMsg& m) {
    return varint_size(m.src);
  }
  static uint8_t* put_rest(const bfs::CompactMsg& m, uint8_t* p) {
    return put_varint(p, m.src);
  }
  static const uint8_t* get_rest(const uint8_t* p, const uint8_t* end,
                                 uint64_t key, bfs::CompactMsg& m) {
    if (key > UINT32_MAX) return nullptr;
    uint64_t v = 0;
    p = get_varint(p, end, &v);
    if (p == nullptr || v > UINT32_MAX) return nullptr;
    m.dst = uint32_t(key);
    m.src = uint32_t(v);
    return p;
  }
};

/// Visit messages for the same destination collapse to the max parent — the
/// engines' store_max claim makes the winning parent per (vertex, level)
/// order-independent, so dropping the losers in flight changes nothing a
/// receiver can observe.
template <>
struct ExchangeMergePolicy<bfs::VisitMsg> {
  static constexpr bool enabled = true;
  static bool same(const bfs::VisitMsg& a, uint32_t, const bfs::VisitMsg& b,
                   uint32_t) {
    return a.dst == b.dst;
  }
  static void fold(bfs::VisitMsg& into, uint32_t&, const bfs::VisitMsg& from,
                   uint32_t) {
    if (from.parent > into.parent) into.parent = from.parent;
  }
};

template <>
struct WireFormat<bfs::AsyncVisitMsg> {
  static uint64_t key(const bfs::AsyncVisitMsg& m) { return m.dst; }
  static bool less(const bfs::AsyncVisitMsg& a, const bfs::AsyncVisitMsg& b) {
    if (a.dst != b.dst) return a.dst < b.dst;
    if (a.depth != b.depth) return a.depth < b.depth;
    return a.parent < b.parent;
  }
  static uint64_t minor(const bfs::AsyncVisitMsg& m) { return m.depth; }
  static size_t rest_size(const bfs::AsyncVisitMsg& m) {
    return varint_size(m.depth) + varint_size(m.parent);
  }
  static uint8_t* put_rest(const bfs::AsyncVisitMsg& m, uint8_t* p) {
    p = put_varint(p, m.depth);
    return put_varint(p, m.parent);
  }
  static const uint8_t* get_rest(const uint8_t* p, const uint8_t* end,
                                 uint64_t key, bfs::AsyncVisitMsg& m) {
    if (key > UINT32_MAX) return nullptr;
    uint64_t depth = 0, parent = 0;
    p = get_varint(p, end, &depth);
    if (p == nullptr || depth > UINT32_MAX) return nullptr;
    p = get_varint(p, end, &parent);
    if (p == nullptr || parent > UINT32_MAX) return nullptr;
    m.dst = uint32_t(key);
    m.depth = uint32_t(depth);
    m.parent = uint32_t(parent);
    return p;
  }
};

/// Compact visits carry sender-local parents, so the fold compares and keeps
/// the max (source rank, local id) pair — under the monotone block layout
/// (to_global(rank, lloc) = base[rank] + lloc) that IS the max global
/// parent, and the surviving source rank rides the route so the receiver's
/// reconstruction still resolves it.  Only the world-communicator sites use
/// staged plans: the H2L row exchange, whose src field is an EH id with a
/// non-monotone global mapping, always runs direct.
template <>
struct ExchangeMergePolicy<bfs::CompactMsg> {
  static constexpr bool enabled = true;
  static bool same(const bfs::CompactMsg& a, uint32_t, const bfs::CompactMsg& b,
                   uint32_t) {
    return a.dst == b.dst;
  }
  static void fold(bfs::CompactMsg& into, uint32_t& into_src_part,
                   const bfs::CompactMsg& from, uint32_t from_src_part) {
    if (from_src_part > into_src_part ||
        (from_src_part == into_src_part && from.src > into.src)) {
      into.src = from.src;
      into_src_part = from_src_part;
    }
  }
};

/// Async visits fold to the minimum depth (max global parent on ties) — the
/// same compare-and-lower rule the receiving rank's claim slot applies, so
/// collapsing speculative duplicates in flight changes nothing a receiver
/// can observe.  Unlike CompactMsg the parent is already a global id, so the
/// surviving source rank is irrelevant to reconstruction.
template <>
struct ExchangeMergePolicy<bfs::AsyncVisitMsg> {
  static constexpr bool enabled = true;
  static bool same(const bfs::AsyncVisitMsg& a, uint32_t,
                   const bfs::AsyncVisitMsg& b, uint32_t) {
    return a.dst == b.dst;
  }
  static void fold(bfs::AsyncVisitMsg& into, uint32_t&,
                   const bfs::AsyncVisitMsg& from, uint32_t) {
    if (from.depth < into.depth ||
        (from.depth == into.depth && from.parent > into.parent)) {
      into.depth = from.depth;
      into.parent = from.parent;
    }
  }
};

}  // namespace sunbfs::sim
