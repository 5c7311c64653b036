#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/comm_buffer.hpp"
#include "sim/encoding.hpp"
#include "sim/topology.hpp"
#include "support/check.hpp"

/// Pluggable exchange plans for the staged point-to-point (alltoallv-shaped)
/// frontier traffic of every engine (docs/COMM.md "Exchange plans").
///
/// The engines stage one personalized message stream per destination each
/// level; how those streams reach their destinations is the exchange plan:
///
///   Direct     one alltoallv — every rank injects every destination block
///              straight onto the network (the paper's hardware-assisted
///              exchange; our modeled baseline),
///   Butterfly  log2(P) staged hops (ButterFly BFS, arXiv 2103.13577): each
///              stage fixes one bit of the destination rank, messages are
///              re-staged between hops, and mergeable messages headed for
///              the same (destination rank, key) collapse at every stage —
///              duplicate visits die before they ever cross the
///              oversubscribed top-level links,
///   TwoDCA     the 2D communication-avoiding split (Buluç & Madduri, arXiv
///              1104.4518): stage one moves messages within the holder's
///              mesh row to the destination's column, stage two delivers
///              down the column — at most one inter-supernode hop per
///              message, with the same in-flight merging.
///
/// A plan is pure routing metadata: build() derives the stage list from
/// (backend, nparts, mesh) and hop() answers "where does a message for `dst`
/// held at `holder` go next".  Execution lives in ExchangeChannel
/// (sim/exchange_channel.hpp), which runs every stage through the ordinary
/// A2aStaging pools, so wire encoding, xxhash64 checksums, fault injection
/// and Topology byte charging all apply per stage unchanged.  stages() == 0
/// means "this plan degenerates to the direct alltoallv" (one rank, a mesh
/// the backend cannot split, or the Direct backend itself).
namespace sunbfs::sim {

enum class ExchangeBackend : uint8_t { Direct = 0, Butterfly = 1, TwoDCA = 2 };

inline const char* exchange_backend_name(ExchangeBackend b) {
  switch (b) {
    case ExchangeBackend::Direct: return "direct";
    case ExchangeBackend::Butterfly: return "butterfly";
    case ExchangeBackend::TwoDCA: return "2dca";
  }
  return "direct";
}

/// Parse "direct" / "butterfly" / "2dca"; false on anything else.
inline bool parse_exchange_backend(const std::string& s, ExchangeBackend* out) {
  if (s == "direct") *out = ExchangeBackend::Direct;
  else if (s == "butterfly") *out = ExchangeBackend::Butterfly;
  else if (s == "2dca") *out = ExchangeBackend::TwoDCA;
  else return false;
  return true;
}

/// Per-engine exchange policy, threaded from runner flags into engine
/// options (Bfs1dOptions, Bfs15dOptions, MsbfsOptions, SsspOptions).
struct ExchangeOptions {
  ExchangeBackend backend = ExchangeBackend::Direct;
};

/// Staged routing plan for one (backend, nparts, mesh) combination.
class ExchangePlan {
 public:
  /// Direct plan: zero stages, pure alltoallv.
  ExchangePlan() = default;

  /// Derive the stage list.  `nparts` is the communicator size the exchange
  /// runs over; `mesh` is the full process mesh (TwoDCA needs the row/column
  /// geometry and only applies when nparts covers the whole mesh).
  static ExchangePlan build(ExchangeBackend backend, int nparts,
                            MeshShape mesh) {
    ExchangePlan plan;
    plan.backend_ = backend;
    plan.nparts_ = nparts;
    plan.mesh_ = mesh;
    if (nparts <= 1) return plan;
    switch (backend) {
      case ExchangeBackend::Direct:
        break;
      case ExchangeBackend::Butterfly: {
        // q = largest power of two <= nparts.  Non-power-of-two sizes fold
        // the tail ranks [q, nparts) onto [0, nparts - q) first, run the
        // log2(q) bit stages on the power-of-two core, then unfold.
        int q = 1;
        while (q * 2 <= nparts) q *= 2;
        plan.q_ = q;
        if (nparts > q) plan.push_stage(StageKind::Fold, 0);
        // Low bits first: with row-major rank numbering the low bits select
        // the column, so the early stages hop inside a supernode row and
        // merging happens before any oversubscribed inter-supernode link.
        for (int bit = 1; bit < q; bit *= 2)
          plan.push_stage(StageKind::Bit, bit);
        if (nparts > q) plan.push_stage(StageKind::Unfold, 0);
        break;
      }
      case ExchangeBackend::TwoDCA:
        // Row split then column delivery; needs the full mesh and a shape
        // with something to split (a 1xC or Rx1 mesh is already direct).
        if (nparts == mesh.ranks() && mesh.rows > 1 && mesh.cols > 1) {
          plan.push_stage(StageKind::RowSplit, 0);
          plan.push_stage(StageKind::ColDeliver, 0);
        }
        break;
    }
    return plan;
  }

  ExchangeBackend backend() const { return backend_; }
  int nparts() const { return nparts_; }
  /// Number of staged hops; 0 means execute as one direct alltoallv.
  int stages() const { return int(kinds_.size()); }

  /// Next hop for a message destined to `dst` currently held at `holder`.
  /// hop(stage, ...) == holder is a (free) self-hop.  After running every
  /// stage in order the message is at `dst`.
  int hop(int stage, int holder, int dst) const {
    SUNBFS_ASSERT(stage >= 0 && stage < stages());
    SUNBFS_ASSERT(holder >= 0 && holder < nparts_);
    SUNBFS_ASSERT(dst >= 0 && dst < nparts_);
    switch (kinds_[size_t(stage)]) {
      case StageKind::Fold:
        return holder >= q_ ? holder - q_ : holder;
      case StageKind::Bit: {
        const int bit = bits_[size_t(stage)];
        const int t = dst >= q_ ? dst - q_ : dst;  // core image of dst
        return (holder & ~bit) | (t & bit);
      }
      case StageKind::Unfold:
        return dst >= q_ ? dst : holder;
      case StageKind::RowSplit:
        return mesh_.rank_of(mesh_.row_of(holder), mesh_.col_of(dst));
      case StageKind::ColDeliver:
        return dst;
    }
    return dst;
  }

 private:
  enum class StageKind : uint8_t { Fold, Bit, Unfold, RowSplit, ColDeliver };

  void push_stage(StageKind kind, int bit) {
    kinds_.push_back(kind);
    bits_.push_back(bit);
  }

  ExchangeBackend backend_ = ExchangeBackend::Direct;
  int nparts_ = 0;
  int q_ = 0;  // butterfly power-of-two core size
  MeshShape mesh_{};
  std::vector<StageKind> kinds_;
  std::vector<int> bits_;  // parallel to kinds_; the bit of each Bit stage
};

/// ---- In-flight merging ---------------------------------------------------
///
/// A staged exchange holds messages from many sources at intermediate ranks;
/// collapsing messages that a receiver would reduce anyway is where the
/// butterfly's byte win comes from.  A message type opts in by specializing
/// ExchangeMergePolicy<T> next to its WireFormat (bfs/messages.hpp,
/// service/msbfs.hpp, analytics/sssp.hpp):
///
///   static constexpr bool enabled;
///   static bool same(const T& a, uint32_t a_src_part,
///                    const T& b, uint32_t b_src_part);  // same merge group
///   static void fold(T& into, uint32_t& into_src_part,
///                    const T& from, uint32_t from_src_part);
///
/// fold() must reproduce the receiver's reduction exactly (max parent, min
/// distance, OR of query masks), and same() must group only messages the
/// receiver would reduce together — when a merged message's meaning depends
/// on which rank sent it (CompactMsg local source indices), either same()
/// keeps sources apart (MsbfsMsg) or fold() rewrites the surviving source
/// rank (CompactMsg picks the max (rank, local-id) pair, which is the max
/// global parent under the monotone block layout).  Merging only ever runs
/// inside staged plans; the Direct backend's bytes are untouched.
template <typename T>
struct ExchangeMergePolicy {
  static constexpr bool enabled = false;
};

/// Routing envelope for staged hops: the final destination rank and the
/// originating rank ride along so intermediate holders can re-stage and the
/// final holder can rebuild the per-source delimiters the receivers' index
/// reconstruction depends on.  `route` leads the struct so the layout has no
/// uninitialized padding beyond what T itself carries (raw-codec blocks and
/// fault checksums memcpy whole structs).
template <typename T>
struct Routed {
  uint64_t route;  // dst_part << 32 | src_part
  T msg;

  static uint64_t make_route(uint32_t dst_part, uint32_t src_part) {
    return (uint64_t(dst_part) << 32) | uint64_t(src_part);
  }
  uint32_t dst_part() const { return uint32_t(route >> 32); }
  uint32_t src_part() const { return uint32_t(route); }
};

/// ExchangeFold bridge: A2aStaging's merge pass (comm_buffer.hpp) folds
/// adjacent same-group Routed messages using the payload's merge policy.
/// Grouping ignores the source rank — collapsing duplicates from different
/// sources is the point — so fold() lets the policy pick the surviving
/// source.
template <typename T>
struct ExchangeFold<Routed<T>> {
  static constexpr bool enabled = ExchangeMergePolicy<T>::enabled;
  static bool same(const Routed<T>& a, const Routed<T>& b) {
    return a.dst_part() == b.dst_part() &&
           ExchangeMergePolicy<T>::same(a.msg, a.src_part(), b.msg,
                                        b.src_part());
  }
  static void fold(Routed<T>& into, const Routed<T>& from) {
    uint32_t src = into.src_part();
    ExchangeMergePolicy<T>::fold(into.msg, src, from.msg, from.src_part());
    into.route = Routed<T>::make_route(into.dst_part(), src);
  }
};

/// Wire format of the routing envelope: the payload's key drives sorting and
/// delta coding; the route and the payload's rest fields travel as varints.
/// Same-key messages order route-major, which is exactly the adjacency the
/// merge pass needs (same destination rank together, then same source).
template <typename T>
struct WireFormat<Routed<T>> {
  using Inner = WireFormat<T>;
  static uint64_t key(const Routed<T>& m) { return Inner::key(m.msg); }
  static bool less(const Routed<T>& a, const Routed<T>& b) {
    const uint64_t ka = key(a), kb = key(b);
    if (ka != kb) return ka < kb;
    if (a.route != b.route) return a.route < b.route;
    return Inner::less(a.msg, b.msg);
  }
  static uint64_t minor(const Routed<T>& m) { return m.route; }
  static size_t rest_size(const Routed<T>& m) {
    return varint_size(m.dst_part()) + varint_size(m.src_part()) +
           Inner::rest_size(m.msg);
  }
  static uint8_t* put_rest(const Routed<T>& m, uint8_t* p) {
    p = put_varint(p, m.dst_part());
    p = put_varint(p, m.src_part());
    return Inner::put_rest(m.msg, p);
  }
  static const uint8_t* get_rest(const uint8_t* p, const uint8_t* end,
                                 uint64_t key, Routed<T>& m) {
    uint64_t dst_part = 0, src_part = 0;
    p = get_varint(p, end, &dst_part);
    if (p == nullptr || dst_part > UINT32_MAX) return nullptr;
    p = get_varint(p, end, &src_part);
    if (p == nullptr || src_part > UINT32_MAX) return nullptr;
    m.route = Routed<T>::make_route(uint32_t(dst_part), uint32_t(src_part));
    return Inner::get_rest(p, end, key, m.msg);
  }
};

/// ---- Plan scoring --------------------------------------------------------

/// Modeled cost of running one exchange of `bytes_per_rank` per-rank payload
/// under a plan, from the uniform-traffic volume model (no merge discount —
/// the score is the upper bound a backend must beat through merging; the
/// benches report both the score and the measured bytes).
struct ExchangeScore {
  int stages = 0;            ///< 0 = direct
  uint64_t total_bytes = 0;  ///< bytes crossing any link, all stages
  uint64_t inter_bytes = 0;  ///< subset crossing supernodes
  double modeled_s = 0;      ///< sum of per-stage Topology::transfer_time
};

/// Score `plan` on `topo` assuming every rank sends `bytes_per_rank` spread
/// uniformly over all destinations.  Self-hops are free, matching Comm's
/// byte accounting.
ExchangeScore score_exchange_plan(const Topology& topo,
                                  const ExchangePlan& plan,
                                  uint64_t bytes_per_rank);

}  // namespace sunbfs::sim
