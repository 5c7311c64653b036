#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "obs/trace.hpp"
#include "sim/comm.hpp"
#include "sort/paradis.hpp"

/// Parallel Sorting by Regular Sampling (Shi & Schaeffer, 1992) across the
/// SPMD ranks — the paper's "in-place global sort" (§5) used to split and
/// rebuild all six subgraphs during preprocessing.
///
/// Protocol: local sort (PARADIS) → each rank contributes P regular samples
/// → every rank picks the same P-1 pivots from the gathered sample →
/// partition local runs by pivot → alltoallv exchange → local multiway merge.
/// The result is a globally sorted sequence distributed over ranks (rank i's
/// elements all ≤ rank i+1's), roughly balanced for non-adversarial inputs.
namespace sunbfs::sort {

/// Globally sort the per-rank `local` arrays by `key_of` (64-bit key); the
/// local sorts run on this rank's `pool`.  Returns this rank's slice of the
/// sorted global sequence.
template <typename T, typename KeyFn>
std::vector<T> psrs_sort(sim::Comm& comm, std::vector<T> local, KeyFn key_of,
                         ThreadPool& pool) {
  static_assert(std::is_trivially_copyable_v<T>);
  obs::Span span("sort", "psrs_sort", int64_t(local.size()));
  const int p = comm.size();
  if (p == 1) {
    paradis_sort(std::span<T>(local), key_of, pool);
    return local;
  }

  paradis_sort(std::span<T>(local), key_of, pool);

  // Regular sampling: p samples per rank at positions (i+1)*n/(p+1).
  std::vector<uint64_t> samples;
  samples.reserve(size_t(p));
  for (int i = 0; i < p; ++i) {
    if (local.empty()) break;
    size_t idx = (size_t(i) + 1) * local.size() / (size_t(p) + 1);
    samples.push_back(uint64_t(key_of(local[std::min(idx, local.size() - 1)])));
  }
  std::vector<uint64_t> all_samples =
      comm.allgatherv(std::span<const uint64_t>(samples));
  std::sort(all_samples.begin(), all_samples.end());

  // p-1 pivots at regular positions of the gathered sample.
  std::vector<uint64_t> pivots;
  pivots.reserve(size_t(p) - 1);
  if (!all_samples.empty()) {
    for (int i = 1; i < p; ++i) {
      size_t idx = size_t(i) * all_samples.size() / size_t(p);
      pivots.push_back(all_samples[std::min(idx, all_samples.size() - 1)]);
    }
  }

  // The pivots cut the locally sorted run into p destination blocks, sent
  // in place: off[d] is the first index with key > pivots[d-1] (elements
  // equal to a pivot stay left).
  std::vector<uint64_t> off(size_t(p) + 1, local.size());
  off[0] = 0;
  for (int d = 1; d < p && size_t(d) <= pivots.size(); ++d) {
    uint64_t piv = pivots[size_t(d) - 1];
    auto it = std::upper_bound(
        local.begin() + long(off[size_t(d) - 1]), local.end(), piv,
        [&](uint64_t k, const T& v) { return k < uint64_t(key_of(v)); });
    off[size_t(d)] = uint64_t(it - local.begin());
  }

  // Exchange and merge the received sorted runs.
  std::vector<T> received;
  comm.alltoallv_flat(std::span<const T>(local), std::span<const uint64_t>(off),
                      received);
  local.clear();
  local.shrink_to_fit();
  // The p runs are each sorted; a final sort is O(n log p)-ish via PARADIS.
  paradis_sort(std::span<T>(received), key_of, pool);
  return received;
}

}  // namespace sunbfs::sort
