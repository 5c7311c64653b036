#include "sim/comm.hpp"

namespace sunbfs::sim {

CommShared::CommShared(std::vector<int> ranks, const Topology* topo,
                       bool spin)
    : global_ranks(std::move(ranks)),
      topology(topo),
      barrier(int(global_ranks.size()), spin),
      inline_slots(global_ranks.size() * 2),
      ptrs(global_ranks.size(), nullptr),
      nbytes(global_ranks.size(), 0),
      sums(global_ranks.size(), 0),
      a2a_ptrs(global_ranks.size() * global_ranks.size(), nullptr),
      a2a_nbytes(global_ranks.size() * global_ranks.size(), 0),
      a2a_sums(global_ranks.size() * global_ranks.size(), 0),
      cpu_arrival(global_ranks.size() * 2, 0.0) {
  SUNBFS_CHECK(!global_ranks.empty());
  SUNBFS_CHECK(topology != nullptr);
}

}  // namespace sunbfs::sim
