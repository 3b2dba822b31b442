#include "telemetry/shard_lane.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace mantis::telemetry {

constinit thread_local ShardLane* ShardLane::tls_ = nullptr;

void ShardLane::merge_apply(const std::vector<ShardLane*>& lanes) {
  expects(current() == nullptr,
          "ShardLane::merge_apply: must run outside any lane");
  std::size_t total = 0;
  for (const ShardLane* lane : lanes) total += lane->ops_.size();
  if (total == 0) return;

  std::vector<Op*> merged;
  merged.reserve(total);
  for (ShardLane* lane : lanes) {
    for (Op& op : lane->ops_) merged.push_back(&op);
  }
  // Canonical order. Keys are unique — (t, src, seq) identifies the
  // emitting event, emit its operations — so the sort is a total order and
  // the merged stream equals the sequential recording order.
  std::sort(merged.begin(), merged.end(), [](const Op* a, const Op* b) {
    if (a->t != b->t) return a->t < b->t;
    if (a->src != b->src) return a->src < b->src;
    if (a->seq != b->seq) return a->seq < b->seq;
    return a->emit < b->emit;
  });
  for (Op* op : merged) op->apply();
  for (ShardLane* lane : lanes) lane->ops_.clear();
}

}  // namespace mantis::telemetry
