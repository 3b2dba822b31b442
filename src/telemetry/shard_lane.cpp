#include "telemetry/shard_lane.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace mantis::telemetry {

constinit thread_local ShardLane* ShardLane::tls_ = nullptr;

void ShardLane::merge_apply(const std::vector<ShardLane*>& lanes) {
  expects(current() == nullptr,
          "ShardLane::merge_apply: must run outside any lane");
  // K-way merge over a min-heap of lane heads: applies the earliest lane up
  // to the next-earliest lane's head. Equal keys are closures of one event,
  // which sit in one lane, so only that lane orders them.
  using Head = std::pair<Op*, Op*>;
  std::vector<Head> heads;
  for (ShardLane* lane : lanes) {
    auto& ops = lane->ops_;
    if (!ops.empty()) heads.emplace_back(ops.data(), ops.data() + ops.size());
  }
  const auto later = [](const Head& a, const Head& b) {
    return b.first->key < a.first->key;
  };
  std::make_heap(heads.begin(), heads.end(), later);
  while (!heads.empty()) {
    std::pop_heap(heads.begin(), heads.end(), later);
    Head& h = heads.back();
    const Op* bound = heads.size() > 1 ? heads.front().first : nullptr;
    do {
      h.first->apply();
      ++h.first;
    } while (h.first != h.second &&
             (bound == nullptr || h.first->key < bound->key));
    if (h.first == h.second) {
      heads.pop_back();
    } else {
      std::push_heap(heads.begin(), heads.end(), later);
    }
  }
  for (ShardLane* lane : lanes) lane->ops_.clear();
}

}  // namespace mantis::telemetry
