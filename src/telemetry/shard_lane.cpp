#include "telemetry/shard_lane.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace mantis::telemetry {

constinit thread_local ShardLane* ShardLane::tls_ = nullptr;

namespace {

/// Canonical order. Keys are unique — (t, src, seq) identifies the emitting
/// event, emit its operations — so this is a strict total order.
bool before(const ShardLane::Op& a, const ShardLane::Op& b) {
  if (a.t != b.t) return a.t < b.t;
  if (a.src != b.src) return a.src < b.src;
  if (a.seq != b.seq) return a.seq < b.seq;
  return a.emit < b.emit;
}

}  // namespace

void ShardLane::merge_apply(const std::vector<ShardLane*>& lanes) {
  expects(current() == nullptr,
          "ShardLane::merge_apply: must run outside any lane");
  // Each lane is already in canonical order: its group pops its events in
  // canonical order and an event's ops carry rising emit indices. So a
  // k-way merge over the lane heads yields the sorted stream, which is the
  // sequential recording order.
  struct Head {
    Op* next;
    Op* end;
  };
  std::vector<Head> heads;
  heads.reserve(lanes.size());
  for (ShardLane* lane : lanes) {
    std::vector<Op>& ops = lane->ops_;
    if (!ops.empty()) heads.push_back({ops.data(), ops.data() + ops.size()});
  }
  // Min-heap on the head op: `later` says which head comes out last.
  const auto later = [](const Head& a, const Head& b) {
    return before(*b.next, *a.next);
  };
  std::make_heap(heads.begin(), heads.end(), later);
  while (!heads.empty()) {
    std::pop_heap(heads.begin(), heads.end(), later);
    Head& h = heads.back();
    // Apply the earliest lane's run up to the next-earliest lane's head.
    const Op* bound = heads.size() > 1 ? heads.front().next : nullptr;
    do {
      h.next->apply();
      ++h.next;
    } while (h.next != h.end && (bound == nullptr || before(*h.next, *bound)));
    if (h.next == h.end) {
      heads.pop_back();
    } else {
      std::push_heap(heads.begin(), heads.end(), later);
    }
  }
  for (ShardLane* lane : lanes) lane->ops_.clear();
}

}  // namespace mantis::telemetry
