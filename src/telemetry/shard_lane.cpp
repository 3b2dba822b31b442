#include "telemetry/shard_lane.hpp"

#include <algorithm>
#include <mutex>

#include "util/check.hpp"

namespace mantis::telemetry {

constinit thread_local ShardLane* ShardLane::tls_ = nullptr;

namespace {

/// Slot pool shared by every typed sink of the process: slots of dead sinks
/// are reused first, so slot numbers stay dense across successive fabrics.
/// Never destroyed, so sinks of static objects may still return slots.
struct SlotPool {
  std::mutex mu;
  std::int32_t count = 0;
  std::vector<std::int32_t> free;
};

SlotPool& slot_pool() {
  static auto* pool = new SlotPool;
  return *pool;
}

/// Canonical order of two ops of the same sink. They come from different
/// lanes or from one lane's run, and (t, src, seq) names one executed event,
/// which runs in exactly one group: equal keys are ops of one event in one
/// lane, and only the run itself orders those.
template <typename A, typename B>
bool before(const A& a, const B& b) {
  if (a.t != b.t) return a.t < b.t;
  if (a.src != b.src) return a.src < b.src;
  return a.seq < b.seq;
}

/// K-way merge of runs that are each in canonical order: applies the
/// earliest run up to the next-earliest run's head, over a min-heap of heads.
template <typename T, typename Apply>
void merge_runs(std::vector<std::pair<T*, T*>>& heads, Apply&& apply) {
  const auto later = [](const std::pair<T*, T*>& a,
                        const std::pair<T*, T*>& b) {
    return before(*b.first, *a.first);
  };
  std::make_heap(heads.begin(), heads.end(), later);
  while (!heads.empty()) {
    std::pop_heap(heads.begin(), heads.end(), later);
    auto& h = heads.back();
    const T* bound = heads.size() > 1 ? heads.front().first : nullptr;
    do {
      apply(*h.first);
      ++h.first;
    } while (h.first != h.second &&
             (bound == nullptr || before(*h.first, *bound)));
    if (h.first == h.second) {
      heads.pop_back();
    } else {
      std::push_heap(heads.begin(), heads.end(), later);
    }
  }
}

}  // namespace

LaneSlot::~LaneSlot() {
  const std::int32_t slot = slot_.load(std::memory_order_relaxed);
  if (slot < 0) return;
  SlotPool& pool = slot_pool();
  const std::lock_guard<std::mutex> lock(pool.mu);
  pool.free.push_back(slot);
}

std::int32_t LaneSlot::claim() {
  // Two workers may make a sink's first deferral at once: the pool lock
  // lets exactly one of them assign the slot.
  SlotPool& pool = slot_pool();
  const std::lock_guard<std::mutex> lock(pool.mu);
  std::int32_t slot = slot_.load(std::memory_order_relaxed);
  if (slot >= 0) return slot;
  if (pool.free.empty()) {
    slot = pool.count++;
  } else {
    slot = pool.free.back();
    pool.free.pop_back();
  }
  slot_.store(slot, std::memory_order_release);
  return slot;
}

bool ShardLane::empty() const {
  return ops_.empty() &&
         std::all_of(runs_.begin(), runs_.end(),
                     [](const Run& run) { return run.records.empty(); });
}

void LaneReplay::plan() {
  items_.clear();
  std::size_t slots = 0;
  std::size_t ops = 0;
  for (const ShardLane* lane : lanes_) {
    slots = std::max(slots, lane->runs_.size());
    ops += lane->ops_.size();
  }
  for (std::size_t slot = 0; slot < slots; ++slot) {
    std::size_t records = 0;
    for (const ShardLane* lane : lanes_) {
      if (slot < lane->runs_.size()) {
        records += lane->runs_[slot].records.size();
      }
    }
    if (records > 0) {
      items_.push_back({static_cast<std::int32_t>(slot), records});
    }
  }
  if (ops > 0) items_.push_back({-1, ops});
  // Largest first, so the last items to be claimed are the short ones.
  std::stable_sort(items_.begin(), items_.end(),
                   [](const Item& a, const Item& b) { return a.ops > b.ops; });
  next_.store(0, std::memory_order_relaxed);
}

void LaneReplay::replay(std::size_t i) {
  expects(ShardLane::current() == nullptr,
          "LaneReplay::replay: must run outside any lane");
  const std::int32_t slot = items_[i].slot;
  if (slot < 0) {
    std::vector<std::pair<ShardLane::Op*, ShardLane::Op*>> heads;
    for (ShardLane* lane : lanes_) {
      auto& ops = lane->ops_;
      if (!ops.empty()) heads.emplace_back(ops.data(), ops.data() + ops.size());
    }
    merge_runs(heads, [](ShardLane::Op& op) { op.apply(); });
    for (ShardLane* lane : lanes_) lane->ops_.clear();
    return;
  }
  const auto s = static_cast<std::size_t>(slot);
  std::vector<std::pair<ShardLane::Record*, ShardLane::Record*>> heads;
  ShardLane::Sink sink;
  for (ShardLane* lane : lanes_) {
    if (s >= lane->runs_.size()) continue;
    auto& run = lane->runs_[s];
    if (run.records.empty()) continue;
    sink = run.sink;
    heads.emplace_back(run.records.data(),
                       run.records.data() + run.records.size());
  }
  if (sink.last_wins) {
    // Each lane keeps only its latest set; the highest key of those is the
    // write a sequential run would have made last.
    const ShardLane::Record* last = heads.front().second - 1;
    for (const auto& h : heads) {
      if (before(*last, *(h.second - 1))) last = h.second - 1;
    }
    sink.apply(sink.self, last->value);
  } else {
    merge_runs(heads, [&sink](const ShardLane::Record& rec) {
      sink.apply(sink.self, rec.value);
    });
  }
  for (ShardLane* lane : lanes_) {
    if (s < lane->runs_.size()) lane->runs_[s].records.clear();
  }
}

}  // namespace mantis::telemetry
