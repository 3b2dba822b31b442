#include "net/engine.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace mantis::net {

namespace {
/// Spin iterations before a waiter parks on the condition variable. Rounds
/// are microseconds of host work, so the common case stays in user space.
constexpr int kSpinIterations = 4096;
}  // namespace

Duration ParallelFabricEngine::compute_lookahead(Fabric& fabric) {
  Duration min_delay = -1;
  for (std::size_t i = 0; i < fabric.num_links(); ++i) {
    const auto& model = fabric.link(i).model();
    // +1: serialization_time() floors at 1 ns, so an arrival is always at
    // least propagation + 1 after the transmit instant.
    const Duration d = model.propagation + 1;
    if (min_delay < 0 || d < min_delay) min_delay = d;
  }
  return min_delay < 0 ? 1 : min_delay;
}

std::vector<std::int32_t> ParallelFabricEngine::assign_groups(
    const std::vector<std::uint64_t>& weights, int groups) {
  expects(groups >= 1, "assign_groups: need >= 1 group");
  const int n = static_cast<int>(weights.size());
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return weights[static_cast<std::size_t>(a)] >
           weights[static_cast<std::size_t>(b)];
  });
  std::vector<std::uint64_t> load(static_cast<std::size_t>(groups), 0);
  std::vector<std::int32_t> group_of(static_cast<std::size_t>(n), 0);
  for (const int tag : order) {
    int best = 0;
    for (int g = 1; g < groups; ++g) {
      if (load[static_cast<std::size_t>(g)] <
          load[static_cast<std::size_t>(best)]) {
        best = g;
      }
    }
    group_of[static_cast<std::size_t>(tag)] = best;
    // +1 so zero-weight switches still spread instead of piling on group 0.
    load[static_cast<std::size_t>(best)] +=
        weights[static_cast<std::size_t>(tag)] + 1;
  }
  return group_of;
}

ParallelFabricEngine::ParallelFabricEngine(Fabric& fabric, int threads)
    : ParallelFabricEngine(fabric, threads, Options()) {}

ParallelFabricEngine::ParallelFabricEngine(Fabric& fabric, int threads,
                                           Options options)
    : loop_(&fabric.loop()),
      fabric_(&fabric),
      threads_(std::max(1, threads)),
      lookahead_(compute_lookahead(fabric)) {
  expects(lookahead_ > 0, "ParallelFabricEngine: non-positive lookahead");
  if (threads_ <= 1) return;  // sequential: no machinery at all

  const int num_shards = fabric.num_shards();
  int groups = options.groups > 0 ? options.groups
                                  : std::min(num_shards, threads_ * 2);
  groups = std::min(groups, num_shards);
  groups = std::max(groups, 1);
  // Never more threads than groups; the remainder would only spin.
  threads_ = std::min(threads_, groups);
  if (threads_ <= 1) return;

  // Weight: link degree (hosts included — host events run on the uplink
  // switch's shard), a decent static proxy for event load.
  std::vector<std::uint64_t> weights(static_cast<std::size_t>(num_shards), 0);
  for (const auto& l : fabric.topo().links) {
    ++weights[static_cast<std::size_t>(fabric.shard_of(l.a))];
    ++weights[static_cast<std::size_t>(fabric.shard_of(l.b))];
  }
  group_of_ = assign_groups(weights, groups);

  // Profiler shard cells must exist before workers start (the cell array
  // is grown only from this thread). Touching telemetry() here only forces
  // bundle creation, which components sharing the loop do anyway. Cells
  // are per execution GROUP: that is the unit of round imbalance.
  prof_ = &loop_->telemetry().prof();
  prof_->ensure_shards(static_cast<std::size_t>(groups));
  // Lanes take the registry's part width, at least `groups`: sinks that a
  // narrower engine on this loop already split into parts grow now, between
  // rounds, and the rest allocate that many parts on first use.
  const int parts = loop_->telemetry().metrics().group_parts_width(groups);

  loop_->ensure_tags(num_shards);
  seq_base_ = loop_->seq_array();  // stable: tags can never grow the table
  groups_.reserve(static_cast<std::size_t>(groups));
  for (int g = 0; g < groups; ++g) {
    groups_.push_back(std::make_unique<Group>(g, parts));
    lanes_.push_back(&groups_.back()->lane);
  }
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int w = 1; w < threads_; ++w) {
    workers_.emplace_back([this, w] { worker_main(w); });
  }
}

ParallelFabricEngine::~ParallelFabricEngine() {
  if (workers_.empty()) return;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    stop_flag_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
}

int ParallelFabricEngine::num_groups() const {
  return groups_.empty() ? 1 : static_cast<int>(groups_.size());
}

int ParallelFabricEngine::group_of(int tag) const {
  expects(tag >= 0 && tag < static_cast<int>(group_of_.size()),
          "ParallelFabricEngine::group_of: bad tag");
  return group_of_[static_cast<std::size_t>(tag)];
}

void ParallelFabricEngine::publish_round() {
  done_.store(0, std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++round_guard_;
    round_seq_.store(round_guard_, std::memory_order_release);
  }
  cv_.notify_all();
}

std::uint64_t ParallelFabricEngine::wait_for_round(std::uint64_t seen) {
  for (int spin = 0; spin < kSpinIterations; ++spin) {
    const std::uint64_t cur = round_seq_.load(std::memory_order_acquire);
    if (cur != seen) return cur;
    if (stop_flag_.load(std::memory_order_acquire)) return seen;
    std::this_thread::yield();
  }
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return round_guard_ != seen || stop_; });
  return round_guard_ != seen ? round_guard_ : seen;
}

void ParallelFabricEngine::wait_for_helpers() {
  while (done_.load(std::memory_order_acquire) < threads_ - 1) {
    std::this_thread::yield();
  }
}

void ParallelFabricEngine::worker_main(int worker) {
  std::uint64_t seen = 0;
  while (true) {
    const std::uint64_t cur = wait_for_round(seen);
    if (cur == seen) return;  // stop requested, no newer round
    seen = cur;
    run_group_range(worker, round_end_);
    done_.fetch_add(1, std::memory_order_acq_rel);
  }
}

void ParallelFabricEngine::run_group_range(int worker, Time round_end) {
  for (int g = worker; g < static_cast<int>(groups_.size()); g += threads_) {
    run_group(*groups_[static_cast<std::size_t>(g)], round_end);
  }
}

void ParallelFabricEngine::run_group(Group& group, Time round_end) {
  if (group.local.empty()) return;
  sim::EventLoop::ShardFrame frame;
  frame.loop = loop_;
  frame.round_end = round_end;
  frame.seq_base = seq_base_;
  frame.local = &group.local;
  frame.outbox = &group.outbox;
  sim::EventLoop::set_shard_frame(&frame);
  telemetry::ShardLane::set_current(&group.lane);
  while (!group.local.empty()) {
    sim::EventLoop::Event ev = group.local.pop_top();
    frame.now = ev.t;
    // The frame tracks the running event's own tag — a group interleaves
    // several switches' events in canonical order, and each event's
    // schedules must stamp src = its switch, not "the group", to keep
    // canonical keys identical to the sequential engine's.
    frame.shard = ev.dst;
    // Telemetry from this callback carries the event's own key.
    group.lane.begin_event(ev.t, ev.src, ev.seq);
    ++group.executed_round;
#if MANTIS_TELEMETRY_ENABLED
    {
      // Wall-clock/allocation attribution only; the virtual clock and event
      // order are untouched (parallel-equivalence contract).
      telemetry::prof::EventScope prof_scope(prof_, group.id);
      ev.cb();
    }
#else
    ev.cb();
#endif
  }
  telemetry::ShardLane::set_current(nullptr);
  sim::EventLoop::set_shard_frame(nullptr);
}

void ParallelFabricEngine::run_until(Time t) {
  auto& loop = *loop_;
  if (threads_ <= 1 || groups_.empty()) {
    loop.run_until(t);
    return;
  }
  while (true) {
    std::optional<Time> end;
    {
      MANTIS_PROF_SCOPE(prof_, kOther, "engine.serial");
      end = serial_section(t);
    }
    if (end) {
      run_round(*end);
      continue;
    }
    if (loop.queue_empty() || loop.next_time() > t) break;
    // Control events run inline (they may mutate shard state — table
    // commits, fault transitions — which is safe exactly because no round
    // is in flight). An event at t itself also runs inline rather than
    // opening a zero-width round.
    loop.step();
  }
  loop.run_until(t);
}

std::optional<Time> ParallelFabricEngine::serial_section(Time t) {
  auto& loop = *loop_;
  // The last round's closures, before any control event records directly.
  telemetry::ShardLane::merge_apply(lanes_);
  // Outbox reinsertion: keys are pre-assigned, so insertion order is
  // irrelevant.
  for (auto& group : groups_) {
    for (auto& ev : group->outbox) loop.reinsert(std::move(ev));
    group->outbox.clear();
  }
  // The next round: every event before min(t, start + lookahead), cut at
  // the first control event. It holds at least the first event, which is
  // not a control event and is earlier than that horizon.
  std::optional<Time> end;
  if (!loop.queue_empty() &&
      loop.next_dst() != sim::EventLoop::kControlShard) {
    const Time start = loop.next_time();
    const Time cap = std::min(t, start + lookahead_);
    if (start < cap) {
      end = loop.extract_until(cap, extract_buf_);
#if MANTIS_TELEMETRY_ENABLED
      if (prof_ != nullptr && prof_->enabled()) {
        prof_->count_local_push(
            static_cast<std::uint64_t>(extract_buf_.size()));
      }
#endif
      for (auto& ev : extract_buf_) {
        groups_[static_cast<std::size_t>(
                    group_of_[static_cast<std::size_t>(ev.dst)])]
            ->local.push(std::move(ev));
      }
      extract_buf_.clear();
    }
  }
  return end;
}

void ParallelFabricEngine::run_round(Time end) {
  // Publish the round: group heaps and round_end_ are written before the
  // release store on round_seq_, acquired by each worker's spin/wait.
  round_end_ = end;
  publish_round();
  // The calling thread takes worker slot 0.
  run_group_range(0, end);
#if MANTIS_TELEMETRY_ENABLED
  const bool profiling = prof_ != nullptr && prof_->enabled();
  const std::int64_t stall_t0 =
      profiling ? telemetry::prof::Profiler::wall_now_ns() : 0;
#endif
  wait_for_helpers();
  ++rounds_;
#if MANTIS_TELEMETRY_ENABLED
  if (profiling) {
    const std::int64_t stall =
        telemetry::prof::Profiler::wall_now_ns() - stall_t0;
    // Round load shape: busiest group vs mean (imbalance), groups with no
    // work at all (lookahead-limited idle windows).
    std::uint64_t total = 0, max_events = 0;
    std::size_t idle = 0;
    for (auto& group : groups_) {
      const std::uint64_t e = group->executed_round;
      total += e;
      if (e > max_events) max_events = e;
      if (e == 0) ++idle;
    }
    prof_->note_round(max_events, total, idle,
                      stall > 0 ? static_cast<std::uint64_t>(stall) : 0);
    // Bounded counter-track samples for the Chrome export, every 256
    // rounds so sampling never shows up in the profile itself.
    if ((rounds_ & 0xFFu) == 0) prof_->sample(end);
  }
#endif
  for (auto& group : groups_) group->executed_round = 0;
}

}  // namespace mantis::net
