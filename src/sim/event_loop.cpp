#include "sim/event_loop.hpp"

namespace mantis::sim {

constinit thread_local EventLoop::ShardFrame* EventLoop::tls_frame_ = nullptr;

telemetry::Telemetry& EventLoop::telemetry() {
  if (!telemetry_) {
    telemetry_ = std::make_unique<mantis::telemetry::Telemetry>();
    // now() (not now_): trace events emitted from worker threads must read
    // the shard-local clock of the running event.
    telemetry_->tracer().set_clock([this] { return now(); });
    prof_ = &telemetry_->prof();
  }
  return *telemetry_;
}

std::uint64_t EventLoop::next_seq(int src) {
  const auto idx = static_cast<std::size_t>(src + 1);
  if (idx >= seq_by_src_.size()) seq_by_src_.resize(idx + 1, 0);
  return seq_by_src_[idx]++;
}

void EventLoop::ensure_tags(int count) {
  expects(count >= 0, "EventLoop::ensure_tags: negative count");
  const auto need = static_cast<std::size_t>(count) + 1;
  if (seq_by_src_.size() < need) seq_by_src_.resize(need, 0);
}

std::uint64_t* EventLoop::seq_counter(int tag) {
  const auto idx = static_cast<std::size_t>(tag + 1);
  expects(tag >= kControlShard && idx < seq_by_src_.size(),
          "EventLoop::seq_counter: tag not registered");
  return &seq_by_src_[idx];
}

void EventLoop::schedule_at(Time t, Callback cb) {
  ShardFrame* f = tls_frame_;
  const int tag = (f != nullptr && f->loop == this) ? f->shard : exec_tag_;
  schedule_for(tag, t, std::move(cb));
}

void EventLoop::schedule_for(int dst, Time t, Callback cb) {
  expects(static_cast<bool>(cb), "EventLoop::schedule_for: empty callback");
  expects(dst >= kControlShard, "EventLoop::schedule_for: bad shard tag");
  ShardFrame* f = tls_frame_;
  if (f != nullptr && f->loop == this) {
    // Worker context: route into the shard's local queue when the event
    // stays on this shard inside the round horizon; otherwise park it in
    // the outbox for barrier reinsertion. Cross-shard events inside the
    // horizon would violate conservative lookahead — that is a modeling
    // bug (a cross-shard interaction faster than the minimum link delay).
    expects(t >= f->now, "EventLoop::schedule_for: time in the past (shard)");
    expects(dst != kControlShard,
            "EventLoop::schedule_for: shard context may not schedule "
            "control events");
    Event ev{t, dst, f->shard, f->seq_base[f->shard]++, std::move(cb)};
    if (dst == f->shard && t < f->round_end) {
      f->local->push(std::move(ev));
#if MANTIS_TELEMETRY_ENABLED
      if (prof_ != nullptr && prof_->enabled()) prof_->count_local_push();
#endif
    } else {
      expects(dst == f->shard || t >= f->round_end,
              "EventLoop::schedule_for: cross-shard event inside the "
              "lookahead horizon");
      f->outbox->push_back(std::move(ev));
#if MANTIS_TELEMETRY_ENABLED
      if (prof_ != nullptr && prof_->enabled()) prof_->count_outbox_push();
#endif
    }
    return;
  }
  expects(t >= now_, "EventLoop::schedule_at: time in the past");
  const int src = exec_tag_;
  expects(src == kControlShard || dst != kControlShard,
          "EventLoop::schedule_for: shard context may not schedule control "
          "events");
  queue_.push(Event{t, dst, src, next_seq(src), std::move(cb)});
#if MANTIS_TELEMETRY_ENABLED
  if (prof_ != nullptr && prof_->enabled()) {
    prof_->count_heap_push(queue_.size());
  }
#endif
}

bool EventLoop::step() {
  if (queue_.empty()) return false;
  // Move out before running so the callback may schedule more events. The
  // old top()+pop() copied the whole event — capture, packet and all —
  // once per dispatch; pop_top moves it.
  Event ev = queue_.pop_top();
  ensures(ev.t >= now_, "EventLoop: time went backwards");
  now_ = ev.t;
  // Sequential execution of a tagged event runs in that shard's context:
  // its schedules inherit the tag, exactly as a parallel worker would
  // stamp them — keeping the canonical keys engine-independent.
  const int prev = exec_tag_;
  exec_tag_ = ev.dst;
#if MANTIS_TELEMETRY_ENABLED
  if (prof_ != nullptr && prof_->enabled()) prof_->count_heap_pop();
  {
    // Wall-clock + allocation attribution only: never reads or writes the
    // virtual clock, so event ordering is untouched (determinism contract).
    telemetry::prof::EventScope prof_scope(prof_, ev.dst);
    ev.cb();
  }
#else
  ev.cb();
#endif
  exec_tag_ = prev;
  return true;
}

std::size_t EventLoop::run(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

void EventLoop::run_until(Time t) {
  expects(t >= now_, "EventLoop::run_until: time in the past");
  while (!queue_.empty() && queue_.top().t <= t) step();
  now_ = t;
}

void EventLoop::advance_now(Time t) {
  expects(t >= now_, "EventLoop::advance_now: time in the past");
  expects(queue_.empty() || queue_.top().t >= t,
          "EventLoop::advance_now: pending earlier events");
  now_ = t;
}

Time EventLoop::next_time() const {
  expects(!queue_.empty(), "EventLoop::next_time: empty queue");
  return queue_.top().t;
}

int EventLoop::next_dst() const {
  expects(!queue_.empty(), "EventLoop::next_dst: empty queue");
  return queue_.top().dst;
}

Time EventLoop::extract_until(Time limit, std::vector<Event>& out) {
  [[maybe_unused]] const std::size_t before = out.size();
  while (!queue_.empty()) {
    const Event& top = queue_.top();
    if (top.t >= limit) break;
    if (top.dst == kControlShard) {
      // Control events run inline at barriers. Because control sorts first
      // among same-t ties, everything already extracted is strictly
      // earlier than the lowered horizon.
      limit = top.t;
      break;
    }
    out.push_back(queue_.pop_top());
  }
#if MANTIS_TELEMETRY_ENABLED
  if (prof_ != nullptr && prof_->enabled() && out.size() > before) {
    prof_->count_heap_pop(out.size() - before);
  }
#endif
  return limit;
}

void EventLoop::reinsert(Event ev) {
  expects(ev.t >= now_, "EventLoop::reinsert: time in the past");
  queue_.push(std::move(ev));
#if MANTIS_TELEMETRY_ENABLED
  if (prof_ != nullptr && prof_->enabled()) {
    prof_->count_heap_push(queue_.size());
  }
#endif
}

}  // namespace mantis::sim
