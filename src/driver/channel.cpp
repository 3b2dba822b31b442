#include "driver/channel.hpp"

#include "util/check.hpp"

namespace mantis::driver {

Channel::Channel(sim::EventLoop& loop) : loop_(&loop) {
  auto& tel = loop.telemetry();
  ops_ctr_ = &tel.metrics().counter("driver.channel.ops");
  telemetry::HistogramOptions occ;
  occ.first_bucket = 64;  // ns; channel ops span ~100ns..100us
  occupancy_hist_ = &tel.metrics().histogram("driver.channel.occupancy_ns", occ);
  queue_wait_hist_ = &tel.metrics().histogram("driver.channel.queue_wait_ns", occ);
  telemetry::HistogramOptions depth_opts;
  depth_opts.first_bucket = 1;  // ops in flight at submit: 0..pipeline depth
  depth_opts.buckets = 8;
  depth_hist_ = &tel.metrics().histogram("driver.channel.depth_at_submit",
                                         depth_opts);
  depth_gauge_ = &tel.metrics().gauge("driver.channel.depth");
  tracer_ = &tel.tracer();
  prof_ = &tel.prof();
  // Utilization snapshot for flight-recorder dumps (p4r_inspect channel).
  snapshot_provider_ = tel.recorder().add_snapshot_provider(
      "driver.channel", [this](std::string& out) {
        const Time now = loop_->now();
        // Integer per-mille keeps the rendering byte-deterministic.
        const std::uint64_t per_mille =
            now > 0 ? static_cast<std::uint64_t>(busy_time_) * 1000 /
                          static_cast<std::uint64_t>(now)
                    : 0;
        out += "ops=" + std::to_string(ops_) +
               " busy_ns=" + std::to_string(busy_time_) +
               " depth=" + std::to_string(depth_) +
               " free_at=" + std::to_string(free_at_) +
               " utilization_permille=" + std::to_string(per_mille) + "\n";
      });
}

Channel::~Channel() {
  loop_->telemetry().recorder().remove_snapshot_provider(snapshot_provider_);
}

Time Channel::submit(Duration cost, std::function<void()> apply,
                     std::optional<Duration> critical) {
  return submit_at(loop_->now(), cost, std::move(apply), critical);
}

Time Channel::submit_at(Time t, Duration cost, std::function<void()> apply,
                        std::optional<Duration> critical) {
  MANTIS_PROF_SCOPE(prof_, kControlDriver, "driver.channel_submit");
  expects(cost >= 0, "Channel::submit: negative cost");
  expects(t >= loop_->now(), "Channel::submit_at: start time in the past");
  const Duration crit = critical.value_or(cost);
  expects(crit >= 0 && crit <= cost,
          "Channel::submit: critical section outside [0, cost]");
  // Local preparation runs from `t`; the critical section queues behind
  // whatever currently holds the channel.
  const Time local_done = t + (cost - crit);
  const Time start_critical = std::max(local_done, free_at_);
  const Time completion = start_critical + crit;
  free_at_ = completion;
  busy_time_ += cost;
  ++ops_;

  ops_ctr_->add();
  occupancy_hist_->record(static_cast<std::uint64_t>(cost));
  queue_wait_hist_->record(
      static_cast<std::uint64_t>(start_critical - local_done));
  depth_hist_->record(static_cast<std::uint64_t>(depth_));
  ++depth_;
  depth_gauge_->set(static_cast<double>(depth_));
#if MANTIS_TELEMETRY_ENABLED
  // One lane-2 span per occupancy: [start, completion), queue wait as the
  // argument, so contention is visible as back-to-back blocks.
  tracer_->complete("channel.op", "driver", telemetry::Track::kDriverChannel,
                    t, completion, "queue_wait_ns",
                    start_critical - local_done);
#endif

  loop_->schedule_at(completion, [this, apply = std::move(apply)] {
    MANTIS_PROF_SCOPE(prof_, kControlDriver, "driver.channel_completion");
    if (apply) apply();
    --depth_;
    depth_gauge_->set(static_cast<double>(depth_));
  });
  return completion;
}

Time Channel::free_at() const { return std::max(loop_->now(), free_at_); }

}  // namespace mantis::driver
