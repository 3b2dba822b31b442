#include "telemetry/provenance.hpp"

#include <string>

#include "telemetry/metrics.hpp"
#include "util/check.hpp"

namespace mantis::telemetry {

constinit thread_local const ProvenanceContext* ProvenanceContext::hit_owner_ =
    nullptr;

namespace {

/// Latency histograms in virtual ns: first bucket 1us, ~16s overflow.
HistogramOptions latency_histogram() {
  HistogramOptions opts;
  opts.first_bucket = 1000.0;
  opts.growth = 2.0;
  opts.buckets = 24;
  return opts;
}

}  // namespace

ProvenanceContext::ProvenanceContext(MetricsRegistry& metrics, Tracer& tracer,
                                     FlightRecorder& recorder)
    : tracer_(tracer),
      recorder_(recorder),
      poll_hist_(&metrics.histogram("reaction.poll_ns", latency_histogram())),
      compute_hist_(
          &metrics.histogram("reaction.compute_ns", latency_histogram())),
      push_hist_(&metrics.histogram("reaction.push_ns", latency_histogram())),
      take_effect_hist_(
          &metrics.histogram("reaction.take_effect_ns", latency_histogram())),
      reactions_(&metrics.counter("reaction.count")),
      first_effects_(&metrics.counter("reaction.first_effects")) {}

std::uint64_t ProvenanceContext::begin_reaction([[maybe_unused]] Time now) {
  const std::uint64_t id = ++next_id_;
  frames_.push_back(Frame{id, false});
  MANTIS_FLOW_START(tracer_, "reaction", "provenance", Track::kAgent, now, id);
  return id;
}

void ProvenanceContext::end_reaction(std::uint64_t rid, Time now, Duration poll,
                                     Duration compute, Duration push) {
  expects(!frames_.empty() && frames_.back().id == rid,
          "ProvenanceContext::end_reaction: frame mismatch (reactions must "
          "close innermost-first)");
  const Frame frame = frames_.back();
  frames_.pop_back();

  reactions_->add();
  poll_hist_->record(static_cast<std::uint64_t>(poll));
  compute_hist_->record(static_cast<std::uint64_t>(compute));
  push_hist_->record(static_cast<std::uint64_t>(push));

  if (recorder_.enabled()) {
    recorder_.record(now, FlightEvent::Kind::kReaction, rid, "iteration",
                     "poll=" + std::to_string(poll) +
                         "ns compute=" + std::to_string(compute) +
                         "ns push=" + std::to_string(push) + "ns",
                     static_cast<std::int64_t>(poll + compute + push));
  }

  if (frame.mutated) {
    // Arm first-effect detection for this reaction; a later reaction that
    // also mutates simply re-arms (the earlier effect was never observed).
    committed_at_ = now;
    effect_pending_.store(rid, std::memory_order_relaxed);
    hit_owner_ = nullptr;
  }
}

void ProvenanceContext::on_driver_op(const char* op, const std::string& detail,
                                     Time submitted, Time completion) {
  on_driver_op_for(current_reaction(), op, detail, submitted, completion);
}

void ProvenanceContext::on_driver_op_for(std::uint64_t rid, const char* op,
                                         const std::string& detail,
                                         Time submitted, Time completion) {
  MANTIS_SPAN_RECORD(tracer_, op, "driver", Track::kDriverChannel, submitted,
                     completion, "reaction_id",
                     static_cast<std::int64_t>(rid));
  if (rid != 0) {
    MANTIS_FLOW_STEP(tracer_, "reaction", "provenance", Track::kDriverChannel,
                     submitted, rid);
  }
  if (recorder_.enabled()) {
    recorder_.record(completion, FlightEvent::Kind::kDriverOp, rid, op, detail,
                     completion - submitted);
  }
}

std::uint64_t ProvenanceContext::on_table_mutation() {
  if (forced_rid_ != 0) {
    // Async batch apply: stamp with the submitting reaction. Arm first-
    // effect detection only if that reaction's frame is still open.
    for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
      if (it->id == forced_rid_) {
        it->mutated = true;
        break;
      }
    }
    [[maybe_unused]] const Time now = tracer_.now();
    MANTIS_SPAN_RECORD(tracer_, "sim.table_commit", "provenance",
                       Track::kSwitch, now, now, "reaction_id",
                       static_cast<std::int64_t>(forced_rid_));
    MANTIS_FLOW_STEP(tracer_, "reaction", "provenance", Track::kSwitch, now,
                     forced_rid_);
    return forced_rid_;
  }
  if (frames_.empty()) return 0;
  frames_.back().mutated = true;
  const std::uint64_t rid = frames_.back().id;
  [[maybe_unused]] const Time now = tracer_.now();
  MANTIS_SPAN_RECORD(tracer_, "sim.table_commit", "provenance", Track::kSwitch,
                     now, now, "reaction_id", static_cast<std::int64_t>(rid));
  MANTIS_FLOW_STEP(tracer_, "reaction", "provenance", Track::kSwitch, now, rid);
  return rid;
}

void ProvenanceContext::on_first_effect(
    Time arrival, [[maybe_unused]] Duration pass_latency) {
  const std::uint64_t rid = effect_pending_.load(std::memory_order_relaxed);
  if (rid == 0) return;
  const Duration take_effect = arrival - committed_at_;
  first_effects_->add();
  take_effect_hist_->record(static_cast<std::uint64_t>(take_effect));
  MANTIS_SPAN_RECORD(tracer_, "pkt.first_effect", "provenance", Track::kSwitch,
                     arrival, arrival + pass_latency, "reaction_id",
                     static_cast<std::int64_t>(rid));
  MANTIS_FLOW_END(tracer_, "reaction", "provenance", Track::kSwitch, arrival,
                  rid);
  if (recorder_.enabled()) {
    recorder_.record(arrival, FlightEvent::Kind::kReaction, rid, "first_effect",
                     "take_effect_ns=" + std::to_string(take_effect),
                     take_effect);
  }
  effect_pending_.store(0, std::memory_order_relaxed);
}

}  // namespace mantis::telemetry
