// The simulated RMT switch: ingress pipeline -> traffic manager -> egress
// pipeline -> ports, plus the raw control-plane access surface (tables,
// registers) that the driver layer wraps with a latency model.
//
// This is the reproduction's stand-in for the paper's Wedge100BF-32X Tofino.
// It preserves the properties Mantis's correctness rests on:
//  * single-entry table updates are atomic w.r.t. packets,
//  * a packet observes one consistent table configuration per pipeline
//    traversal (packets are processed whole at ingress / at dequeue),
//  * registers are updated per packet and readable out-of-band,
//  * bounded per-pipeline latency, far below control-loop granularity.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "p4/ir.hpp"
#include "sim/event_loop.hpp"
#include "sim/packet.hpp"
#include "sim/pipeline.hpp"
#include "sim/register_file.hpp"
#include "sim/switch_image.hpp"
#include "sim/table_state.hpp"
#include "sim/traffic_manager.hpp"

namespace mantis::sim {

struct SwitchConfig {
  int num_ports = 32;
  double port_gbps = 25.0;
  Duration ingress_latency = 400;   ///< ns through the ingress pipeline
  Duration egress_latency = 300;    ///< ns through the egress pipeline
  Duration recirc_latency = 100;    ///< extra ns for a recirculation hop
  std::uint64_t queue_capacity_bytes = 512ull * 1024;
  int recirc_port = 63;             ///< egress_spec value meaning "recirculate"
  /// Aggregate ingress-pipeline packet rate (packets/second); 0 = unlimited.
  /// RMT switches are packet-rate limited, so every pass — including each
  /// recirculation — consumes a slot (paper §2: recirculating every packet
  /// sharply cuts usable throughput). A small input buffer absorbs jitter;
  /// beyond it, arrivals are dropped at ingress.
  std::uint64_t pipeline_pps = 0;
  std::uint32_t ingress_buffer_pkts = 64;
};

class Switch {
 public:
  /// Loads `image`, which many switches may share (net::Fabric builds one
  /// per fabric); the switch holds only its mutable state.
  Switch(EventLoop& loop, std::shared_ptr<const SwitchImage> image,
         SwitchConfig cfg = {});
  /// Builds a private image of `prog` (see SwitchImage).
  Switch(EventLoop& loop, const p4::Program& prog, SwitchConfig cfg = {});

  const std::shared_ptr<const SwitchImage>& image() const { return image_; }
  const p4::Program& program() const { return image_->program(); }
  const PacketFactory& factory() const { return factory_; }
  EventLoop& loop() { return *loop_; }
  const SwitchConfig& config() const { return cfg_; }

  /// Receives a packet on `port` at the current virtual time.
  void inject(Packet pkt, int port) { inject_internal(std::move(pkt), port, false); }

  /// Called when a packet leaves the switch: (packet, egress port, tx time).
  /// The hook is handed the packet and may move it on; hooks that take
  /// `const Packet&` bind as well.
  using TransmitHook = std::function<void(Packet&&, int, Time)>;
  void set_on_transmit(TransmitHook hook) { on_transmit_ = std::move(hook); }

  /// Egress-stage hook, invoked at dequeue time after the egress pipeline
  /// ran and the packet survived, before tx stats are charged — so a hook
  /// that grows the packet (e.g. the INT transit stamp) is reflected in
  /// tx_bytes and downstream serialization. The hook runs on the switch's
  /// shard with the egress intrinsics (egress_port, deq_qdepth, timestamps)
  /// already written into the packet.
  using EgressHook = std::function<void(Packet&, int port)>;
  void set_egress_hook(EgressHook hook) { egress_hook_ = std::move(hook); }

  /// Administrative port control; a down port drops at both RX and TX
  /// (used to emulate link failures in the gray-failure experiments).
  void set_port_up(int port, bool up);
  bool port_up(int port) const;

  // --- raw control-plane surface (wrapped by driver::Driver) ---
  /// By name; throws UserError("unknown table: ...").
  TableState& table(const std::string& name) {
    return tables_[image_->table_id(name)];
  }
  const TableState& table(const std::string& name) const {
    return tables_[image_->table_id(name)];
  }
  RegisterFile& registers() { return regs_; }
  const RegisterFile& registers() const { return regs_; }

  std::uint32_t queue_depth_pkts(int port) const { return tm_->queue_depth_pkts(port); }
  std::uint64_t queue_depth_bytes(int port) const { return tm_->queue_depth_bytes(port); }

  struct PortStats {
    std::uint64_t rx_pkts = 0;
    std::uint64_t rx_bytes = 0;
    std::uint64_t rx_drops = 0;     ///< down-port or pipeline drops at ingress
    std::uint64_t tx_pkts = 0;
    std::uint64_t tx_bytes = 0;
  };
  const PortStats& port_stats(int port) const;
  const TrafficManager& traffic_manager() const { return *tm_; }

  const Pipeline::Stats& ingress_stats() const { return ingress_.stats(); }
  const Pipeline::Stats& egress_stats() const { return egress_.stats(); }

  /// Appends a deterministic description of live state (registers, counters,
  /// tables, queue depths) — the flight recorder embeds this in .mfr dumps.
  void write_snapshot(std::string& out) const;

  ~Switch();
  Switch(const Switch&) = delete;
  Switch& operator=(const Switch&) = delete;

 private:
  EventLoop* loop_;
  std::shared_ptr<const SwitchImage> image_;
  SwitchConfig cfg_;
  telemetry::ProvenanceContext* prov_;
  PacketFactory factory_;
  RegisterFile regs_;
  std::vector<TableState> tables_;  ///< by TableId
  Pipeline ingress_;
  Pipeline egress_;
  std::unique_ptr<TrafficManager> tm_;
  std::vector<PortStats> port_stats_;
  std::vector<bool> rx_up_;
  TransmitHook on_transmit_;
  EgressHook egress_hook_;

  Time pipeline_free_at_ = 0;  ///< pipeline_pps admission bookkeeping

  telemetry::prof::Profiler* prof_;  ///< hot-path cost attribution
  int snapshot_provider_ = 0;  ///< flight-recorder registration id

  // Cached telemetry sinks (owned by the loop's registry): per-stage packet
  // latency (ingress pipeline, TM residency, egress pipeline) plus the
  // end-to-end switch transit time, and rx/tx/drop counters.
  telemetry::Counter* rx_ctr_;
  telemetry::Counter* tx_ctr_;
  telemetry::Counter* rx_drop_ctr_;
  telemetry::Counter* recirc_ctr_;
  telemetry::Histogram* ingress_stage_hist_;
  telemetry::Histogram* tm_stage_hist_;
  telemetry::Histogram* egress_stage_hist_;
  telemetry::Histogram* transit_hist_;

  // Cached intrinsic field ids.
  p4::FieldId f_ingress_port_;
  p4::FieldId f_egress_spec_;
  p4::FieldId f_egress_port_;
  p4::FieldId f_packet_length_;
  p4::FieldId f_enq_qdepth_;
  p4::FieldId f_deq_qdepth_;
  p4::FieldId f_ing_ts_;
  p4::FieldId f_egr_ts_;

  void on_dequeue(Packet pkt, int port);
  /// `recirculated` passes bypass the input-buffer drop check (the recirc
  /// path has its own dedicated port on real hardware) but still consume a
  /// pipeline slot — which is exactly why recirculation eats throughput.
  void inject_internal(Packet pkt, int port, bool recirculated);
};

}  // namespace mantis::sim
