// The simulator's packet model.
//
// Packets are pre-parsed: every field in the program's FieldCatalog has a
// slot (value-initialized to zero), which matches how the apps use the
// simulator — the P4-14 parser stage of a real program is fixed plumbing the
// paper never reconfigures (Mantis explicitly assumes the data-plane
// structure is known a priori, §3).
#pragma once

#include <cstdint>
#include <vector>

#include "p4/ir.hpp"
#include "util/bits.hpp"
#include "util/pool.hpp"
#include "util/time.hpp"

namespace mantis::sim {

class Packet {
 public:
  /// Creates a packet with `field_count` zeroed fields and the given wire
  /// length in bytes (also mirrored into standard_metadata.packet_length by
  /// the switch on ingress).
  explicit Packet(std::size_t field_count, std::uint32_t length_bytes = 64);

  std::uint64_t get(p4::FieldId f) const {
    expects(f < values_.size(), "Packet::get: field out of range");
    return values_[f];
  }

  /// Sets a field, truncating to `width` bits.
  void set(p4::FieldId f, std::uint64_t value, p4::Width width) {
    expects(f < values_.size(), "Packet::set: field out of range");
    values_[f] = truncate_to_width(value, width);
  }

  std::uint32_t length_bytes() const { return length_bytes_; }

  bool dropped() const { return dropped_; }
  void mark_dropped() { dropped_ = true; }
  void clear_dropped() { dropped_ = false; }

  std::size_t field_count() const { return values_.size(); }

  /// Telemetry bookkeeping (full virtual-ns precision; the intrinsic
  /// timestamp fields are microsecond-truncated like the hardware's).
  Time arrival_time() const { return arrival_time_; }
  void set_arrival_time(Time t) { arrival_time_ = t; }
  Time enqueue_time() const { return enqueue_time_; }
  void set_enqueue_time(Time t) { enqueue_time_ = t; }

  /// Fabric-level origin stamp, set once when a Host transmits and carried
  /// across every hop (arrival/enqueue times are per-switch and reset at
  /// each fabric hop). -1 = not host-originated.
  Time origin_time() const { return origin_time_; }
  void set_origin_time(Time t) { origin_time_ = t; }

  /// In-band telemetry header stack riding on the wire between the L2/L3
  /// headers and the payload: raw encoded bytes (format in int/header.hpp),
  /// pushed by an INT source, grown by each transit hop, stripped by the
  /// sink. Mutators must keep length_bytes in sync — grow_header_stack /
  /// shrink-via-strip do this for you; empty for non-INT packets, so the
  /// copy cost is one empty-vector copy.
  const std::vector<std::uint8_t>& header_stack() const { return header_stack_; }
  std::vector<std::uint8_t>& mutable_header_stack() { return header_stack_; }
  bool has_header_stack() const { return !header_stack_.empty(); }

  /// Appends `bytes` to the header stack and adds their size to the wire
  /// length (so links and the TM serialize the telemetry overhead).
  void grow_header_stack(const std::uint8_t* bytes, std::size_t n) {
    header_stack_.insert(header_stack_.end(), bytes, bytes + n);
    length_bytes_ += static_cast<std::uint32_t>(n);
  }

  /// Removes the whole stack, shrinking the wire length back; returns the
  /// stripped bytes (the INT sink decodes them into a report).
  std::vector<std::uint8_t> strip_header_stack() {
    expects(header_stack_.size() <= length_bytes_,
            "Packet::strip_header_stack: stack larger than packet");
    length_bytes_ -= static_cast<std::uint32_t>(header_stack_.size());
    std::vector<std::uint8_t> out;
    out.swap(header_stack_);
    return out;
  }

 private:
  /// Pool-backed (util/pool.hpp): one packet field vector is created per
  /// injected packet and one more per pipeline copy — the second-largest
  /// allocation source on the hot path after std::function captures.
  std::vector<std::uint64_t, util::pool::PoolAllocator<std::uint64_t>> values_;
  std::uint32_t length_bytes_;
  bool dropped_ = false;
  Time arrival_time_ = -1;
  Time enqueue_time_ = -1;
  Time origin_time_ = -1;
  std::vector<std::uint8_t> header_stack_;
};

/// Convenience: packet factory bound to a program, with named-field setters.
/// Used pervasively by workloads and tests.
class PacketFactory {
 public:
  explicit PacketFactory(const p4::Program& prog) : prog_(&prog) {}

  Packet make(std::uint32_t length_bytes = 64) const {
    return Packet(prog_->fields.size(), length_bytes);
  }

  /// Sets "instance.field" by name; throws UserError if unknown.
  void set(Packet& pkt, std::string_view full_name, std::uint64_t value) const {
    const p4::FieldId f = prog_->fields.require(full_name);
    pkt.set(f, value, prog_->fields.width(f));
  }

  std::uint64_t get(const Packet& pkt, std::string_view full_name) const {
    return pkt.get(prog_->fields.require(full_name));
  }

  const p4::Program& program() const { return *prog_; }

 private:
  const p4::Program* prog_;
};

}  // namespace mantis::sim
