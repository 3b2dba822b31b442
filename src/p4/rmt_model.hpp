// The RMT hardware resource envelope, as an explicit, constructible value.
//
// Historically the per-stage capacities lived as implicit constants spread
// across the stage allocator (StageModel) and the compile options
// (max_init_action_bits, measure_word_bits). Hardening the compiler against
// varied targets — per "Testing Compilers for Programmable Switches Through
// Switch Hardware Simulation" — requires the whole envelope to be one value
// that can be constructed, randomized, serialized into a repro, and threaded
// through every allocation decision. This header is that value, plus the
// structured diagnostic every over-budget program must surface.
//
// The defaults approximate one Tofino-class pipeline (documented model, not
// vendor data); they are intentionally generous so the default model accepts
// everything the previous implicit constants accepted.
#pragma once

#include <cstdint>
#include <string>

#include "util/check.hpp"

namespace mantis::p4 {

/// The resource kinds an RMT target can run out of. Every compiler-side
/// rejection of an over-budget program names exactly one of these.
enum class RmtResource {
  kStages,          ///< dependency chain longer than the stage budget
  kSram,            ///< per-stage SRAM bytes (exact tables, action data)
  kTcam,            ///< per-stage TCAM bytes (ternary/LPM keys)
  kTables,          ///< logical table ids per stage
  kAlus,            ///< VLIW action slots per stage
  kHashUnits,       ///< hash/crossbar input units per stage
  kRegisters,       ///< stateful register blocks per stage (incl. placement)
  kActionBits,      ///< parameter bits of a single action
  kContainerWidth,  ///< a field wider than the widest PHV container
};

const char* rmt_resource_name(RmtResource r);

/// Structured over-budget diagnostic: a UserError that *names* the exhausted
/// resource, so harnesses (and users) can tell "does not fit" apart from
/// "rejected for another reason" without string matching. The message always
/// starts with "resource-exhausted: <name>: ".
class ResourceExhausted : public UserError {
 public:
  ResourceExhausted(RmtResource resource, const std::string& detail)
      : UserError(std::string("resource-exhausted: ") +
                  rmt_resource_name(resource) + ": " + detail),
        resource_(resource) {}

  RmtResource resource() const { return resource_; }

 private:
  RmtResource resource_;
};

/// Per-stage capacity of the modeled RMT switch, plus the per-action and
/// per-container budgets the compile passes pack against.
struct RmtResourceModel {
  int stages = 12;
  std::uint64_t sram_bytes_per_stage = 1280 * 1024;  // 1.25 MiB
  std::uint64_t tcam_bytes_per_stage = 64 * 1024;    // 64 KiB
  int tables_per_stage = 16;
  /// VLIW action slots: the widest action body a stage can issue (RMT's
  /// action engine processes every field write of one action in parallel).
  int alus_per_stage = 224;
  /// Hash/crossbar input units: one per exact/LPM match table plus one per
  /// hash-based action in the stage.
  int hash_units_per_stage = 16;
  /// Stateful register blocks addressable from one stage (RMT pins each
  /// register to a single stage; all its users must co-locate there).
  int registers_per_stage = 32;
  /// Maximum total parameter bits of a single action (platform action-size
  /// budget; exceeding it splits the init table, paper §4.1/§5.1.1).
  unsigned max_action_bits = 128;
  /// Width of packed measurement registers (paper packs 32-bit words).
  unsigned measure_word_bits = 32;
  /// Widest PHV container; no user field may exceed it.
  unsigned phv_container_bits = 64;

  std::uint64_t sram_bits_per_stage() const { return sram_bytes_per_stage * 8; }
  std::uint64_t tcam_bits_per_stage() const { return tcam_bytes_per_stage * 8; }

  /// One-line human-readable rendering.
  std::string describe() const;

  /// Single-line key=value serialization ("model stages=12 sram_bytes=...")
  /// and its inverse; parse throws UserError on malformed input. Used by the
  /// --resources fuzz repro format.
  std::string serialize() const;
  static RmtResourceModel parse(const std::string& line);

  bool operator==(const RmtResourceModel&) const = default;
};

/// Backwards-compatible alias: the stage allocator's capacity parameter has
/// always been "the hardware model"; it is now the full envelope.
using StageModel = RmtResourceModel;

}  // namespace mantis::p4
