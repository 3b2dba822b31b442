// Stateful register and counter storage for the simulated switch.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "p4/ir.hpp"
#include "sim/switch_image.hpp"

namespace mantis::sim {

class RegisterFile {
 public:
  /// One array per declared register and counter, indexed by its id.
  /// `prog` must outlive the file (names resolve against it).
  explicit RegisterFile(const p4::Program& prog);

  /// Reads one register cell. Throws UserError on a bad index.
  std::uint64_t read(RegisterId reg, std::uint32_t index) const;

  /// Writes one cell, truncated to the register's declared width.
  void write(RegisterId reg, std::uint32_t index, std::uint64_t value);

  /// Counters (packet counters; P4-14 `count` primitive).
  void count(CounterId counter, std::uint32_t index);

  // By name, for the control plane, tools and tests: thin lookups onto the
  // ids above. Throw UserError on an unknown name or a bad index.
  std::uint64_t read(const std::string& reg, std::uint32_t index) const {
    return read(register_id(reg), index);
  }
  void write(const std::string& reg, std::uint32_t index, std::uint64_t value) {
    write(register_id(reg), index, value);
  }
  void count(const std::string& counter, std::uint32_t index) {
    count(counter_id(counter), index);
  }

  /// Reads an inclusive index range [first, last].
  std::vector<std::uint64_t> read_range(const std::string& reg,
                                        std::uint32_t first,
                                        std::uint32_t last) const;

  std::uint32_t instance_count(const std::string& reg) const;
  p4::Width width(const std::string& reg) const;
  bool has(const std::string& reg) const {
    return prog_->find_register(reg) != nullptr;
  }

  std::uint64_t counter_value(const std::string& counter, std::uint32_t index) const;

 private:
  struct Array {
    p4::Width width;
    std::vector<std::uint64_t> cells;
  };
  const p4::Program* prog_;
  std::vector<Array> arrays_;                         ///< by RegisterId
  std::vector<std::vector<std::uint64_t>> counters_;  ///< by CounterId

  RegisterId register_id(const std::string& reg) const;
  CounterId counter_id(const std::string& counter) const;
  const Array& array(const std::string& reg) const {
    return arrays_[register_id(reg)];
  }
};

}  // namespace mantis::sim
