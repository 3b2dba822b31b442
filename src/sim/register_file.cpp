#include "sim/register_file.hpp"

#include "util/bits.hpp"

namespace mantis::sim {

RegisterFile::RegisterFile(const p4::Program& prog) : prog_(&prog) {
  arrays_.reserve(prog.registers.size());
  for (const auto& reg : prog.registers) {
    arrays_.push_back(
        Array{reg.width, std::vector<std::uint64_t>(reg.instance_count, 0)});
  }
  counters_.reserve(prog.counters.size());
  for (const auto& ctr : prog.counters) {
    counters_.emplace_back(ctr.instance_count, 0);
  }
}

RegisterId RegisterFile::register_id(const std::string& reg) const {
  const auto* decl = prog_->find_register(reg);
  if (decl == nullptr) throw UserError("unknown register: " + reg);
  return static_cast<RegisterId>(decl - prog_->registers.data());
}

CounterId RegisterFile::counter_id(const std::string& counter) const {
  const auto* decl = prog_->find_counter(counter);
  if (decl == nullptr) throw UserError("unknown counter: " + counter);
  return static_cast<CounterId>(decl - prog_->counters.data());
}

std::uint64_t RegisterFile::read(RegisterId reg, std::uint32_t index) const {
  const auto& arr = arrays_[reg];
  if (index >= arr.cells.size()) [[unlikely]] {
    throw UserError("register " + prog_->registers[reg].name + ": index " +
                    std::to_string(index) + " out of range");
  }
  return arr.cells[index];
}

void RegisterFile::write(RegisterId reg, std::uint32_t index,
                         std::uint64_t value) {
  auto& arr = arrays_[reg];
  if (index >= arr.cells.size()) [[unlikely]] {
    throw UserError("register " + prog_->registers[reg].name + ": index " +
                    std::to_string(index) + " out of range");
  }
  arr.cells[index] = truncate_to_width(value, arr.width);
}

void RegisterFile::count(CounterId counter, std::uint32_t index) {
  auto& cells = counters_[counter];
  if (index >= cells.size()) [[unlikely]] {
    throw UserError("counter " + prog_->counters[counter].name +
                    ": index out of range");
  }
  ++cells[index];
}

std::vector<std::uint64_t> RegisterFile::read_range(const std::string& reg,
                                                    std::uint32_t first,
                                                    std::uint32_t last) const {
  const auto& arr = array(reg);
  expects(first <= last, "RegisterFile::read_range: first > last");
  if (last >= arr.cells.size()) {
    throw UserError("register " + reg + ": range end out of bounds");
  }
  return std::vector<std::uint64_t>(arr.cells.begin() + first,
                                    arr.cells.begin() + last + 1);
}

std::uint32_t RegisterFile::instance_count(const std::string& reg) const {
  return static_cast<std::uint32_t>(array(reg).cells.size());
}

p4::Width RegisterFile::width(const std::string& reg) const {
  return array(reg).width;
}

std::uint64_t RegisterFile::counter_value(const std::string& counter,
                                          std::uint32_t index) const {
  const auto& cells = counters_[counter_id(counter)];
  if (index >= cells.size()) {
    throw UserError("counter " + counter + ": index out of range");
  }
  return cells[index];
}

}  // namespace mantis::sim
