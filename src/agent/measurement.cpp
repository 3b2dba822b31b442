#include "agent/measurement.hpp"

#include "util/bits.hpp"
#include "util/check.hpp"

namespace mantis::agent {

p4r::creact::PolledParams Measurement::poll(driver::Driver& drv,
                                            const compile::ReactionInfo& rinfo,
                                            int checkpoint_mv) {
  expects(checkpoint_mv == 0 || checkpoint_mv == 1, "poll: bad mv");
  p4r::creact::PolledParams out;

  // ---- packed field params: one scattered-word read over all registers ----
  if (!rinfo.measure_regs.empty()) {
    std::vector<driver::Driver::WordRef> words;
    words.reserve(rinfo.measure_regs.size());
    for (const auto& reg : rinfo.measure_regs) {
      words.push_back(driver::Driver::WordRef{
          reg, static_cast<std::uint32_t>(checkpoint_mv)});
    }
    const auto values = drv.read_packed_words(words);

    for (const auto& slot : rinfo.fields) {
      // Locate the word for this slot's register.
      std::size_t word_idx = 0;
      for (; word_idx < rinfo.measure_regs.size(); ++word_idx) {
        if (rinfo.measure_regs[word_idx] == slot.reg) break;
      }
      ensures(word_idx < values.size(), "poll: missing measurement register");
      const std::uint64_t word = values[word_idx];
      const std::uint64_t v =
          (word >> slot.bit_offset) & mask_for_width(slot.width);
      out.scalars[slot.c_name] = static_cast<p4r::creact::CValue>(v);
    }
  }

  // ---- duplicated register params: range DMA + timestamp cache ----
  for (const auto& slot : rinfo.regs) {
    const std::uint32_t n = slot.hi - slot.lo + 1;
    // Interleaved layout: checkpoint cells are dup[2*i + checkpoint_mv].
    const std::uint32_t first = 2 * slot.lo;
    const std::uint32_t last = 2 * slot.hi + 1;
    const auto dup_vals = drv.read_register_range(slot.dup_reg, first, last);
    const auto ts_vals = drv.read_register_range(slot.ts_reg, first, last);

    p4r::creact::PolledParams::Array arr;
    arr.lo = slot.lo;
    arr.values.resize(n);

    auto& line = cache_[slot.dup_reg];
    if (cache_enabled_ && !line.primed) {
      line.ts.assign(n, 0);
      line.value.assign(n, 0);
      line.primed = true;
    }

    for (std::uint32_t i = 0; i < n; ++i) {
      const std::size_t cell = 2 * i + static_cast<std::size_t>(checkpoint_mv);
      const std::uint64_t v = dup_vals[cell];
      const std::uint64_t t = ts_vals[cell];
      if (cache_enabled_) {
        // Replace the cached value only when the checkpoint copy is newer —
        // this is what suppresses the r_i / r_{i+1} alternation (§5.2).
        if (t > line.ts[i]) {
          line.ts[i] = t;
          line.value[i] = v;
        }
        arr.values[i] = static_cast<p4r::creact::CValue>(line.value[i]);
      } else {
        arr.values[i] = static_cast<p4r::creact::CValue>(v);
      }
    }
    out.arrays.emplace(slot.c_name, std::move(arr));
  }

  return out;
}

}  // namespace mantis::agent
