// Measurement polling (paper §4.2 + §5.2): reads a reaction's packed field
// registers (checkpoint copies selected by the mv bit) and its duplicated
// user registers (interleaved checkpoint cells + timestamp registers), and
// maintains the timestamp-guarded cache that filters out stale alternation.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "compile/bindings.hpp"
#include "driver/driver.hpp"
#include "p4r/creact/interp.hpp"

namespace mantis::agent {

class Measurement {
 public:
  explicit Measurement(bool enable_cache = true) : cache_enabled_(enable_cache) {}

  /// Polls all parameters of `rinfo`, reading the checkpoint copies
  /// (`checkpoint_mv` is the mv value the data plane is NOT writing).
  /// Field params come back as scalars; register params as arrays indexed by
  /// their original data-plane indices.
  p4r::creact::PolledParams poll(driver::Driver& drv,
                                 const compile::ReactionInfo& rinfo,
                                 int checkpoint_mv);

 private:
  bool cache_enabled_;

  struct CacheLine {
    std::vector<std::uint64_t> ts;     ///< last seen timestamp per dp index
    std::vector<std::uint64_t> value;  ///< freshest value per dp index
    bool primed = false;
  };
  std::map<std::string, CacheLine> cache_;  ///< keyed by dup register name
};

}  // namespace mantis::agent
