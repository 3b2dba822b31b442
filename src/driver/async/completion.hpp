// Typed completions for the asynchronous driver runtime: one record per
// batch, reaped strictly in submit order, carrying per-op status plus the
// op-kind-specific payloads (entry handles for adds, values for reads).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "driver/batch.hpp"
#include "util/time.hpp"

namespace mantis::driver {

using BatchId = std::uint64_t;

/// One reaped batch. `ok` is the conjunction of the per-op statuses; in
/// batched mode a mid-batch failure aborts the whole transfer (no op
/// applies) so callers never see a half-applied batch.
struct BatchCompletion {
  BatchId id = 0;
  std::uint64_t reaction_id = 0;  ///< provenance stamp captured at submit
  bool ok = true;
  Time submitted = 0;   ///< submit() call instant
  Time prep_start = 0;  ///< driver-thread descriptor prep began
  Time dma_start = 0;   ///< transfer entered the channel
  Time completed = 0;   ///< completion instant (effects applied here)
  std::vector<OpResult> results;  ///< one per op, builder order
};

}  // namespace mantis::driver
