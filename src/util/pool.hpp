// Thread-local size-class freelist pools for the hot-path allocations the
// profiler (telemetry/prof) attributed to event dispatch: std::function
// captures carrying packets, per-packet field vectors, and deferred
// telemetry ops. ~29 operator-new calls per event at the 64-switch scale
// (EXPERIMENTS.md) were the dominant cost after packet_transit itself.
//
// Design:
//  * acquire(bytes)/release(ptr, bytes) round the request up to a power-of-
//    two size class (64..4096 bytes) and recycle blocks through a per-thread
//    fixed-capacity freelist. Freelists never allocate and never migrate
//    blocks between threads: a block released on thread T is only ever
//    reused by thread T, so no synchronization is needed and TSan sees
//    nothing to race on (fresh blocks come from operator new, whose
//    happens-before edges are the allocator's problem).
//  * Exhaustion is graceful by construction: an empty freelist falls back
//    to operator new (counted in stats().fresh — the "pool grew" signal),
//    a full freelist falls back to operator delete (stats().overflow).
//    Oversize requests (> kMaxBlockBytes) pass through entirely.
//  * Under AddressSanitizer the pools pass every request straight through
//    to operator new/delete: recycling would defeat ASan's use-after-free
//    quarantine. pooling_active() tells tests which behavior to expect.
//  * Pool hits are invisible to the operator-new allocation hook
//    (telemetry/prof/alloc_hook.hpp) — that is the point: test_prof's
//    pinned per-packet-event allocation count measures what the pools
//    could not absorb.
//
// PoolAllocator<T> adapts acquire/release to the std::allocator interface
// so containers on per-event paths (sim::Packet's field vector) recycle
// their buffers too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>

namespace mantis::util::pool {

/// Largest pooled request; anything bigger passes through to operator new.
inline constexpr std::size_t kMaxBlockBytes = 4096;
/// Smallest block handed out (also the class granularity floor).
inline constexpr std::size_t kMinBlockBytes = 64;
/// Per-thread, per-class freelist capacity (blocks kept for reuse).
inline constexpr std::size_t kFreelistCap = 256;

/// True when acquire/release actually recycle (false under ASan, where
/// everything passes through so the sanitizer sees real malloc/free).
bool pooling_active();

/// Lifetime counters, summed over all threads (relaxed atomics; read for
/// tests and reports, not for control flow).
struct PoolStats {
  std::uint64_t hits = 0;      ///< acquires served from a freelist
  std::uint64_t fresh = 0;     ///< acquires that fell back to operator new
  std::uint64_t recycled = 0;  ///< releases parked on a freelist
  std::uint64_t overflow = 0;  ///< releases freed because the list was full
  std::uint64_t oversize = 0;  ///< requests beyond kMaxBlockBytes
};
PoolStats stats();

/// Frees every block parked on the calling thread's freelists. For tests
/// that pin operator-new counts: pooled reuse makes the count depend on
/// cache warmth, so runs that must allocate identically purge first.
void purge_thread_cache() noexcept;

/// A block of at least `bytes` bytes, aligned for std::max_align_t.
void* acquire(std::size_t bytes);
/// Returns a block obtained from acquire(bytes) — same `bytes` value.
void release(void* p, std::size_t bytes) noexcept;

/// std::allocator drop-in backed by acquire/release. Stateless: all
/// instances compare equal, so containers move buffers freely between
/// allocator copies (release is keyed only by size).
template <typename T>
class PoolAllocator {
 public:
  using value_type = T;
  using size_type = std::size_t;
  using difference_type = std::ptrdiff_t;
  using propagate_on_container_move_assignment = std::true_type;
  using is_always_equal = std::true_type;

  PoolAllocator() noexcept = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n > SIZE_MAX / sizeof(T)) throw std::bad_array_new_length();
    return static_cast<T*>(acquire(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    release(p, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const PoolAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace mantis::util::pool
