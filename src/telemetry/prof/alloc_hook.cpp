// Global operator new/delete replacements that count heap operations.
//
// These are the strongest-linkage definitions in the final binary, so every
// allocation in the process (std::function captures, vector growth, string
// copies) passes through here. The counters are plain thread-local uint64s
// (zero dynamic init — safe during thread start/teardown and static init)
// plus one relaxed global atomic each for the report's lifetime totals.
//
// This translation unit is pulled out of the static library because
// prof.cpp references set_alloc_source/alloc_count, which live here — no
// special link flags needed.
#include "telemetry/prof/alloc_hook.hpp"

#include <atomic>

#if MANTIS_TELEMETRY_ENABLED

#include <cstdlib>
#include <new>

namespace mantis::telemetry::prof {

namespace detail {
constinit thread_local std::uint64_t tls_alloc_count = 0;
constinit thread_local std::uint64_t tls_free_count = 0;

namespace {
std::atomic<std::uint64_t> g_total_allocs{0};
std::atomic<std::uint64_t> g_total_frees{0};

std::uint64_t default_source() { return tls_alloc_count; }

std::atomic<AllocSourceFn> g_source{&default_source};

inline void count_alloc() {
  ++tls_alloc_count;
  g_total_allocs.fetch_add(1, std::memory_order_relaxed);
}

inline void count_free() {
  ++tls_free_count;
  g_total_frees.fetch_add(1, std::memory_order_relaxed);
}

void* checked_alloc(std::size_t size) {
  count_alloc();
  if (size == 0) size = 1;
  for (;;) {
    if (void* p = std::malloc(size)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

void* checked_alloc_aligned(std::size_t size, std::size_t align) {
  count_alloc();
  if (size == 0) size = 1;
  if (align < sizeof(void*)) align = sizeof(void*);
  for (;;) {
    void* p = nullptr;
    if (posix_memalign(&p, align, size) == 0) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

}  // namespace
}  // namespace detail

void set_alloc_source(AllocSourceFn fn) {
  detail::g_source.store(fn != nullptr ? fn : &detail::default_source,
                         std::memory_order_release);
}

std::uint64_t alloc_count() {
  return detail::g_source.load(std::memory_order_acquire)();
}

std::uint64_t total_allocs() {
  return detail::g_total_allocs.load(std::memory_order_relaxed);
}

std::uint64_t total_frees() {
  return detail::g_total_frees.load(std::memory_order_relaxed);
}

}  // namespace mantis::telemetry::prof

namespace prof_detail = mantis::telemetry::prof::detail;

void* operator new(std::size_t size) { return prof_detail::checked_alloc(size); }
void* operator new[](std::size_t size) {
  return prof_detail::checked_alloc(size);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  prof_detail::count_alloc();
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  prof_detail::count_alloc();
  return std::malloc(size ? size : 1);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return prof_detail::checked_alloc_aligned(size,
                                            static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return prof_detail::checked_alloc_aligned(size,
                                            static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  prof_detail::count_alloc();
  void* p = nullptr;
  std::size_t a = static_cast<std::size_t>(align);
  if (a < sizeof(void*)) a = sizeof(void*);
  return posix_memalign(&p, a, size ? size : 1) == 0 ? p : nullptr;
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  prof_detail::count_free();
  std::free(p);
}
void operator delete[](void* p) noexcept {
  if (p == nullptr) return;
  prof_detail::count_free();
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete[](p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  operator delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  operator delete[](p);
}
void operator delete(void* p, std::align_val_t) noexcept { operator delete(p); }
void operator delete[](void* p, std::align_val_t) noexcept {
  operator delete[](p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  operator delete(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  operator delete[](p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  operator delete(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  operator delete[](p);
}

#else  // !MANTIS_TELEMETRY_ENABLED

namespace mantis::telemetry::prof {

namespace {
std::atomic<AllocSourceFn> g_source{nullptr};
}  // namespace

void set_alloc_source(AllocSourceFn fn) {
  g_source.store(fn, std::memory_order_release);
}

std::uint64_t alloc_count() {
  const AllocSourceFn fn = g_source.load(std::memory_order_acquire);
  return fn != nullptr ? fn() : 0;
}

std::uint64_t total_allocs() { return 0; }
std::uint64_t total_frees() { return 0; }

}  // namespace mantis::telemetry::prof

#endif  // MANTIS_TELEMETRY_ENABLED
