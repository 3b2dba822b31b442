// Pluggable allocation accounting for the hot-path profiler.
//
// When the build has telemetry compiled in (MANTIS_TELEMETRY_ENABLED != 0),
// alloc_hook.cpp replaces the global operator new/delete family with thin
// malloc/free wrappers that bump per-thread counters. The profiler samples
// the counter around each instrumented scope, so every event kind gets an
// exact heap-allocation count at ~1 ns of overhead per allocation — cheap
// enough to leave on in every build, including sanitizers (the wrappers
// defer to malloc, which ASan/TSan intercept as usual).
//
// "Pluggable": the counter read is routed through an atomic function
// pointer (`set_alloc_source`), so tests can substitute a fake source and
// future work can swap in malloc_usable_size-based byte accounting without
// touching call sites. The default source reads the thread-local counter
// maintained by the operator-new wrappers.
//
// With MANTIS_TELEMETRY=OFF nothing is replaced: the wrappers are not
// compiled, alloc_count() returns 0, and no global state exists.
#pragma once

#include <cstdint>

#ifndef MANTIS_TELEMETRY_ENABLED
#define MANTIS_TELEMETRY_ENABLED 1
#endif

namespace mantis::telemetry::prof {

namespace detail {
#if MANTIS_TELEMETRY_ENABLED
// Bumped by the operator-new wrappers in alloc_hook.cpp. Thread-local so
// shard workers count independently; the profiler only ever differences the
// counter on one thread (scope enter/exit run on the same thread).
extern constinit thread_local std::uint64_t tls_alloc_count;
extern constinit thread_local std::uint64_t tls_free_count;
#endif
}  // namespace detail

/// Counter source: returns a monotonically increasing per-thread count of
/// heap allocations. The profiler differences it around scopes.
using AllocSourceFn = std::uint64_t (*)();

/// Installs a replacement counter source (nullptr restores the default
/// operator-new counter). Takes effect for subsequently entered scopes.
void set_alloc_source(AllocSourceFn fn);

/// Current allocation count on the calling thread, via the active source.
std::uint64_t alloc_count();

/// Lifetime totals across all threads, for the report's sanity block.
/// Zero when telemetry is compiled out.
std::uint64_t total_allocs();
std::uint64_t total_frees();

}  // namespace mantis::telemetry::prof
