#include "memory.h"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

void count_alloc(void* p) {
  const auto n = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t live = g_live.fetch_add(n, std::memory_order_relaxed) + n;
  std::int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
}

void* allocate_nothrow(std::size_t n) noexcept {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p != nullptr && g_counting.load(std::memory_order_relaxed)) count_alloc(p);
  return p;
}

void* allocate(std::size_t n) {
  void* p = allocate_nothrow(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void release(void* p) noexcept {
  if (p == nullptr) return;
  if (g_counting.load(std::memory_order_relaxed)) {
    g_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                     std::memory_order_relaxed);
  }
  std::free(p);
}

}  // namespace

void MemoryMeter::start() {
  g_live.store(0);
  g_peak.store(0);
  g_counting.store(true);
}

void MemoryMeter::stop() { g_counting.store(false); }

std::int64_t MemoryMeter::live_bytes() { return g_live.load(); }

std::int64_t MemoryMeter::peak_bytes() { return g_peak.load(); }

void MemoryMeter::reset_peak() { g_peak.store(g_live.load()); }

}  // namespace perfbench

// Replacements for the global allocation functions. Every unaligned form is
// replaced, so no allocation pairs this malloc/free with another
// allocator's new/delete (a sanitizer runtime supplies its own).
void* operator new(std::size_t n) { return perfbench::allocate(n); }
void* operator new[](std::size_t n) { return perfbench::allocate(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return perfbench::allocate_nothrow(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return perfbench::allocate_nothrow(n);
}
void operator delete(void* p) noexcept { perfbench::release(p); }
void operator delete[](void* p) noexcept { perfbench::release(p); }
void operator delete(void* p, std::size_t) noexcept { perfbench::release(p); }
void operator delete[](void* p, std::size_t) noexcept { perfbench::release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { perfbench::release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  perfbench::release(p);
}
