// Counting replacement of the global allocation functions: every heap
// allocation in the process (library included) bumps two relaxed atomics,
// so the benchmark can report exact allocations and bytes per decision.
// The counters cost the same in every run of every commit, so they shift
// absolute times but not comparisons. The array and nothrow forms default
// to calling the forms replaced here.
#include <atomic>
#include <cstdlib>
#include <new>

#include "measure.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_bytes{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (size == 0) size = 1;
  // aligned_alloc needs a size that is a multiple of the alignment.
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace perfbench {

AllocCount alloc_count() {
  return {g_allocs.load(std::memory_order_relaxed),
          g_bytes.load(std::memory_order_relaxed)};
}

}  // namespace perfbench

void* operator new(std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
