// Replaces the global operator new of the benchmark binary so the xml
// layer's allocations per parsed document can be counted. Counting is
// per thread and off unless a thread opts in, so the replacement costs one
// thread-local load per allocation elsewhere.

#include "alloc_counter.h"

#include <cstdlib>
#include <new>

namespace {

thread_local bool t_counting = false;
thread_local uint64_t t_allocations = 0;

void* Allocate(std::size_t bytes) {
  if (t_counting) ++t_allocations;
  void* p = std::malloc(bytes == 0 ? 1 : bytes);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace perfbench {

AllocationCounter::AllocationCounter() : start_(t_allocations) {
  t_counting = true;
}

AllocationCounter::~AllocationCounter() { t_counting = false; }

uint64_t AllocationCounter::count() const { return t_allocations - start_; }

}  // namespace perfbench

void* operator new(std::size_t bytes) { return Allocate(bytes); }
void* operator new[](std::size_t bytes) { return Allocate(bytes); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
