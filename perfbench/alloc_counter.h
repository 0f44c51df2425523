#ifndef PARTIX_PERFBENCH_ALLOC_COUNTER_H_
#define PARTIX_PERFBENCH_ALLOC_COUNTER_H_

#include <cstdint>

namespace perfbench {

/// Counts operator-new calls made by the constructing thread while the
/// counter lives. Not nestable; the benchmark opens one around the xml
/// layer's parse calls.
class AllocationCounter {
 public:
  AllocationCounter();
  ~AllocationCounter();
  AllocationCounter(const AllocationCounter&) = delete;
  AllocationCounter& operator=(const AllocationCounter&) = delete;

  uint64_t count() const;

 private:
  uint64_t start_;
};

}  // namespace perfbench

#endif  // PARTIX_PERFBENCH_ALLOC_COUNTER_H_
