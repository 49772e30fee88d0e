// alloc_count.h — exact heap-allocation counts for the traced run.
//
// alloc_count.cpp replaces the global operator new/delete of the benchmark
// binary with malloc/free.  Inside a CountAllocations scope every
// allocation also does one relaxed atomic increment; outside one it only
// reads a flag nobody writes, so untraced runs time the plain allocator.
// The count is process-wide (pool workers included), so a delta taken
// around a call on an otherwise idle process is exactly the number of
// allocations that call made.
#pragma once

#include <cstdint>

namespace perfbench {

/// Allocations counted so far (every operator new form).
std::int64_t allocation_count();

/// Counts allocations while alive.  Scopes do not nest.
class CountAllocations {
 public:
  CountAllocations();
  ~CountAllocations();
  CountAllocations(const CountAllocations&) = delete;
  CountAllocations& operator=(const CountAllocations&) = delete;
};

}  // namespace perfbench
