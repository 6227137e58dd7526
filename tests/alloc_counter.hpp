#pragma once

// Process-wide heap accounting for the test binary. test_alloc_free.cpp
// replaces the global operator new and counts every call and every byte
// requested, so any test can measure what a code path allocates: read a
// counter before and after, and the difference is that path's cost.

#include <cstdint>

namespace mltcp::alloc_stats {

/// operator new calls so far, all forms counted.
std::uint64_t count();
/// Bytes requested from operator new so far (frees are not subtracted).
std::uint64_t bytes();

}  // namespace mltcp::alloc_stats
