#ifndef DSKS_OBS_PROCESS_MEMORY_H_
#define DSKS_OBS_PROCESS_MEMORY_H_

#include <cstdint>

namespace dsks::obs {

class MetricsRegistry;

/// What the process holds in memory, as the kernel and the allocator see
/// it. A field reads 0 where its source is missing.
struct ProcessMemory {
  /// Resident set: /proc/self/statm's resident pages times the page size.
  uint64_t rss_bytes = 0;
  /// Largest resident set so far: getrusage's ru_maxrss, never below
  /// rss_bytes.
  uint64_t peak_rss_bytes = 0;
  /// Heap the program holds: mallinfo2's in-use arena bytes plus its
  /// mmapped chunks (large blocks bypass the arenas). Freed memory the
  /// allocator keeps for reuse is resident but not in use.
  uint64_t heap_in_use_bytes = 0;
};

ProcessMemory ReadProcessMemory();

/// Binds `process.rss_bytes`, `process.peak_rss_bytes` and
/// `process.heap_in_use_bytes` as gauge sources, each read at scrape time.
/// They read process-wide state, so they never need unbinding.
void BindProcessMetrics(MetricsRegistry* registry);

}  // namespace dsks::obs

#endif  // DSKS_OBS_PROCESS_MEMORY_H_
