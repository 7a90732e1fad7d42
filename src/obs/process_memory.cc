#include "obs/process_memory.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>

#include "obs/metrics.h"

namespace dsks::obs {

ProcessMemory ReadProcessMemory() {
  ProcessMemory m;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    unsigned long long size_pages = 0;
    unsigned long long resident_pages = 0;
    if (std::fscanf(f, "%llu %llu", &size_pages, &resident_pages) == 2) {
      m.rss_bytes =
          resident_pages * static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
    }
    std::fclose(f);
  }
  // The kernel's high-water mark can trail the resident count it batches
  // per CPU by a few pages, so the peak is at least the current reading.
  struct rusage ru {};
  if (::getrusage(RUSAGE_SELF, &ru) == 0) {
    m.peak_rss_bytes = static_cast<uint64_t>(ru.ru_maxrss) * 1024;  // KiB
  }
  m.peak_rss_bytes = std::max(m.peak_rss_bytes, m.rss_bytes);
  const struct mallinfo2 mi = ::mallinfo2();
  m.heap_in_use_bytes = mi.uordblks + mi.hblkhd;
  return m;
}

void BindProcessMetrics(MetricsRegistry* registry) {
  constexpr auto kGauge = MetricsRegistry::SourceKind::kGauge;
  registry->BindSource(
      "process.rss_bytes", [] { return ReadProcessMemory().rss_bytes; },
      kGauge);
  registry->BindSource(
      "process.peak_rss_bytes",
      [] { return ReadProcessMemory().peak_rss_bytes; }, kGauge);
  registry->BindSource(
      "process.heap_in_use_bytes",
      [] { return ReadProcessMemory().heap_in_use_bytes; }, kGauge);
}

}  // namespace dsks::obs
