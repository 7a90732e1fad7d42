#ifndef DSKS_BENCH_BENCH_COMMON_H_
#define DSKS_BENCH_BENCH_COMMON_H_

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "datagen/presets.h"
#include "datagen/workload.h"
#include "harness/database.h"
#include "harness/experiment.h"
#include "storage/disk_backend.h"

namespace dsks::bench {

/// Every bench binary honours two environment knobs so that the same code
/// can run as a quick smoke test or as a fuller experiment:
///   DSKS_BENCH_SCALE   — multiplies dataset sizes (default 1.0)
///   DSKS_BENCH_QUERIES — queries per workload (default per-bench)
inline double ScaleFromEnv() {
  const char* s = std::getenv("DSKS_BENCH_SCALE");
  return s == nullptr ? 1.0 : std::atof(s);
}

inline size_t QueriesFromEnv(size_t fallback) {
  const char* s = std::getenv("DSKS_BENCH_QUERIES");
  return s == nullptr ? fallback : static_cast<size_t>(std::atoll(s));
}

inline DatasetConfig Scaled(const DatasetConfig& preset) {
  const double scale = ScaleFromEnv();
  return scale == 1.0 ? preset : ScalePreset(preset, scale);
}

/// Storage backend for a bench run, chosen by `--backend=sim|file` on the
/// command line (`--o-direct` adds O_DIRECT on the file backend). The
/// file backend writes to a fresh temp file removed on destruction, so a
/// bench run leaves nothing behind. Every JSON record a bench emits must
/// carry the backend name — numbers from the two backends are different
/// experiments and must never be compared silently (see perf_gate.py).
class BenchBackend {
 public:
  BenchBackend(int argc, char** argv) {
    std::string name;
    bool o_direct = false;
    for (int i = 1; i < argc; ++i) {
      if (std::strncmp(argv[i], "--backend=", 10) == 0) {
        name = argv[i] + 10;
      } else if (std::strcmp(argv[i], "--o-direct") == 0) {
        o_direct = true;
      }
    }
    if (name == "file") {
      options_.backend = DiskBackendKind::kFile;
      options_.path =
          "/tmp/dsks_bench_" + std::to_string(::getpid()) + ".pages";
      owns_files_ = true;
      // O_DIRECT bypasses the OS page cache, so "cold" really means the
      // device: without it a cold-cache A/B on a warm page cache measures
      // memcpy, not device reads.
      options_.o_direct = o_direct;
    } else if (!name.empty() && name != "sim") {
      std::fprintf(stderr, "--backend: want 'sim' or 'file', got '%s'\n",
                   name.c_str());
      std::exit(2);
    }
  }
  ~BenchBackend() {
    if (owns_files_) {
      std::remove(options_.path.c_str());
      std::remove((options_.path + ".crc").c_str());
    }
  }

  BenchBackend(const BenchBackend&) = delete;
  BenchBackend& operator=(const BenchBackend&) = delete;

  const DiskOptions& options() const { return options_; }
  const char* name() const { return DiskBackendKindName(options_.backend); }

 private:
  DiskOptions options_;
  bool owns_files_ = false;
};

/// Writes accumulated JSON object strings as one JSON array file. The bench
/// binaries drop these next to wherever they are run from — tools/check.sh
/// runs them from the repo root so BENCH_*.json land there for scripted
/// comparison (perf regression gate, EXPERIMENTS.md numbers).
inline void WriteJsonArrayFile(const std::string& path,
                               const std::vector<std::string>& objects) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "WARN: cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < objects.size(); ++i) {
    std::fprintf(f, "  %s%s\n", objects[i].c_str(),
                 i + 1 < objects.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("wrote %s (%zu records)\n", path.c_str(), objects.size());
}

inline void PrintHeader(const char* title, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("(reproduces %s; datasets are the scaled presets of DESIGN.md)\n",
              paper_ref);
  std::printf("==============================================================\n");
}

}  // namespace dsks::bench

#endif  // DSKS_BENCH_BENCH_COMMON_H_
