#ifndef DSKS_HARNESS_DATABASE_H_
#define DSKS_HARNESS_DATABASE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/div_search.h"
#include "core/query.h"
#include "core/ranked_search.h"
#include "core/sk_search.h"
#include "datagen/presets.h"
#include "graph/ccam.h"
#include "graph/object_set.h"
#include "graph/road_network.h"
#include "index/object_index.h"
#include "index/query_log.h"
#include "index/sif_partitioned.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "text/term_stats.h"

namespace dsks {

/// Which object index a Database mounts.
enum class IndexKind { kIR, kIF, kSIF, kSIFP, kSIFG };

std::string IndexKindName(IndexKind kind);

/// Options for BuildIndex.
struct IndexOptions {
  IndexKind kind = IndexKind::kSIF;
  /// SIF-P settings; `sifp.log_provider` defaults to the kFrequency mode
  /// of §3.3 Remark 1 when unset.
  SifPConfig sifp;
  /// x for SIF-G (top-x frequent terms get pair lists).
  size_t sifg_frequent_terms = 25;
  /// Keywords below this posting count get no signature (one page by
  /// default, per §3.1).
  size_t signature_min_postings = 0;  // 0 = one page worth of postings
};

/// A fully assembled "database instance": a dataset, its CCAM file, an
/// object index and the shared buffer pool. Every bench, example and CLI
/// query talks to the system through this facade.
class Database {
 public:
  /// Generates the dataset and writes the CCAM file. The buffer pool is
  /// a read cache: builders write each page once, straight to the disk,
  /// and PrepareForQueries() sizes the pool to the paper's 2% before
  /// measurements. `storage` selects the disk backend: the in-memory
  /// simulation (default) or a real index file (DiskBackendKind::kFile
  /// with a path).
  explicit Database(const DatasetConfig& config,
                    const DiskOptions& storage = DiskOptions{});

  /// Mounts a loaded dataset (LoadDataset) the same way. Its vocabulary is
  /// the largest term id + 1; the rest of config() keeps its defaults.
  Database(std::unique_ptr<RoadNetwork> network,
           std::unique_ptr<ObjectSet> objects,
           const DiskOptions& storage = DiskOptions{});

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  struct IndexBuildInfo {
    double build_millis = 0.0;
    uint64_t size_bytes = 0;
  };

  /// One setup phase: its wall time, and the process's peak resident set
  /// as it ended (obs::ProcessMemory::peak_rss_bytes, a high-water mark):
  /// a phase that reads more than the phase before it set a new peak. A
  /// phase that has not run reads 0 (dataset generation when a loaded
  /// dataset is mounted).
  struct SetupPhase {
    double ms = 0.0;
    uint64_t peak_rss_bytes = 0;
  };
  struct SetupTimes {
    SetupPhase dataset;  // road network and objects
    SetupPhase term_stats;
    SetupPhase ccam;
    SetupPhase index_build;  // the last BuildIndex
    SetupPhase prepare;      // the last PrepareForQueries
  };

  /// Builds (or replaces) the object index, writing each of its pages once
  /// to the disk; the pool holds none of them afterwards. May be called
  /// multiple times; a rebuild truncates the disk back to the post-CCAM
  /// watermark first, so superseded index pages are reclaimed instead of
  /// leaking (on the file backend this is the difference between a stable
  /// and an ever-growing index file). The "db.disk.leaked_pages" gauge
  /// reports any pages that still escape this accounting. Ends by
  /// returning the build's freed heap to the system (glibc's malloc_trim),
  /// which the build time includes.
  IndexBuildInfo BuildIndex(const IndexOptions& options);

  /// Drops every pool frame, flushes the disk backend (checksum sidecar +
  /// fsync on the file backend, which makes the index reopenable with
  /// DiskManager::OpenExisting), sizes the pool to
  /// max(min_frames, fraction · live pages), then clears all statistics.
  void PrepareForQueries(double fraction = 0.02, size_t min_frames = 64);

  /// Resets the I/O and index counters (per-query measurement).
  void ResetCounters();

  /// Physical reads since the last ResetCounters (the paper's "# of I/O").
  uint64_t IoCount() const;

  /// Exposes the pool and disk counters as live sources under
  /// "<prefix>.pool.*" and "<prefix>.disk.*", and the setup phases as
  /// gauges "<prefix>.setup.<phase>_ms" (whole milliseconds) and
  /// "<prefix>.setup.<phase>_peak_rss_bytes". The Database must outlive
  /// the binding; UnbindMetrics (or destroying the registry) releases it.
  void BindMetrics(obs::MetricsRegistry* registry,
                   const std::string& prefix = "db") const;
  void UnbindMetrics(obs::MetricsRegistry* registry,
                     const std::string& prefix = "db") const;

  /// Runs Algorithm 3 to exhaustion; `*out` receives the result objects.
  /// This is the API boundary: the query is validated and canonicalized
  /// (NormalizeSkQuery plus edge-range checks against this network) and a
  /// malformed one returns InvalidArgument instead of aborting. Storage
  /// errors and cancellation surface as the returned Status with the work
  /// done so far accounted in the context's QueryTrace. The context also
  /// receives the query's I/O charge and supplies its deadline. Pass a
  /// long-lived per-thread QueryContext to amortize scratch allocations
  /// across queries; with nullptr the query runs on a fresh context of its
  /// own, with the same results and page accesses.
  Status RunSkQuery(const SkQuery& query, const QueryEdgeInfo& edge,
                    std::vector<SkResult>* out, QueryContext* ctx = nullptr);

  /// Runs a diversified query with SEQ or COM. `strategy` selects the
  /// pairwise-distance scheme (shared expansion by default). Validation,
  /// context and error reporting as in RunSkQuery; `out->status` mirrors
  /// the returned Status.
  Status RunDivQuery(const DivQuery& query, const QueryEdgeInfo& edge,
                     bool use_com, DivSearchOutput* out,
                     QueryContext* ctx = nullptr,
                     OracleStrategy strategy = OracleStrategy::kSharedExpansion);

  /// Boolean k-nearest-neighbour SK query (all keywords, k closest).
  /// Validation, context and error reporting as in RunSkQuery.
  Status RunKnnQuery(const SkQuery& query, const QueryEdgeInfo& edge,
                     size_t k, std::vector<SkResult>* out,
                     QueryContext* ctx = nullptr);

  /// Ranked top-k SK query (OR semantics, distance/text score blend).
  /// Validation, context and error reporting as in RunSkQuery.
  Status RunRankedQuery(const RankedQuery& query, const QueryEdgeInfo& edge,
                        std::vector<RankedResult>* out,
                        QueryContext* ctx = nullptr);

  const RoadNetwork& network() const { return *network_; }
  const ObjectSet& objects() const { return *objects_; }
  const TermStats& term_stats() const { return *term_stats_; }
  const DatasetConfig& config() const { return config_; }
  const SetupTimes& setup_times() const { return setup_times_; }
  ObjectIndex* index() { return index_.get(); }
  BufferPool* pool() { return pool_.get(); }
  DiskManager* disk() { return &disk_; }
  const CcamGraph& ccam_graph() const { return *ccam_graph_; }
  uint64_t ccam_size_bytes() const { return ccam_file_.size_bytes(); }

 private:
  /// The constructors' shared body: term statistics, the pool and the
  /// CCAM file over network_ and objects_.
  void Mount();

  /// Boundary checks a normalized query cannot do on its own: edge ids
  /// must exist in this network and the query edge must be coherent.
  Status CheckQueryEdge(const SkQuery& query,
                        const QueryEdgeInfo& edge) const;

  DatasetConfig config_;
  std::unique_ptr<RoadNetwork> network_;
  std::unique_ptr<ObjectSet> objects_;
  std::unique_ptr<TermStats> term_stats_;
  DiskManager disk_;
  std::unique_ptr<BufferPool> pool_;
  CcamFile ccam_file_;
  std::unique_ptr<CcamGraph> ccam_graph_;
  std::unique_ptr<ObjectIndex> index_;
  /// Disk watermark right after the CCAM build: rebuilds truncate back to
  /// here, and pages beyond `index_base_pages_ + index_pages_` are leaks.
  size_t index_base_pages_ = 0;
  /// Pages allocated by the most recent BuildIndex.
  size_t index_pages_ = 0;
  SetupTimes setup_times_;
};

}  // namespace dsks

#endif  // DSKS_HARNESS_DATABASE_H_
