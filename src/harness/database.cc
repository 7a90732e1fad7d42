#include "harness/database.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "common/heap.h"
#include "common/macros.h"
#include "common/timer.h"
#include "datagen/network_generator.h"
#include "datagen/object_generator.h"
#include "index/inverted_file.h"
#include "index/inverted_rtree.h"
#include "index/sif.h"
#include "index/sif_group.h"
#include "obs/metrics.h"
#include "obs/process_memory.h"
#include "obs/trace.h"

namespace dsks {

std::string IndexKindName(IndexKind kind) {
  switch (kind) {
    case IndexKind::kIR:
      return "IR";
    case IndexKind::kIF:
      return "IF";
    case IndexKind::kSIF:
      return "SIF";
    case IndexKind::kSIFP:
      return "SIF-P";
    case IndexKind::kSIFG:
      return "SIF-G";
  }
  return "?";
}

namespace {

/// Pool target until PrepareForQueries sets the measured budget; large, so
/// that queries run before then rarely evict. Frames are allocated on first
/// fetch, so an unused target costs no memory.
constexpr size_t kInitialPoolFrames = 64 * 1024;  // 256 MiB of frames

/// Ends a setup phase that `timer` timed.
void EndPhase(const Timer& timer, Database::SetupPhase* phase) {
  phase->ms = timer.ElapsedMillis();
  phase->peak_rss_bytes = obs::ReadProcessMemory().peak_rss_bytes;
}

}  // namespace

Database::Database(const DatasetConfig& config, const DiskOptions& storage)
    : config_(config), disk_(storage) {
  Timer timer;
  network_ = GenerateRoadNetwork(config.network);
  objects_ = GenerateObjects(*network_, config.objects);
  EndPhase(timer, &setup_times_.dataset);
  Mount();
}

Database::Database(std::unique_ptr<RoadNetwork> network,
                   std::unique_ptr<ObjectSet> objects,
                   const DiskOptions& storage)
    : network_(std::move(network)),
      objects_(std::move(objects)),
      disk_(storage) {
  // In size_t, so the largest TermId cannot wrap the vocabulary to 0.
  size_t vocab = 0;
  for (const SpatioTextualObject& o : objects_->objects()) {
    for (const TermId t : o.terms) {
      vocab = std::max(vocab, static_cast<size_t>(t) + 1);
    }
  }
  config_.objects.vocab_size = vocab;
  Mount();
}

void Database::Mount() {
  Timer timer;
  term_stats_ =
      std::make_unique<TermStats>(*objects_, config_.objects.vocab_size);
  EndPhase(timer, &setup_times_.term_stats);
  timer.Reset();
  pool_ = std::make_unique<BufferPool>(&disk_, kInitialPoolFrames);
  ccam_file_ = CcamFileBuilder::Build(*network_, &disk_);
  ccam_graph_ = std::make_unique<CcamGraph>(&ccam_file_, pool_.get());
  index_base_pages_ = disk_.num_pages();
  EndPhase(timer, &setup_times_.ccam);
}

Database::IndexBuildInfo Database::BuildIndex(const IndexOptions& options) {
  const size_t vocab = config_.objects.vocab_size;
  const size_t min_postings = options.signature_min_postings == 0
                                  ? PostingFile::EntriesPerPage()
                                  : options.signature_min_postings;
  if (index_ != nullptr) {
    // Reclaim the superseded index's extent: drop the index, drop every
    // cached frame (queries may have read the old pages), then truncate the
    // disk to the post-CCAM watermark so the rebuild reuses the same page
    // range. Without this, every rebuild leaked its predecessor's pages.
    index_.reset();
    pool_->Clear();
    const Status trunc_status = disk_.TruncatePages(index_base_pages_);
    DSKS_CHECK_MSG(trunc_status.ok(), "index rebuild on a faulty disk");
    index_pages_ = 0;
  }
  Timer timer;
  switch (options.kind) {
    case IndexKind::kIR:
      index_ = std::make_unique<InvertedRTreeIndex>(pool_.get(), *objects_,
                                                    vocab);
      break;
    case IndexKind::kIF:
      index_ =
          std::make_unique<InvertedFileIndex>(pool_.get(), *objects_, vocab);
      break;
    case IndexKind::kSIF:
      index_ = std::make_unique<SifIndex>(pool_.get(), *objects_, vocab,
                                          min_postings);
      break;
    case IndexKind::kSIFP: {
      SifPConfig sifp = options.sifp;
      if (sifp.log_provider == nullptr) {
        sifp.log_provider = MakeQueryLogProvider(
            QueryLogMode::kFrequency, {}, /*terms_per_query=*/3,
            /*queries_per_edge=*/8, /*seed=*/config_.network.seed ^ 0xABCD);
      }
      index_ = std::make_unique<SifPartitionedIndex>(pool_.get(), *objects_,
                                                     vocab, sifp, min_postings);
      break;
    }
    case IndexKind::kSIFG:
      index_ = std::make_unique<SifGroupIndex>(pool_.get(), *objects_, vocab,
                                               options.sifg_frequent_terms,
                                               min_postings);
      break;
  }
  // The build freed far more heap than the index keeps (the posting array,
  // the run lists, the B+tree pair lists).
  ReturnFreedHeap();
  EndPhase(timer, &setup_times_.index_build);
  IndexBuildInfo info;
  info.build_millis = setup_times_.index_build.ms;
  info.size_bytes = index_->SizeBytes();
  index_pages_ = disk_.num_pages() - index_base_pages_;
  return info;
}

void Database::PrepareForQueries(double fraction, size_t min_frames) {
  DSKS_CHECK_MSG(index_ != nullptr, "build an index first");
  Timer timer;
  // Budget relative to the live dataset (CCAM + current index). Since
  // rebuilds truncate the superseded extent this normally equals the raw
  // disk, but the live sum stays correct even if a leak regresses.
  const double live_pages = static_cast<double>(
      (ccam_file_.size_bytes() + index_->SizeBytes()) / kPageSize);
  const auto frames = static_cast<size_t>(
      std::max(static_cast<double>(min_frames), fraction * live_pages));
  pool_->Clear();
  // Persist the built image (sidecar + fsync on the file backend) so the
  // measured phase starts from a durable, reopenable index.
  const Status disk_flush = disk_.Flush();
  DSKS_CHECK_MSG(disk_flush.ok(), "PrepareForQueries on a faulty disk");
  pool_->SetCapacity(frames);
  ResetCounters();
  EndPhase(timer, &setup_times_.prepare);
}

void Database::ResetCounters() {
  disk_.ResetStats();
  pool_->ResetStats();
  if (index_ != nullptr) {
    index_->stats().Reset();
  }
}

uint64_t Database::IoCount() const { return disk_.stats().reads; }

void Database::BindMetrics(obs::MetricsRegistry* registry,
                           const std::string& prefix) const {
  pool_->BindMetrics(registry, prefix + ".pool");
  disk_.BindMetrics(registry, prefix + ".disk");
  // Pages neither in the CCAM extent nor the current index: 0 unless the
  // rebuild-reclaim path regresses, in which case this gauge is how the
  // leak becomes visible.
  registry->BindSource(
      prefix + ".disk.leaked_pages",
      [this] {
        const size_t live = index_base_pages_ + index_pages_;
        const size_t total = disk_.num_pages();
        return static_cast<uint64_t>(total > live ? total - live : 0);
      },
      obs::MetricsRegistry::SourceKind::kGauge);
  const std::pair<const char*, const SetupPhase*> phases[] = {
      {"dataset", &setup_times_.dataset},
      {"term_stats", &setup_times_.term_stats},
      {"ccam", &setup_times_.ccam},
      {"index_build", &setup_times_.index_build},
      {"prepare", &setup_times_.prepare}};
  for (const auto& [name, phase] : phases) {
    registry->BindSource(
        prefix + ".setup." + name + "_ms",
        [phase] { return static_cast<uint64_t>(std::llround(phase->ms)); },
        obs::MetricsRegistry::SourceKind::kGauge);
    registry->BindSource(
        prefix + ".setup." + name + "_peak_rss_bytes",
        [phase] { return phase->peak_rss_bytes; },
        obs::MetricsRegistry::SourceKind::kGauge);
  }
}

void Database::UnbindMetrics(obs::MetricsRegistry* registry,
                             const std::string& prefix) const {
  registry->UnbindSourcesWithPrefix(prefix + ".");
}

namespace {

/// The query boundary every Run* method shares: runs `run(ctx)` on the
/// caller's context, or on one of its own when the caller passes none, so
/// every search and oracle of the query shares one context and one
/// adjacency memo. Charges the query's storage I/O to that context, binds
/// a trace to those per-context counters (so span deltas stay exact under
/// concurrency — other queries charge their own contexts) and opens the
/// kQuery root span before `run` does any I/O. A failed query keeps the
/// spans recorded before the error as its partial-work account.
template <typename Fn>
Status RunInContext(QueryContext* ctx, Fn&& run) {
  std::optional<QueryContext> local;
  if (ctx == nullptr) {
    ctx = &local.emplace();
  }
  obs::ScopedIoAccount io_account(&ctx->io);
  if (ctx->trace != nullptr) {
    ctx->trace->BindContextIo(&ctx->io);
  }
  obs::ScopedSpan root(ctx->trace, obs::Phase::kQuery);
  return run(ctx);
}

}  // namespace

Status Database::CheckQueryEdge(const SkQuery& query,
                                const QueryEdgeInfo& edge) const {
  if (query.loc.edge >= network_->num_edges()) {
    return Status::InvalidArgument("query location edge does not exist");
  }
  if (edge.edge >= network_->num_edges()) {
    return Status::InvalidArgument("query edge does not exist");
  }
  if (edge.n1 >= edge.n2 || edge.n2 >= network_->num_nodes()) {
    return Status::InvalidArgument(
        "query edge endpoints must be (reference, far) ordered nodes");
  }
  if (!(edge.weight > 0.0) || edge.w1 < 0.0 || edge.w1 > edge.weight) {
    return Status::InvalidArgument(
        "query position must lie on its edge (0 <= w1 <= weight)");
  }
  return Status::Ok();
}

Status Database::RunSkQuery(const SkQuery& query, const QueryEdgeInfo& edge,
                            std::vector<SkResult>* out, QueryContext* ctx) {
  out->clear();
  SkQuery q = query;
  DSKS_RETURN_IF_ERROR(NormalizeSkQuery(&q));
  DSKS_RETURN_IF_ERROR(CheckQueryEdge(q, edge));
  return RunInContext(ctx, [&](QueryContext* ctx) {
    IncrementalSkSearch search(ccam_graph_.get(), index_.get(), q, edge, ctx);
    SkResult r;
    while (search.Next(&r)) {
      out->push_back(r);
    }
    return search.status();
  });
}

Status Database::RunKnnQuery(const SkQuery& query, const QueryEdgeInfo& edge,
                             size_t k, std::vector<SkResult>* out,
                             QueryContext* ctx) {
  out->clear();
  SkQuery q = query;
  DSKS_RETURN_IF_ERROR(NormalizeSkQuery(&q));
  DSKS_RETURN_IF_ERROR(CheckQueryEdge(q, edge));
  if (k == 0) {
    return Status::InvalidArgument("kNN query needs k >= 1");
  }
  return RunInContext(ctx, [&](QueryContext* ctx) {
    return BooleanKnnSearch(ccam_graph_.get(), index_.get(), q, edge, k, out,
                            ctx);
  });
}

Status Database::RunRankedQuery(const RankedQuery& query,
                                const QueryEdgeInfo& edge,
                                std::vector<RankedResult>* out,
                                QueryContext* ctx) {
  out->clear();
  RankedQuery q = query;
  DSKS_RETURN_IF_ERROR(NormalizeSkQuery(&q.sk));
  DSKS_RETURN_IF_ERROR(CheckQueryEdge(q.sk, edge));
  if (q.k == 0) {
    return Status::InvalidArgument("ranked query needs k >= 1");
  }
  if (!(q.alpha >= 0.0 && q.alpha <= 1.0)) {
    return Status::InvalidArgument("alpha must be in [0, 1]");
  }
  return RunInContext(ctx, [&](QueryContext* ctx) {
    return RankedSkSearch(ccam_graph_.get(), index_.get(), q, edge, out,
                          /*stats=*/nullptr, ctx);
  });
}

Status Database::RunDivQuery(const DivQuery& query, const QueryEdgeInfo& edge,
                             bool use_com, DivSearchOutput* out,
                             QueryContext* ctx, OracleStrategy strategy) {
  *out = DivSearchOutput();
  DivQuery q = query;
  DSKS_RETURN_IF_ERROR(NormalizeDivQuery(&q));
  DSKS_RETURN_IF_ERROR(CheckQueryEdge(q.sk, edge));
  return RunInContext(ctx, [&](QueryContext* ctx) {
    IncrementalSkSearch search(ccam_graph_.get(), index_.get(), q.sk, edge,
                               ctx);
    PairwiseDistanceOracle oracle(ccam_graph_.get(), 2.0 * q.sk.delta_max,
                                  strategy, ctx);
    oracle.SetQueryEdge(edge);
    *out = use_com ? DiversifiedSearchCOM(&search, q, &oracle)
                   : DiversifiedSearchSEQ(&search, q, &oracle);
    return out->status;
  });
}

}  // namespace dsks
