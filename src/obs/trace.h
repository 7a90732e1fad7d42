#ifndef DSKS_OBS_TRACE_H_
#define DSKS_OBS_TRACE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/io_account.h"

namespace dsks::obs {

/// The query phases the paper's cost model distinguishes: object loading
/// through the index (Algorithm 2), network expansion (Algorithm 3), the
/// oracle's Dijkstra work (§4's pairwise distances) and the greedy
/// diversification (Algorithms 1/5/6). kQuery is the root span one whole
/// query runs under; time and I/O not covered by a child phase show up as
/// the root's exclusive share ("query overhead").
enum class Phase : uint8_t {
  kQuery = 0,
  kKeywordLookup,
  kNetworkExpansion,
  kOracleSharedExpansion,
  kOracleFieldDijkstra,
  kGreedySelection,
};
inline constexpr size_t kNumPhases = 6;

const char* PhaseName(Phase p);

/// One recorded phase span. `inclusive_*` covers the span's whole
/// lifetime; `child_*` is the part spent inside nested spans, so
/// exclusive = inclusive - child is the span's own share and per-phase
/// exclusive totals sum exactly to the root's inclusive totals.
struct TraceSpan {
  static constexpr uint32_t kNoParent = UINT32_MAX;

  Phase phase = Phase::kQuery;
  uint32_t parent = kNoParent;  // index into QueryTrace::spans()

  int64_t inclusive_ns = 0;
  int64_t child_ns = 0;
  IoCounters inclusive_io;
  IoCounters child_io;

  int64_t exclusive_ns() const { return inclusive_ns - child_ns; }
  IoCounters exclusive_io() const { return inclusive_io - child_io; }
};

/// Exclusive totals of one phase over a trace: how many spans it recorded
/// and the time and I/O they spent outside their child spans. Summed over
/// all phases they equal the inclusive totals of the root span(s).
struct PhaseTotals {
  uint64_t spans = 0;
  int64_t exclusive_ns = 0;
  IoCounters io;
};

/// Per-query trace sink: phase spans with monotonic-clock timings and
/// delta-snapshots of an I/O counter source. A query runs traced when its
/// QueryContext carries a non-null `trace` pointer; otherwise every hook
/// is an inlined null check and nothing else — the hot paths stay at
/// their untraced cost.
///
/// One QueryTrace belongs to one thread (like the QueryContext carrying
/// it). Database::Run* binds it to the query's per-context counters and
/// opens the kQuery root span, so the span I/O deltas are exact
/// regardless of how many other queries run concurrently: the storage
/// layer charges each query's I/O to its own context (see
/// obs/io_account.h). An unbound trace records timings only (its I/O
/// deltas stay zero). Tracing several queries into one trace is fine —
/// each becomes another kQuery root and the aggregates accumulate. A
/// failed query keeps the spans it recorded before the error: that is its
/// partial-work account.
class QueryTrace {
 public:
  /// Snapshots the query context's own attribution counters per span.
  /// Null unbinds. Must not be called while spans are open — an open
  /// span's delta would mix snapshots of different counters.
  void BindContextIo(const IoCounters* io);

  /// Drops all recorded spans (keeps capacity and the bound sources).
  void Clear();

  /// Opens a span; returns its index. Pair with CloseSpan (spans close in
  /// LIFO order). Use ScopedSpan instead of calling these directly.
  uint32_t OpenSpan(Phase phase);
  void CloseSpan(uint32_t index);

  const std::vector<TraceSpan>& spans() const { return spans_; }
  size_t open_depth() const { return open_.size(); }

  /// Exclusive totals per phase, indexed by Phase.
  std::array<PhaseTotals, kNumPhases> AggregateByPhase() const;

 private:
  IoCounters ReadIo() const;
  int64_t NowNs() const;

  const IoCounters* context_io_ = nullptr;
  std::vector<TraceSpan> spans_;
  std::vector<uint32_t> open_;  // stack of open span indices
};

/// The one rendering of a query's cost, shared by the query response
/// ("io" and "trace"), /tracez, bench_throughput's phase_profile and
/// `dsks_cli query --trace`:
///   {"pool_hits":N,"pool_misses":N,"disk_reads":N,"prefetched_pages":N}
std::string IoJson(const IoCounters& io);
/// One member per phase that recorded a span, in Phase order, each with
/// the I/O fields of IoJson:
///   {"query":{"spans":N,"ms":X,"pool_hits":N,...,"prefetched_pages":N},
///    "keyword_lookup":{...},...}
std::string PhasesJson(const std::array<PhaseTotals, kNumPhases>& phases);

/// RAII span: no-op when `trace` is null, which is what makes the hooks
/// free in untraced runs — the constructor and destructor inline to a
/// single pointer test.
class ScopedSpan {
 public:
  ScopedSpan(QueryTrace* trace, Phase phase) : trace_(trace) {
    if (trace_ != nullptr) {
      index_ = trace_->OpenSpan(phase);
    }
  }
  ~ScopedSpan() {
    if (trace_ != nullptr) {
      trace_->CloseSpan(index_);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  QueryTrace* trace_;
  uint32_t index_ = 0;
};

}  // namespace dsks::obs

#endif  // DSKS_OBS_TRACE_H_
