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
  uint16_t depth = 0;
  uint32_t parent = kNoParent;  // index into QueryTrace::spans()

  int64_t start_ns = 0;  // monotonic, relative to the trace's first span
  int64_t inclusive_ns = 0;
  int64_t child_ns = 0;
  IoCounters inclusive_io;
  IoCounters child_io;

  int64_t exclusive_ns() const { return inclusive_ns - child_ns; }
  IoCounters exclusive_io() const { return inclusive_io - child_io; }
};

/// Per-query trace sink: phase spans with monotonic-clock timings and
/// delta-snapshots of an I/O counter source. A query runs traced when its
/// QueryContext carries a non-null `trace` pointer; otherwise every hook
/// is an inlined null check and nothing else — the hot paths stay at
/// their untraced cost.
///
/// One QueryTrace belongs to one thread (like the QueryContext carrying
/// it). Bind it to the query's per-context counters with BindContextIo —
/// Database::Run* does this automatically when the context carries a
/// trace — and the span I/O deltas are exact regardless of how many other
/// queries run concurrently, because the storage layer charges each
/// query's I/O to its own context (see obs/io_account.h). An unbound
/// trace records timings only (its I/O deltas stay zero). Tracing several
/// queries into one trace is fine — each becomes another kQuery root and
/// the aggregates accumulate.
class QueryTrace {
 public:
  /// Snapshots the query context's own attribution counters per span.
  /// Null unbinds. Must not be called while spans are open — an open
  /// span's delta would mix snapshots of different counters.
  void BindContextIo(const IoCounters* io);

  /// Drops all recorded spans (keeps capacity and the bound sources).
  void Clear();

  /// Records that the traced query failed with `code_name` (a
  /// Status::CodeName string). The spans recorded up to the error remain —
  /// that is the query's partial-work accounting: how far it got and what
  /// I/O it paid before failing. Shown in ToText/ToJson.
  void MarkError(const char* code_name) { error_code_name_ = code_name; }
  bool has_error() const { return error_code_name_ != nullptr; }
  /// Null when the query completed cleanly.
  const char* error_code_name() const { return error_code_name_; }

  /// Opens a span; returns its index. Pair with CloseSpan (spans close in
  /// LIFO order). Use ScopedSpan instead of calling these directly.
  uint32_t OpenSpan(Phase phase);
  void CloseSpan(uint32_t index);

  const std::vector<TraceSpan>& spans() const { return spans_; }
  size_t open_depth() const { return open_.size(); }

  /// Exclusive totals per phase. Summing ns/io over all phases yields
  /// exactly the inclusive totals of the root span(s).
  struct PhaseTotals {
    uint64_t spans = 0;
    int64_t exclusive_ns = 0;
    IoCounters io;
  };
  std::array<PhaseTotals, kNumPhases> AggregateByPhase() const;

  /// Spans aggregated into a tree by phase path: sibling spans of the same
  /// phase under the same tree node merge into one node with a count, so
  /// the rendering stays readable for thousands of raw spans.
  struct TreeNode {
    static constexpr uint32_t kNoParent = UINT32_MAX;
    Phase phase = Phase::kQuery;
    uint16_t depth = 0;
    uint32_t parent = kNoParent;  // index into the returned vector
    uint64_t count = 0;
    int64_t inclusive_ns = 0;
    int64_t child_ns = 0;
    IoCounters inclusive_io;
    IoCounters child_io;

    int64_t exclusive_ns() const { return inclusive_ns - child_ns; }
    IoCounters exclusive_io() const { return inclusive_io - child_io; }
  };
  std::vector<TreeNode> AggregateTree() const;

  /// Human-readable span tree (one line per aggregated node).
  std::string ToText() const;
  /// {"tree":[{phase,count,ms,own_ms,pool_hits,...,children:[...]}],
  ///  "phases":{name:{spans,ms,pool_hits,pool_misses,disk_reads,
  ///  disk_writes}}}
  std::string ToJson() const;

 private:
  IoCounters ReadIo() const;
  int64_t NowNs() const;

  const IoCounters* context_io_ = nullptr;
  std::vector<TraceSpan> spans_;
  std::vector<uint32_t> open_;  // stack of open span indices
  int64_t epoch_ns_ = 0;        // set by the first OpenSpan after Clear
  const char* error_code_name_ = nullptr;  // static-lifetime code name
};

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
