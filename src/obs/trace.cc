#include "obs/trace.h"

#include <chrono>
#include <cstdarg>
#include <cstdio>

#include "common/macros.h"

namespace dsks::obs {

namespace {

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[320];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out->append(buf);
}

/// The IoJson members without the braces, so PhasesJson can inline them.
void AppendIoFields(std::string* out, const IoCounters& io) {
  AppendF(out,
          "\"pool_hits\":%llu,\"pool_misses\":%llu,\"disk_reads\":%llu,"
          "\"prefetched_pages\":%llu",
          static_cast<unsigned long long>(io.pool_hits),
          static_cast<unsigned long long>(io.pool_misses),
          static_cast<unsigned long long>(io.disk_reads),
          static_cast<unsigned long long>(io.prefetched_pages));
}

}  // namespace

const char* PhaseName(Phase p) {
  switch (p) {
    case Phase::kQuery:
      return "query";
    case Phase::kKeywordLookup:
      return "keyword_lookup";
    case Phase::kNetworkExpansion:
      return "network_expansion";
    case Phase::kOracleSharedExpansion:
      return "oracle_shared_expansion";
    case Phase::kOracleFieldDijkstra:
      return "oracle_field_dijkstra";
    case Phase::kGreedySelection:
      return "greedy_selection";
  }
  return "?";
}

void QueryTrace::BindContextIo(const IoCounters* io) {
  DSKS_CHECK_MSG(open_.empty(),
                 "rebinding the trace I/O source with spans open");
  context_io_ = io;
}

void QueryTrace::Clear() {
  spans_.clear();
  open_.clear();
}

IoCounters QueryTrace::ReadIo() const {
  // The context's counters are only written by the thread running its
  // query — this thread — so a plain copy is an exact snapshot.
  return context_io_ != nullptr ? *context_io_ : IoCounters{};
}

int64_t QueryTrace::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint32_t QueryTrace::OpenSpan(Phase phase) {
  const auto index = static_cast<uint32_t>(spans_.size());
  TraceSpan& s = spans_.emplace_back();
  s.phase = phase;
  s.parent = open_.empty() ? TraceSpan::kNoParent : open_.back();
  // Stash the open-time absolute values in the delta fields; CloseSpan
  // turns them into real deltas.
  s.inclusive_ns = NowNs();
  s.inclusive_io = ReadIo();
  open_.push_back(index);
  return index;
}

void QueryTrace::CloseSpan(uint32_t index) {
  DSKS_CHECK_MSG(!open_.empty() && open_.back() == index,
                 "trace spans must close in LIFO order");
  open_.pop_back();
  TraceSpan& s = spans_[index];
  s.inclusive_ns = NowNs() - s.inclusive_ns;
  s.inclusive_io = ReadIo() - s.inclusive_io;
  if (s.parent != TraceSpan::kNoParent) {
    TraceSpan& p = spans_[s.parent];
    p.child_ns += s.inclusive_ns;
    p.child_io += s.inclusive_io;
  }
}

std::array<PhaseTotals, kNumPhases> QueryTrace::AggregateByPhase() const {
  DSKS_CHECK_MSG(open_.empty(), "aggregate with spans still open");
  std::array<PhaseTotals, kNumPhases> totals{};
  for (const TraceSpan& s : spans_) {
    PhaseTotals& t = totals[static_cast<size_t>(s.phase)];
    ++t.spans;
    t.exclusive_ns += s.exclusive_ns();
    t.io += s.exclusive_io();
  }
  return totals;
}

std::string IoJson(const IoCounters& io) {
  std::string out = "{";
  AppendIoFields(&out, io);
  out.push_back('}');
  return out;
}

std::string PhasesJson(const std::array<PhaseTotals, kNumPhases>& phases) {
  std::string out = "{";
  const char* separator = "";
  for (size_t p = 0; p < kNumPhases; ++p) {
    const PhaseTotals& t = phases[p];
    if (t.spans == 0) {
      continue;
    }
    AppendF(&out, "%s\"%s\":{\"spans\":%llu,\"ms\":%.6f,", separator,
            PhaseName(static_cast<Phase>(p)),
            static_cast<unsigned long long>(t.spans),
            static_cast<double>(t.exclusive_ns) / 1e6);
    AppendIoFields(&out, t.io);
    out.push_back('}');
    separator = ",";
  }
  out.push_back('}');
  return out;
}

}  // namespace dsks::obs
