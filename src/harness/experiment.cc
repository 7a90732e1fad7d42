#include "harness/experiment.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/macros.h"
#include "common/timer.h"

namespace dsks {

ScopedIoDelay::ScopedIoDelay(Database* db, bool yielding) : db_(db) {
  const char* env = std::getenv("DSKS_IO_DELAY_US");
  db_->disk()->set_read_delay_us(env == nullptr ? 50.0 : std::atof(env));
  db_->disk()->set_read_delay_yields(yielding);
}

ScopedIoDelay::~ScopedIoDelay() {
  db_->disk()->set_read_delay_us(0.0);
  db_->disk()->set_read_delay_yields(false);
}

SkWorkloadMetrics RunSkWorkload(Database* db, const Workload& workload) {
  DSKS_CHECK_MSG(!workload.queries.empty(), "empty workload");
  SkWorkloadMetrics m;
  ScopedIoDelay delay(db);
  QueryContext ctx;  // reused across the whole workload
  for (const WorkloadQuery& wq : workload.queries) {
    db->ResetCounters();
    Timer timer;
    std::vector<SkResult> results;
    const Status status = db->RunSkQuery(wq.sk, wq.edge, &results, &ctx);
    DSKS_CHECK_MSG(status.ok(), "SK workload query failed");
    m.avg_millis += timer.ElapsedMillis();
    m.avg_io += static_cast<double>(db->IoCount());
    m.avg_candidates += static_cast<double>(results.size());
    const ObjectIndexStats& st = db->index()->stats();
    m.avg_false_hits += static_cast<double>(st.false_hits);
    m.avg_false_hit_objects += static_cast<double>(st.false_hit_objects);
    m.avg_edges_skipped += static_cast<double>(st.edges_skipped_by_signature);
    m.avg_objects_loaded += static_cast<double>(st.objects_loaded);
  }
  const auto n = static_cast<double>(workload.queries.size());
  m.avg_millis /= n;
  m.avg_io /= n;
  m.avg_candidates /= n;
  m.avg_false_hits /= n;
  m.avg_false_hit_objects /= n;
  m.avg_edges_skipped /= n;
  m.avg_objects_loaded /= n;
  return m;
}

DivWorkloadMetrics RunDivWorkload(Database* db, const Workload& workload,
                                  size_t k, double lambda, bool use_com) {
  DSKS_CHECK_MSG(!workload.queries.empty(), "empty workload");
  DivWorkloadMetrics m;
  ScopedIoDelay delay(db);
  QueryContext ctx;  // reused across the whole workload
  for (const WorkloadQuery& wq : workload.queries) {
    DivQuery dq;
    dq.sk = wq.sk;
    dq.k = k;
    dq.lambda = lambda;
    db->ResetCounters();
    Timer timer;
    DivSearchOutput out;
    const Status status = db->RunDivQuery(dq, wq.edge, use_com, &out, &ctx);
    DSKS_CHECK_MSG(status.ok(), "div workload query failed");
    m.avg_millis += timer.ElapsedMillis();
    m.avg_io += static_cast<double>(db->IoCount());
    m.avg_candidates += static_cast<double>(out.stats.candidates);
    m.avg_objective += out.objective;
    m.early_termination_rate += out.stats.early_terminated ? 1.0 : 0.0;
    m.avg_distance_fields += static_cast<double>(out.stats.distance_fields);
  }
  const auto n = static_cast<double>(workload.queries.size());
  m.avg_millis /= n;
  m.avg_io /= n;
  m.avg_candidates /= n;
  m.avg_objective /= n;
  m.early_termination_rate /= n;
  m.avg_distance_fields /= n;
  return m;
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  DSKS_CHECK_MSG(cells.size() == headers_.size(), "row arity mismatch");
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::Fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

void TablePrinter::Print() const {
  std::vector<size_t> width(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) {
    width[c] = headers_[c].size();
    for (const auto& row : rows_) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto print_row = [&width](const std::vector<std::string>& cells) {
    for (size_t c = 0; c < cells.size(); ++c) {
      std::printf("%-*s%s", static_cast<int>(width[c]), cells[c].c_str(),
                  c + 1 == cells.size() ? "\n" : "  ");
    }
  };
  print_row(headers_);
  size_t total = headers_.size() - 1;
  for (size_t w : width) total += w + 1;
  for (size_t i = 0; i < total; ++i) std::printf("-");
  std::printf("\n");
  for (const auto& row : rows_) {
    print_row(row);
  }
}

}  // namespace dsks
