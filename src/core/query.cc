#include "core/query.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace dsks {

Status NormalizeSkQuery(SkQuery* query) {
  if (query->terms.empty()) {
    return Status::InvalidArgument("query needs at least one keyword");
  }
  std::sort(query->terms.begin(), query->terms.end());
  query->terms.erase(
      std::unique(query->terms.begin(), query->terms.end()),
      query->terms.end());
  if (!std::isfinite(query->delta_max) || query->delta_max <= 0.0) {
    return Status::InvalidArgument("delta_max must be positive and finite");
  }
  if (query->loc.edge == kInvalidEdgeId) {
    return Status::InvalidArgument("query location has no edge");
  }
  if (!std::isfinite(query->loc.offset) || query->loc.offset < 0.0) {
    return Status::InvalidArgument(
        "query offset must be non-negative and finite");
  }
  return Status::Ok();
}

Status NormalizeDivQuery(DivQuery* query) {
  DSKS_RETURN_IF_ERROR(NormalizeSkQuery(&query->sk));
  if (query->k == 0 || query->k > kMaxDivK) {
    return Status::InvalidArgument("diversified query needs k in [1, " +
                                   std::to_string(kMaxDivK) + "]");
  }
  if (!std::isfinite(query->lambda) || query->lambda < 0.0 ||
      query->lambda > 1.0) {
    return Status::InvalidArgument("lambda must be in [0, 1]");
  }
  return Status::Ok();
}

}  // namespace dsks
