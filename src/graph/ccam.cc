#include "graph/ccam.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <random>

#include "common/macros.h"
#include "spatial/zorder.h"

namespace dsks {

namespace {

// On-page record layout:
//   u16 num_records
//   repeated: u32 node_id, u16 degree, degree * { u32 neighbor, u32 edge,
//                                                 f64 weight }
constexpr size_t kPageHeaderSize = sizeof(uint16_t);

constexpr size_t kRecordHeaderSize = sizeof(uint32_t) + sizeof(uint16_t);
constexpr size_t kNeighborSize = sizeof(uint32_t) * 2 + sizeof(double);

size_t RecordSize(size_t degree) {
  return kRecordHeaderSize + degree * kNeighborSize;
}

template <typename T>
void AppendRaw(char* base, size_t* pos, T value) {
  std::memcpy(base + *pos, &value, sizeof(T));
  *pos += sizeof(T);
}

template <typename T>
T ReadRaw(const char* base, size_t* pos) {
  T value;
  std::memcpy(&value, base + *pos, sizeof(T));
  *pos += sizeof(T);
  return value;
}

/// Greedily packs nodes, in the given order, into groups bounded by the
/// page payload capacity.
std::vector<std::vector<NodeId>> PackGroups(const RoadNetwork& net,
                                            const std::vector<NodeId>& order) {
  std::vector<std::vector<NodeId>> groups;
  size_t used = kPageSize;  // force a new group on the first node
  for (NodeId v : order) {
    const size_t rec = RecordSize(net.Neighbors(v).size());
    DSKS_CHECK_MSG(rec <= kPageSize - kPageHeaderSize,
                   "adjacency list larger than one page");
    if (used + rec > kPageSize) {
      groups.emplace_back();
      used = kPageHeaderSize;
    }
    groups.back().push_back(v);
    used += rec;
  }
  return groups;
}

/// Connectivity refinement: repeatedly move nodes to the group holding the
/// majority of their neighbours when that group has room. A bounded number
/// of passes keeps construction linear in practice.
void RefineGroups(const RoadNetwork& net,
                  std::vector<std::vector<NodeId>>* groups) {
  const size_t num_groups = groups->size();
  if (num_groups <= 1) {
    return;
  }
  std::vector<uint32_t> group_of(net.num_nodes());
  std::vector<size_t> used(num_groups, kPageHeaderSize);
  for (uint32_t g = 0; g < num_groups; ++g) {
    for (NodeId v : (*groups)[g]) {
      group_of[v] = g;
      used[g] += RecordSize(net.Neighbors(v).size());
    }
  }

  for (int pass = 0; pass < 3; ++pass) {
    size_t moves = 0;
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      const auto neighbors = net.Neighbors(v);
      if (neighbors.empty()) {
        continue;
      }
      // Count neighbours per candidate group.
      uint32_t here = group_of[v];
      size_t here_links = 0;
      uint32_t best_group = here;
      size_t best_links = 0;
      // Tiny degree: linear scan over neighbours per candidate is fine.
      for (const AdjacentEdge& a : neighbors) {
        const uint32_t g = group_of[a.neighbor];
        size_t links = 0;
        for (const AdjacentEdge& b : neighbors) {
          links += group_of[b.neighbor] == g ? 1 : 0;
        }
        if (g == here) {
          here_links = links;
        } else if (links > best_links ||
                   (links == best_links && g < best_group)) {
          best_links = links;
          best_group = g;
        }
      }
      if (best_group == here || best_links <= here_links) {
        continue;
      }
      const size_t rec = RecordSize(neighbors.size());
      if (used[best_group] + rec > kPageSize) {
        continue;  // no room; keep it simple (no swaps)
      }
      // Move v.
      auto& src = (*groups)[here];
      src.erase(std::find(src.begin(), src.end(), v));
      (*groups)[best_group].push_back(v);
      used[here] -= rec;
      used[best_group] += rec;
      group_of[v] = best_group;
      ++moves;
    }
    if (moves == 0) {
      break;
    }
  }
  // Drop groups that became empty.
  groups->erase(std::remove_if(groups->begin(), groups->end(),
                               [](const std::vector<NodeId>& g) {
                                 return g.empty();
                               }),
                groups->end());
}

}  // namespace

CcamFile CcamFileBuilder::Build(const RoadNetwork& net, DiskManager* disk,
                                CcamPlacement placement) {
  DSKS_CHECK_MSG(net.finalized(), "network must be finalized");
  CcamFile file;
  file.node_page_.assign(net.num_nodes(), kInvalidPageId);
  file.node_offset_.assign(net.num_nodes(), 0);
  if (net.num_nodes() == 0) {
    return file;
  }

  // Node order for the initial packing.
  std::vector<NodeId> order(net.num_nodes());
  std::iota(order.begin(), order.end(), NodeId{0});
  if (placement == CcamPlacement::kRandom) {
    std::mt19937_64 rng(0x5EED);
    std::shuffle(order.begin(), order.end(), rng);
  } else {
    std::vector<uint64_t> code(net.num_nodes());
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      code[v] = ZOrder::Encode(net.node(v).loc);
    }
    std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
      return code[a] != code[b] ? code[a] < code[b] : a < b;
    });
  }

  std::vector<std::vector<NodeId>> groups = PackGroups(net, order);
  if (placement == CcamPlacement::kZOrderRefined) {
    RefineGroups(net, &groups);
  }

  // Write one page per group.
  char page[kPageSize];
  for (const std::vector<NodeId>& group : groups) {
    std::memset(page, 0, kPageSize);
    size_t pos = kPageHeaderSize;
    const auto count = static_cast<uint16_t>(group.size());
    std::memcpy(page, &count, sizeof(uint16_t));
    const PageId id = disk->AllocatePage();
    for (NodeId v : group) {
      file.node_page_[v] = id;
      file.node_offset_[v] = static_cast<uint16_t>(pos);
      const auto neighbors = net.Neighbors(v);
      AppendRaw(page, &pos, static_cast<uint32_t>(v));
      AppendRaw(page, &pos, static_cast<uint16_t>(neighbors.size()));
      for (const AdjacentEdge& adj : neighbors) {
        AppendRaw(page, &pos, static_cast<uint32_t>(adj.neighbor));
        AppendRaw(page, &pos, static_cast<uint32_t>(adj.edge));
        AppendRaw(page, &pos, adj.weight);
      }
      DSKS_CHECK(pos <= kPageSize);
    }
    const Status write_status = disk->WritePage(id, page);
    DSKS_CHECK_MSG(write_status.ok(), "CCAM build on a faulty disk");
    ++file.num_pages_;
  }
  return file;
}

double CcamConnectivityRatio(const RoadNetwork& net, const CcamFile& file) {
  if (net.num_edges() == 0) {
    return 0.0;
  }
  size_t co_located = 0;
  for (const Edge& e : net.edges()) {
    if (file.PageOfNode(e.n1) == file.PageOfNode(e.n2)) {
      ++co_located;
    }
  }
  return static_cast<double>(co_located) /
         static_cast<double>(net.num_edges());
}

Status CcamGraph::GetAdjacency(NodeId id,
                               std::vector<AdjacentEdge>* out) const {
  out->clear();
  const PageId pid = file_->PageOfNode(id);
  DSKS_CHECK_MSG(pid != kInvalidPageId, "node has no CCAM page");
  PageGuard guard;
  DSKS_RETURN_IF_ERROR(PageGuard::Fetch(pool_, pid, &guard));
  const char* data = guard.data();
  // The page directory stores the record's offset, so no scan over the
  // page's other records is needed; the neighbor entries are packed in
  // AdjacentEdge's exact layout and bulk-copied.
  static_assert(sizeof(AdjacentEdge) == kNeighborSize &&
                    offsetof(AdjacentEdge, neighbor) == 0 &&
                    offsetof(AdjacentEdge, edge) == sizeof(uint32_t) &&
                    offsetof(AdjacentEdge, weight) == 2 * sizeof(uint32_t),
                "on-page neighbor entries mirror AdjacentEdge");
  size_t pos = file_->OffsetOfNode(id);
  const auto node = ReadRaw<uint32_t>(data, &pos);
  if (node != id) {
    return Status::Corruption("node record missing from its CCAM page");
  }
  const auto degree = ReadRaw<uint16_t>(data, &pos);
  if (pos + size_t{degree} * kNeighborSize > kPageSize) {
    return Status::Corruption("CCAM adjacency record overruns its page");
  }
  out->resize(degree);
  std::memcpy(out->data(), data + pos, size_t{degree} * kNeighborSize);
  return Status::Ok();
}

}  // namespace dsks
