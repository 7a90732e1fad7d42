#include "graph/serialization.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <vector>

namespace dsks {

namespace {

constexpr char kMagic[4] = {'D', 'S', 'K', 'S'};
constexpr uint32_t kVersion = 1;

/// Term ids must lie below this plausibility cap, ten times the paper's
/// largest vocabulary (n_v = 100K). The vocabulary is the largest id + 1
/// and the indexes size per-term tables by it, so a corrupt id must fail
/// here, not as a huge allocation or a vocabulary wrapped to 0.
constexpr TermId kTermIdLimit = TermId{1} << 20;

template <typename T>
void WriteRaw(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadRaw(std::ifstream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

}  // namespace

Status SaveDataset(const RoadNetwork& network, const ObjectSet& objects,
                   const std::string& path) {
  if (!network.finalized() || !objects.finalized()) {
    return Status::InvalidArgument("dataset must be finalized before saving");
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::NotFound("cannot open for writing: " + path);
  }
  out.write(kMagic, sizeof(kMagic));
  WriteRaw(out, kVersion);

  WriteRaw(out, static_cast<uint64_t>(network.num_nodes()));
  for (const Node& n : network.nodes()) {
    WriteRaw(out, n.loc.x);
    WriteRaw(out, n.loc.y);
  }
  WriteRaw(out, static_cast<uint64_t>(network.num_edges()));
  for (const Edge& e : network.edges()) {
    WriteRaw(out, e.n1);
    WriteRaw(out, e.n2);
    WriteRaw(out, e.weight);
  }
  WriteRaw(out, static_cast<uint64_t>(objects.size()));
  for (const SpatioTextualObject& o : objects.objects()) {
    WriteRaw(out, o.edge);
    WriteRaw(out, o.offset);
    WriteRaw(out, static_cast<uint32_t>(o.terms.size()));
    for (TermId t : o.terms) {
      WriteRaw(out, t);
    }
  }
  out.flush();
  if (!out) {
    return Status::Corruption("short write to " + path);
  }
  return Status::Ok();
}

Status LoadDataset(const std::string& path,
                   std::unique_ptr<RoadNetwork>* network,
                   std::unique_ptr<ObjectSet>* objects) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open: " + path);
  }
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad magic in " + path);
  }
  uint32_t version;
  if (!ReadRaw(in, &version) || version != kVersion) {
    return Status::Corruption("unsupported dataset version");
  }

  auto net = std::make_unique<RoadNetwork>();
  uint64_t num_nodes;
  if (!ReadRaw(in, &num_nodes)) {
    return Status::Corruption("truncated node count");
  }
  for (uint64_t i = 0; i < num_nodes; ++i) {
    Point p;
    if (!ReadRaw(in, &p.x) || !ReadRaw(in, &p.y)) {
      return Status::Corruption("truncated node table");
    }
    net->AddNode(p);
  }
  uint64_t num_edges;
  if (!ReadRaw(in, &num_edges)) {
    return Status::Corruption("truncated edge count");
  }
  for (uint64_t i = 0; i < num_edges; ++i) {
    NodeId n1;
    NodeId n2;
    double weight;
    if (!ReadRaw(in, &n1) || !ReadRaw(in, &n2) || !ReadRaw(in, &weight)) {
      return Status::Corruption("truncated edge table");
    }
    EdgeId unused;
    Status s = net->AddEdge(n1, n2, weight, &unused);
    if (!s.ok()) {
      return Status::Corruption("invalid edge in file: " + s.message());
    }
  }
  net->Finalize();

  auto objs = std::make_unique<ObjectSet>(net.get());
  uint64_t num_objects;
  if (!ReadRaw(in, &num_objects)) {
    return Status::Corruption("truncated object count");
  }
  std::vector<TermId> terms;
  for (uint64_t i = 0; i < num_objects; ++i) {
    EdgeId edge;
    double offset;
    uint32_t num_terms;
    if (!ReadRaw(in, &edge) || !ReadRaw(in, &offset) ||
        !ReadRaw(in, &num_terms)) {
      return Status::Corruption("truncated object table");
    }
    if (num_terms == 0 || num_terms > 100000) {
      return Status::Corruption("implausible object term count");
    }
    terms.resize(num_terms);
    for (uint32_t t = 0; t < num_terms; ++t) {
      if (!ReadRaw(in, &terms[t])) {
        return Status::Corruption("truncated term list");
      }
      if (terms[t] >= kTermIdLimit) {
        return Status::Corruption("implausible term id");
      }
    }
    ObjectId unused;
    Status s = objs->Add(edge, offset, terms, &unused);
    if (!s.ok()) {
      return Status::Corruption("invalid object in file: " + s.message());
    }
  }
  objs->Finalize();

  *network = std::move(net);
  *objects = std::move(objs);
  return Status::Ok();
}

}  // namespace dsks
