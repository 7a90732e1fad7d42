#ifndef DSKS_GRAPH_SERIALIZATION_H_
#define DSKS_GRAPH_SERIALIZATION_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "graph/object_set.h"
#include "graph/road_network.h"

namespace dsks {

/// Binary dataset files ("DSKS" format, version 1): a road network plus
/// its spatio-textual objects. Generating large datasets is deterministic
/// but not free; persisting them lets benchmark runs and downstream users
/// share inputs.
///
/// Layout (little-endian): magic "DSKS", u32 version, u64 node count,
/// nodes (f64 x, f64 y), u64 edge count, edges (u32 n1, u32 n2,
/// f64 weight), u64 object count, objects (u32 edge, f64 offset,
/// u32 term count, u32 terms[]).
Status SaveDataset(const RoadNetwork& network, const ObjectSet& objects,
                   const std::string& path);

/// Loads a dataset saved with SaveDataset. On success `*network` and
/// `*objects` are finalized and ready to use; `*objects` refers to
/// `*network`, which must therefore outlive it. A truncated file, an
/// invalid edge or object, or an implausible count or term id (2^20 or
/// more) is CORRUPTION.
Status LoadDataset(const std::string& path,
                   std::unique_ptr<RoadNetwork>* network,
                   std::unique_ptr<ObjectSet>* objects);

}  // namespace dsks

#endif  // DSKS_GRAPH_SERIALIZATION_H_
