// Per-layer metrics of the traced run. A workload reports the layers it
// reaches; run.py reads a BENCHMARK.json per_layer metric the workload does
// not report as 0 (no work, no time), which is the prediction for a layer
// the workload bypasses.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <map>
#include <string>
#include <vector>

#include "annotate/knowledge_base.h"
#include "bench.h"
#include "table/catalog.h"

namespace perfbench {

/// Sets build.<modality>_s in `layers` for each listed modality: the wall
/// time of a DiscoveryEngine built over `catalog` with only that modality
/// enabled.
void SetBuildBreakdown(std::map<std::string, Metric>* layers,
                       const lake::DataLakeCatalog& catalog,
                       const lake::KnowledgeBase& kb,
                       const std::vector<std::string>& modalities);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
