#include "layers.h"

#include <utility>

#include "search/discovery_engine.h"

namespace perfbench {

void SetBuildBreakdown(std::map<std::string, Metric>* layers,
                       const lake::DataLakeCatalog& catalog,
                       const lake::KnowledgeBase& kb,
                       const std::vector<std::string>& modalities) {
  for (const std::string& modality : modalities) {
    lake::DiscoveryEngine::Options o;
    std::pair<const char*, bool*> flags[] = {
        {"keyword", &o.build_keyword},   {"exact", &o.build_exact_join},
        {"lsh", &o.build_lsh_join},      {"josie", &o.build_josie},
        {"approx", &o.build_approx},     {"pexeso", &o.build_pexeso},
        {"mate", &o.build_mate},         {"correlated", &o.build_correlated},
        {"tus", &o.build_tus},           {"santos", &o.build_santos},
        {"starmie", &o.build_starmie},   {"d3l", &o.build_d3l},
        {"kb", &o.synthesize_kb},
    };
    bool known = false;
    for (auto& [name, flag] : flags) {
      *flag = modality == name;
      known = known || *flag;
    }
    if (!known) throw BenchError("unknown modality " + modality);
    o.train_annotator = modality == "kb";
    const Clock::time_point start = Clock::now();
    { lake::DiscoveryEngine engine(&catalog, &kb, o); }
    (*layers)["build." + modality + "_s"] = {MsSince(start) / 1000.0, "s", 1};
  }
}

}  // namespace perfbench
