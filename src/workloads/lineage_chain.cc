#include "src/workloads/lineage_chain.h"

#include <string>

namespace pass::workloads {

Result<std::vector<core::ObjectRef>> WriteLineageChain(
    cluster::ClusterCoordinator* cluster, int files, int spread,
    std::string_view payload, std::string_view prefix) {
  std::vector<core::ObjectRef> refs;
  for (int i = 0; i < files; ++i) {
    std::vector<core::ObjectRef> sources;
    if (i > 0) {
      sources.push_back(refs.back());
    }
    PASS_ASSIGN_OR_RETURN(
        core::ObjectRef ref,
        cluster->WriteWithLineage(i % spread,
                                  std::string(prefix) + std::to_string(i),
                                  payload, sources));
    refs.push_back(ref);
  }
  return refs;
}

}  // namespace pass::workloads
