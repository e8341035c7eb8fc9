#include "src/cluster/oracle.h"

#include "src/cluster/federated_source.h"
#include "src/pql/eval.h"
#include "src/pql/provdb_source.h"
#include "src/waldo/provdb.h"

namespace pass::cluster {

Result<std::vector<std::string>> QueryRows(const pql::GraphSource* source,
                                           std::string_view query) {
  auto result = pql::Engine(source).Run(query);
  if (!result.ok()) {
    return Status(result.status().code(),
                  result.status().message() + " in query: " +
                      std::string(query));
  }
  return result->RowKeys();
}

Result<std::vector<std::string>> MergedRows(const ClusterCoordinator& cluster,
                                            std::string_view query) {
  waldo::ProvDb merged;
  cluster.MergeInto(&merged);
  pql::ProvDbSource source(&merged);
  return QueryRows(&source, query);
}

TamperClass ExpectedTamperClass(TamperKind kind) {
  switch (kind) {
    case TamperKind::kFlipByte:
    case TamperKind::kFlipByteFixCrc:
      return TamperClass::kRowEdit;
    case TamperKind::kDeleteFrame:
    case TamperKind::kTruncateAtFrame:
    case TamperKind::kTruncateMidFrame:
      return TamperClass::kTruncation;
    case TamperKind::kSwapFrames:
      return TamperClass::kReordering;
  }
  return TamperClass::kNone;
}

Status CheckFederatedMatchesMerged(ClusterCoordinator* cluster,
                                   const std::vector<std::string>& queries) {
  FederatedSource federated = cluster->Source(/*portal_shard=*/0);
  waldo::ProvDb merged;
  cluster->MergeInto(&merged);
  pql::ProvDbSource merged_source(&merged);
  for (const std::string& query : queries) {
    PASS_ASSIGN_OR_RETURN(std::vector<std::string> got,
                          QueryRows(&federated, query));
    PASS_ASSIGN_OR_RETURN(std::vector<std::string> want,
                          QueryRows(&merged_source, query));
    if (want.empty()) {
      return Internal("merged answer is empty: " + query);
    }
    if (got != want) {
      return Internal("federated answer (" + std::to_string(got.size()) +
                      " rows) != merged answer (" +
                      std::to_string(want.size()) + " rows): " + query);
    }
  }
  return Status::Ok();
}

}  // namespace pass::cluster
