// Figure 2 reproduction: trace one canonical shell-pipeline workload
// through every PASSv2 component and print each component's counters —
// interceptor/observer -> analyzer -> distributor -> Lasagna -> Waldo ->
// database.

#include "src/util/logging.h"
#include <cstdio>

#include "src/workloads/machine.h"
#include "src/workloads/workloads.h"

int main() {
  pass::workloads::MachineOptions options;
  options.with_pass = true;
  pass::workloads::Machine machine(options);

  (void)pass::workloads::RunMercurial(&machine);
  PASS_CHECK(machine.waldo()->Drain().ok());

  const auto& observer = machine.pass()->observer_stats();
  const auto& analyzer = machine.pass()->analyzer_stats();
  const auto& distributor = machine.pass()->distributor_stats();
  const auto& lasagna = machine.volume()->lasagna_stats();
  auto waldo = machine.waldo()->stats();
  auto db = machine.db()->stats();

  std::printf("Figure 2: the PASSv2 pipeline (Mercurial workload)\n\n");
  std::printf("[interceptor/observer]  reads=%llu writes=%llu opens=%llu "
              "forks+spawns=%llu execs=%llu renames=%llu\n",
              (unsigned long long)observer.reads,
              (unsigned long long)observer.writes,
              (unsigned long long)observer.opens,
              (unsigned long long)observer.process_starts,
              (unsigned long long)observer.execs,
              (unsigned long long)observer.renames);
  std::printf("[analyzer]              records_in=%llu out=%llu dup_dropped=%llu "
              "freezes=%llu (cycle avoidance)\n",
              (unsigned long long)analyzer.records_in,
              (unsigned long long)analyzer.records_out,
              (unsigned long long)analyzer.duplicates_dropped,
              (unsigned long long)analyzer.freezes);
  std::printf("[distributor]           cached=%llu flushed=%llu objects=%llu\n",
              (unsigned long long)distributor.records_cached,
              (unsigned long long)distributor.records_flushed,
              (unsigned long long)distributor.objects_flushed);
  std::printf("[lasagna]               pass_writes=%llu txns=%llu "
              "prov_bytes=%llu data_bytes=%llu rotations=%llu\n",
              (unsigned long long)lasagna.pass_writes,
              (unsigned long long)lasagna.txns,
              (unsigned long long)lasagna.prov_bytes_logged,
              (unsigned long long)lasagna.data_bytes_written,
              (unsigned long long)lasagna.rotations);
  std::printf("[waldo]                 logs=%llu entries=%llu orphans=%llu\n",
              (unsigned long long)waldo.filter.logs,
              (unsigned long long)waldo.entries_ingested,
              (unsigned long long)waldo.open_txns);
  std::printf("[database]              objects=%llu records=%llu edges=%llu "
              "db_bytes=%llu index_bytes=%llu\n",
              (unsigned long long)db.objects, (unsigned long long)db.records,
              (unsigned long long)db.edges, (unsigned long long)db.db_bytes,
              (unsigned long long)db.index_bytes);
  std::printf("\nEvery record flowed observer -> analyzer -> distributor/log "
              "-> Waldo -> database,\nmatching the architecture of Figure 2.\n");
  return 0;
}
