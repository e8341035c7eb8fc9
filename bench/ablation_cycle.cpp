// Ablation: PASSv2 cycle avoidance vs PASSv1 detect-and-merge (§5.4).
// Adversarial concurrent read/write interleavings; reports versions
// created, entities merged, and (on stderr) the host cost of global cycle
// checks.

#include <chrono>
#include <cstdio>

#include "src/core/analyzer.h"
#include "src/util/rng.h"

using pass::core::Analyzer;
using pass::core::CycleAlgorithm;

int main() {
  std::printf("Ablation: cycle handling algorithms (§5.4)\n\n");
  std::printf("%-10s %-18s %10s %10s %10s %12s\n", "objects", "algorithm",
              "edges", "freezes", "merges", "dup_dropped");
  for (int objects : {4, 16, 64, 256}) {
    for (CycleAlgorithm algorithm :
         {CycleAlgorithm::kCycleAvoidance, CycleAlgorithm::kDetectAndMerge}) {
      Analyzer analyzer(algorithm);
      pass::Rng rng(7);
      auto emit = [](const pass::core::ObjectRef&, const pass::core::Record&) {
      };
      auto start = std::chrono::steady_clock::now();
      for (int i = 0; i < 20000; ++i) {
        uint64_t proc = 1 + rng.NextBelow(objects / 2);
        uint64_t file = 1000 + rng.NextBelow(objects / 2);
        if (rng.NextBool()) {
          analyzer.AddDependency(file, proc, emit);
        } else {
          analyzer.AddDependency(proc, file, emit);
        }
      }
      auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
      const auto& stats = analyzer.stats();
      const char* label = algorithm == CycleAlgorithm::kCycleAvoidance
                              ? "avoidance(v2)"
                              : "detect+merge(v1)";
      std::printf("%-10d %-18s %10llu %10llu %10llu %12llu\n", objects, label,
                  (unsigned long long)stats.edges_accepted,
                  (unsigned long long)stats.freezes,
                  (unsigned long long)stats.cycles_merged,
                  (unsigned long long)stats.duplicates_dropped);
      // stderr: host time is the one nondeterministic measurement, and
      // stdout must stay byte-identical across runs.
      std::fprintf(stderr, "host_us: objects=%d %s %lld\n", objects, label,
                   (long long)micros);
    }
  }
  std::printf(
      "\nPASSv2 trades versions (freezes) for the global graph searches and\n"
      "lossy merges of PASSv1 — the paper's motivation for the switch.\n");
  return 0;
}
