// Per-layer measurements of a traced run: the benchmark's own timed
// calls into each layer's public functions on the workload's inputs,
// plus counters read from GET /api/v1/metrics and spans the program
// reports for its runs.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <map>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace perfbench {

struct TracedRun {
  const Args* args = nullptr;
  SpanLog* spans = nullptr;
  Window* plain = nullptr;   // untraced window, same workload and seed
  Window* traced = nullptr;  // traced window
  std::string main_class;  // the class overhead and tail are taken on
  std::map<std::string, double> metrics_before;  // around the traced window
  std::map<std::string, double> metrics_after;
  double mem_reserved_peak_bytes = 0;
};

/// Adds every per-layer metric to `outcome`.
void MeasureLayers(const LayerInputs& in, const TracedRun& run,
                   Outcome* outcome);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
