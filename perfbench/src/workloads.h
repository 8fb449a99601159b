// The three workloads. Each builds its own server and dashboard from a
// seed, drives ApiServer::Handle for a time window, and checks the
// answers against oracles the generator computed.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "harness.h"
#include "table/table.h"

namespace perfbench {

/// What one load window measured, by request class.
struct Window {
  std::mutex mu;
  std::map<std::string, Samples> classes;  // class -> latency ms
  int64_t completed = 0;                   // 2xx requests of every class
  double seconds = 0;
  /// Handle latency minus the time the program itself reports for the
  /// request (run trace root / append envelope wall_ms), traced runs only.
  Samples unattributed;
  std::vector<std::string> notes;

  void Merge(const std::string& cls, const Samples& samples);
  double Percentile(const std::string& cls, double p);
  double Median(const std::string& cls) { return Percentile(cls, 50); }
};

/// The request class behind one latency slot, and the percentile of its
/// samples the slot reports.
struct Role {
  std::string cls;
  double percentile = 50;
};

/// Inputs of the workload, handed to the per-layer measurements so each
/// layer is timed on the same data the end-to-end run used.
struct LayerInputs {
  ApiServer* server = nullptr;
  std::string dashboard;           // dashboard name
  std::string endpoint;            // the large endpoint (cube, browse)
  std::string source_object;       // object appends go to
  std::string flow_text;
  std::string csv_payload;         // the main CSV source
  std::string json_payload;        // the JSON the workload parses
  std::vector<std::string> append_bodies;
  std::vector<SalesRow> delta_rows;  // one 100-row append batch
  std::vector<std::string> setup_run_traces;  // program traces of setup runs
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Data generation, server construction, dashboard create, first run
  /// and warm-up: everything before the first timed operation.
  virtual shareinsights::Status Setup() = 0;
  /// Drives load for `seconds`. `spans` is non-null in a traced run.
  virtual void Drive(double seconds, Window* window, Outcome* outcome,
                     SpanLog* spans) = 0;
  /// End-of-run oracles (after every Drive).
  virtual void Check(Outcome* outcome) = 0;
  virtual LayerInputs Inputs() = 0;
  virtual ApiServer* server() = 0;
  /// Request classes behind main / side / aux (see LAYERS.md).
  virtual std::array<Role, 3> Roles() const = 0;
  /// Digest of every generated input, for the self-test.
  virtual uint64_t InputsDigest() const = 0;
};

/// Null for an unknown name. `instance` keeps durable-store directories
/// of repeated set-ups apart.
std::unique_ptr<Workload> MakeWorkload(const Args& args, int instance);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
