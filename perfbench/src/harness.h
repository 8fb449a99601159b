// Shared pieces of the load harness: command-line arguments, latency
// samples, the seeded input generator, request timing, span recording,
// and the result record every workload fills in.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "server/api_server.h"

namespace perfbench {

using shareinsights::ApiServer;
using shareinsights::HttpRequest;
using shareinsights::HttpResponse;
using shareinsights::JsonValue;
using shareinsights::Rng;

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}
inline double MsSince(Clock::time_point start) {
  return MsBetween(start, Clock::now());
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Scratch area inside the checkout: durable stores and trace files.
  std::string work_dir = ".bench_build/work";
};

/// Latency (or any) samples of one request class.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Merge(const Samples& other);
  size_t size() const { return values_.size(); }
  /// Nearest-rank percentile, p in [0, 100]; 0 when empty.
  double Percentile(double p) const;
  double Median() const { return Percentile(50); }
  double Mean() const;
  /// True when at least ten samples lie above the p-th percentile, the
  /// rule for reporting it at all.
  bool Supports(double p) const {
    return static_cast<double>(values_.size()) * (100.0 - p) / 100.0 >= 10.0;
  }
  /// The highest of p99 / p90 / p50 that Supports() allows (0 if none).
  double TailLevel() const;

 private:
  std::vector<double> values_;
};

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run attempted, measured and checked. Client threads
/// count locally and fold into it under `mu`.
struct Outcome {
  std::mutex mu;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;  // first few, echoed to stderr
  std::vector<Metric> metrics;      // the result line's metrics
  std::vector<std::string> report;  // human-readable lines before it

  void Fail(const std::string& why);          // a wrong answer
  void RequestFailed(const std::string& why);  // a non-2xx answer
  void Add(const std::string& name, double value, const std::string& unit);
  void Note(const std::string& line);
};

/// One request through ApiServer::Handle, timed.
struct Timed {
  HttpResponse response;
  double ms = 0;
  Clock::time_point start;
  Clock::time_point end;
};
Timed Call(ApiServer* server, const HttpRequest& request);

/// Parses a JSON body; a null JsonValue when it does not parse.
JsonValue ParseBody(const std::string& body);
/// Number-valued member of an object (0 when absent).
double NumberAt(const JsonValue& object, const std::string& key);

/// Counters and gauges from GET /api/v1/metrics, by name.
std::map<std::string, double> ScrapeMetrics(ApiServer* server);
double Delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after,
             const std::string& name);

/// Peak resident set of this process (VmHWM), MB.
double PeakRssMb();

// --- seeded inputs ----------------------------------------------------

/// Zipf(s) draw over ranks [0, n) from a precomputed CDF.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Draw(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

constexpr int kRegions = 20;
constexpr int kProducts = 5000;
constexpr int kStores = 300;
constexpr int kCustomers = 2000;
constexpr int kSegments = 5;
constexpr int kMaxQty = 9;

std::string RegionName(int r);
std::string ProductName(int p);
std::string StoreName(int s);
std::string SegmentName(int s);

/// One generated fact row: the `sales` schema every workload ingests,
/// `region,product,store,cust,qty,amount`.
struct SalesRow {
  uint16_t region = 0;
  uint16_t product = 0;
  uint16_t store = 0;
  uint16_t cust = 0;
  uint8_t qty = 0;
  int32_t amount = 0;
};

/// Answers known while the rows were generated, the workloads' oracles.
struct SalesTotals {
  // [region][qty] -> sum(amount), count
  int64_t amount[kRegions][kMaxQty + 1] = {};
  int64_t count[kRegions][kMaxQty + 1] = {};
  int64_t by_segment[kSegments] = {};

  void Add(const SalesRow& row, int segment);
  /// Per-region sum(amount) / count over rows with qty in [lo, hi].
  int64_t RegionAmount(int region, int lo, int hi) const;
  int64_t RegionCount(int region, int lo, int hi) const;
};

/// A seeded fact table: rows, their CSV text, and the generator oracles.
struct SalesData {
  std::vector<SalesRow> rows;
  std::string csv;
  SalesTotals totals;
  // Customer dimension: cust id -> segment, and its CSV text.
  std::vector<int> segment_of;
  std::string customers_csv;
};

/// Generates `n` rows from `rng`. The customer dimension comes from the
/// same stream, so one seed fixes both.
SalesData GenerateSales(Rng* rng, size_t n);
/// Rows only (append batches), with their effect folded into `totals`.
std::vector<SalesRow> GenerateRows(Rng* rng, size_t n,
                                   const std::vector<int>& segment_of,
                                   SalesTotals* totals);
/// `{"rows": [...]}` body for POST ...:append.
std::string AppendBody(const std::vector<SalesRow>& rows);
/// True when a parsed REST row equals the generated row.
bool RowMatches(const JsonValue& row, const SalesRow& expected);

/// FNV-1a of a string, for the input digests the self-test compares.
uint64_t Fnv1a(const std::string& text, uint64_t hash = 1469598103934665603ull);

// --- traced runs ------------------------------------------------------

/// Spans recorded by the harness around its own calls, plus spans the
/// program reports for its runs (GET /api/v1/trace/<run-id>), kept in
/// memory and written as Chrome trace JSON at exit. Thread-safe.
class SpanLog {
 public:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;  // 0 = root
    std::string name;
    double start_us = 0;  // since the log's epoch
    double dur_us = 0;
    uint64_t request = 0;  // request id shared by a request's spans
  };

  SpanLog() : epoch_(Clock::now()) {}

  /// Records a finished span; returns its id.
  uint64_t Add(const std::string& name, Clock::time_point start,
               Clock::time_point end, uint64_t parent, uint64_t request);
  /// Imports a program trace (Chrome JSON) under `parent`, shifting its
  /// timestamps to start at `start`. Returns the summed duration of the
  /// trace's root spans, ms: the time the program accounts for.
  double Import(const std::string& chrome_json, Clock::time_point start,
                uint64_t parent, uint64_t request);
  uint64_t NextRequestId();

  /// Self time (duration minus the part its children cover) summed per
  /// layer, in ms, over the spans under roots named `root_prefix`;
  /// `roots` receives how many such roots there were.
  std::map<std::string, double> LayerSelfMs(const std::string& root_prefix,
                                            int* roots) const;
  /// Durations (ms) of every span whose name starts with `prefix`.
  Samples Durations(const std::string& prefix) const;
  /// Chrome trace JSON of everything recorded.
  std::string ToChromeJson() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
  uint64_t next_request_ = 1;
  Clock::time_point epoch_;
};

/// Layer a span belongs to, from its name: `io.*` -> io, `exec.task:*`
/// and `ops.*` -> ops, `cube.*` -> cube, `compile.*` -> compile, other
/// `exec.*` -> exec, `dashboard.*` -> dashboard, `bench.*` -> server
/// (the part of a request no program span covers).
std::string LayerOf(const std::string& span_name);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
