// Machine-readable benchmark output. Every bench binary — google-benchmark
// micro-benches and plain-main() harnesses alike — prints one JSON object
// per measurement on its own stdout line, alongside the human-readable
// report it already produced:
//
//   {"bench":"BM_GroupBySum/262144/16","params":{"args":[262144,16]},
//    "ns_per_op":13834000.0,"rows_per_sec":18948000.0}
//
// Lines start with `{"bench"` so scripts/run_benches.sh can collect them
// (grep '^{"bench"') into BENCH_results.json without parsing the rest of
// each binary's output. `rows_per_sec` is omitted when the bench has no
// natural per-row metric.

#ifndef SHAREINSIGHTS_BENCH_BENCH_JSON_H_
#define SHAREINSIGHTS_BENCH_BENCH_JSON_H_

#include <cstdio>
#include <string>

namespace shareinsights {
namespace benchjson {

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Emits one result line. `params` must be a rendered JSON object (use
/// "{}" when there is nothing to record). `rate <= 0` drops the
/// throughput field, which is named `rate_field` (rows_per_sec unless the
/// throughput is not per row, e.g. "mb_per_sec").
inline void EmitBenchJsonLine(const std::string& name,
                              const std::string& params, double ns_per_op,
                              double rate = 0.0,
                              const char* rate_field = "rows_per_sec") {
  if (rate > 0.0) {
    std::printf(
        "{\"bench\":\"%s\",\"params\":%s,\"ns_per_op\":%.1f,"
        "\"%s\":%.1f}\n",
        JsonEscape(name).c_str(), params.c_str(), ns_per_op, rate_field, rate);
  } else {
    std::printf("{\"bench\":\"%s\",\"params\":%s,\"ns_per_op\":%.1f}\n",
                JsonEscape(name).c_str(), params.c_str(), ns_per_op);
  }
  std::fflush(stdout);
}

/// Convenience for harnesses that time whole runs: wall millis for one
/// operation over `rows` rows (rows <= 0 drops the throughput field).
inline void EmitBenchMillis(const std::string& name,
                            const std::string& params, double millis,
                            double rows = 0.0) {
  double rows_per_sec =
      (rows > 0.0 && millis > 0.0) ? rows / (millis / 1000.0) : 0.0;
  EmitBenchJsonLine(name, params, millis * 1e6, rows_per_sec);
}

}  // namespace benchjson
}  // namespace shareinsights

// ---------------------------------------------------------------------------
// google-benchmark integration — available only to translation units that
// include <benchmark/benchmark.h> before this header, so the plain-main()
// harnesses don't pick up a dependency on the benchmark library.
#ifdef BENCHMARK_BENCHMARK_H_

#include <vector>

namespace shareinsights {
namespace benchjson {

/// "BM_Foo/262144/16" -> {"args":[262144,16]}; names without numeric
/// components get "{}".
inline std::string ParamsFromBenchName(const std::string& name) {
  std::vector<std::string> args;
  size_t pos = name.find('/');
  while (pos != std::string::npos) {
    size_t end = name.find('/', pos + 1);
    std::string part = name.substr(
        pos + 1, end == std::string::npos ? std::string::npos : end - pos - 1);
    if (!part.empty() &&
        part.find_first_not_of("0123456789.-") == std::string::npos) {
      args.push_back(part);
    }
    pos = end;
  }
  if (args.empty()) return "{}";
  std::string out = "{\"args\":[";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out += ",";
    out += args[i];
  }
  out += "]}";
  return out;
}

/// Console reporter that additionally emits one JSON line per iteration
/// run (aggregates and errored runs are skipped). The installed
/// google-benchmark predates Run::skipped; error_occurred is the only
/// failure signal.
class JsonLineReporter : public ::benchmark::ConsoleReporter {
 public:
  using ConsoleReporter::ConsoleReporter;

  void ReportRuns(const std::vector<Run>& reports) override {
    ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      double iters = run.iterations > 0
                         ? static_cast<double>(run.iterations)
                         : 1.0;
      double ns_per_op = run.real_accumulated_time / iters * 1e9;
      double rows_per_sec = 0.0;
      auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) {
        rows_per_sec = static_cast<double>(it->second);
      }
      EmitBenchJsonLine(run.benchmark_name(),
                        ParamsFromBenchName(run.benchmark_name()), ns_per_op,
                        rows_per_sec);
    }
  }
};

}  // namespace benchjson
}  // namespace shareinsights

/// Drop-in replacement for BENCHMARK_MAIN() that routes reporting through
/// JsonLineReporter. Color is disabled so the console reporter's ANSI
/// reset sequences cannot end up prefixed to the JSON lines.
#define SI_BENCH_JSON_MAIN()                                              \
  int main(int argc, char** argv) {                                       \
    ::benchmark::Initialize(&argc, argv);                                 \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;   \
    ::shareinsights::benchjson::JsonLineReporter reporter(                \
        ::benchmark::ConsoleReporter::OO_Tabular);                        \
    ::benchmark::RunSpecifiedBenchmarks(&reporter);                       \
    ::benchmark::Shutdown();                                              \
    return 0;                                                             \
  }                                                                       \
  int main(int, char**)

#endif  // BENCHMARK_BENCHMARK_H_

#endif  // SHAREINSIGHTS_BENCH_BENCH_JSON_H_
