// CSV ingestion throughput: ReadCsvString on two seeded payloads, each
// parsed several times, reporting the median as MB/s.
//
//   fact_100k    100k rows of the sales fact schema the end-to-end
//                benchmark's author workload loads (region, product,
//                store: short strings; cust, qty, amount: ints), ~2.6 MB
//   quoted_50k   50k rows whose text fields are quoted and carry
//                separators, "" escapes and embedded newlines, plus a
//                double column, ~4 MB
//
// ingest/unchanged_rerun_ms: a full Executor::Execute of a one-flow plan
// over fact_100k (fetched from the simulated remote store, result cache
// on), then a second one over the same bytes; the median of the second
// run's wall time. The second run fetches and digests the payload and
// keeps the stored table, so it pays no parse and no flow execution.
//
// Exits nonzero if a parse or run fails, a table comes out with the wrong
// shape or column types, or the second run re-parses or re-executes.
//
//   ./bench_ingest [repeats]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "bench_json.h"
#include "compile/compiler.h"
#include "exec/executor.h"
#include "flow/flow_file.h"
#include "io/csv.h"
#include "share/result_cache.h"

namespace shareinsights {
namespace {

using Clock = std::chrono::steady_clock;

struct Payload {
  std::string name;
  std::string text;
  size_t rows = 0;
  std::vector<ValueType> types;
};

Payload FactPayload(size_t rows) {
  std::mt19937_64 rng(11);
  auto below = [&](int n) {
    return static_cast<int>(std::uniform_int_distribution<int>(0, n - 1)(rng));
  };
  Payload p{"fact_100k", "region,product,store,cust,qty,amount\n", rows,
            {ValueType::kString, ValueType::kString, ValueType::kString,
             ValueType::kInt64, ValueType::kInt64, ValueType::kInt64}};
  p.text.reserve(rows * 30);
  char buf[96];
  for (size_t r = 0; r < rows; ++r) {
    int n = std::snprintf(buf, sizeof(buf), "r%02d,p%04d,s%03d,%d,%d,%d\n",
                          below(20), below(2000), below(200), below(5000),
                          1 + below(10), 1 + below(9999));
    p.text.append(buf, static_cast<size_t>(n));
  }
  return p;
}

Payload QuotedPayload(size_t rows) {
  std::mt19937_64 rng(12);
  auto below = [&](int n) {
    return static_cast<int>(std::uniform_int_distribution<int>(0, n - 1)(rng));
  };
  static const char* words[] = {"fast", "slow", "late, again", "\"quoted\"",
                                "multi\nline", "ok", "needs, review"};
  Payload p{"quoted_50k", "id,title,comment,score\n", rows,
            {ValueType::kInt64, ValueType::kString, ValueType::kString,
             ValueType::kDouble}};
  auto quote = [](const std::string& text) {
    std::string out = "\"";
    for (char c : text) {
      if (c == '"') out.push_back('"');
      out.push_back(c);
    }
    out.push_back('"');
    return out;
  };
  for (size_t r = 0; r < rows; ++r) {
    std::string title = std::string("item ") + words[below(7)] + " #" +
                        std::to_string(below(500));
    std::string comment;
    for (int w = 0, n = 2 + below(6); w < n; ++w) {
      if (w > 0) comment += ' ';
      comment += words[below(7)];
    }
    char score[32];
    std::snprintf(score, sizeof(score), "%.3f", below(100000) / 7.0);
    p.text += std::to_string(r) + "," + quote(title) + "," + quote(comment) +
              "," + score + "\n";
  }
  return p;
}

bool CheckShape(const Payload& p, const Table& table) {
  if (table.num_rows() != p.rows || table.num_columns() != p.types.size()) {
    std::fprintf(stderr, "FAIL: %s parsed to %zu x %zu\n", p.name.c_str(),
                 table.num_rows(), table.num_columns());
    return false;
  }
  for (size_t c = 0; c < p.types.size(); ++c) {
    if (table.schema().field(c).type != p.types[c]) {
      std::fprintf(stderr, "FAIL: %s column %zu has type %s\n",
                   p.name.c_str(), c,
                   ValueTypeName(table.schema().field(c).type));
      return false;
    }
  }
  return true;
}

double Ms(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Median wall time of the second of two full runs over the same bytes.
// Returns a negative value after printing why when a run fails or the
// second one did not keep its source and cached flow.
double UnchangedRerunMs(const Payload& fact, int repeats,
                        double* first_median_ms) {
  const std::string url = "http://bench.local/fact.csv";
  SimulatedRemoteStore::Get().Publish(url, fact.text);
  Result<FlowFile> file = ParseFlowFile(
      "D:\n"
      "  fact: [region, product, store, cust, qty, amount]\n"
      "D.fact:\n"
      "  source: " + url + "\n"
      "  format: csv\n"
      "F:\n"
      "  D.by_region: D.fact | T.totals\n"
      "D.by_region:\n"
      "  endpoint: true\n"
      "T:\n"
      "  totals:\n"
      "    type: groupby\n"
      "    groupby: [region]\n"
      "    aggregates:\n"
      "      - operator: sum\n"
      "        apply_on: amount\n"
      "        out_field: total\n",
      "bench_ingest");
  if (!file.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", file.status().ToString().c_str());
    return -1;
  }
  Result<ExecutionPlan> plan = CompileFlowFile(*file);
  if (!plan.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", plan.status().ToString().c_str());
    return -1;
  }
  std::vector<double> first_ms, second_ms;
  for (int i = 0; i < repeats; ++i) {
    ResultCache cache;
    ExecuteOptions options;
    options.result_cache = &cache;
    Executor executor(options);
    DataStore store;
    Clock::time_point start = Clock::now();
    Result<ExecutionStats> first = executor.Execute(*plan, &store);
    first_ms.push_back(Ms(start));
    start = Clock::now();
    Result<ExecutionStats> second = executor.Execute(*plan, &store);
    second_ms.push_back(Ms(start));
    if (!first.ok() || !second.ok()) {
      std::fprintf(stderr, "FAIL: run: %s\n",
                   (first.ok() ? second.status() : first.status())
                       .ToString()
                       .c_str());
      return -1;
    }
    if (second->sources_reused != 1 || second->flows_executed != 0) {
      std::fprintf(stderr,
                   "FAIL: unchanged rerun reused %d sources and executed %d "
                   "flows\n",
                   second->sources_reused, second->flows_executed);
      return -1;
    }
  }
  std::sort(first_ms.begin(), first_ms.end());
  std::sort(second_ms.begin(), second_ms.end());
  *first_median_ms = first_ms[first_ms.size() / 2];
  return second_ms[second_ms.size() / 2];
}

}  // namespace
}  // namespace shareinsights

int main(int argc, char** argv) {
  using namespace shareinsights;
  int repeats = argc > 1 ? std::max(1, std::atoi(argv[1])) : 7;
  std::vector<Payload> payloads = {FactPayload(100000), QuotedPayload(50000)};
  bool failed = false;
  std::printf("%12s %10s %10s %10s\n", "payload", "MB", "ms", "MB/s");
  for (const Payload& p : payloads) {
    std::vector<double> ms;
    for (int i = 0; i < repeats; ++i) {
      Clock::time_point start = Clock::now();
      Result<TablePtr> table =
          ReadCsvString(p.text, CsvOptions{}, std::nullopt);
      ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() -
                                                             start)
                       .count());
      if (!table.ok()) {
        std::fprintf(stderr, "FAIL: %s: %s\n", p.name.c_str(),
                     table.status().ToString().c_str());
        return 1;
      }
      if (i == 0 && !CheckShape(p, **table)) failed = true;
    }
    std::sort(ms.begin(), ms.end());
    double median_ms = ms[ms.size() / 2];
    double mb = static_cast<double>(p.text.size()) / 1e6;
    double mb_per_sec = mb / (median_ms / 1000.0);
    std::printf("%12s %10.2f %10.2f %10.1f\n", p.name.c_str(), mb, median_ms,
                mb_per_sec);
    std::string params = "{\"payload\":\"" + p.name +
                         "\",\"bytes\":" + std::to_string(p.text.size()) +
                         ",\"rows\":" + std::to_string(p.rows) + "}";
    benchjson::EmitBenchJsonLine("ingest/csv_mb_per_sec", params,
                                 median_ms * 1e6, mb_per_sec, "mb_per_sec");
  }

  double first_ms = 0;
  double rerun_ms = UnchangedRerunMs(payloads[0], repeats, &first_ms);
  if (rerun_ms < 0) return 1;
  std::printf("%12s %10s first run %.2f ms, unchanged rerun %.2f ms\n",
              payloads[0].name.c_str(), "", first_ms, rerun_ms);
  char params[160];
  std::snprintf(params, sizeof(params),
                "{\"payload\":\"%s\",\"bytes\":%zu,\"first_run_ms\":%.2f}",
                payloads[0].name.c_str(), payloads[0].text.size(), first_ms);
  benchjson::EmitBenchJsonLine("ingest/unchanged_rerun_ms", params,
                               rerun_ms * 1e6);
  return failed ? 1 : 0;
}
