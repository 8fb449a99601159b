#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <set>
#include <sched.h>
#include <thread>
#include <unistd.h>

#include "io/connector.h"
#include "io/json.h"
#include "ops/filter.h"
#include "ops/groupby.h"
#include "share/shared_registry.h"

namespace perfbench {

using shareinsights::AggregateSpec;
using shareinsights::Dashboard;
using shareinsights::ExecContext;
using shareinsights::FilterCompareOp;
using shareinsights::GroupByOp;
using shareinsights::Result;
using shareinsights::SharedDataRegistry;
using shareinsights::SimulatedRemoteStore;
using shareinsights::Status;
using shareinsights::TablePtr;
using shareinsights::TableToJson;
using shareinsights::Value;

void Window::Merge(const std::string& cls, const Samples& samples) {
  std::lock_guard<std::mutex> lock(mu);
  classes[cls].Merge(samples);
}

double Window::Percentile(const std::string& cls, double p) {
  std::lock_guard<std::mutex> lock(mu);
  return classes[cls].Percentile(p);
}

namespace {

constexpr const char* kHost = "http://perfbench.sim/";
constexpr size_t kAuthorRows = 100000;
constexpr size_t kAuthorEvents = 10000;
constexpr size_t kViewerRows = 200000;
constexpr size_t kFeedRows = 200000;
constexpr size_t kBatchRows = 100;
constexpr double kFeedBatchesPerSecond = 10;
constexpr int kFeedReaders = 2;
constexpr int kEventKinds = 12;
constexpr int kEditsPerStep = 5;
// Every n-th answer of a class is kept for the end-of-run oracles.
constexpr uint64_t kSampleEvery = 16;

/// Handle() under an optional traced span named "bench.<cls>".
Timed Traced(ApiServer* server, const HttpRequest& request, SpanLog* spans,
             const std::string& cls, uint64_t* span_id = nullptr,
             uint64_t* request_id = nullptr) {
  Timed timed = Call(server, request);
  if (spans != nullptr) {
    uint64_t rid = spans->NextRequestId();
    uint64_t id = spans->Add("bench." + cls, timed.start, timed.end, 0, rid);
    if (span_id != nullptr) *span_id = id;
    if (request_id != nullptr) *request_id = rid;
  }
  return timed;
}

/// Moves the calling thread to the next CPU of its affinity mask in turn,
/// then hands the whole mask back. The thread stays where it was put until
/// the scheduler has a reason to move it, and the executor threads a run
/// starts from it begin beside it, so successive calls spread one-thread
/// work over every CPU instead of the one the scheduler keeps choosing.
void StartOnNextCpu(int* turn) {
  cpu_set_t all;
  if (sched_getaffinity(0, sizeof(all), &all) != 0) return;
  int want = (*turn)++ % CPU_COUNT(&all);
  cpu_set_t one;
  CPU_ZERO(&one);
  for (int cpu = 0, seen = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &all) && seen++ == want) CPU_SET(cpu, &one);
  }
  sched_setaffinity(0, sizeof(one), &one);
  sched_setaffinity(0, sizeof(all), &all);
}

std::string Describe(const HttpRequest& request, const HttpResponse& response) {
  return request.method + " " + request.path + " -> " +
         std::to_string(response.status) + " " + response.body.substr(0, 160);
}

/// Rows array of a REST answer, or null when absent.
const JsonValue* RowsOf(const JsonValue& body) { return body.Find("rows"); }

std::string Str(const JsonValue& row, const std::string& key) {
  const JsonValue* v = row.Find(key);
  return v == nullptr ? std::string() : v->string_value();
}

std::string DataObject(const std::string& name, const std::string& url,
                       const std::string& format) {
  return "D." + name + ":\n  source: '" + url + "'\n  protocol: http\n" +
         "  format: " + format + "\n";
}

std::string SumTask(const std::string& name, const std::string& key,
                    const std::string& column, bool with_count) {
  std::string task = "  " + name + ":\n    type: groupby\n    groupby: [" +
                     key + "]\n    aggregates:\n" +
                     "      - operator: sum\n        apply_on: " + column +
                     "\n        out_field: total\n";
  if (with_count) {
    task += "      - operator: count\n        apply_on: " + column +
            "\n        out_field: n\n";
  }
  return task;
}

std::string Endpoints(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    out += "D." + name + ":\n  endpoint: true\n";
  }
  return out;
}

// --- the viewer query mix (viewer_storm, feed_append readers) ----------

enum class QueryClass { kCube, kOps, kSmallBrowse, kLargeBrowse };

const char* ClassName(QueryClass cls) {
  switch (cls) {
    case QueryClass::kCube: return "ds_cube";
    case QueryClass::kOps: return "ds_ops";
    case QueryClass::kSmallBrowse: return "browse_small";
    case QueryClass::kLargeBrowse: return "browse_large";
  }
  return "?";
}

struct Query {
  QueryClass cls = QueryClass::kCube;
  std::string url;
  int product = -1;
  int region = -1;
  bool greater = true;
  int qty = 0;
  size_t offset = 0;
  size_t limit = 0;
};

/// A seeded mix of /ds requests: cube-eligible string-equality groupbys
/// on a Zipf-drawn product and a uniform region (kProducts x kRegions
/// filter sets, so the result cache keeps missing all run and most cube
/// answers are misses), numeric filters that take the operator path, and
/// small and large browse pages.
class QueryMix {
 public:
  QueryMix(std::string dashboard, std::string endpoint, size_t rows)
      : prefix_("/api/v1/" + dashboard + "/ds/" + endpoint),
        rows_(rows),
        zipf_(kProducts, 0.9) {}

  Query Next(Rng* rng) const {
    Query q;
    uint64_t pick = rng->NextBelow(100);
    if (pick < 45) {
      q.cls = QueryClass::kCube;
      q.product = static_cast<int>(zipf_.Draw(rng));
      q.region = static_cast<int>(rng->NextBelow(kRegions));
      q.url = prefix_ + "/filter/product/eq/" + ProductName(q.product) +
              "/filter/region/eq/" + RegionName(q.region) +
              "/groupby/store/sum/amount";
    } else if (pick < 70) {
      q.cls = QueryClass::kOps;
      q.greater = rng->NextBelow(2) == 0;
      q.qty = static_cast<int>(q.greater ? 1 + rng->NextBelow(kMaxQty - 1)
                                         : 2 + rng->NextBelow(kMaxQty - 1));
      q.url = prefix_ + "/filter/qty/" + (q.greater ? "gt/" : "lt/") +
              std::to_string(q.qty) + "/groupby/region/sum/amount";
    } else {
      bool large = pick >= 95;
      q.cls = large ? QueryClass::kLargeBrowse : QueryClass::kSmallBrowse;
      q.limit = large ? 10000 : 100;
      q.offset = rng->NextBelow(rows_ - q.limit);
      q.url = prefix_ + "?limit=" + std::to_string(q.limit) +
              "&offset=" + std::to_string(q.offset);
    }
    return q;
  }

 private:
  std::string prefix_;
  size_t rows_;
  Zipf zipf_;
};

struct SampledAnswer {
  Query query;
  std::string body;
  double ms = 0;
};

/// Closed-loop /ds client: sends the mix until `end`, keeping every
/// kSampleEvery-th answer of each class for the oracles.
void QueryClient(ApiServer* server, const QueryMix& mix, uint64_t seed,
                 Clock::time_point end, Window* window, Outcome* outcome,
                 SpanLog* spans, std::vector<SampledAnswer>* sampled) {
  Rng rng(seed);
  std::map<std::string, Samples> local;
  std::map<QueryClass, uint64_t> seen;
  int64_t attempted = 0, ok = 0;
  while (Clock::now() < end) {
    Query q = mix.Next(&rng);
    HttpRequest request = HttpRequest::Get(q.url);
    Timed t = Traced(server, request, spans, ClassName(q.cls));
    ++attempted;
    if (t.response.status != 200) {
      outcome->RequestFailed(Describe(request, t.response));
      continue;
    }
    ++ok;
    bool ds = q.cls == QueryClass::kCube || q.cls == QueryClass::kOps;
    local[ClassName(q.cls)].Add(t.ms);
    local[ds ? "ds_query" : "browse"].Add(t.ms);
    if (++seen[q.cls] % kSampleEvery == 0 && sampled != nullptr) {
      sampled->push_back(SampledAnswer{q, std::move(t.response.body), t.ms});
    }
  }
  for (const auto& [cls, samples] : local) window->Merge(cls, samples);
  std::lock_guard<std::mutex> lock(window->mu);
  window->completed += ok;
  std::lock_guard<std::mutex> olock(outcome->mu);
  outcome->attempted += attempted;
}

/// Runs `threads` QueryClients until `end`; returns their samples.
std::vector<SampledAnswer> RunQueryClients(ApiServer* server,
                                           const QueryMix& mix, uint64_t seed,
                                           int threads, Clock::time_point end,
                                           Window* window, Outcome* outcome,
                                           SpanLog* spans) {
  std::vector<std::vector<SampledAnswer>> per_thread(threads);
  std::vector<std::thread> clients;
  for (int i = 0; i < threads; ++i) {
    clients.emplace_back(QueryClient, server, std::cref(mix),
                         seed * 7919 + static_cast<uint64_t>(i) + 1, end,
                         window, outcome, spans, &per_thread[i]);
  }
  for (std::thread& client : clients) client.join();
  std::vector<SampledAnswer> all;
  for (auto& answers : per_thread) {
    for (auto& answer : answers) all.push_back(std::move(answer));
  }
  return all;
}

/// The same query through the operator path, run directly on the
/// endpoint table: FilterCompareOp per filter, then GroupByOp.
Result<TablePtr> OpsAnswer(const TablePtr& table, const Query& q) {
  ExecContext ctx;
  TablePtr current = table;
  std::vector<FilterCompareOp> filters;
  if (q.cls == QueryClass::kCube) {
    filters.emplace_back("product", FilterCompareOp::Cmp::kEq,
                         Value::Infer(ProductName(q.product)));
    filters.emplace_back("region", FilterCompareOp::Cmp::kEq,
                         Value::Infer(RegionName(q.region)));
  } else {
    filters.emplace_back("qty",
                         q.greater ? FilterCompareOp::Cmp::kGt
                                   : FilterCompareOp::Cmp::kLt,
                         Value(static_cast<int64_t>(q.qty)));
  }
  for (const FilterCompareOp& filter : filters) {
    Result<TablePtr> next = filter.Execute({current}, ctx);
    if (!next.ok()) return next.status();
    current = *next;
  }
  const char* key = q.cls == QueryClass::kCube ? "store" : "region";
  Result<shareinsights::TableOperatorPtr> groupby = GroupByOp::Create(
      {key}, {AggregateSpec{"sum", "amount", "sum_amount"}});
  if (!groupby.ok()) return groupby.status();
  return (*groupby)->Execute({current}, ctx);
}

/// Checks sampled /ds answers: cube answers byte-equal to the operator
/// path, operator answers equal to the generator's totals, and browse
/// pages equal to the generated rows. Returns the number checked.
int64_t CheckAnswers(const std::vector<SampledAnswer>& sampled,
                     const TablePtr& table, const SalesData& data,
                     bool check_ops_totals, Outcome* outcome) {
  int64_t checked = 0;
  for (const SampledAnswer& answer : sampled) {
    JsonValue body = ParseBody(answer.body);
    const JsonValue* rows = RowsOf(body);
    if (rows == nullptr) {
      outcome->Fail("unparseable answer to " + answer.query.url);
      continue;
    }
    ++checked;
    const Query& q = answer.query;
    if (q.cls == QueryClass::kCube) {
      Result<TablePtr> expected = OpsAnswer(table, q);
      if (!expected.ok() ||
          TableToJson(**expected).Serialize() != rows->Serialize()) {
        outcome->Fail("cube answer differs from the operator path: " + q.url);
      }
    } else if (q.cls == QueryClass::kOps) {
      if (!check_ops_totals) continue;
      int lo = q.greater ? q.qty + 1 : 1;
      int hi = q.greater ? kMaxQty : q.qty - 1;
      std::set<std::string> seen;
      bool good = true;
      for (const JsonValue& row : rows->array_items()) {
        std::string region = Str(row, "region");
        int r = std::atoi(region.c_str() + 1);
        seen.insert(region);
        if (region.size() != 3 || r < 0 || r >= kRegions ||
            NumberAt(row, "sum_amount") !=
                static_cast<double>(data.totals.RegionAmount(r, lo, hi))) {
          good = false;
        }
      }
      for (int r = 0; r < kRegions; ++r) {
        if (data.totals.RegionCount(r, lo, hi) > 0 &&
            seen.count(RegionName(r)) == 0) {
          good = false;
        }
      }
      if (!good) outcome->Fail("operator answer differs from totals: " + q.url);
    } else {
      const auto& items = rows->array_items();
      size_t expected = std::min(q.limit, data.rows.size() - q.offset);
      bool good = items.size() == expected;
      for (size_t i = 0; good && i < items.size(); ++i) {
        good = RowMatches(items[i], data.rows[q.offset + i]);
      }
      if (!good) outcome->Fail("browse page differs from the rows: " + q.url);
    }
  }
  return checked;
}

/// Replays sampled operator-path queries directly (filter, group-by,
/// render) and records Handle latency minus that work: the part of a
/// request no layer call accounts for.
void ReplayUnattributed(const std::vector<SampledAnswer>& sampled,
                        const TablePtr& table, Window* window) {
  int replayed = 0;
  for (const SampledAnswer& answer : sampled) {
    if (answer.query.cls != QueryClass::kOps || replayed >= 40) continue;
    ++replayed;
    Clock::time_point start = Clock::now();
    Result<TablePtr> result = OpsAnswer(table, answer.query);
    if (!result.ok()) continue;
    JsonValue body = JsonValue::MakeObject();
    body.Set("rows", TableToJson(**result));
    std::string text = body.SerializePretty();
    double direct = MsSince(start);
    window->unattributed.Add(answer.ms - direct);
  }
}

std::string ScratchDir(const Args& args, const std::string& name,
                       int instance) {
  return args.work_dir + "/" + name + "-" + std::to_string(::getpid()) + "-" +
         std::to_string(instance);
}

// --- author_run --------------------------------------------------------

/// An author's edit-run loop: republish seeded sources, run, run again
/// unchanged, and every few cycles create an edited flow and run it.
class AuthorRun : public Workload {
 public:
  explicit AuthorRun(const Args& args) : args_(args), rng_(args.seed) {}

  Status Setup() override {
    Regenerate();
    server_ = std::make_unique<ApiServer>(&registry_);
    HttpResponse created =
        server_->Post("/api/v1/dashboards/author/create", FlowText(threshold_));
    if (created.status != 201) {
      return Status::Internal("create failed: " + created.body);
    }
    HttpResponse run = server_->Post("/api/v1/dashboards/author/run", "");
    if (run.status != 200) return Status::Internal("run failed: " + run.body);
    setup_traces_.push_back(TraceOf(run.body));
    return Status::OK();
  }

  void Drive(double seconds, Window* window, Outcome* outcome,
             SpanLog* spans) override {
    Clock::time_point start = Clock::now();
    Clock::time_point end = start + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(seconds));
    std::map<std::string, Samples> local;
    int64_t attempted = 0, ok = 0;
    auto timed_run = [&](const std::string& cls) {
      HttpRequest request =
          HttpRequest::Post("/api/v1/dashboards/author/run", "");
      uint64_t span = 0, rid = 0;
      // A run keeps one CPU busy; which CPU sets its speed on a host whose
      // cores slow down independently, so every window samples them all.
      StartOnNextCpu(&cpu_turn_);
      Timed t = Traced(server_.get(), request, spans, cls, &span, &rid);
      ++attempted;
      if (t.response.status != 200) {
        outcome->RequestFailed(Describe(request, t.response));
        return;
      }
      ++ok;
      if (cls != "run_after_create") local[cls].Add(t.ms);
      if (spans != nullptr) {
        std::string chrome =
            server_->Get("/api/v1/trace/" + TraceOf(t.response.body)).body;
        double program_ms = spans->Import(chrome, t.start, span, rid);
        if (program_ms > 0) window->unattributed.Add(t.ms - program_ms);
      }
      CheckEndpoints(outcome);
    };
    while (Clock::now() < end) {
      ++cycle_;
      Regenerate();
      timed_run("run_changed");
      timed_run("run_unchanged");
      if (cycle_ % 2 == 0) {
        // An edit step: several successive saves of the flow with the
        // filter threshold changed, then a run of the last one.
        for (int edit = 0; edit < kEditsPerStep; ++edit) {
          threshold_ = 2 + (threshold_ - 1) % 4;
          HttpRequest request = HttpRequest::Post(
              "/api/v1/dashboards/author/create", FlowText(threshold_));
          Timed t = Traced(server_.get(), request, spans, "create");
          ++attempted;
          if (t.response.status != 201) {
            outcome->RequestFailed(Describe(request, t.response));
          } else {
            ++ok;
            local["create"].Add(t.ms);
          }
        }
        timed_run("run_after_create");
      }
    }
    for (const auto& [cls, samples] : local) window->Merge(cls, samples);
    window->completed += ok;
    std::lock_guard<std::mutex> lock(outcome->mu);
    outcome->attempted += attempted;
  }

  void Check(Outcome* outcome) override { CheckEndpoints(outcome); }

  LayerInputs Inputs() override {
    LayerInputs in;
    in.server = server_.get();
    in.dashboard = "author";
    in.endpoint = "sales_seg";
    in.source_object = "sales";
    in.flow_text = FlowText(threshold_);
    in.csv_payload = data_.csv;
    in.json_payload = events_json_;
    Rng rng(args_.seed ^ 0xa11ce);
    SalesTotals scratch;
    in.delta_rows = GenerateRows(&rng, kBatchRows, data_.segment_of, &scratch);
    for (int i = 0; i < 20; ++i) {
      in.append_bodies.push_back(AppendBody(
          GenerateRows(&rng, kBatchRows, data_.segment_of, &scratch)));
    }
    in.setup_run_traces = setup_traces_;
    return in;
  }

  ApiServer* server() override { return server_.get(); }

  // One thread issues every request, so its samples follow the host's
  // speed episodes, which last seconds; the median flips between a fast
  // and a slow cluster with the share of slow time in the window. The
  // 10th percentile stays in the fast cluster (LAYERS.md, "Steadiness").
  std::array<Role, 3> Roles() const override {
    return {{{"run_changed", 10}, {"run_unchanged", 10}, {"create", 10}}};
  }

  uint64_t InputsDigest() const override {
    return Fnv1a(events_json_, Fnv1a(data_.customers_csv, Fnv1a(data_.csv)));
  }

 private:
  static std::string FlowText(int threshold) {
    std::string base = std::string(kHost) + "author/";
    return "D:\n"
           "  sales: [region, product, store, cust, qty, amount]\n"
           "  customers: [cust_id, segment]\n"
           "  events: [\n"
           "    user => user.id,\n"
           "    kind => event.kind,\n"
           "    value => event.value\n"
           "  ]\n" +
           DataObject("sales", base + "sales.csv", "csv") +
           DataObject("customers", base + "customers.csv", "csv") +
           DataObject("events", base + "events.json", "json") +
           "F:\n"
           "  D.by_region: D.sales | T.big_orders | T.region_totals\n"
           "  D.sales_seg: (D.sales, D.customers) | T.attach_segment\n"
           "  D.by_segment: D.sales_seg | T.segment_totals\n"
           "  D.top_stores: D.sales | T.store_totals | T.top_stores\n"
           "  D.by_kind: D.events | T.kind_totals\n" +
           Endpoints({"by_region", "sales_seg", "by_segment", "top_stores",
                      "by_kind"}) +
           "T:\n"
           "  big_orders:\n"
           "    type: filter_by\n"
           "    filter_expression: 'qty >= " + std::to_string(threshold) +
           "'\n" + SumTask("region_totals", "region", "amount", true) +
           "  attach_segment:\n"
           "    type: join\n"
           "    left: sales by cust\n"
           "    right: customers by cust_id\n"
           "    join_condition: inner\n"
           "    project:\n"
           "      sales_region: region\n"
           "      sales_store: store\n"
           "      sales_qty: qty\n"
           "      sales_amount: amount\n"
           "      customers_segment: segment\n" +
           SumTask("segment_totals", "segment", "amount", false) +
           SumTask("store_totals", "store", "amount", false) +
           "  top_stores:\n"
           "    type: topn\n"
           "    orderby_column: [total DESC]\n"
           "    limit: 10\n" +
           SumTask("kind_totals", "kind", "value", true);
  }

  static std::string TraceOf(const std::string& run_body) {
    return Str(ParseBody(run_body), "trace_id");
  }

  /// A fresh seeded payload of the same size and schema for every source.
  void Regenerate() {
    data_ = GenerateSales(&rng_, kAuthorRows);
    kind_total_.assign(kEventKinds, 0);
    kind_count_.assign(kEventKinds, 0);
    events_json_.clear();
    events_json_.reserve(kAuthorEvents * 80);
    char buf[160];
    for (size_t i = 0; i < kAuthorEvents; ++i) {
      int user = static_cast<int>(rng_.NextBelow(50000));
      int kind = static_cast<int>(rng_.NextBelow(kEventKinds));
      int value = static_cast<int>(rng_.NextBelow(1000));
      kind_total_[kind] += value;
      kind_count_[kind] += 1;
      int n = std::snprintf(
          buf, sizeof(buf),
          "{\"user\": {\"id\": %d, \"name\": \"u%d\"}, \"event\": "
          "{\"kind\": \"k%02d\", \"value\": %d}}\n",
          user, user, kind, value);
      events_json_.append(buf, static_cast<size_t>(n));
    }
    std::string base = std::string(kHost) + "author/";
    SimulatedRemoteStore::Get().Publish(base + "sales.csv", data_.csv);
    SimulatedRemoteStore::Get().Publish(base + "customers.csv",
                                        data_.customers_csv);
    SimulatedRemoteStore::Get().Publish(base + "events.json", events_json_);
  }

  JsonValue Endpoint(const std::string& name) {
    return ParseBody(
        server_->Get("/api/v1/author/ds/" + name + "?limit=0").body);
  }

  /// Generator oracles against every endpoint of the current run.
  void CheckEndpoints(Outcome* outcome) {
    JsonValue by_region = Endpoint("by_region");
    const JsonValue* rows = RowsOf(by_region);
    bool good = rows != nullptr;
    int64_t groups = 0;
    for (int r = 0; good && r < kRegions; ++r) {
      if (data_.totals.RegionCount(r, threshold_, kMaxQty) > 0) ++groups;
    }
    if (good && static_cast<int64_t>(rows->array_items().size()) != groups) {
      good = false;
    }
    for (size_t i = 0; good && i < rows->array_items().size(); ++i) {
      const JsonValue& row = rows->array_items()[i];
      std::string region = Str(row, "region");
      int r = std::atoi(region.c_str() + 1);
      good = r >= 0 && r < kRegions &&
             NumberAt(row, "total") ==
                 data_.totals.RegionAmount(r, threshold_, kMaxQty) &&
             NumberAt(row, "n") ==
                 data_.totals.RegionCount(r, threshold_, kMaxQty);
    }
    if (!good) outcome->Fail("author by_region differs from the generator");

    JsonValue by_segment = Endpoint("by_segment");
    rows = RowsOf(by_segment);
    good = rows != nullptr;
    for (size_t i = 0; good && i < rows->array_items().size(); ++i) {
      const JsonValue& row = rows->array_items()[i];
      int s = std::atoi(Str(row, "segment").c_str() + 3);
      good = s >= 0 && s < kSegments &&
             NumberAt(row, "total") == data_.totals.by_segment[s];
    }
    if (!good) outcome->Fail("author by_segment differs from the generator");

    std::vector<int64_t> store_total(kStores, 0);
    for (const SalesRow& row : data_.rows) store_total[row.store] += row.amount;
    std::vector<int64_t> top = store_total;
    std::sort(top.rbegin(), top.rend());
    JsonValue top_stores = Endpoint("top_stores");
    rows = RowsOf(top_stores);
    good = rows != nullptr && rows->array_items().size() == 10;
    for (size_t i = 0; good && i < rows->array_items().size(); ++i) {
      const JsonValue& row = rows->array_items()[i];
      int s = std::atoi(Str(row, "store").c_str() + 1);
      good = s >= 0 && s < kStores &&
             NumberAt(row, "total") == static_cast<double>(top[i]) &&
             store_total[s] == top[i];
    }
    if (!good) outcome->Fail("author top_stores differs from the generator");

    JsonValue by_kind = Endpoint("by_kind");
    rows = RowsOf(by_kind);
    good = rows != nullptr;
    for (size_t i = 0; good && i < rows->array_items().size(); ++i) {
      const JsonValue& row = rows->array_items()[i];
      int k = std::atoi(Str(row, "kind").c_str() + 1);
      good = k >= 0 && k < kEventKinds &&
             NumberAt(row, "total") == kind_total_[k] &&
             NumberAt(row, "n") == kind_count_[k];
    }
    if (!good) outcome->Fail("author by_kind differs from the generator");
  }

  Args args_;
  Rng rng_;
  SharedDataRegistry registry_;
  std::unique_ptr<ApiServer> server_;
  SalesData data_;
  std::string events_json_;
  std::vector<int64_t> kind_total_;
  std::vector<int64_t> kind_count_;
  int threshold_ = 3;
  uint64_t cycle_ = 0;
  int cpu_turn_ = 0;
  std::vector<std::string> setup_traces_;
};

// --- viewer_storm ------------------------------------------------------

/// Viewers storming one ~200k-row endpoint with the /ds query mix, one
/// closed-loop client per core.
class ViewerStorm : public Workload {
 public:
  explicit ViewerStorm(const Args& args)
      : args_(args), mix_("viewer", "sales", kViewerRows) {}

  Status Setup() override {
    Rng rng(args_.seed);
    data_ = GenerateSales(&rng, kViewerRows);
    SimulatedRemoteStore::Get().Publish(std::string(kHost) + "viewer/sales.csv",
                                        data_.csv);
    server_ = std::make_unique<ApiServer>(&registry_);
    HttpResponse created =
        server_->Post("/api/v1/dashboards/viewer/create", FlowText());
    if (created.status != 201) {
      return Status::Internal("create failed: " + created.body);
    }
    HttpResponse run = server_->Post("/api/v1/dashboards/viewer/run", "");
    if (run.status != 200) return Status::Internal("run failed: " + run.body);
    setup_traces_.push_back(Str(ParseBody(run.body), "trace_id"));
    // Warm-up: one request of each class.
    Rng warm(args_.seed ^ 0x5eed);
    for (int i = 0; i < 40; ++i) {
      HttpResponse response = server_->Get(mix_.Next(&warm).url);
      if (response.status != 200) {
        return Status::Internal("warm-up failed: " + response.body);
      }
    }
    return Status::OK();
  }

  void Drive(double seconds, Window* window, Outcome* outcome,
             SpanLog* spans) override {
    int threads = static_cast<int>(
        std::clamp<unsigned>(std::thread::hardware_concurrency(), 1, 4));
    Clock::time_point end = Clock::now() +
                            std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
    std::vector<SampledAnswer> answers =
        RunQueryClients(server_.get(), mix_, args_.seed + drives_++, threads,
                        end, window, outcome, spans);
    if (spans != nullptr) ReplayUnattributed(answers, Table(), window);
    for (auto& answer : answers) sampled_.push_back(std::move(answer));
    window->notes.push_back("clients=" + std::to_string(threads));
  }

  void Check(Outcome* outcome) override {
    int64_t checked =
        CheckAnswers(sampled_, Table(), data_, /*check_ops_totals=*/true,
                     outcome);
    outcome->Note("oracle: " + std::to_string(checked) +
                  " sampled answers checked");
  }

  LayerInputs Inputs() override {
    LayerInputs in;
    in.server = server_.get();
    in.dashboard = "viewer";
    in.endpoint = "sales";
    in.source_object = "sales";
    in.flow_text = FlowText();
    in.csv_payload = data_.csv;
    in.json_payload =
        server_->Get("/api/v1/viewer/ds/sales?limit=10000").body;
    Rng rng(args_.seed ^ 0xa11ce);
    SalesTotals scratch;
    in.delta_rows = GenerateRows(&rng, kBatchRows, data_.segment_of, &scratch);
    for (int i = 0; i < 20; ++i) {
      in.append_bodies.push_back(AppendBody(
          GenerateRows(&rng, kBatchRows, data_.segment_of, &scratch)));
    }
    in.setup_run_traces = setup_traces_;
    return in;
  }

  ApiServer* server() override { return server_.get(); }

  std::array<Role, 3> Roles() const override {
    return {{{"ds_query"}, {"browse"}, {"browse_large"}}};
  }

  uint64_t InputsDigest() const override {
    std::string urls;
    Rng client(args_.seed * 7919 + 1);
    for (int i = 0; i < 200; ++i) urls += mix_.Next(&client).url + "\n";
    return Fnv1a(urls, Fnv1a(data_.csv));
  }

 private:
  static std::string FlowText() {
    return "D:\n"
           "  sales: [region, product, store, cust, qty, amount]\n" +
           DataObject("sales", std::string(kHost) + "viewer/sales.csv",
                      "csv") +
           "F:\n"
           "  D.by_store: D.sales | T.store_totals\n" +
           Endpoints({"sales", "by_store"}) + "T:\n" +
           SumTask("store_totals", "store", "amount", true);
  }

  TablePtr Table() {
    Result<Dashboard*> dashboard = server_->GetDashboard("viewer");
    if (!dashboard.ok()) return nullptr;
    Result<TablePtr> table = (*dashboard)->EndpointData("sales");
    return table.ok() ? *table : nullptr;
  }

  Args args_;
  QueryMix mix_;
  SalesData data_;
  SharedDataRegistry registry_;
  std::unique_ptr<ApiServer> server_;
  std::vector<SampledAnswer> sampled_;
  std::vector<std::string> setup_traces_;
  uint64_t drives_ = 0;
};

// --- feed_append -------------------------------------------------------

/// A feed: one writer appending 100-row batches on a fixed schedule, one
/// subscriber long-polling changes?since=, and two readers running the
/// /ds mix, with the durable store on.
class FeedAppend : public Workload {
 public:
  FeedAppend(const Args& args, int instance)
      : args_(args),
        dir_(ScratchDir(args, "feed", instance)),
        mix_("feed", "events", kFeedRows) {}

  ~FeedAppend() override {
    server_.reset();
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }

  Status Setup() override {
    Rng rng(args_.seed);
    data_ = GenerateSales(&rng, kFeedRows);
    base_totals_ = data_.totals;
    SimulatedRemoteStore::Get().Publish(std::string(kHost) + "feed/events.csv",
                                        data_.csv);
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
    ApiServer::Options options;
    options.durability.dir = dir_;
    server_ = std::make_unique<ApiServer>(&registry_, options);
    HttpResponse created =
        server_->Post("/api/v1/dashboards/feed/create", FlowText());
    if (created.status != 201) {
      return Status::Internal("create failed: " + created.body);
    }
    HttpResponse run = server_->Post("/api/v1/dashboards/feed/run", "");
    if (run.status != 200) return Status::Internal("run failed: " + run.body);
    setup_traces_.push_back(Str(ParseBody(run.body), "trace_id"));
    // First contact seeds the changelog the subscriber follows.
    HttpResponse object = server_->Get(ObjectUrl(""));
    cursor_ =
        static_cast<uint64_t>(NumberAt(ParseBody(object.body), "version"));
    HttpResponse seeded = server_->Get(ObjectUrl(
        "/changes?since=" + std::to_string(cursor_) + "&timeout_ms=0"));
    if (seeded.status != 200) {
      return Status::Internal("changes failed: " + seeded.body);
    }
    // Batches for the whole run, generated up front from the seed.
    size_t batches = static_cast<size_t>(
        std::ceil(kFeedBatchesPerSecond * args_.seconds)) + 8;
    batches_.reserve(batches);
    for (size_t i = 0; i < batches; ++i) {
      std::vector<SalesRow> rows =
          GenerateRows(&rng, kBatchRows, data_.segment_of, &data_.totals);
      bodies_.push_back(AppendBody(rows));
      batches_.push_back(std::move(rows));
    }
    Rng warm(args_.seed ^ 0x5eed);
    for (int i = 0; i < 20; ++i) {
      HttpResponse response = server_->Get(mix_.Next(&warm).url);
      if (response.status != 200) {
        return Status::Internal("warm-up failed: " + response.body);
      }
    }
    return Status::OK();
  }

  void Drive(double seconds, Window* window, Outcome* outcome,
             SpanLog* spans) override {
    Clock::time_point start = Clock::now();
    Clock::time_point end = start + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(seconds));
    std::atomic<bool> writer_done{false};
    std::atomic<uint64_t> final_version{0};
    std::map<uint64_t, Clock::time_point> due_of;   // version -> due time
    std::map<uint64_t, Clock::time_point> seen_at;  // version -> received
    Samples append_ms, service_ms, late_ms;
    int64_t writer_attempted = 0, writer_ok = 0;

    std::thread writer([&] {
      const auto period = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(1.0 / kFeedBatchesPerSecond));
      for (size_t i = 0; next_batch_ < bodies_.size(); ++i) {
        Clock::time_point due = start + period * static_cast<int64_t>(i);
        if (due >= end) break;
        std::this_thread::sleep_until(due);
        HttpRequest request =
            HttpRequest::Post(ObjectUrl(":append"), bodies_[next_batch_]);
        uint64_t span = 0;
        Timed t = Traced(server_.get(), request, spans, "append", &span);
        ++writer_attempted;
        if (t.response.status != 202) {
          outcome->RequestFailed(Describe(request, t.response));
          continue;
        }
        ++writer_ok;
        appended_.push_back(next_batch_++);
        late_ms.Add(MsBetween(due, t.start));
        append_ms.Add(MsBetween(due, t.end));
        service_ms.Add(t.ms);
        JsonValue body = ParseBody(t.response.body);
        uint64_t version = static_cast<uint64_t>(NumberAt(body, "version"));
        due_of[version] = due;
        final_version = version;
        if (spans != nullptr) {
          window->unattributed.Add(t.ms - NumberAt(body, "wall_ms"));
        }
      }
      writer_done = true;
    });

    std::thread subscriber([&] {
      while (true) {
        bool done = writer_done.load();
        if (done && cursor_ >= final_version.load()) break;
        HttpRequest request = HttpRequest::Get(ObjectUrl(
            "/changes?since=" + std::to_string(cursor_) + "&timeout_ms=100"));
        Timed t = Traced(server_.get(), request, spans, "changes");
        if (t.response.status != 200) {
          outcome->RequestFailed(Describe(request, t.response));
          break;
        }
        JsonValue body = ParseBody(t.response.body);
        const JsonValue* contiguous = body.Find("contiguous");
        const JsonValue* events = body.Find("events");
        if (contiguous == nullptr || !contiguous->bool_value() ||
            events == nullptr) {
          outcome->Fail("changes feed lost contiguity at " +
                        std::to_string(cursor_));
          break;
        }
        for (const JsonValue& event : events->array_items()) {
          uint64_t version = static_cast<uint64_t>(NumberAt(event, "version"));
          seen_at[version] = t.end;
          const JsonValue* rows = event.Find("rows");
          if (rows == nullptr || !rows->is_array()) {
            outcome->Fail("change event without rows");
            continue;
          }
          for (const JsonValue& row : rows->array_items()) {
            subscriber_rows_ += subscriber_rows_.empty() ? "" : ",";
            subscriber_rows_ += row.Serialize();
          }
          cursor_ = std::max(cursor_, version);
        }
        if (done && Clock::now() > end + std::chrono::seconds(10)) {
          outcome->Fail("subscriber never caught up");
          break;
        }
      }
    });

    std::vector<SampledAnswer> answers =
        RunQueryClients(server_.get(), mix_, args_.seed + drives_++,
                        kFeedReaders, end, window, outcome, spans);
    writer.join();
    subscriber.join();

    Samples visible;
    for (const auto& [version, due] : due_of) {
      auto it = seen_at.find(version);
      if (it == seen_at.end()) {
        outcome->Fail("append version " + std::to_string(version) +
                      " never reached the subscriber");
        continue;
      }
      visible.Add(MsBetween(due, it->second));
    }
    window->Merge("append", append_ms);
    window->Merge("append_service", service_ms);
    window->Merge("change_visible", visible);
    {
      std::lock_guard<std::mutex> lock(window->mu);
      window->completed += writer_ok;
      char note[160];
      std::snprintf(note, sizeof(note),
                    "writer: %lld batches at %.0f/s, late p50 %.3f ms, "
                    "late max %.3f ms",
                    static_cast<long long>(writer_ok), kFeedBatchesPerSecond,
                    late_ms.Median(), late_ms.Percentile(100));
      window->notes.push_back(note);
    }
    std::lock_guard<std::mutex> lock(outcome->mu);
    outcome->attempted += writer_attempted;
  }

  void Check(Outcome* outcome) override {
    size_t appended_rows = appended_.size() * kBatchRows;
    JsonValue head = ParseBody(server_->Get(ObjectUrl("")).body);
    if (NumberAt(head, "total_rows") !=
        static_cast<double>(kFeedRows + appended_rows)) {
      outcome->Fail("events holds " +
                    std::to_string(NumberAt(head, "total_rows")) +
                    " rows, expected base + appended = " +
                    std::to_string(kFeedRows + appended_rows));
    }
    JsonValue tail = ParseBody(
        server_->Get(ObjectUrl("?limit=0&offset=" + std::to_string(kFeedRows)))
            .body);
    const JsonValue* rows = RowsOf(tail);
    bool good = rows != nullptr && rows->array_items().size() == appended_rows;
    std::string final_rows;
    for (size_t i = 0; good && i < rows->array_items().size(); ++i) {
      const JsonValue& row = rows->array_items()[i];
      const SalesRow& sent = batches_[appended_[i / kBatchRows]][i % kBatchRows];
      good = RowMatches(row, sent);
      final_rows += i == 0 ? "" : ",";
      final_rows += row.Serialize();
    }
    if (!good) outcome->Fail("appended rows differ from the batches sent");
    if (good && final_rows != subscriber_rows_) {
      outcome->Fail("subscriber's base plus deltas differs from the object");
    }
    // Group-by maintained by deltas: totals over base + appended rows.
    SalesTotals expected = base_totals_;
    for (size_t b : appended_) {
      for (const SalesRow& row : batches_[b]) {
        expected.Add(row, data_.segment_of[row.cust]);
      }
    }
    JsonValue by_region =
        ParseBody(server_->Get("/api/v1/feed/ds/by_region?limit=0").body);
    rows = RowsOf(by_region);
    good = rows != nullptr;
    for (size_t i = 0; good && i < rows->array_items().size(); ++i) {
      const JsonValue& row = rows->array_items()[i];
      int r = std::atoi(Str(row, "region").c_str() + 1);
      good = r >= 0 && r < kRegions &&
             NumberAt(row, "total") == expected.RegionAmount(r, 1, kMaxQty) &&
             NumberAt(row, "n") == expected.RegionCount(r, 1, kMaxQty);
    }
    if (!good) outcome->Fail("feed by_region differs from the generator");
  }

  LayerInputs Inputs() override {
    LayerInputs in;
    in.server = server_.get();
    in.dashboard = "feed";
    in.endpoint = "events";
    in.source_object = "events";
    in.flow_text = FlowText();
    in.csv_payload = data_.csv;
    in.json_payload = bodies_.empty() ? std::string() : bodies_.front();
    size_t n = std::min<size_t>(bodies_.size(), 20);
    in.append_bodies.assign(bodies_.begin(), bodies_.begin() + n);
    if (!batches_.empty()) in.delta_rows = batches_.back();
    in.setup_run_traces = setup_traces_;
    return in;
  }

  ApiServer* server() override { return server_.get(); }

  std::array<Role, 3> Roles() const override {
    return {{{"append"}, {"change_visible"}, {"ds_query"}}};
  }

  uint64_t InputsDigest() const override {
    uint64_t h = Fnv1a(data_.csv);
    for (const std::string& body : bodies_) h = Fnv1a(body, h);
    return h;
  }

 private:
  static std::string FlowText() {
    return "D:\n"
           "  events: [region, product, store, cust, qty, amount]\n" +
           DataObject("events", std::string(kHost) + "feed/events.csv",
                      "csv") +
           "F:\n"
           "  D.big: D.events | T.big_orders\n"
           "  D.by_region: D.events | T.region_totals\n" +
           Endpoints({"events", "big", "by_region"}) +
           "T:\n"
           "  big_orders:\n"
           "    type: filter_by\n"
           "    filter_expression: 'qty >= 5'\n" +
           SumTask("region_totals", "region", "amount", true);
  }

  static std::string ObjectUrl(const std::string& suffix) {
    return "/api/v1/dashboards/feed/objects/events" + suffix;
  }

  Args args_;
  std::string dir_;
  QueryMix mix_;
  SalesData data_;
  SalesTotals base_totals_;
  SharedDataRegistry registry_;
  std::unique_ptr<ApiServer> server_;
  std::vector<std::vector<SalesRow>> batches_;
  std::vector<std::string> bodies_;
  size_t next_batch_ = 0;
  std::vector<size_t> appended_;  // batch indexes, in append order
  uint64_t cursor_ = 0;
  std::string subscriber_rows_;
  std::vector<std::string> setup_traces_;
  uint64_t drives_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const Args& args, int instance) {
  if (args.workload == "author_run") return std::make_unique<AuthorRun>(args);
  if (args.workload == "viewer_storm") {
    return std::make_unique<ViewerStorm>(args);
  }
  if (args.workload == "feed_append") {
    return std::make_unique<FeedAppend>(args, instance);
  }
  return nullptr;
}

}  // namespace perfbench
