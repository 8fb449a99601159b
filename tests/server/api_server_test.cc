#include "server/api_server.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/fault.h"
#include "io/circuit_breaker.h"
#include "io/connector.h"

namespace shareinsights {
namespace {

constexpr const char* kItemsUrl = "http://shop.test/items.csv";
constexpr const char* kItems =
    "category,name,price\n"
    "fruit,apple,3\n"
    "fruit,pear,4\n"
    "tool,hammer,12\n";

constexpr const char* kFlow = R"(
D:
  items: [category, name, price]
D.items:
  source: http://shop.test/items.csv
  format: csv
F:
  D.by_category: D.items | T.agg
D.by_category:
  endpoint: true
D.items:
  endpoint: true
T:
  agg:
    type: groupby
    groupby: [category]
    aggregates:
      - operator: sum
        apply_on: price
        out_field: total
)";

class ApiServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SimulatedRemoteStore::Get().Publish(kItemsUrl, kItems);
    ASSERT_TRUE(server_.CreateDashboard("shop", kFlow, Dashboard::Options())
                    .ok());
    ASSERT_TRUE(server_.Post("/dashboards/shop/run", "").ok());
  }
  SharedDataRegistry registry_;
  ApiServer server_{&registry_};
};

TEST_F(ApiServerTest, ListsDashboards) {
  HttpResponse response = server_.Get("/dashboards");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"shop\""), std::string::npos);
}

TEST_F(ApiServerTest, CreateViaRestRoute) {
  HttpResponse response =
      server_.Post("/dashboards/shop2/create", kFlow);
  EXPECT_EQ(response.status, 201);
  EXPECT_TRUE(server_.GetDashboard("shop2").ok());
}

TEST_F(ApiServerTest, CreateWithBrokenFlowFileIs400) {
  HttpResponse response =
      server_.Post("/dashboards/broken/create", "F:\n  D.x: D.y\n");
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("parse_error"), std::string::npos);
}

TEST_F(ApiServerTest, DsListsEndpoints) {
  HttpResponse response = server_.Get("/shop/ds");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("by_category"), std::string::npos);
  EXPECT_NE(response.body.find("items"), std::string::npos);
}

TEST_F(ApiServerTest, BrowseRowsWithLimitAndOffset) {
  HttpResponse response = server_.Get("/shop/ds/items?limit=1&offset=1");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("pear"), std::string::npos);
  EXPECT_EQ(response.body.find("apple"), std::string::npos);
  EXPECT_NE(response.body.find("\"total_rows\": 3"), std::string::npos);
}

TEST_F(ApiServerTest, AdhocGroupbyQuery) {
  HttpResponse response =
      server_.Get("/shop/ds/items/groupby/category/count/name");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"count_name\": 2"), std::string::npos);
  response = server_.Get("/shop/ds/items/groupby/category/sum/price");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"sum_price\": 7"), std::string::npos);
}

TEST_F(ApiServerTest, AdhocQueryUnknownAggregateIs404) {
  HttpResponse response =
      server_.Get("/shop/ds/items/groupby/category/median/price");
  EXPECT_EQ(response.status, 404);
}

TEST_F(ApiServerTest, NonEndpointObjectsHidden) {
  // 'agg' output object isn't an endpoint? by_category is. Query a
  // non-existent object name.
  HttpResponse response = server_.Get("/shop/ds/internal_thing");
  EXPECT_EQ(response.status, 404);
  EXPECT_NE(response.body.find("not an endpoint"), std::string::npos);
}

TEST_F(ApiServerTest, ExplorerRendersAsciiTable) {
  HttpResponse response = server_.Get("/shop/explore/by_category?limit=5");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "text/plain");
  EXPECT_NE(response.body.find("| category |"), std::string::npos);
}

TEST_F(ApiServerTest, DashboardTextRoute) {
  HttpResponse response = server_.Get("/dashboards/shop");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("groupby"), std::string::npos);
}

TEST_F(ApiServerTest, UnknownDashboardIs404) {
  EXPECT_EQ(server_.Get("/nope/ds").status, 404);
  EXPECT_EQ(server_.Post("/dashboards/nope/run", "").status, 404);
}

TEST_F(ApiServerTest, SharedRouteListsRegistry) {
  TableBuilder builder(Schema::FromNames({"a"}));
  (void)builder.AppendRow({Value("1")});
  ASSERT_TRUE(registry_.Publish("shared_x", *builder.Finish(), "tester").ok());
  HttpResponse response = server_.Get("/shared");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("shared_x"), std::string::npos);
  EXPECT_NE(response.body.find("tester"), std::string::npos);
}

TEST_F(ApiServerTest, MetricsRouteReflectsActivity) {
  // SetUp already ran the pipeline once through POST .../run.
  HttpResponse response = server_.Get("/metrics");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "text/plain");
  EXPECT_NE(response.body.find("# TYPE runs_total counter"),
            std::string::npos);
  EXPECT_NE(response.body.find("flows_executed_total"), std::string::npos);
  EXPECT_NE(response.body.find("run_ms_bucket"), std::string::npos);
  EXPECT_NE(response.body.find("http_requests_total"), std::string::npos);

  // runs_total must be at least the SetUp run (the registry is
  // process-wide, so other tests may have incremented it too).
  Counter* runs = MetricsRegistry::Default().GetCounter("runs_total");
  int64_t before = runs->Value();
  ASSERT_TRUE(server_.Post("/dashboards/shop/run", "").ok());
  EXPECT_EQ(runs->Value(), before + 1);
}

// Runs the shop dashboard and returns the run envelope and the events
// of its retrieved trace.
struct TracedRun {
  JsonValue body;
  std::vector<JsonValue> events;
};

TracedRun RunTraced(ApiServer* server) {
  TracedRun out;
  HttpResponse run = server->Post("/dashboards/shop/run", "");
  EXPECT_EQ(run.status, 200) << run.body;
  Result<JsonValue> body = ParseJson(run.body);
  EXPECT_TRUE(body.ok()) << body.status();
  if (!body.ok()) return out;
  out.body = std::move(*body);
  const JsonValue* trace_id = out.body.Find("trace_id");
  EXPECT_NE(trace_id, nullptr);
  if (trace_id == nullptr) return out;
  const std::string& run_id = trace_id->string_value();
  EXPECT_EQ(run_id.rfind("run-", 0), 0u) << run_id;

  HttpResponse trace = server->Get("/trace/" + run_id);
  EXPECT_EQ(trace.status, 200);
  Result<JsonValue> parsed = ParseJson(trace.body);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  if (!parsed.ok()) return out;
  const JsonValue* events = parsed->Find("traceEvents");
  EXPECT_NE(events, nullptr);
  if (events == nullptr) return out;
  EXPECT_TRUE(events->is_array());
  out.events = events->array_items();
  return out;
}

// The `args` value `key` of the first event named `name`, or "" when
// there is no such event or attribute.
std::string EventArg(const TracedRun& run, const std::string& name,
                     const std::string& key) {
  for (const JsonValue& event : run.events) {
    if (event.Find("name")->string_value() != name) continue;
    const JsonValue* args = event.Find("args");
    const JsonValue* value = args == nullptr ? nullptr : args->Find(key);
    return value == nullptr ? "" : value->string_value();
  }
  return "";
}

TEST_F(ApiServerTest, RunResponseCarriesRetrievableTrace) {
  // SetUp already ran over kItems; new bytes make this run parse and
  // execute again.
  SimulatedRemoteStore::Get().Publish(kItemsUrl,
                                      std::string(kItems) + "tool,saw,9\n");
  TracedRun changed = RunTraced(&server_);
  std::vector<std::string> names;
  for (const JsonValue& event : changed.events) {
    names.push_back(event.Find("name")->string_value());
  }
  auto has = [&names](const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  EXPECT_TRUE(has("dashboard.run"));
  EXPECT_TRUE(has("exec.run"));
  EXPECT_TRUE(has("exec.task:agg"));
  EXPECT_EQ(EventArg(changed, "io.parse", "reused"), "false");

  // Nothing changed since: the source keeps its table and the flow is
  // answered by the result cache.
  TracedRun unchanged = RunTraced(&server_);
  EXPECT_EQ(unchanged.body.Find("cache")->string_value(), "hit");
  EXPECT_EQ(unchanged.body.Find("sources_reused")->number_value(), 1);
  EXPECT_EQ(EventArg(unchanged, "io.parse", "reused"), "true");
  EXPECT_EQ(EventArg(unchanged, "exec.flow:by_category", "cache"), "hit");
}

TEST_F(ApiServerTest, UnchangedRerunKeepsEndpointEtags) {
  auto etag = [this](const std::string& object) {
    HttpResponse response =
        server_.Get("/api/v1/dashboards/shop/objects/" + object);
    EXPECT_EQ(response.status, 200);
    return response.headers["ETag"];
  };
  const std::string items = etag("items");
  const std::string by_category = etag("by_category");

  HttpResponse run = server_.Post("/api/v1/dashboards/shop/run", "");
  ASSERT_EQ(run.status, 200);
  Result<JsonValue> body = ParseJson(run.body);
  ASSERT_TRUE(body.ok()) << body.status();
  EXPECT_EQ(body->Find("cache")->string_value(), "hit");
  EXPECT_EQ(body->Find("flows_executed")->number_value(), 0);
  EXPECT_EQ(body->Find("sources_reused")->number_value(), 1);
  EXPECT_EQ(etag("items"), items);
  EXPECT_EQ(etag("by_category"), by_category);

  // One changed byte is a new version all the way down.
  SimulatedRemoteStore::Get().Publish(
      kItemsUrl, "category,name,price\nfruit,apple,3\nfruit,pear,5\n"
                 "tool,hammer,12\n");
  run = server_.Post("/api/v1/dashboards/shop/run", "");
  ASSERT_EQ(run.status, 200);
  body = ParseJson(run.body);
  ASSERT_TRUE(body.ok()) << body.status();
  EXPECT_EQ(body->Find("cache")->string_value(), "miss");
  EXPECT_EQ(body->Find("sources_reused")->number_value(), 0);
  EXPECT_NE(etag("items"), items);
  EXPECT_NE(etag("by_category"), by_category);
}

TEST_F(ApiServerTest, UnknownTraceIs404) {
  EXPECT_EQ(server_.Get("/trace/run-999999").status, 404);
  EXPECT_EQ(server_.Get("/trace").status, 404);
}

// --- versioned API surface ------------------------------------------

TEST_F(ApiServerTest, ApiV1RoutesMirrorLegacyPaths) {
  EXPECT_EQ(server_.Get("/api/v1/dashboards").status, 200);
  EXPECT_EQ(server_.Get("/api/v1/shop/ds").status, 200);
  EXPECT_EQ(server_.Get("/api/v1/shop/ds/items").status, 200);
  EXPECT_EQ(server_.Get("/api/v1/shared").status, 200);
  EXPECT_EQ(server_.Get("/api/v1/metrics").status, 200);
  HttpResponse run = server_.Post("/api/v1/dashboards/shop/run", "");
  EXPECT_EQ(run.status, 200);
  EXPECT_NE(run.body.find("trace_id"), std::string::npos);
}

TEST_F(ApiServerTest, UnknownApiVersionIs404) {
  EXPECT_EQ(server_.Get("/api/v2/dashboards").status, 404);
  EXPECT_EQ(server_.Get("/api").status, 404);
}

TEST_F(ApiServerTest, LegacyPathsCarryDeprecationHeader) {
  HttpResponse legacy = server_.Get("/dashboards");
  EXPECT_EQ(legacy.status, 200);
  ASSERT_EQ(legacy.headers.count("Deprecation"), 1u);
  EXPECT_EQ(legacy.headers.at("Deprecation"), "true");
  HttpResponse versioned = server_.Get("/api/v1/dashboards");
  EXPECT_EQ(versioned.headers.count("Deprecation"), 0u);
}

TEST_F(ApiServerTest, WrongMethodIs405WithAllowHeader) {
  HttpResponse response = server_.Post("/api/v1/dashboards", "");
  EXPECT_EQ(response.status, 405);
  ASSERT_EQ(response.headers.count("Allow"), 1u);
  EXPECT_EQ(response.headers.at("Allow"), "GET");
  EXPECT_NE(response.body.find("\"error\""), std::string::npos);
  EXPECT_NE(response.body.find("MethodNotAllowed"), std::string::npos);

  response = server_.Get("/api/v1/dashboards/shop/run");
  EXPECT_EQ(response.status, 405);
  EXPECT_EQ(response.headers.at("Allow"), "POST");

  response = server_.Post("/api/v1/shop/ds/items", "");
  EXPECT_EQ(response.status, 405);
  EXPECT_EQ(response.headers.at("Allow"), "GET");

  response = server_.Post("/api/v1/metrics", "");
  EXPECT_EQ(response.status, 405);
}

TEST_F(ApiServerTest, BrowseCarriesPaginationEnvelope) {
  HttpResponse response = server_.Get("/api/v1/shop/ds/items?limit=2");
  EXPECT_EQ(response.status, 200);
  Result<JsonValue> body = ParseJson(response.body);
  ASSERT_TRUE(body.ok()) << body.status();
  EXPECT_EQ(body->Find("limit")->number_value(), 2);
  EXPECT_EQ(body->Find("offset")->number_value(), 0);
  EXPECT_EQ(body->Find("next_offset")->number_value(), 2);
  EXPECT_EQ(body->Find("total_rows")->number_value(), 3);

  // Last page: next_offset is null.
  response = server_.Get("/api/v1/shop/ds/items?limit=2&offset=2");
  body = ParseJson(response.body);
  ASSERT_TRUE(body.ok()) << body.status();
  ASSERT_NE(body->Find("next_offset"), nullptr);
  EXPECT_TRUE(body->Find("next_offset")->is_null());
}

TEST_F(ApiServerTest, CollectionListsCarryPaginationEnvelope) {
  for (const std::string& path :
       {std::string("/api/v1/dashboards"), std::string("/api/v1/shop/ds"),
        std::string("/api/v1/shared")}) {
    HttpResponse response = server_.Get(path);
    ASSERT_EQ(response.status, 200) << path;
    Result<JsonValue> body = ParseJson(response.body);
    ASSERT_TRUE(body.ok()) << path;
    EXPECT_NE(body->Find("limit"), nullptr) << path;
    EXPECT_NE(body->Find("offset"), nullptr) << path;
    EXPECT_NE(body->Find("next_offset"), nullptr) << path;
    EXPECT_NE(body->Find("total_rows"), nullptr) << path;
  }
}

TEST_F(ApiServerTest, MalformedLimitOrOffsetIs400) {
  for (const std::string& url :
       {std::string("/api/v1/shop/ds/items?limit=abc"),
        std::string("/api/v1/shop/ds/items?offset=-3"),
        std::string("/api/v1/shop/ds/items?limit=2x"),
        std::string("/shop/ds/items?limit=abc")}) {
    HttpResponse response = server_.Get(url);
    EXPECT_EQ(response.status, 400) << url;
    EXPECT_NE(response.body.find("\"error\""), std::string::npos) << url;
    EXPECT_NE(response.body.find("\"message\""), std::string::npos) << url;
  }
}

TEST_F(ApiServerTest, ChainedPathFiltersNarrowBrowse) {
  HttpResponse response =
      server_.Get("/api/v1/shop/ds/items/filter/category/eq/fruit");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("apple"), std::string::npos);
  EXPECT_NE(response.body.find("pear"), std::string::npos);
  EXPECT_EQ(response.body.find("hammer"), std::string::npos);
  Result<JsonValue> body = ParseJson(response.body);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body->Find("total_rows")->number_value(), 2);

  // Two chained filters, numeric comparison on price.
  response = server_.Get(
      "/api/v1/shop/ds/items/filter/category/eq/fruit/filter/price/gt/3");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("pear"), std::string::npos);
  EXPECT_EQ(response.body.find("apple"), std::string::npos);
}

TEST_F(ApiServerTest, ChainedFiltersComposeWithGroupby) {
  HttpResponse response = server_.Get(
      "/api/v1/shop/ds/items/filter/price/lt/10/groupby/category/sum/price");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"sum_price\": 7"), std::string::npos);
  EXPECT_EQ(response.body.find("tool"), std::string::npos);
}

TEST_F(ApiServerTest, FilterValuesArePercentDecoded) {
  // "fruit" spelled with an encoded character still matches.
  HttpResponse response =
      server_.Get("/api/v1/shop/ds/items/filter/name/eq/ha%6Dmer");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("hammer"), std::string::npos);
  EXPECT_EQ(response.body.find("apple"), std::string::npos);
}

TEST_F(ApiServerTest, MalformedFilterIs400) {
  EXPECT_EQ(
      server_.Get("/api/v1/shop/ds/items/filter/category/eq").status, 400);
  EXPECT_EQ(
      server_.Get("/api/v1/shop/ds/items/filter/category/between/1").status,
      400);
}

TEST_F(ApiServerTest, UnknownFilterColumnIsSchemaError400) {
  HttpResponse response =
      server_.Get("/api/v1/shop/ds/items/filter/nope/eq/x");
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("\"message\""), std::string::npos);
}

TEST(HttpRequestTest, PercentDecodesQueryKeysAndValues) {
  HttpRequest request =
      HttpRequest::Get("/a?city=New%20York&state=New+Jersey&odd%20key=1");
  EXPECT_EQ(request.query.at("city"), "New York");
  EXPECT_EQ(request.query.at("state"), "New Jersey");
  EXPECT_EQ(request.query.at("odd key"), "1");
}

TEST(HttpRequestTest, ParsesQueryParameters) {
  HttpRequest request = HttpRequest::Get("/a/b?x=1&y=two&flag");
  EXPECT_EQ(request.path, "/a/b");
  EXPECT_EQ(request.query.at("x"), "1");
  EXPECT_EQ(request.query.at("y"), "two");
  EXPECT_EQ(request.query.at("flag"), "");
}

// --- resilience contract (docs/ROBUSTNESS.md) -------------------------

class ResilienceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FaultInjector::Get().Reset();
    CircuitBreakerRegistry::Default().ResetAll();
    SimulatedRemoteStore::Get().Clear();
  }
  SharedDataRegistry registry_;
  ApiServer server_{&registry_};
};

TEST_F(ResilienceTest, ErrorEnvelopeCarriesRetryableFlag) {
  HttpResponse response = server_.Get("/nope/ds");
  EXPECT_EQ(response.status, 404);
  // A 404 is permanent: retrying the same request cannot help.
  EXPECT_NE(response.body.find("\"retryable\": false"), std::string::npos);
}

TEST_F(ResilienceTest, ServerRequestFaultSiteFiresBeforeRouting) {
  FaultInjector::Get().Arm(kFaultServerRequest, FaultSpec{});
  HttpResponse response = server_.Get("/dashboards");
  EXPECT_EQ(response.status, 500);  // injected IoError
  EXPECT_NE(response.body.find("server.request"), std::string::npos);
  EXPECT_NE(response.body.find("\"retryable\": true"), std::string::npos);
  FaultInjector::Get().Reset();
  EXPECT_EQ(server_.Get("/dashboards").status, 200);
}

TEST_F(ResilienceTest, OpenBreakerAnswers503WithRetryAfter) {
  // Trip the shared http breaker, then run a dashboard whose source
  // needs http: the load fails fast with kUnavailable -> 503.
  CircuitBreaker* breaker = CircuitBreakerRegistry::Default().Get("http");
  for (int i = 0; i < breaker->options().failure_threshold; ++i) {
    breaker->RecordFailure();
  }
  ASSERT_EQ(breaker->state(), CircuitBreaker::State::kOpen);

  constexpr const char* kHttpFlow = R"(
D:
  ev: [a]
D.ev:
  protocol: http
  source: http://feed.test/ev.csv
F:
  D.out: D.ev | T.keep
T:
  keep:
    type: distinct
)";
  ASSERT_TRUE(
      server_.CreateDashboard("feed", kHttpFlow, Dashboard::Options()).ok());
  HttpResponse response = server_.Post("/api/v1/dashboards/feed/run", "");
  EXPECT_EQ(response.status, 503);
  EXPECT_NE(response.body.find("unavailable"), std::string::npos);
  EXPECT_NE(response.body.find("circuit breaker"), std::string::npos);
  EXPECT_NE(response.body.find("\"retryable\": true"), std::string::npos);
  ASSERT_EQ(response.headers.count("Retry-After"), 1u);
  EXPECT_GE(std::stoi(response.headers.at("Retry-After")), 1);

  // Breaker closed again: the same run succeeds once the payload exists.
  CircuitBreakerRegistry::Default().ResetAll();
  SimulatedRemoteStore::Get().Publish("http://feed.test/ev.csv", "a\n1\n");
  EXPECT_EQ(server_.Post("/api/v1/dashboards/feed/run", "").status, 200);
}

TEST_F(ResilienceTest, DeadlineExceededAnswers504Retryable) {
  ApiServer slow(&registry_, ApiServer::Options{/*request_deadline_ms=*/1e-6});
  HttpResponse response = slow.Get("/api/v1/dashboards");
  EXPECT_EQ(response.status, 504);
  EXPECT_NE(response.body.find("deadline_exceeded"), std::string::npos);
  EXPECT_NE(response.body.find("\"retryable\": true"), std::string::npos);

  // Zero (the default) means no deadline.
  EXPECT_EQ(server_.Get("/api/v1/dashboards").status, 200);
}

// A page renders from the typed columns: browsing 100 rows of a larger
// endpoint must not decode (and keep) Value views of whole columns.
TEST(ApiServerPageTest, BrowsePageLeavesNoDecodedColumnView) {
  std::string csv = "category,name,price,weight\n";
  for (int r = 0; r < 2000; ++r) {
    csv += "c" + std::to_string(r % 7) + ",n" + std::to_string(r) + "," +
           std::to_string(r % 50) + "," + std::to_string(r % 9) + ".5\n";
  }
  SimulatedRemoteStore::Get().Publish(kItemsUrl, csv);
  SharedDataRegistry registry;
  ApiServer server{&registry};
  ASSERT_TRUE(server
                  .CreateDashboard("shop",
                                   "D:\n  items: [category, name, price, "
                                   "weight]\nD.items:\n  source: "
                                   "http://shop.test/items.csv\n  format: "
                                   "csv\n  endpoint: true\n",
                                   Dashboard::Options())
                  .ok());
  ASSERT_EQ(server.Post("/dashboards/shop/run", "").status, 200);
  Result<Dashboard*> dashboard = server.GetDashboard("shop");
  ASSERT_TRUE(dashboard.ok());
  Result<TablePtr> items = (*dashboard)->store().Get("items");
  ASSERT_TRUE(items.ok());
  ASSERT_EQ((*items)->num_rows(), 2000u);
  EXPECT_EQ((*items)->typed_column(2).encoding(), ColumnEncoding::kInt64);

  HttpResponse page = server.Get("/api/v1/shop/ds/items?limit=100&offset=40");
  ASSERT_EQ(page.status, 200);
  Result<JsonValue> body = ParseJson(page.body);
  ASSERT_TRUE(body.ok()) << body.status();
  ASSERT_EQ(body->Find("rows")->array_items().size(), 100u);
  EXPECT_EQ(body->Find("rows")->array_items()[0].Find("name")->string_value(),
            "n40");
  EXPECT_EQ((*items)->decoded_view_bytes(), 0u);
}

TEST(TableToJsonTest, RespectsLimitOffsetAndTypes) {
  TableBuilder builder(Schema({Field{"s", ValueType::kString},
                               Field{"n", ValueType::kInt64},
                               Field{"b", ValueType::kBool}}));
  for (int64_t i = 0; i < 5; ++i) {
    (void)builder.AppendRow({Value("r" + std::to_string(i)), Value(i),
                             Value(i % 2 == 0)});
  }
  JsonValue rows = TableToJson(**builder.Finish(), 2, 1);
  ASSERT_EQ(rows.array_items().size(), 2u);
  EXPECT_EQ(rows.array_items()[0].Find("s")->string_value(), "r1");
  EXPECT_EQ(rows.array_items()[0].Find("n")->number_value(), 1);
  EXPECT_EQ(rows.array_items()[0].Find("b")->bool_value(), false);
}

}  // namespace
}  // namespace shareinsights
