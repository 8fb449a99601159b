#include "io/connector.h"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/fault.h"
#include "io/circuit_breaker.h"
#include "io/csv.h"

namespace shareinsights {
namespace {

class ConnectorTest : public ::testing::Test {
 protected:
  void TearDown() override {
    SimulatedRemoteStore::Get().Clear();
    FaultInjector::Get().Reset();
    CircuitBreakerRegistry::Default().ResetAll();
  }
};

TEST_F(ConnectorTest, InlineConnector) {
  DataSourceParams params;
  params.Set("data", "a,b\n1,2\n");
  auto table = LoadDataObject(params, std::nullopt, {});
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ((*table)->num_rows(), 1u);
}

TEST_F(ConnectorTest, FileConnectorWithBaseDir) {
  std::string dir =
      (std::filesystem::temp_directory_path() / "si_conn_test").string();
  ASSERT_TRUE(WriteStringToFile("a\n5\n", dir + "/data.csv").ok());
  DataSourceParams params;
  params.Set("source", "data.csv");
  params.Set("base_dir", dir);
  auto table = LoadDataObject(params, std::nullopt, {});
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ((*table)->at(0, 0), Value(static_cast<int64_t>(5)));
}

TEST_F(ConnectorTest, FileSourceThatIsADirectoryIsAnIoError) {
  std::string dir =
      (std::filesystem::temp_directory_path() / "si_conn_dir_test").string();
  std::filesystem::create_directories(dir + "/sub");
  DataSourceParams params;
  params.Set("source", "sub");
  params.Set("base_dir", dir);
  auto table = LoadDataObject(params, std::nullopt, {});
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kIoError);
  std::filesystem::remove_all(dir);
}

TEST_F(ConnectorTest, FileSourceReadsPastAZeroReportedSize) {
  // A FIFO reports no size; its content must still be read in full.
  std::string dir =
      (std::filesystem::temp_directory_path() / "si_conn_fifo_test").string();
  std::filesystem::create_directories(dir);
  std::string fifo = dir + "/feed.csv";
  std::filesystem::remove(fifo);
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  std::thread writer([&] {
    std::ofstream out(fifo, std::ios::binary);
    out << "a\n8\n9\n";
  });
  auto text = ReadFileToString(fifo);
  writer.join();
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_EQ(*text, "a\n8\n9\n");
  std::filesystem::remove_all(dir);
}

TEST_F(ConnectorTest, HttpConnectorFromSimulatedStore) {
  SimulatedRemoteStore::Get().Publish("http://example.test/data.csv",
                                      "a\n7\n");
  DataSourceParams params;
  params.Set("source", "http://example.test/data.csv");
  auto table = LoadDataObject(params, std::nullopt, {});
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ((*table)->at(0, 0), Value(static_cast<int64_t>(7)));
}

TEST_F(ConnectorTest, HttpMissingUrlIsNotFound) {
  DataSourceParams params;
  params.Set("source", "http://example.test/absent.csv");
  auto table = LoadDataObject(params, std::nullopt, {});
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kNotFound);
}

TEST_F(ConnectorTest, DynamicResponder) {
  SimulatedRemoteStore::Get().SetResponder(
      [](const std::string& url, const DataSourceParams& params)
          -> Result<std::string> {
        EXPECT_EQ(params.Get("http_headers.X-Access-Key"), "XXX");
        return "a\n" + std::to_string(url.size()) + "\n";
      });
  DataSourceParams params;
  params.Set("source", "https://api.test/q");
  params.Set("protocol", "https");
  params.Set("http_headers.X-Access-Key", "XXX");
  auto table = LoadDataObject(params, std::nullopt, {});
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ((*table)->at(0, 0),
            Value(static_cast<int64_t>(std::string("https://api.test/q").size())));
}

TEST_F(ConnectorTest, JdbcConnectorKeyIncludesQuery) {
  SimulatedRemoteStore::Get().Publish(
      "jdbc:mysql://db/sales?query=SELECT 1", "a\n1\n");
  DataSourceParams params;
  params.Set("source", "jdbc:mysql://db/sales");
  params.Set("query", "SELECT 1");
  auto table = LoadDataObject(params, std::nullopt, {});
  ASSERT_TRUE(table.ok()) << table.status();
}

TEST_F(ConnectorTest, JsonFormatWithPathMappings) {
  DataSourceParams params;
  params.Set("data",
             R"({"created_at":"c1","text":"t1","user":{"location":"Pune"}}
{"created_at":"c2","text":"t2","user":{"location":null}})");
  params.Set("format", "json");
  std::vector<ColumnMapping> mappings = {
      {"postedTime", "created_at"},
      {"body", "text"},
      {"location", "user.location"},
  };
  auto table = LoadDataObject(params, std::nullopt, mappings);
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ((*table)->schema().names(),
            (std::vector<std::string>{"postedTime", "body", "location"}));
  EXPECT_EQ((*table)->at(0, 2), Value("Pune"));
  EXPECT_TRUE((*table)->at(1, 2).is_null());
}

TEST_F(ConnectorTest, JsonFormatRecordsPath) {
  DataSourceParams params;
  params.Set("data", R"({"items":[{"title":"q1"},{"title":"q2"}]})");
  params.Set("format", "json");
  params.Set("records_path", "items");
  std::vector<ColumnMapping> mappings = {{"question", "title"}};
  auto table = LoadDataObject(params, std::nullopt, mappings);
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ((*table)->num_rows(), 2u);
  EXPECT_EQ((*table)->at(1, 0), Value("q2"));
}

TEST_F(ConnectorTest, FormatInferredFromExtension) {
  SimulatedRemoteStore::Get().Publish("http://x.test/d.json",
                                      R"([{"a": 1}])");
  DataSourceParams params;
  params.Set("source", "http://x.test/d.json");
  auto table =
      LoadDataObject(params, Schema::FromNames({"a"}), {});
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ((*table)->num_rows(), 1u);
}

TEST_F(ConnectorTest, TsvFormat) {
  DataSourceParams params;
  params.Set("data", "a\tb\n1\t2\n");
  params.Set("format", "tsv");
  auto table = LoadDataObject(params, std::nullopt, {});
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ((*table)->num_columns(), 2u);
}

TEST_F(ConnectorTest, UnknownProtocolAndFormat) {
  DataSourceParams params;
  params.Set("source", "x");
  params.Set("protocol", "gopher");
  EXPECT_EQ(LoadDataObject(params, std::nullopt, {}).status().code(),
            StatusCode::kNotFound);
  DataSourceParams params2;
  params2.Set("data", "x");
  params2.Set("format", "parquet");
  EXPECT_EQ(LoadDataObject(params2, std::nullopt, {}).status().code(),
            StatusCode::kNotFound);
}

TEST_F(ConnectorTest, CustomConnectorRegistration) {
  class EchoConnector : public Connector {
   public:
    std::string protocol() const override { return "echo"; }
    Result<std::string> Fetch(const DataSourceParams& params) override {
      return "a\n" + params.Get("source") + "\n";
    }
  };
  ConnectorRegistry registry;  // fresh, defaults preloaded
  ASSERT_TRUE(registry.Register(std::make_shared<EchoConnector>()).ok());
  // Duplicate registration rejected.
  EXPECT_EQ(registry.Register(std::make_shared<EchoConnector>())
                .code(),
            StatusCode::kAlreadyExists);
  DataSourceParams params;
  params.Set("source", "hello");
  params.Set("protocol", "echo");
  auto table = LoadDataObject(params, std::nullopt, {}, &registry, nullptr);
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ((*table)->at(0, 0), Value("hello"));
}

// Satellite: registries reject duplicate names with kAlreadyExists and
// keep the original registration intact.
TEST_F(ConnectorTest, FormatRegistryRejectsDuplicateName) {
  class FakeCsv : public Format {
   public:
    std::string name() const override { return "csv"; }
    Result<TablePtr> Parse(const std::string&, const DataSourceParams&,
                           const std::optional<Schema>&,
                           const std::vector<ColumnMapping>&,
                           ParseReport*) override {
      return Status::Unimplemented("fake");
    }
  };
  FormatRegistry registry;  // fresh, csv/tsv/json preloaded
  Status dup = registry.Register(std::make_shared<FakeCsv>());
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
  EXPECT_NE(dup.message().find("csv"), std::string::npos);
  // The built-in csv still parses (the fake did not replace it).
  DataSourceParams params;
  params.Set("data", "a\n1\n");
  auto table = LoadDataObject(params, std::nullopt, {}, nullptr, &registry);
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ((*table)->at(0, 0), Value(static_cast<int64_t>(1)));
}

// Satellite: Clear() drops payloads, the dynamic responder, and flaky
// mode — a responder must be re-registered to survive.
TEST_F(ConnectorTest, ClearDropsResponderAndFlakyMode) {
  SimulatedRemoteStore& store = SimulatedRemoteStore::Get();
  store.Publish("http://x.test/a.csv", "a\n1\n");
  store.SetResponder([](const std::string&, const DataSourceParams&)
                         -> Result<std::string> {
    return std::string("a\n2\n");
  });
  SimulatedRemoteStore::FlakyMode flaky;
  flaky.fail_probability = 1.0;
  store.SetFlaky(flaky);
  DataSourceParams params;
  EXPECT_FALSE(store.Fetch("http://x.test/a.csv", params).ok());  // flaky

  store.Clear();
  // Payload gone, responder gone, flaky mode off: a miss is kNotFound,
  // not a flaky IoError and not the responder's payload.
  auto fetched = store.Fetch("http://x.test/a.csv", params);
  ASSERT_FALSE(fetched.ok());
  EXPECT_EQ(fetched.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.fetches(), 1);  // counters restart at Clear()
  EXPECT_EQ(store.failures(), 1);
}

// Satellite: SetResponder/Fetch race-free under a thread pool — the
// responder is swapped while worker threads fetch through it.
TEST_F(ConnectorTest, ResponderSwapIsRaceFreeUnderConcurrentFetches) {
  SimulatedRemoteStore& store = SimulatedRemoteStore::Get();
  store.SetResponder([](const std::string&, const DataSourceParams&)
                         -> Result<std::string> {
    return std::string("a\n1\n");
  });
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      DataSourceParams params;
      while (!stop.load()) {
        auto fetched = store.Fetch("http://swap.test/q", params);
        // Every fetch must see one of the two responders, never a
        // torn/missing one.
        if (!fetched.ok() || (*fetched != "a\n1\n" && *fetched != "a\n2\n")) {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    std::string body = (i % 2 == 0) ? "a\n2\n" : "a\n1\n";
    store.SetResponder([body](const std::string&, const DataSourceParams&)
                           -> Result<std::string> { return body; });
  }
  stop.store(true);
  for (auto& w : workers) w.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST_F(ConnectorTest, FlakyModeIsDeterministicPerSeed) {
  SimulatedRemoteStore& store = SimulatedRemoteStore::Get();
  DataSourceParams params;
  auto pattern = [&](uint64_t seed) {
    store.Clear();
    store.Publish("http://f.test/d.csv", "a\n1\n");
    SimulatedRemoteStore::FlakyMode flaky;
    flaky.fail_probability = 0.5;
    flaky.seed = seed;
    store.SetFlaky(flaky);
    std::vector<bool> fails;
    for (int i = 0; i < 32; ++i) {
      fails.push_back(!store.Fetch("http://f.test/d.csv", params).ok());
    }
    return fails;
  };
  EXPECT_EQ(pattern(11), pattern(11));
  EXPECT_NE(pattern(11), pattern(12));
}

TEST_F(ConnectorTest, RetryPolicyFromParamsReadsRetryKeys) {
  DataSourceParams params;
  params.Set("retry.max_attempts", "4");
  params.Set("retry.backoff_ms", "12.5");
  params.Set("retry.backoff_multiplier", "3");
  params.Set("retry.jitter_seed", "77");
  params.Set("timeout_ms", "2500");
  RetryPolicy policy = RetryPolicyFromParams(params);
  EXPECT_EQ(policy.max_attempts, 4);
  EXPECT_EQ(policy.backoff_ms, 12.5);
  EXPECT_EQ(policy.backoff_multiplier, 3);
  EXPECT_EQ(policy.jitter_seed, 77u);
  EXPECT_EQ(policy.deadline_ms, 2500);

  // Absent keys keep defaults; malformed values do not abort the load.
  DataSourceParams empty;
  EXPECT_EQ(RetryPolicyFromParams(empty).max_attempts, 1);
  DataSourceParams bad;
  bad.Set("retry.max_attempts", "lots");
  EXPECT_EQ(RetryPolicyFromParams(bad).max_attempts, 1);
}

TEST_F(ConnectorTest, LoadRetriesFlakyFetchAndReportsAttempts) {
  SimulatedRemoteStore::Get().Publish("http://r.test/d.csv", "a\n1\n");
  SimulatedRemoteStore::FlakyMode flaky;
  flaky.fail_first = 2;
  SimulatedRemoteStore::Get().SetFlaky(flaky);
  DataSourceParams params;
  params.Set("source", "http://r.test/d.csv");
  params.Set("retry.max_attempts", "4");
  LoadReport report;
  auto table = LoadDataObject(params, std::nullopt, {}, nullptr, nullptr,
                              nullptr, 0, &report);
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ(report.attempts, 3);
  EXPECT_EQ((*table)->at(0, 0), Value(static_cast<int64_t>(1)));
}

TEST_F(ConnectorTest, ExhaustedAttemptsReturnLastErrorWithContext) {
  SimulatedRemoteStore::Get().Publish("http://r.test/d.csv", "a\n1\n");
  SimulatedRemoteStore::FlakyMode flaky;
  flaky.fail_probability = 1.0;
  SimulatedRemoteStore::Get().SetFlaky(flaky);
  DataSourceParams params;
  params.Set("source", "http://r.test/d.csv");
  params.Set("retry.max_attempts", "3");
  auto table = LoadDataObject(params, std::nullopt, {});
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kIoError);
  EXPECT_NE(table.status().message().find("after 3 attempts"),
            std::string::npos);
}

TEST_F(ConnectorTest, PermanentErrorsDoNotRetry) {
  // kNotFound is permanent: one attempt only, even with retries allowed.
  DataSourceParams params;
  params.Set("source", "http://absent.test/d.csv");
  params.Set("retry.max_attempts", "5");
  LoadReport report;
  auto table = LoadDataObject(params, std::nullopt, {}, nullptr, nullptr,
                              nullptr, 0, &report);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(report.attempts, 1);
}

TEST_F(ConnectorTest, FaultSiteIoFetchFiresInsideLoad) {
  SimulatedRemoteStore::Get().Publish("http://ok.test/d.csv", "a\n1\n");
  FaultSpec spec;
  spec.max_fires = 1;
  FaultInjector::Get().Arm(kFaultIoFetch, spec);
  DataSourceParams params;
  params.Set("source", "http://ok.test/d.csv");
  params.Set("retry.max_attempts", "2");
  LoadReport report;
  auto table = LoadDataObject(params, std::nullopt, {}, nullptr, nullptr,
                              nullptr, 0, &report);
  ASSERT_TRUE(table.ok()) << table.status();  // retry absorbed the fault
  EXPECT_EQ(report.attempts, 2);
  EXPECT_EQ(FaultInjector::Get().fires(kFaultIoFetch), 1);
}

TEST_F(ConnectorTest, CircuitBreakerOpensAfterConsecutiveFailures) {
  CircuitBreaker breaker(CircuitBreakerOptions{3, 60000});
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(breaker.Allow());
    breaker.RecordFailure();
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.Allow());
  EXPECT_GT(breaker.RetryAfterSeconds(), 0.0);
  breaker.Reset();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.Allow());
}

TEST_F(ConnectorTest, CircuitBreakerHalfOpenProbeClosesOnSuccess) {
  CircuitBreaker breaker(CircuitBreakerOptions{1, 0});  // instant cooldown
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  // Cooldown of 0ms: the next Allow() becomes the half-open probe...
  EXPECT_TRUE(breaker.Allow());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  // ...and only one probe is in flight at a time.
  EXPECT_FALSE(breaker.Allow());
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.Allow());
}

TEST_F(ConnectorTest, OpenBreakerFailsLoadsFastWithUnavailable) {
  // Trip the shared http breaker (threshold 5) with a always-failing
  // remote, then verify the next load fails fast without a fetch.
  SimulatedRemoteStore& store = SimulatedRemoteStore::Get();
  store.Publish("http://trip.test/d.csv", "a\n1\n");
  SimulatedRemoteStore::FlakyMode flaky;
  flaky.fail_probability = 1.0;
  store.SetFlaky(flaky);
  DataSourceParams params;
  params.Set("source", "http://trip.test/d.csv");
  params.Set("retry.max_attempts", "6");
  ASSERT_FALSE(LoadDataObject(params, std::nullopt, {}).ok());

  int64_t fetches_before = store.fetches();
  auto blocked = LoadDataObject(params, std::nullopt, {});
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(blocked.status().message().find("circuit breaker"),
            std::string::npos);
  EXPECT_EQ(store.fetches(), fetches_before);  // fail-fast: no fetch made

  // After reset the (still flaky-free) remote works again.
  store.ClearFlaky();
  CircuitBreakerRegistry::Default().ResetAll();
  EXPECT_TRUE(LoadDataObject(params, std::nullopt, {}).ok());
}

TEST_F(ConnectorTest, ErrorPolicySkipDropsBadRowsSilently) {
  DataSourceParams params;
  params.Set("data", "a,b\n1,2\nragged\n3,4\n");
  params.Set("error_policy", "skip");
  LoadReport report;
  auto table = LoadDataObject(params, std::nullopt, {}, nullptr, nullptr,
                              nullptr, 0, &report);
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ((*table)->num_rows(), 2u);
  // skip counts nothing as quarantined and builds no side table.
  EXPECT_EQ(report.rows_quarantined, 0);
  EXPECT_EQ(report.quarantine, nullptr);
}

TEST_F(ConnectorTest, ErrorPolicyQuarantineReportsBadRows) {
  DataSourceParams params;
  params.Set("data", "a,b\n1,2\nragged\n3,4\n");
  params.Set("error_policy", "quarantine");
  LoadReport report;
  auto table = LoadDataObject(params, std::nullopt, {}, nullptr, nullptr,
                              nullptr, 0, &report);
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ((*table)->num_rows(), 2u);
  EXPECT_EQ(report.rows_quarantined, 1);
  ASSERT_NE(report.quarantine, nullptr);
  EXPECT_EQ(report.quarantine->at(0, 2), Value("ragged"));
}

TEST_F(ConnectorTest, ErrorPolicyRejectsUnknownValue) {
  DataSourceParams params;
  params.Set("data", "a\n1\n");
  params.Set("error_policy", "explode");
  auto table = LoadDataObject(params, std::nullopt, {});
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument);
}

// Readers type a batch from its own cells: whole numbers for a double
// column come back int64 and must widen to the base's double column, and
// a column without values takes the base type.
TEST_F(ConnectorTest, AppendBatchWidensIntegerCellsForADoubleColumn) {
  auto base = ReadCsvString("name,price\na,1.5\nb,2.25\n", CsvOptions{},
                            std::nullopt);
  ASSERT_TRUE(base.ok()) << base.status();
  ASSERT_EQ((*base)->schema().field(1).type, ValueType::kDouble);

  DataSourceParams params;
  params.Set("data", "name,price\nc,3\nd,\ne,4\n");
  auto batch = LoadAppendBatch(params, *base, {});
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_EQ((*batch)->schema(), (*base)->schema());
  EXPECT_EQ((*batch)->typed_column(1).encoding(), ColumnEncoding::kDouble);
  EXPECT_EQ((*batch)->at(0, 1), Value(3.0));
  EXPECT_TRUE((*batch)->at(1, 1).is_null());
  EXPECT_EQ((*batch)->at(2, 1), Value(4.0));

  params.Set("data", "name,price\nf,\n");
  auto empty_prices = LoadAppendBatch(params, *base, {});
  ASSERT_TRUE(empty_prices.ok()) << empty_prices.status();
  EXPECT_EQ((*empty_prices)->schema(), (*base)->schema());
  EXPECT_TRUE((*empty_prices)->at(0, 1).is_null());
}

TEST_F(ConnectorTest, AppendBatchWithIncompatibleColumnFailsByName) {
  auto base = ReadCsvString("name,price\na,1.5\n", CsvOptions{},
                            std::nullopt);
  ASSERT_TRUE(base.ok()) << base.status();
  DataSourceParams params;
  params.Set("data", "name,price\nc,cheap\n");
  auto batch = LoadAppendBatch(params, *base, {});
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kSchemaError);
  EXPECT_NE(batch.status().message().find("'price'"), std::string::npos)
      << batch.status();
}

TEST_F(ConnectorTest, DefaultRegistryListsPlatformProtocols) {
  auto protocols = ConnectorRegistry::Default().Protocols();
  for (const char* expected :
       {"file", "http", "https", "ftp", "jdbc", "inline"}) {
    EXPECT_NE(std::find(protocols.begin(), protocols.end(), expected),
              protocols.end())
        << expected;
  }
  auto formats = FormatRegistry::Default().Names();
  for (const char* expected : {"csv", "tsv", "json"}) {
    EXPECT_NE(std::find(formats.begin(), formats.end(), expected),
              formats.end())
        << expected;
  }
}

}  // namespace
}  // namespace shareinsights
