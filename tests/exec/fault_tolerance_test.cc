#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

#include "common/fault.h"
#include "compile/compiler.h"
#include "exec/executor.h"
#include "flow/flow_file.h"
#include "gov/memory_budget.h"
#include "io/circuit_breaker.h"
#include "obs/metrics.h"

namespace shareinsights {
namespace {

// The diamond pipeline from executor_test: one source, two independent
// groupbys, a fan-in join — enough structure for faults to land on
// different tasks across seeds.
constexpr const char* kDiamond = R"(
D:
  src: [key, value]
D.src:
  protocol: inline
  format: csv
  data: "key,value
a,1
a,2
b,5
"
F:
  D.sums: D.src | T.sum_by_key
  D.counts: D.src | T.count_by_key
  D.joined: (D.sums, D.counts) | T.join_both
D.joined:
  endpoint: true
T:
  sum_by_key:
    type: groupby
    groupby: [key]
    aggregates:
      - operator: sum
        apply_on: value
        out_field: total
  count_by_key:
    type: groupby
    groupby: [key]
    aggregates:
      - operator: count
        apply_on: value
        out_field: n
  join_both:
    type: join
    left: sums by key
    right: counts by key
    join_condition: inner
    project:
      sums_key: key
      sums_total: total
      counts_n: n
)";

ExecutionPlan Compile(const std::string& text) {
  auto file = ParseFlowFile(text, "fault_tolerance");
  EXPECT_TRUE(file.ok()) << file.status();
  auto plan = CompileFlowFile(*file);
  EXPECT_TRUE(plan.ok()) << plan.status();
  return *plan;
}

void ExpectTablesEqual(const TablePtr& a, const TablePtr& b) {
  ASSERT_EQ(a->num_rows(), b->num_rows());
  ASSERT_EQ(a->num_columns(), b->num_columns());
  for (size_t r = 0; r < a->num_rows(); ++r) {
    for (size_t c = 0; c < a->num_columns(); ++c) {
      EXPECT_EQ(a->at(r, c), b->at(r, c)) << "row " << r << " col " << c;
    }
  }
}

class FaultToleranceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FaultInjector::Get().Reset();
    SimulatedRemoteStore::Get().Clear();
    CircuitBreakerRegistry::Default().ResetAll();
  }
};

// Satellite 3: the morsel-parallel executor with injected exec.node
// faults at several seeds produces byte-identical results to a
// fault-free run once flow retries absorb the failures.
TEST_F(FaultToleranceTest, RetriedRunsAreByteIdenticalToFaultFree) {
  ExecutionPlan plan = Compile(kDiamond);

  DataStore clean;
  ExecuteOptions clean_opts;
  clean_opts.num_threads = 4;
  ASSERT_TRUE(Executor(clean_opts).Execute(plan, &clean).ok());

  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    FaultSpec spec;
    spec.probability = 0.5;
    spec.max_fires = 3;  // bounded, so retries are guaranteed to win
    spec.seed = seed;
    FaultInjector::Get().Arm(kFaultExecNode, spec);

    DataStore faulted;
    ExecuteOptions opts;
    opts.num_threads = 4;
    opts.flow_retry_attempts = 5;
    auto stats = Executor(opts).Execute(plan, &faulted);
    ASSERT_TRUE(stats.ok()) << "seed " << seed << ": " << stats.status();
    EXPECT_EQ(stats->flow_retries,
              static_cast<int>(FaultInjector::Get().fires(kFaultExecNode)))
        << "seed " << seed;

    for (const std::string& name : clean.Names()) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " table " + name);
      ASSERT_TRUE(faulted.Has(name));
      ExpectTablesEqual(*clean.Get(name), *faulted.Get(name));
    }
    FaultInjector::Get().Reset();
  }
}

TEST_F(FaultToleranceTest, ExhaustedFlowRetriesFailTheRun) {
  ExecutionPlan plan = Compile(kDiamond);
  FaultSpec spec;  // fires every pass, forever
  FaultInjector::Get().Arm(kFaultExecNode, spec);
  DataStore store;
  ExecuteOptions opts;
  opts.flow_retry_attempts = 2;
  auto stats = Executor(opts).Execute(plan, &store);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kIoError);
  EXPECT_NE(stats.status().message().find("exec.node"), std::string::npos);
}

// Source loads retry under the object's retry.* params; the extra
// attempts surface in ExecutionStats and io_retries_total.
TEST_F(FaultToleranceTest, SourceLoadRetriesFlakyRemote) {
  SimulatedRemoteStore::Get().Publish("http://flaky.test/data.csv",
                                      "key,value\na,1\n");
  SimulatedRemoteStore::FlakyMode flaky;
  flaky.fail_first = 2;
  SimulatedRemoteStore::Get().SetFlaky(flaky);

  ExecutionPlan plan = Compile(R"(
D:
  src: [key, value]
D.src:
  protocol: http
  source: http://flaky.test/data.csv
  retry:
    max_attempts: 4
    backoff_ms: 1
    jitter_seed: 9
F:
  D.out: D.src | T.keep
T:
  keep:
    type: distinct
)");
  Counter* retries =
      MetricsRegistry::Default().GetCounter("io_retries_total");
  int64_t before = retries->Value();
  DataStore store;
  auto stats = Executor().Execute(plan, &store);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->io_retries, 2);  // two flaky failures, third try lands
  EXPECT_EQ(retries->Value() - before, 2);
  EXPECT_EQ((*store.Get("out"))->num_rows(), 1u);
}

// A downed source marked optional degrades to an empty-but-typed table
// instead of failing the run.
TEST_F(FaultToleranceTest, OptionalSourceDegradesToEmptyTable) {
  ExecutionPlan plan = Compile(R"(
D:
  src: [key, value]
D.src:
  protocol: http
  source: http://down.test/missing.csv
  optional: true
F:
  D.out: D.src | T.keep
T:
  keep:
    type: distinct
)");
  Counter* degraded =
      MetricsRegistry::Default().GetCounter("sources_degraded_total");
  int64_t before = degraded->Value();
  DataStore store;
  auto stats = Executor().Execute(plan, &store);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->sources_degraded, 1);
  EXPECT_EQ(degraded->Value() - before, 1);
  auto src = store.Get("src");
  ASSERT_TRUE(src.ok());
  EXPECT_EQ((*src)->num_rows(), 0u);
  EXPECT_EQ((*src)->schema().names(),
            (std::vector<std::string>{"key", "value"}));
  // Downstream flows still ran (on the empty table).
  ASSERT_TRUE(store.Has("out"));
  EXPECT_EQ((*store.Get("out"))->num_rows(), 0u);
}

TEST_F(FaultToleranceTest, NonOptionalDownedSourceStillFails) {
  ExecutionPlan plan = Compile(R"(
D:
  src: [key, value]
D.src:
  protocol: http
  source: http://down.test/missing.csv
F:
  D.out: D.src | T.keep
T:
  keep:
    type: distinct
)");
  DataStore store;
  auto stats = Executor().Execute(plan, &store);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kNotFound);
}

TEST_F(FaultToleranceTest, DegradationCanBeDisabled) {
  ExecutionPlan plan = Compile(R"(
D:
  src: [key, value]
D.src:
  protocol: http
  source: http://down.test/missing.csv
  optional: true
F:
  D.out: D.src | T.keep
T:
  keep:
    type: distinct
)");
  DataStore store;
  ExecuteOptions opts;
  opts.degrade_optional_sources = false;
  auto stats = Executor(opts).Execute(plan, &store);
  ASSERT_FALSE(stats.ok());
}

// error_policy: quarantine diverts bad rows into <name>__quarantine and
// accounts them in stats and rows_quarantined_total.
TEST_F(FaultToleranceTest, QuarantinePolicyMaterializesSideTable) {
  ExecutionPlan plan = Compile(R"(
D:
  src: [key, value]
D.src:
  protocol: inline
  format: csv
  error_policy: quarantine
  data: "key,value
a,1
ragged
b,2,extra
c,3
"
F:
  D.out: D.src | T.keep
T:
  keep:
    type: distinct
)");
  Counter* quarantined =
      MetricsRegistry::Default().GetCounter("rows_quarantined_total");
  int64_t before = quarantined->Value();
  DataStore store;
  auto stats = Executor().Execute(plan, &store);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->rows_quarantined, 2);
  EXPECT_EQ(quarantined->Value() - before, 2);
  EXPECT_EQ((*store.Get("src"))->num_rows(), 2u);  // a,1 and c,3

  auto side = store.Get(std::string("src") + kQuarantineSuffix);
  ASSERT_TRUE(side.ok());
  EXPECT_EQ((*side)->num_rows(), 2u);
  EXPECT_EQ((*side)->schema().names(),
            (std::vector<std::string>{"row", "reason", "raw"}));
  EXPECT_EQ((*side)->at(0, 2), Value("ragged"));
  EXPECT_EQ((*side)->at(1, 2), Value("b,2,extra"));
}

// The side table belongs to the payload that produced it: once the
// source is fixed, a clean reload erases the previous run's
// <name>__quarantine instead of leaving it beside the new table.
TEST_F(FaultToleranceTest, CleanReloadErasesStaleQuarantineTable) {
  ExecutionPlan plan = Compile(R"(
D:
  src: [key, value]
D.src:
  source: http://quarantine.test/src.csv
  format: csv
  error_policy: quarantine
F:
  D.out: D.src | T.keep
T:
  keep:
    type: distinct
)");
  const std::string url = "http://quarantine.test/src.csv";
  const std::string side = std::string("src") + kQuarantineSuffix;
  SimulatedRemoteStore::Get().Publish(url, "key,value\na,1\nragged\nc,3\n");
  DataStore store;
  auto bad = Executor().Execute(plan, &store);
  ASSERT_TRUE(bad.ok()) << bad.status();
  EXPECT_EQ(bad->rows_quarantined, 1);
  ASSERT_TRUE(store.Has(side));

  SimulatedRemoteStore::Get().Publish(url, "key,value\na,1\nb,2\nc,3\n");
  auto fixed = Executor().Execute(plan, &store);
  ASSERT_TRUE(fixed.ok()) << fixed.status();
  EXPECT_EQ(fixed->rows_quarantined, 0);
  EXPECT_FALSE(store.Has(side));
  EXPECT_EQ((*store.Get("src"))->num_rows(), 3u);
}

// ------------------------------------------------------------------
// io.spill injection (ISSUE 8 satellite): spilling runs disturbed by
// transient spill-file faults still produce outputs identical to the
// undisturbed, unbudgeted engine; a full disk degrades to a clean
// kUnavailable naming the operator; scratch dirs never leak.
// ------------------------------------------------------------------

// Wider diamond so the budgeted run genuinely spills: 600 rows through
// two group-bys and a join.
std::string WideDiamond() {
  std::string csv = "key,value\n";
  for (int i = 0; i < 600; ++i) {
    csv += "k" + std::to_string(i % 24) + "," + std::to_string(i % 50) + "\n";
  }
  return std::string("D:\n") +
         "  src: [key, value]\n"
         "D.src:\n"
         "  protocol: inline\n"
         "  format: csv\n"
         "  data: \"" + csv + "\"\n"
         "F:\n"
         "  D.sums: D.src | T.sum_by_key\n"
         "  D.counts: D.src | T.count_by_key\n"
         "  D.joined: (D.sums, D.counts) | T.join_both\n"
         "D.joined:\n"
         "  endpoint: true\n"
         "T:\n"
         "  sum_by_key:\n"
         "    type: groupby\n"
         "    groupby: [key]\n"
         "    aggregates:\n"
         "      - operator: sum\n"
         "        apply_on: value\n"
         "        out_field: total\n"
         "  count_by_key:\n"
         "    type: groupby\n"
         "    groupby: [key]\n"
         "    aggregates:\n"
         "      - operator: count\n"
         "        apply_on: value\n"
         "        out_field: n\n"
         "  join_both:\n"
         "    type: join\n"
         "    left: sums by key\n"
         "    right: counts by key\n"
         "    join_condition: inner\n"
         "    project:\n"
         "      sums_key: key\n"
         "      sums_total: total\n"
         "      counts_n: n\n";
}

// A test-private spill base dir, so scratch-hygiene assertions cannot
// race with other spill tests sharing the system temp dir under a
// parallel ctest run.
class PrivateSpillDir {
 public:
  explicit PrivateSpillDir(const std::string& tag) {
    path_ = (std::filesystem::temp_directory_path() /
             ("si-fault-test." + tag + "." +
              std::to_string(::getpid())))
                .string();
    std::filesystem::create_directories(path_);
  }
  ~PrivateSpillDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }
  bool empty() const { return std::filesystem::is_empty(path_); }

 private:
  std::string path_;
};

// Transient io.spill faults across several seeds and thread counts: the
// per-attempt retry inside WriteSpillBlock/ReadSpillBlock absorbs them
// and the spilled outputs stay identical to the clean unbudgeted run.
TEST_F(FaultToleranceTest, SpillFaultsAcrossSeedsStayByteIdentical) {
  ExecutionPlan plan = Compile(WideDiamond());

  DataStore clean;
  ExecuteOptions clean_opts;
  clean_opts.num_threads = 1;
  ASSERT_TRUE(Executor(clean_opts).Execute(plan, &clean).ok());
  PrivateSpillDir spill_dir("faults");

  for (uint64_t seed : {1u, 2u, 3u}) {
    for (size_t threads : {1u, 4u, 8u}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " threads " +
                   std::to_string(threads));
      FaultSpec spec;
      spec.probability = 0.3;
      spec.max_fires = 2;  // within one retry schedule, so runs always win
      spec.status = Status::IoError("injected spill fault");
      spec.seed = seed;
      FaultInjector::Get().Arm(kFaultIoSpill, spec);

      DataStore faulted;
      ExecuteOptions opts;
      opts.num_threads = threads;
      opts.morsel_rows = 64;
      opts.mem_budget_bytes = 512;  // far under the working set: spill on
      opts.spill_dir = spill_dir.path();
      auto stats = Executor(opts).Execute(plan, &faulted);
      FaultInjector::Get().Reset();
      ASSERT_TRUE(stats.ok()) << stats.status();
      EXPECT_GT(stats->spills, 0);

      for (const std::string& name : clean.Names()) {
        SCOPED_TRACE("table " + name);
        ASSERT_TRUE(faulted.Has(name));
        ExpectTablesEqual(*clean.Get(name), *faulted.Get(name));
      }
      EXPECT_EQ(MemoryBudget::Process().reserved(), 0u);
      EXPECT_TRUE(spill_dir.empty());
    }
  }
}

// A full disk (non-retryable kResourceExhausted at the io.spill site)
// degrades the run to a clean kUnavailable naming the operator — no
// retry storm, no stray scratch files, ledger unwound.
TEST_F(FaultToleranceTest, SpillDiskFullDegradesToUnavailable) {
  ExecutionPlan plan = Compile(WideDiamond());
  PrivateSpillDir spill_dir("enospc");

  FaultSpec spec;
  spec.probability = 1.0;
  spec.status = Status::ResourceExhausted("injected ENOSPC");
  FaultInjector::Get().Arm(kFaultIoSpill, spec);

  DataStore store;
  ExecuteOptions opts;
  opts.mem_budget_bytes = 512;
  opts.spill_dir = spill_dir.path();
  opts.flow_retry_attempts = 3;  // must NOT be consumed: kUnavailable
  auto stats = Executor(opts).Execute(plan, &store);
  FaultInjector::Get().Reset();

  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(stats.status().message().find("spill for operator"),
            std::string::npos)
      << stats.status();
  EXPECT_TRUE(spill_dir.empty());
  EXPECT_EQ(MemoryBudget::Process().reserved(), 0u);
}

TEST_F(FaultToleranceTest, StatsToStringReportsRobustnessCounters) {
  ExecutionStats stats;
  stats.io_retries = 2;
  stats.flow_retries = 1;
  stats.sources_degraded = 1;
  stats.rows_quarantined = 4;
  stats.spills = 2;
  stats.spill_bytes_written = 1024;
  stats.spill_bytes_read = 1024;
  std::string text = stats.ToString();
  EXPECT_NE(text.find("io_retries"), std::string::npos);
  EXPECT_NE(text.find("flow_retries"), std::string::npos);
  EXPECT_NE(text.find("degraded"), std::string::npos);
  EXPECT_NE(text.find("quarantined"), std::string::npos);
  EXPECT_NE(text.find("spills=2"), std::string::npos);
}

}  // namespace
}  // namespace shareinsights
