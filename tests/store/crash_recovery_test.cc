// Crash-point matrix for the durable object store. Each scenario
// re-execs this binary in child mode with SI_CRASH_POINT armed; the
// child builds a durable ApiServer, runs a dashboard, and appends rows
// in a loop — acknowledging each 202 to a progress file — until the
// armed crash point _exits the process mid-write (kill -9 semantics:
// nothing buffered in user space survives). The parent then recovers a
// fresh server over the same directory and asserts:
//
//   - every acknowledged append survived, and at most one
//     unacknowledged cycle was preserved (n_acked <= n_recovered <=
//     n_acked + 1 — the committed-prefix contract);
//   - recovered object rows are byte-identical to a never-crashed
//     oracle server that performed exactly n_recovered appends;
//   - ETags / If-None-Match / If-Match and /changes?since= cursors
//     issued before the crash behave correctly after recovery.
//
// Points cover a torn WAL frame (wal.mid_record), the window between a
// flushed frame and its fsync (wal.before_fsync), and the snapshot
// rename/truncate windows, across dashboards running 1, 4, and 8
// threads.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "io/connector.h"
#include "io/json.h"
#include "io/spill_file.h"
#include "server/api_server.h"
#include "share/shared_registry.h"

namespace shareinsights {
namespace {

constexpr const char* kFlow = R"(
D:
  items: [category, name, price]
D.items:
  protocol: inline
  format: csv
  data: "category,name,price
fruit,apple,3
fruit,pear,4
tool,hammer,12
"
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

constexpr size_t kInitialRows = 3;
constexpr int kMaxAppends = 8;

std::string AppendBody(int i) {
  return R"({"rows": [{"category": "cat-)" + std::to_string(i % 3) +
         R"(", "name": "n-)" + std::to_string(i) + R"(", "price": )" +
         std::to_string(i + 1) + "}]}";
}

ApiServer::Options DurableOptions(const std::string& dir,
                                  size_t snapshot_wal_bytes) {
  ApiServer::Options options;
  options.durability.dir = dir;
  options.durability.fsync_policy = DurabilityOptions::FsyncPolicy::kAlways;
  options.durability.snapshot_wal_bytes = snapshot_wal_bytes;
  return options;
}

uint64_t ObjectVersion(ApiServer* server, const std::string& object) {
  HttpResponse response =
      server->Get("/api/v1/dashboards/shop/objects/" + object);
  if (response.status != 200) return 0;
  Result<JsonValue> body = ParseJson(response.body);
  if (!body.ok() || body->Find("version") == nullptr) return 0;
  return static_cast<uint64_t>(body->Find("version")->number_value());
}

// The object's row payload as canonical JSON (versions excluded — they
// are process-local counters and differ between processes by design).
std::string RowsJson(ApiServer* server, const std::string& object) {
  HttpResponse response =
      server->Get("/api/v1/dashboards/shop/objects/" + object);
  if (response.status != 200) return "HTTP " + std::to_string(response.status);
  Result<JsonValue> body = ParseJson(response.body);
  if (!body.ok() || body->Find("rows") == nullptr) return "unparseable";
  return body->Find("rows")->Serialize();
}

int64_t EnvInt(const char* name, int64_t fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atoll(value) : fallback;
}

void AckLine(const std::string& path, const std::string& line) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) std::_Exit(20);
  std::fputs((line + "\n").c_str(), f);
  std::fclose(f);
}

}  // namespace

// Child mode: run appends under an armed crash point until the process
// _exits at the point. A normal return means the point never fired —
// the parent treats that as a scenario failure.
int RunCrashChild() {
  const char* dir = std::getenv("SI_CRASH_TEST_DIR");
  const char* ack = std::getenv("SI_CRASH_TEST_ACK");
  if (dir == nullptr || ack == nullptr) return 21;
  size_t snapshot_bytes = static_cast<size_t>(
      EnvInt("SI_CRASH_TEST_SNAPBYTES", 64 * 1024 * 1024));
  int threads = static_cast<int>(EnvInt("SI_CRASH_TEST_THREADS", 1));

  SharedDataRegistry registry;
  ApiServer server(&registry, DurableOptions(dir, snapshot_bytes));
  Dashboard::Options dash_options;
  dash_options.num_threads = static_cast<size_t>(threads);
  if (!server.CreateDashboard("shop", kFlow, dash_options).ok()) return 22;
  if (server.Post("/api/v1/dashboards/shop/run", "").status != 200) return 23;
  AckLine(ack, "run " + std::to_string(ObjectVersion(&server, "items")));

  for (int i = 0; i < kMaxAppends; ++i) {
    HttpResponse response = server.Post(
        "/api/v1/dashboards/shop/objects/items:append", AppendBody(i));
    if (response.status != 202) return 24;
    Result<JsonValue> body = ParseJson(response.body);
    if (!body.ok() || body->Find("version") == nullptr) return 25;
    AckLine(ack, "append " + std::to_string(i) + " " +
                     std::to_string(static_cast<uint64_t>(
                         body->Find("version")->number_value())));
  }
  return 0;
}

namespace {

struct Scenario {
  const char* point;
  int skip;
  size_t snapshot_wal_bytes;
  int threads;
};

struct AckLog {
  uint64_t run_version = 0;
  int n_acked = 0;
  uint64_t last_acked_version = 0;
};

AckLog ReadAckLog(const std::string& path) {
  AckLog log;
  std::ifstream in(path);
  std::string kind;
  while (in >> kind) {
    if (kind == "run") {
      in >> log.run_version;
    } else if (kind == "append") {
      int index;
      in >> index >> log.last_acked_version;
      ++log.n_acked;
    }
  }
  return log;
}

void RunScenario(const Scenario& scenario) {
  SCOPED_TRACE(std::string(scenario.point) + " skip=" +
               std::to_string(scenario.skip) + " threads=" +
               std::to_string(scenario.threads));
  auto scratch = TempDirGuard::Create("", "si-crash-test");
  ASSERT_TRUE(scratch.ok()) << scratch.status();
  const std::string store_dir = scratch->path() + "/store";
  const std::string ack_path = scratch->path() + "/acks.txt";

  // Spawn the child: fork + immediate exec of this binary in child
  // mode (exec-after-fork is safe from a threaded parent).
  pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    setenv("SI_CRASH_POINT", scenario.point, 1);
    setenv("SI_CRASH_SKIP", std::to_string(scenario.skip).c_str(), 1);
    setenv("SI_CRASH_TEST_DIR", store_dir.c_str(), 1);
    setenv("SI_CRASH_TEST_ACK", ack_path.c_str(), 1);
    setenv("SI_CRASH_TEST_SNAPBYTES",
           std::to_string(scenario.snapshot_wal_bytes).c_str(), 1);
    setenv("SI_CRASH_TEST_THREADS",
           std::to_string(scenario.threads).c_str(), 1);
    execl("/proc/self/exe", "crash_recovery_test", "--crash-child",
          static_cast<char*>(nullptr));
    std::_Exit(26);  // exec failed
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  // 137 = the crash point fired; anything else means the child finished
  // or failed before reaching it.
  ASSERT_EQ(WEXITSTATUS(wstatus), 137)
      << "child exited " << WEXITSTATUS(wstatus)
      << " without hitting the crash point";

  AckLog acks = ReadAckLog(ack_path);
  ASSERT_GT(acks.run_version, 0u) << "child crashed before the run finished";

  // Recover over the crashed directory.
  SharedDataRegistry registry;
  ApiServer recovered(&registry,
                      DurableOptions(store_dir, 64 * 1024 * 1024));
  HttpResponse health = recovered.Get("/api/v1/health");
  ASSERT_EQ(health.status, 200);
  Result<JsonValue> health_body = ParseJson(health.body);
  ASSERT_TRUE(health_body.ok());
  ASSERT_NE(health_body->Find("status"), nullptr) << health.body;
  EXPECT_EQ(health_body->Find("status")->string_value(), "ok")
      << health.body;

  HttpResponse items =
      recovered.Get("/api/v1/dashboards/shop/objects/items");
  ASSERT_EQ(items.status, 200) << items.body;
  Result<JsonValue> items_body = ParseJson(items.body);
  ASSERT_TRUE(items_body.ok());
  ASSERT_NE(items_body->Find("rows"), nullptr) << items.body;
  size_t recovered_rows = items_body->Find("rows")->array_items().size();
  ASSERT_GE(recovered_rows, kInitialRows);
  int n_recovered = static_cast<int>(recovered_rows - kInitialRows);

  // The committed-prefix contract: every acked append survived; at most
  // one unacked (committed-but-unacknowledged) cycle may also have.
  EXPECT_GE(n_recovered, acks.n_acked);
  EXPECT_LE(n_recovered, acks.n_acked + 1);

  // Never-crashed oracle with exactly n_recovered appends; rows must be
  // byte-identical (versions are process-local and excluded).
  SharedDataRegistry oracle_registry;
  ApiServer oracle(&oracle_registry);
  Dashboard::Options oracle_options;
  oracle_options.num_threads = static_cast<size_t>(scenario.threads);
  ASSERT_TRUE(oracle.CreateDashboard("shop", kFlow, oracle_options).ok());
  ASSERT_TRUE(oracle.Post("/api/v1/dashboards/shop/run", "").ok());
  for (int i = 0; i < n_recovered; ++i) {
    ASSERT_EQ(oracle
                  .Post("/api/v1/dashboards/shop/objects/items:append",
                        AppendBody(i))
                  .status,
              202);
  }
  EXPECT_EQ(RowsJson(&recovered, "items"), RowsJson(&oracle, "items"));
  EXPECT_EQ(RowsJson(&recovered, "by_category"),
            RowsJson(&oracle, "by_category"));

  // ETag semantics across the restart. When nothing unacked survived,
  // the recovered version IS the last version the client saw.
  uint64_t version = ObjectVersion(&recovered, "items");
  ASSERT_GT(version, 0u);
  if (n_recovered == acks.n_acked && acks.n_acked > 0) {
    EXPECT_EQ(version, acks.last_acked_version);
  }
  const std::string etag = "\"" + std::to_string(version) + "\"";
  HttpRequest conditional =
      HttpRequest::Get("/api/v1/dashboards/shop/objects/items");
  conditional.headers["If-None-Match"] = etag;
  EXPECT_EQ(recovered.Handle(conditional).status, 304);

  // An If-Match append against the recovered ETag succeeds — the
  // optimistic-concurrency chain is unbroken.
  HttpRequest append = HttpRequest::Post(
      "/api/v1/dashboards/shop/objects/items:append", AppendBody(99));
  append.headers["If-Match"] = etag;
  EXPECT_EQ(recovered.Handle(append).status, 202);

  // A pre-crash /changes cursor still answers correctly: either the
  // retained changelog reaches back to it (contiguous deltas), or the
  // subscriber is told to refetch — never a wrong patch. With the WAL
  // intact (no snapshot between run and crash) it must be contiguous.
  HttpResponse changes = recovered.Get(
      "/api/v1/dashboards/shop/objects/items/changes?since=" +
      std::to_string(acks.run_version) + "&timeout_ms=0");
  ASSERT_EQ(changes.status, 200) << changes.body;
  Result<JsonValue> changes_body = ParseJson(changes.body);
  ASSERT_TRUE(changes_body.ok());
  ASSERT_NE(changes_body->Find("contiguous"), nullptr);
  bool contiguous = changes_body->Find("contiguous")->bool_value();
  if (scenario.snapshot_wal_bytes > 1024) {
    EXPECT_TRUE(contiguous) << changes.body;
    // n_recovered appends + the If-Match append just made.
    EXPECT_EQ(changes_body->Find("events")->array_items().size(),
              static_cast<size_t>(n_recovered) + 1)
        << changes.body;
  }
  if (contiguous && acks.n_acked > 0 && n_recovered == acks.n_acked) {
    // A cursor parked at the last acked version sees exactly the
    // appends made after it (here: the post-recovery one).
    HttpResponse tail_changes = recovered.Get(
        "/api/v1/dashboards/shop/objects/items/changes?since=" +
        std::to_string(acks.last_acked_version) + "&timeout_ms=0");
    ASSERT_EQ(tail_changes.status, 200);
    Result<JsonValue> tail_body = ParseJson(tail_changes.body);
    ASSERT_TRUE(tail_body.ok());
    EXPECT_TRUE(tail_body->Find("contiguous")->bool_value())
        << tail_changes.body;
    EXPECT_EQ(tail_body->Find("events")->array_items().size(), 1u)
        << tail_changes.body;
  }
}

constexpr size_t kHugeWal = 64 * 1024 * 1024;  // never snapshot mid-append
constexpr size_t kTinyWal = 1;                 // snapshot on every append

TEST(CrashRecoveryTest, TornWalRecordSingleThread) {
  RunScenario({"wal.mid_record", /*skip=*/7, kHugeWal, /*threads=*/1});
}

TEST(CrashRecoveryTest, TornWalRecordFourThreads) {
  RunScenario({"wal.mid_record", /*skip=*/7, kHugeWal, /*threads=*/4});
}

TEST(CrashRecoveryTest, TornWalRecordEightThreads) {
  RunScenario({"wal.mid_record", /*skip=*/7, kHugeWal, /*threads=*/8});
}

TEST(CrashRecoveryTest, BeforeFsyncSingleThread) {
  RunScenario({"wal.before_fsync", /*skip=*/7, kHugeWal, /*threads=*/1});
}

TEST(CrashRecoveryTest, BeforeFsyncFourThreads) {
  RunScenario({"wal.before_fsync", /*skip=*/7, kHugeWal, /*threads=*/4});
}

TEST(CrashRecoveryTest, BeforeFsyncEightThreads) {
  RunScenario({"wal.before_fsync", /*skip=*/7, kHugeWal, /*threads=*/8});
}

TEST(CrashRecoveryTest, SnapshotBeforeRenameSingleThread) {
  // Skip past the run's own per-object snapshot renames so the crash
  // lands in an append-triggered snapshot.
  RunScenario({"snapshot.before_rename", /*skip=*/4, kTinyWal,
               /*threads=*/1});
}

TEST(CrashRecoveryTest, SnapshotBeforeRenameFourThreads) {
  RunScenario({"snapshot.before_rename", /*skip=*/4, kTinyWal,
               /*threads=*/4});
}

TEST(CrashRecoveryTest, SnapshotBeforeTruncate) {
  RunScenario({"snapshot.before_truncate", /*skip=*/2, kTinyWal,
               /*threads=*/1});
}

TEST(CrashRecoveryTest, FirstAppendTornRecord) {
  // Crash inside the very first WAL frame: recovery must land exactly
  // on the run's snapshot state.
  RunScenario({"wal.mid_record", /*skip=*/0, kHugeWal, /*threads=*/1});
}

// A durable re-run over unchanged sources keeps every table (same
// versions), so it must not rewrite snapshot files that already hold
// them; a run over changed bytes still snapshots, and recovery remembers
// what its snapshot files hold.
TEST(DurableRerunTest, UnchangedRunsRewriteNoSnapshots) {
  constexpr const char* kUrl = "http://durable.test/items.csv";
  SimulatedRemoteStore::Get().Publish(
      kUrl, "category,name,price\nfruit,apple,3\ntool,hammer,12\n");
  const std::string flow = std::string(R"(
D:
  items: [category, name, price]
D.items:
  source: )") + kUrl + R"(
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
  auto scratch = TempDirGuard::Create("", "si-rerun-test");
  ASSERT_TRUE(scratch.ok()) << scratch.status();
  const std::string store_dir = scratch->path() + "/store";

  auto run = [](ApiServer* server, const std::string& expect_cache) {
    HttpResponse response = server->Post("/api/v1/dashboards/shop/run", "");
    EXPECT_EQ(response.status, 200) << response.body;
    Result<JsonValue> body = ParseJson(response.body);
    if (!body.ok() || body->Find("storage") == nullptr) {
      ADD_FAILURE() << response.body;
      return -1.0;
    }
    EXPECT_EQ(body->Find("cache")->string_value(), expect_cache);
    return body->Find("storage")->Find("snapshots_written")->number_value();
  };
  {
    SharedDataRegistry registry;
    ApiServer server(&registry, DurableOptions(store_dir, kHugeWal));
    ASSERT_TRUE(
        server.CreateDashboard("shop", flow, Dashboard::Options()).ok());
    const double first = run(&server, "miss");
    EXPECT_EQ(first, 2);  // items + by_category
    for (int i = 0; i < 3; ++i) EXPECT_EQ(run(&server, "hit"), first);

    SimulatedRemoteStore::Get().Publish(
        kUrl, "category,name,price\nfruit,apple,5\ntool,hammer,12\n");
    EXPECT_EQ(run(&server, "miss"), first + 2);
  }

  // Recovery reads both snapshots back and rewrites neither.
  SharedDataRegistry registry;
  ApiServer recovered(&registry, DurableOptions(store_dir, kHugeWal));
  HttpResponse health = recovered.Get("/api/v1/health");
  ASSERT_EQ(health.status, 200);
  Result<JsonValue> health_body = ParseJson(health.body);
  ASSERT_TRUE(health_body.ok());
  EXPECT_EQ(health_body->Find("storage")->Find("snapshots_written")
                ->number_value(),
            0)
      << health.body;
  EXPECT_NE(RowsJson(&recovered, "items").find("5"), std::string::npos);
}

}  // namespace
}  // namespace shareinsights

// Custom main so the binary can re-exec itself as the crash child (the
// child must not run under the gtest harness — it _exits mid-write).
int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--crash-child") {
    return shareinsights::RunCrashChild();
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
