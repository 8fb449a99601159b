// Tests for the shared data registry and the DVCS-style flow-file
// repository (commits, forks, section-aware three-way merge).

#include <gtest/gtest.h>

#include "dashboard/dashboard.h"
#include "flow/flow_file.h"
#include "share/repository.h"
#include "share/shared_registry.h"

namespace shareinsights {
namespace {

TablePtr OneRow() {
  TableBuilder builder(Schema::FromNames({"a"}));
  (void)builder.AppendRow({Value("v")});
  return *builder.Finish();
}

// ---------------------------------------------------------------------
// SharedDataRegistry
// ---------------------------------------------------------------------

TEST(SharedRegistryTest, PublishLookupUnpublish) {
  SharedDataRegistry registry;
  EXPECT_FALSE(registry.Contains("x"));
  EXPECT_FALSE(registry.SharedSchema("x").has_value());
  ASSERT_TRUE(registry.Publish("x", OneRow(), "dash1").ok());
  EXPECT_TRUE(registry.Contains("x"));
  EXPECT_EQ(registry.SharedSchema("x")->names(),
            (std::vector<std::string>{"a"}));
  auto table = registry.SharedTable("x");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_rows(), 1u);
  auto list = registry.List();
  ASSERT_EQ(list.size(), 1u);
  EXPECT_EQ(list[0].publisher, "dash1");
  ASSERT_TRUE(registry.Unpublish("x").ok());
  EXPECT_EQ(registry.Unpublish("x").code(), StatusCode::kNotFound);
}

TEST(SharedRegistryTest, RepublishReplaces) {
  SharedDataRegistry registry;
  ASSERT_TRUE(registry.Publish("x", OneRow(), "d1").ok());
  TableBuilder builder(Schema::FromNames({"a", "b"}));
  (void)builder.AppendRow({Value("1"), Value("2")});
  ASSERT_TRUE(registry.Publish("x", *builder.Finish(), "d2").ok());
  EXPECT_EQ(registry.SharedSchema("x")->num_fields(), 2u);
}

// A run whose sources were unchanged keeps its output tables, and
// publishing them again must not look like a change to subscribers.
TEST(SharedRegistryTest, RepublishingTheCurrentVersionIsANoOp) {
  SharedDataRegistry registry;
  TablePtr table = OneRow();
  ASSERT_TRUE(registry.Publish("x", table, "d1").ok());
  int events = 0;
  int id = registry.Subscribe(
      [&events](const std::string&, const SharedDataRegistry::ChangeEvent&) {
        ++events;
      });
  const size_t depth = registry.ChangeLogDepth("x");
  ASSERT_TRUE(registry.Publish("x", table, "d1").ok());
  EXPECT_EQ(events, 0);
  EXPECT_EQ(registry.ChangeLogDepth("x"), depth);
  EXPECT_TRUE(registry.ChangesSince("x", table->version()).events.empty());

  // A new table under the name is still a change.
  ASSERT_TRUE(registry.Publish("x", OneRow(), "d1").ok());
  EXPECT_EQ(events, 1);
  EXPECT_EQ(registry.ChangeLogDepth("x"), depth + 1);
  registry.Unsubscribe(id);
}

TEST(SharedRegistryTest, PublishNullTableRejected) {
  SharedDataRegistry registry;
  EXPECT_FALSE(registry.Publish("x", nullptr, "d").ok());
}

TEST(SharedRegistryTest, PublishDashboardOutputsEndToEnd) {
  auto file = ParseFlowFile(R"(
D:
  src: [k, v]
D.src:
  protocol: inline
  format: csv
  data: "k,v
a,1
a,2
"
F:
  D.sums: D.src | T.agg
D.sums:
  endpoint: true
  publish: shared_sums
T:
  agg:
    type: groupby
    groupby: [k]
    aggregates:
      - operator: sum
        apply_on: v
        out_field: total
)",
                            "producer");
  ASSERT_TRUE(file.ok()) << file.status();
  auto dashboard = Dashboard::Create(std::move(*file));
  ASSERT_TRUE(dashboard.ok()) << dashboard.status();
  SharedDataRegistry registry;
  // Publishing before running reports a useful error.
  EXPECT_FALSE(PublishDashboardOutputs(**dashboard, &registry).ok());
  ASSERT_TRUE((*dashboard)->Run().ok());
  ASSERT_TRUE(PublishDashboardOutputs(**dashboard, &registry).ok());
  EXPECT_TRUE(registry.Contains("shared_sums"));
  EXPECT_EQ(registry.List()[0].publisher, "producer");
}

// ---------------------------------------------------------------------
// FlowFileRepository
// ---------------------------------------------------------------------

constexpr const char* kBase = R"(
D:
  src: [a, b]
D.src:
  protocol: inline
  data: "a,b
1,2
"
F:
  D.out: D.src | T.t1
T:
  t1:
    type: filter_by
    filter_expression: 'a > 0'
)";

TEST(RepositoryTest, CommitAndRead) {
  FlowFileRepository repo;
  auto id = repo.Commit("main", "alice", "initial", kBase);
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_EQ(*repo.Read("main"), kBase);
  EXPECT_EQ(*repo.Head("main"), *id);
  EXPECT_TRUE(repo.HasBranch("main"));
  EXPECT_FALSE(repo.HasBranch("dev"));
  EXPECT_GT(*repo.HeadSize("main"), 0u);
}

TEST(RepositoryTest, CommitRejectsInvalidFlowFile) {
  FlowFileRepository repo;
  auto id = repo.Commit("main", "alice", "bad", "F:\n  D.x: D.y\n");
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kParseError);
}

TEST(RepositoryTest, IdenticalCommitIsNoOp) {
  FlowFileRepository repo;
  auto id1 = repo.Commit("main", "alice", "one", kBase);
  auto id2 = repo.Commit("main", "alice", "two", kBase);
  ASSERT_TRUE(id1.ok() && id2.ok());
  EXPECT_EQ(*id1, *id2);
  EXPECT_EQ(repo.Log("main")->size(), 1u);
}

TEST(RepositoryTest, ForkPointsAtSameHead) {
  FlowFileRepository repo;
  ASSERT_TRUE(repo.Commit("samples", "platform", "sample", kBase).ok());
  auto forked = repo.Fork("team1", "samples");
  ASSERT_TRUE(forked.ok());
  EXPECT_EQ(*repo.Head("team1"), *repo.Head("samples"));
  EXPECT_EQ(repo.Fork("team1", "samples").status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(repo.Fork("x", "ghost").status().code(), StatusCode::kNotFound);
}

TEST(RepositoryTest, LogWalksHistory) {
  FlowFileRepository repo;
  ASSERT_TRUE(repo.Commit("main", "a", "c1", kBase).ok());
  std::string v2 = std::string(kBase) + "\nD.out:\n  endpoint: true\n";
  ASSERT_TRUE(repo.Commit("main", "a", "c2", v2).ok());
  auto log = repo.Log("main");
  ASSERT_TRUE(log.ok());
  ASSERT_EQ(log->size(), 2u);
  EXPECT_EQ((*log)[0].message, "c2");
  EXPECT_EQ((*log)[1].message, "c1");
  EXPECT_TRUE((*log)[1].parents.empty());
}

// Helper: kBase with one extra task+flow appended under distinct names.
std::string WithExtra(const std::string& task_name,
                      const std::string& expr) {
  auto file = ParseFlowFile(kBase);
  EXPECT_TRUE(file.ok());
  TaskDecl task;
  task.name = task_name;
  task.type = "filter_by";
  task.config = ConfigNode::Map();
  task.config.Set("type", ConfigNode::Scalar("filter_by"));
  task.config.Set("filter_expression", ConfigNode::Scalar(expr));
  file->tasks.push_back(task);
  FlowDecl flow;
  flow.outputs = {task_name + "_out"};
  flow.inputs = {"src"};
  flow.tasks = {task_name};
  file->flows.push_back(flow);
  return file->ToText();
}

TEST(MergeTest, DisjointAdditionsMergeCleanly) {
  std::string ours = WithExtra("ours_task", "a > 1");
  std::string theirs = WithExtra("theirs_task", "b > 2");
  auto merged = MergeFlowFiles(kBase, ours, theirs);
  ASSERT_TRUE(merged.ok()) << merged.status();
  auto file = ParseFlowFile(*merged);
  ASSERT_TRUE(file.ok()) << *merged;
  EXPECT_NE(file->FindTask("ours_task"), nullptr);
  EXPECT_NE(file->FindTask("theirs_task"), nullptr);
  EXPECT_EQ(file->flows.size(), 3u);
}

TEST(MergeTest, OneSidedEditWins) {
  std::string theirs = kBase;
  auto parsed = ParseFlowFile(kBase);
  ASSERT_TRUE(parsed.ok());
  // Theirs changes t1's expression.
  FlowFile theirs_file = *parsed;
  theirs_file.tasks[0].config.Set("filter_expression",
                                  ConfigNode::Scalar("a > 99"));
  auto merged = MergeFlowFiles(kBase, kBase, theirs_file.ToText());
  ASSERT_TRUE(merged.ok()) << merged.status();
  auto file = ParseFlowFile(*merged);
  EXPECT_EQ(file->FindTask("t1")->config.GetString("filter_expression"),
            "a > 99");
}

TEST(MergeTest, DivergentEditsToSameTaskConflict) {
  auto make = [&](const char* expr) {
    FlowFile file = *ParseFlowFile(kBase);
    file.tasks[0].config.Set("filter_expression", ConfigNode::Scalar(expr));
    return file.ToText();
  };
  auto merged = MergeFlowFiles(kBase, make("a > 1"), make("a > 2"));
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kConflict);
  EXPECT_NE(merged.status().message().find("T.t1"), std::string::npos);
}

TEST(MergeTest, DeletionMergesWhenOtherSideUntouched) {
  FlowFile file = *ParseFlowFile(kBase);
  file.tasks.clear();
  file.flows.clear();
  std::string deleted = file.ToText();
  auto merged = MergeFlowFiles(kBase, deleted, kBase);
  ASSERT_TRUE(merged.ok()) << merged.status();
  auto result = ParseFlowFile(*merged);
  EXPECT_EQ(result->tasks.size(), 0u);
}

TEST(RepositoryTest, MergeBranchesEndToEnd) {
  FlowFileRepository repo;
  ASSERT_TRUE(repo.Commit("main", "platform", "base", kBase).ok());
  ASSERT_TRUE(repo.Fork("alice", "main").ok());
  ASSERT_TRUE(repo.Fork("bob", "main").ok());
  ASSERT_TRUE(
      repo.Commit("alice", "alice", "add", WithExtra("alice_task", "a > 3"))
          .ok());
  ASSERT_TRUE(
      repo.Commit("bob", "bob", "add", WithExtra("bob_task", "b > 4")).ok());
  // Merge alice into main: fast-forward.
  auto ff = repo.Merge("main", "alice", "platform");
  ASSERT_TRUE(ff.ok()) << ff.status();
  EXPECT_EQ(*repo.Head("main"), *repo.Head("alice"));
  // Merge bob into main: true three-way merge.
  auto merge = repo.Merge("main", "bob", "platform");
  ASSERT_TRUE(merge.ok()) << merge.status();
  auto merged = ParseFlowFile(*repo.Read("main"));
  ASSERT_TRUE(merged.ok());
  EXPECT_NE(merged->FindTask("alice_task"), nullptr);
  EXPECT_NE(merged->FindTask("bob_task"), nullptr);
  // Merge commit has two parents.
  auto log = repo.Log("main");
  EXPECT_EQ((*log)[0].parents.size(), 2u);
  // Re-merging is a no-op.
  EXPECT_EQ(*repo.Merge("main", "bob", "platform"), *repo.Head("main"));
}

TEST(SharedRegistryTest, DiscoverRanksByJoinableColumns) {
  SharedDataRegistry registry;
  TableBuilder teams(Schema::FromNames({"team", "color"}));
  (void)teams.AppendRow({Value("CSK"), Value("yellow")});
  ASSERT_TRUE(registry.Publish("dim_teams", *teams.Finish(), "d1").ok());
  TableBuilder geo(Schema::FromNames({"team", "date", "state"}));
  (void)geo.AppendRow({Value("CSK"), Value("2013-05-02"), Value("TN")});
  ASSERT_TRUE(registry.Publish("team_geo", *geo.Finish(), "d2").ok());
  TableBuilder unrelated(Schema::FromNames({"ticket_id"}));
  (void)unrelated.AppendRow({Value("1")});
  ASSERT_TRUE(registry.Publish("tickets", *unrelated.Finish(), "d3").ok());

  // Probe: a pipeline whose data has team+date columns.
  Schema probe = Schema::FromNames({"team", "date", "noOfTweets"});
  auto matches = registry.Discover(probe);
  ASSERT_EQ(matches.size(), 2u);  // tickets shares nothing -> excluded
  EXPECT_EQ(matches[0].name, "team_geo");  // 2 join columns beats 1
  EXPECT_EQ(matches[0].join_columns,
            (std::vector<std::string>{"team", "date"}));
  EXPECT_EQ(matches[0].new_columns, (std::vector<std::string>{"state"}));
  EXPECT_EQ(matches[1].name, "dim_teams");
}

TEST(SharedRegistryTest, DiscoverExcludesFullyOverlappingObjects) {
  SharedDataRegistry registry;
  TableBuilder same(Schema::FromNames({"a", "b"}));
  (void)same.AppendRow({Value("1"), Value("2")});
  ASSERT_TRUE(registry.Publish("same_shape", *same.Finish(), "d").ok());
  // Nothing new to gain: not a discovery.
  EXPECT_TRUE(registry.Discover(Schema::FromNames({"a", "b"})).empty());
}

TEST(RepositoryTest, MergeUnknownBranches) {
  FlowFileRepository repo;
  ASSERT_TRUE(repo.Commit("main", "a", "c", kBase).ok());
  EXPECT_EQ(repo.Merge("main", "ghost", "a").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(repo.Merge("ghost", "main", "a").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace shareinsights
