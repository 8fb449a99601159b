// ShareInsights end-to-end benchmark: drives ApiServer::Handle in-process
// through one seeded workload, checks every answer against generator
// oracles, and prints its metrics. The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//   si_perfbench --workload <author_run|viewer_storm|feed_append>
//                --seed <n> --seconds <s> --trace <0|1>
//                [--work-dir <dir>] [--digest]
//
// --trace 0 measures the end-to-end metrics (five set-ups, then one
// untraced load window). --trace 1 sets up once, runs half the window
// untraced and half traced, and reports the per-layer metrics. --digest
// prints a digest of the seed's generated inputs and exits.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "layers.h"
#include "obs/metrics.h"
#include "share/result_cache.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr int kSetups = 5;

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: si_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>] [--digest]\n",
               why);
  return 2;
}

std::string Number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

std::string ResultLine(const Outcome& outcome) {
  std::string line = "{\"correct\": ";
  line += outcome.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(outcome.attempted);
  line += ", \"failed\": " + std::to_string(outcome.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    line += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            Number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  return line + "}}";
}

/// seed, SIMD ISA, nproc, build type and flush policy of this result.
std::string EnvStamp(const Args& args, Workload* workload) {
  JsonValue health = ParseBody(workload->server()->Get("/api/v1/health").body);
  const JsonValue* isa = health.Find("simd_isa");
  std::string fsync = args.workload == "feed_append"
                          ? "interval(50ms), snapshot at 8MiB WAL"
                          : "none (durability off)";
  return "env: seed=" + std::to_string(args.seed) +
         " simd_isa=" + (isa != nullptr ? isa->string_value() : "?") +
         " nproc=" + std::to_string(std::thread::hardware_concurrency()) +
         " build_type=" PERFBENCH_BUILD_TYPE " fsync=" + fsync;
}

void Describe(const std::string& cls, Window* window, Outcome* outcome) {
  Samples samples;
  {
    std::lock_guard<std::mutex> lock(window->mu);
    samples = window->classes[cls];
  }
  std::string line = cls + ": n=" + std::to_string(samples.size()) +
                     " mean=" + Number(samples.Mean()) +
                     " p10=" + Number(samples.Percentile(10)) +
                     " p50=" + Number(samples.Median()) + " ms";
  for (double p : {90.0, 99.0}) {
    if (samples.Supports(p)) {
      line += " p" + Number(p) + "=" + Number(samples.Percentile(p)) + " ms";
    }
  }
  outcome->Note(line);
}

bool RunMeasured(const Args& args, Outcome* outcome) {
  Samples setup_s;
  std::unique_ptr<Workload> workload;
  for (int i = 0; i < kSetups; ++i) {
    workload.reset();
    workload = MakeWorkload(args, i);
    Clock::time_point start = Clock::now();
    shareinsights::Status status = workload->Setup();
    if (!status.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", status.ToString().c_str());
      return false;
    }
    setup_s.Add(MsSince(start) / 1000.0);
  }
  // Every window starts from an empty process-wide result cache, so the
  // cache fills and starts evicting at the same point in every run.
  shareinsights::ResultCache::Process().Clear();
  Window window;
  Clock::time_point start = Clock::now();
  workload->Drive(args.seconds, &window, outcome, nullptr);
  window.seconds = MsSince(start) / 1000.0;
  workload->Check(outcome);

  std::array<Role, 3> roles = workload->Roles();
  const char* slots[] = {"main", "side", "aux"};
  std::string described = "roles:";
  for (int i = 0; i < 3; ++i) {
    outcome->Add(std::string(slots[i]) + "_ms",
                 window.Percentile(roles[i].cls, roles[i].percentile), "ms");
    described += std::string(" ") + slots[i] + "=" + roles[i].cls + " p" +
                 Number(roles[i].percentile);
  }
  outcome->Add("throughput_per_s",
               static_cast<double>(window.completed) / window.seconds, "1/s");
  outcome->Add("rss_peak_mb", PeakRssMb(), "MB");
  outcome->Add("setup_s", setup_s.Median(), "s");

  outcome->Note(EnvStamp(args, workload.get()));
  outcome->Note(described);
  for (const auto& [cls, samples] : window.classes) {
    (void)samples;
    Describe(cls, &window, outcome);
  }
  for (const std::string& note : window.notes) outcome->Note(note);
  return true;
}

bool RunTraced(const Args& args, Outcome* outcome) {
  std::unique_ptr<Workload> workload = MakeWorkload(args, 0);
  shareinsights::Status status = workload->Setup();
  if (!status.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", status.ToString().c_str());
    return false;
  }
  ApiServer* server = workload->server();
  Window plain, traced;
  SpanLog spans;
  shareinsights::ResultCache::Process().Clear();
  workload->Drive(args.seconds / 2, &plain, outcome, nullptr);

  std::atomic<bool> stop{false};
  double mem_peak = 0;
  shareinsights::Gauge* reserved =
      shareinsights::MetricsRegistry::Default().GetGauge("mem_reserved_bytes");
  std::thread sampler([&] {
    while (!stop.load()) {
      mem_peak = std::max(mem_peak, reserved->Value());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  TracedRun run;
  run.args = &args;
  run.spans = &spans;
  run.plain = &plain;
  run.traced = &traced;
  run.main_class = workload->Roles()[0].cls;
  // Both halves start from an empty result cache, as RunMeasured does.
  shareinsights::ResultCache::Process().Clear();
  run.metrics_before = ScrapeMetrics(server);
  workload->Drive(args.seconds / 2, &traced, outcome, &spans);
  run.metrics_after = ScrapeMetrics(server);
  stop = true;
  sampler.join();
  run.mem_reserved_peak_bytes = mem_peak;
  workload->Check(outcome);

  LayerInputs inputs = workload->Inputs();
  for (const std::string& id : inputs.setup_run_traces) {
    std::string chrome = server->Get("/api/v1/trace/" + id).body;
    SpanLog probe;
    Clock::time_point at = Clock::now();
    double ms = probe.Import(chrome, at, 0, 0);
    uint64_t rid = spans.NextRequestId();
    uint64_t root = spans.Add(
        "bench.setup_run", at,
        at + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double, std::milli>(ms)),
        0, rid);
    spans.Import(chrome, at, root, rid);
  }
  MeasureLayers(inputs, run, outcome);

  std::string path = args.work_dir + "/trace-" + args.workload + "-" +
                     std::to_string(args.seed) + ".json";
  std::ofstream(path) << spans.ToChromeJson();
  outcome->Note(EnvStamp(args, workload.get()));
  outcome->Note("chrome trace: " + path);
  for (const auto& [cls, samples] : traced.classes) {
    (void)samples;
    Describe(cls, &traced, outcome);
  }
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool digest = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--digest") {
      digest = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (MakeWorkload(args, 0) == nullptr) return Usage("unknown --workload");
  if (!(args.seconds > 0) || args.seconds > 120) {
    return Usage("--seconds must be in (0, 120]");
  }
  std::error_code error;
  std::filesystem::create_directories(args.work_dir, error);
  if (error) return Usage(("cannot create " + args.work_dir).c_str());

  if (digest) {
    std::unique_ptr<Workload> workload = MakeWorkload(args, 0);
    if (!workload->Setup().ok()) return 1;
    std::printf("%016llx\n",
                static_cast<unsigned long long>(workload->InputsDigest()));
    return 0;
  }
  if (!have_trace) return Usage("--trace must be 0 or 1");
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "WARNING: build type %s is not Release; numbers "
                 "are not comparable\n", PERFBENCH_BUILD_TYPE);
  }

  Outcome outcome;
  bool ran = args.trace ? RunTraced(args, &outcome)
                        : RunMeasured(args, &outcome);
  if (!ran) return 2;
  std::printf("perfbench %s seed=%llu seconds=%s trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              std::to_string(args.seconds).c_str(), args.trace ? 1 : 0);
  for (const std::string& line : outcome.report) {
    std::printf("  %s\n", line.c_str());
  }
  for (const Metric& m : outcome.metrics) {
    std::printf("  %-28s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& error_line : outcome.errors) {
    std::fprintf(stderr, "FAIL: %s\n", error_line.c_str());
  }
  std::printf("%s\n", ResultLine(outcome).c_str());
  std::fflush(stdout);
  return outcome.failed == 0 ? 0 : 1;
}
