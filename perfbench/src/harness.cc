#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "io/json.h"

namespace perfbench {

using shareinsights::ParseJson;
using shareinsights::Result;

void Samples::Merge(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  if (rank > 0) --rank;
  return sorted[std::min(rank, sorted.size() - 1)];
}

double Samples::Mean() const {
  double sum = 0;
  for (double v : values_) sum += v;
  return values_.empty() ? 0 : sum / static_cast<double>(values_.size());
}

double Samples::TailLevel() const {
  for (double p : {99.0, 90.0, 50.0}) {
    if (Supports(p)) return p;
  }
  return 0;
}

void Outcome::Fail(const std::string& why) {
  std::lock_guard<std::mutex> lock(mu);
  ++failed;
  if (errors.size() < 20) errors.push_back("wrong answer: " + why);
}

void Outcome::RequestFailed(const std::string& why) {
  std::lock_guard<std::mutex> lock(mu);
  ++failed;
  if (errors.size() < 20) errors.push_back("request failed: " + why);
}

void Outcome::Add(const std::string& name, double value,
                  const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu);
  metrics.push_back(Metric{name, value, unit});
}

void Outcome::Note(const std::string& line) {
  std::lock_guard<std::mutex> lock(mu);
  report.push_back(line);
}

Timed Call(ApiServer* server, const HttpRequest& request) {
  Timed timed;
  timed.start = Clock::now();
  timed.response = server->Handle(request);
  timed.end = Clock::now();
  timed.ms = MsBetween(timed.start, timed.end);
  return timed;
}

JsonValue ParseBody(const std::string& body) {
  Result<JsonValue> parsed = ParseJson(body);
  return parsed.ok() ? std::move(*parsed) : JsonValue();
}

double NumberAt(const JsonValue& object, const std::string& key) {
  const JsonValue* member = object.Find(key);
  return member == nullptr ? 0 : member->number_value();
}

std::map<std::string, double> ScrapeMetrics(ApiServer* server) {
  std::map<std::string, double> out;
  HttpResponse response = server->Get("/api/v1/metrics");
  std::istringstream lines(response.body);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

double Delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after,
             const std::string& name) {
  auto a = after.find(name);
  auto b = before.find(name);
  return (a == after.end() ? 0 : a->second) -
         (b == before.end() ? 0 : b->second);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

Zipf::Zipf(size_t n, double s) {
  cdf_.resize(n);
  double sum = 0;
  for (size_t r = 0; r < n; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t Zipf::Draw(Rng* rng) const {
  double u = rng->NextDouble();
  size_t r = static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(r, cdf_.size() - 1);
}

namespace {

std::string Padded(const char* prefix, int value, int width) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%0*d", prefix, width, value);
  return buf;
}

SalesRow DrawRow(Rng* rng) {
  SalesRow row;
  row.region = static_cast<uint16_t>(rng->NextBelow(kRegions));
  row.product = static_cast<uint16_t>(rng->NextBelow(kProducts));
  row.store = static_cast<uint16_t>(rng->NextBelow(kStores));
  row.cust = static_cast<uint16_t>(rng->NextBelow(kCustomers));
  row.qty = static_cast<uint8_t>(1 + rng->NextBelow(kMaxQty));
  row.amount = static_cast<int32_t>(1 + rng->NextBelow(9999));
  return row;
}

void AppendCsvRow(const SalesRow& row, std::string* out) {
  char buf[96];
  int n = std::snprintf(buf, sizeof(buf), "r%02d,p%04d,s%03d,%d,%d,%d\n",
                        row.region, row.product, row.store, row.cust, row.qty,
                        row.amount);
  out->append(buf, static_cast<size_t>(n));
}

}  // namespace

std::string RegionName(int r) { return Padded("r", r, 2); }
std::string ProductName(int p) { return Padded("p", p, 4); }
std::string StoreName(int s) { return Padded("s", s, 3); }
std::string SegmentName(int s) { return Padded("seg", s, 1); }

void SalesTotals::Add(const SalesRow& row, int segment) {
  amount[row.region][row.qty] += row.amount;
  count[row.region][row.qty] += 1;
  by_segment[segment] += row.amount;
}

int64_t SalesTotals::RegionAmount(int region, int lo, int hi) const {
  int64_t sum = 0;
  for (int q = std::max(lo, 1); q <= std::min(hi, kMaxQty); ++q) {
    sum += amount[region][q];
  }
  return sum;
}

int64_t SalesTotals::RegionCount(int region, int lo, int hi) const {
  int64_t sum = 0;
  for (int q = std::max(lo, 1); q <= std::min(hi, kMaxQty); ++q) {
    sum += count[region][q];
  }
  return sum;
}

SalesData GenerateSales(Rng* rng, size_t n) {
  SalesData data;
  data.segment_of.resize(kCustomers);
  data.customers_csv = "cust_id,segment\n";
  for (int c = 0; c < kCustomers; ++c) {
    data.segment_of[c] = static_cast<int>(rng->NextBelow(kSegments));
    data.customers_csv += std::to_string(c) + "," +
                          SegmentName(data.segment_of[c]) + "\n";
  }
  data.rows = GenerateRows(rng, n, data.segment_of, &data.totals);
  data.csv = "region,product,store,cust,qty,amount\n";
  data.csv.reserve(n * 30);
  for (const SalesRow& row : data.rows) AppendCsvRow(row, &data.csv);
  return data;
}

std::vector<SalesRow> GenerateRows(Rng* rng, size_t n,
                                   const std::vector<int>& segment_of,
                                   SalesTotals* totals) {
  std::vector<SalesRow> rows(n);
  for (SalesRow& row : rows) {
    row = DrawRow(rng);
    totals->Add(row, segment_of[row.cust]);
  }
  return rows;
}

std::string AppendBody(const std::vector<SalesRow>& rows) {
  std::string body = "{\"rows\": [";
  char buf[160];
  for (size_t i = 0; i < rows.size(); ++i) {
    const SalesRow& row = rows[i];
    int n = std::snprintf(
        buf, sizeof(buf),
        "%s{\"region\": \"r%02d\", \"product\": \"p%04d\", \"store\": "
        "\"s%03d\", \"cust\": %d, \"qty\": %d, \"amount\": %d}",
        i == 0 ? "" : ", ", row.region, row.product, row.store, row.cust,
        row.qty, row.amount);
    body.append(buf, static_cast<size_t>(n));
  }
  body += "]}";
  return body;
}

bool RowMatches(const JsonValue& row, const SalesRow& expected) {
  auto str = [&](const char* key) -> std::string {
    const JsonValue* v = row.Find(key);
    return v == nullptr ? std::string() : v->string_value();
  };
  return str("region") == RegionName(expected.region) &&
         str("product") == ProductName(expected.product) &&
         str("store") == StoreName(expected.store) &&
         NumberAt(row, "cust") == expected.cust &&
         NumberAt(row, "qty") == expected.qty &&
         NumberAt(row, "amount") == expected.amount;
}

uint64_t Fnv1a(const std::string& text, uint64_t hash) {
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

uint64_t SpanLog::Add(const std::string& name, Clock::time_point start,
                      Clock::time_point end, uint64_t parent,
                      uint64_t request) {
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.id = next_id_++;
  span.parent = parent;
  span.name = name;
  span.start_us = MsBetween(epoch_, start) * 1000.0;
  span.dur_us = MsBetween(start, end) * 1000.0;
  span.request = request;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

double SpanLog::Import(const std::string& chrome_json, Clock::time_point start,
                       uint64_t parent, uint64_t request) {
  JsonValue doc = ParseBody(chrome_json);
  const JsonValue* events = doc.Find("traceEvents");
  if (events == nullptr) return 0;
  double root_us = 0;
  std::lock_guard<std::mutex> lock(mu_);
  double base_us = MsBetween(epoch_, start) * 1000.0;
  double first_ts = -1;
  for (const JsonValue& event : events->array_items()) {
    double ts = NumberAt(event, "ts");
    if (first_ts < 0 || ts < first_ts) first_ts = ts;
  }
  std::unordered_map<uint64_t, uint64_t> remap;
  for (const JsonValue& event : events->array_items()) {
    const JsonValue* args = event.Find("args");
    if (args == nullptr) continue;
    remap[static_cast<uint64_t>(NumberAt(*args, "span_id"))] = next_id_++;
  }
  for (const JsonValue& event : events->array_items()) {
    const JsonValue* args = event.Find("args");
    const JsonValue* name = event.Find("name");
    if (args == nullptr || name == nullptr) continue;
    Span span;
    span.id = remap[static_cast<uint64_t>(NumberAt(*args, "span_id"))];
    auto p = remap.find(static_cast<uint64_t>(NumberAt(*args, "parent_id")));
    span.parent = p == remap.end() ? parent : p->second;
    if (p == remap.end()) root_us += NumberAt(event, "dur");
    span.name = name->string_value();
    span.start_us = base_us + NumberAt(event, "ts") - first_ts;
    span.dur_us = NumberAt(event, "dur");
    span.request = request;
    spans_.push_back(std::move(span));
  }
  return root_us / 1000.0;
}

uint64_t SpanLog::NextRequestId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_request_++;
}

std::string LayerOf(const std::string& name) {
  auto starts = [&](const char* prefix) { return name.rfind(prefix, 0) == 0; };
  if (starts("io.")) return "io";
  if (starts("exec.task:") || starts("exec.delta_task:") || starts("ops.")) {
    return "ops";
  }
  if (starts("exec.")) return "exec";
  if (starts("cube.")) return "cube";
  if (starts("compile")) return "compile";
  if (starts("dashboard.")) return "dashboard";
  return "server";
}

Samples SpanLog::Durations(const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  Samples out;
  for (const Span& span : spans_) {
    if (span.name.rfind(prefix, 0) == 0) out.Add(span.dur_us / 1000.0);
  }
  return out;
}

std::map<std::string, double> SpanLog::LayerSelfMs(
    const std::string& root_prefix, int* roots) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint64_t, std::vector<size_t>> children;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != 0) children[spans_[i].parent].push_back(i);
  }
  std::map<std::string, double> out;
  std::vector<size_t> stack;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent == 0 && spans_[i].name.rfind(root_prefix, 0) == 0) {
      stack.push_back(i);
    }
  }
  *roots = static_cast<int>(stack.size());
  while (!stack.empty()) {
    const Span& span = spans_[stack.back()];
    stack.pop_back();
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<double, double>> covered;
    auto it = children.find(span.id);
    if (it != children.end()) {
      for (size_t c : it->second) {
        const Span& child = spans_[c];
        double lo = std::max(child.start_us, span.start_us);
        double hi = std::min(child.start_us + child.dur_us,
                             span.start_us + span.dur_us);
        if (hi > lo) covered.emplace_back(lo, hi);
        stack.push_back(c);
      }
    }
    std::sort(covered.begin(), covered.end());
    double cover = 0, end = -1;
    for (const auto& [lo, hi] : covered) {
      if (lo > end) {
        cover += hi - lo;
        end = hi;
      } else if (hi > end) {
        cover += hi - end;
        end = hi;
      }
    }
    out[LayerOf(span.name)] += std::max(0.0, span.dur_us - cover) / 1000.0;
  }
  return out;
}

std::string SpanLog::ToChromeJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"traceEvents\": [";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    JsonValue name = JsonValue::MakeString(span.name);
    std::snprintf(buf, sizeof(buf),
                  ", \"ph\": \"X\", \"ts\": %.1f, \"dur\": %.1f, \"pid\": 1, "
                  "\"tid\": %llu, \"args\": {\"span_id\": %llu, "
                  "\"parent_id\": %llu, \"request\": %llu}}",
                  span.start_us, span.dur_us,
                  static_cast<unsigned long long>(span.request),
                  static_cast<unsigned long long>(span.id),
                  static_cast<unsigned long long>(span.parent),
                  static_cast<unsigned long long>(span.request));
    out += i == 0 ? "\n  {\"name\": " : ",\n  {\"name\": ";
    out += name.Serialize();
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
