#include "server/api_server.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/fault.h"
#include "common/retry.h"
#include "common/string_util.h"
#include "io/circuit_breaker.h"
#include "ops/filter.h"
#include "simd/dispatch.h"
#include "ops/groupby.h"

namespace shareinsights {

HttpRequest HttpRequest::Get(const std::string& url) {
  HttpRequest request;
  request.method = "GET";
  size_t qmark = url.find('?');
  request.path = url.substr(0, qmark);
  if (qmark != std::string::npos) {
    for (const std::string& pair : Split(url.substr(qmark + 1), '&')) {
      size_t eq = pair.find('=');
      if (eq == std::string::npos) {
        request.query[PercentDecode(pair)] = "";
      } else {
        request.query[PercentDecode(pair.substr(0, eq))] =
            PercentDecode(pair.substr(eq + 1));
      }
    }
  }
  return request;
}

HttpRequest HttpRequest::Post(const std::string& url, std::string body) {
  HttpRequest request = Get(url);
  request.method = "POST";
  request.body = std::move(body);
  return request;
}

JsonValue TableToJson(const Table& table, size_t limit, size_t offset) {
  JsonValue rows = JsonValue::MakeArray();
  size_t end = table.num_rows();
  if (limit > 0) end = std::min(end, offset + limit);
  // Only the page's cells are read, straight from the typed columns:
  // Table::at() would decode (and keep) whole columns of a large endpoint
  // to render a few rows.
  for (size_t r = offset; r < end; ++r) {
    JsonValue row = JsonValue::MakeObject();
    for (size_t c = 0; c < table.num_columns(); ++c) {
      row.Set(table.schema().field(c).name,
              JsonValue::FromValue(table.typed_column(c).GetValue(r)));
    }
    rows.Append(std::move(row));
  }
  return rows;
}

namespace {

HttpResponse JsonResponse(int status, JsonValue body) {
  HttpResponse response;
  response.status = status;
  response.body = body.SerializePretty();
  return response;
}

/// True when the client may usefully retry the same request: transient
/// I/O trouble, a tripped breaker (after Retry-After), a blown deadline,
/// or load shedding (the 429/503 admission answers).
bool IsClientRetryable(const Status& status) {
  return IsRetryable(status) ||
         status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kDeadlineExceeded ||
         status.code() == StatusCode::kResourceExhausted;
}

HttpResponse ErrorResponse(const Status& status) {
  JsonValue body = JsonValue::MakeObject();
  body.Set("error", JsonValue::MakeString(StatusCodeName(status.code())));
  body.Set("message", JsonValue::MakeString(status.message()));
  body.Set("retryable", JsonValue::MakeBool(IsClientRetryable(status)));
  int http = 500;
  switch (status.code()) {
    case StatusCode::kNotFound:
      http = 404;
      break;
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
    case StatusCode::kSchemaError:
      http = 400;
      break;
    case StatusCode::kAlreadyExists:
    case StatusCode::kConflict:
      http = 409;
      break;
    case StatusCode::kUnavailable:
      http = 503;
      break;
    case StatusCode::kDeadlineExceeded:
      http = 504;
      break;
    case StatusCode::kResourceExhausted:
      // Load shed (admission queue full) or a refused memory budget:
      // the request was never started, so retrying later is safe.
      http = 429;
      break;
    case StatusCode::kCancelled:
      // Client-abandoned request (nginx's 499); deadline- and
      // shutdown-caused cancellations are re-mapped to 504/503 by the
      // governed Handle() path before reaching the client.
      http = 499;
      break;
    default:
      http = 500;
  }
  HttpResponse response = JsonResponse(http, std::move(body));
  if (http == 429) {
    // Shed because the box is saturated right now; a slot frees as soon
    // as a running request finishes, so probe again shortly.
    response.headers["Retry-After"] = "1";
  }
  if (http == 503) {
    // Hint when the tripped dependency will accept a probe again: the
    // longest cooldown across currently-open breakers, min 1 second.
    double retry_after = 0;
    CircuitBreakerRegistry& breakers = CircuitBreakerRegistry::Default();
    for (const std::string& name : breakers.Names()) {
      retry_after =
          std::max(retry_after, breakers.Get(name)->RetryAfterSeconds());
    }
    response.headers["Retry-After"] = std::to_string(
        std::max<int64_t>(1, static_cast<int64_t>(std::ceil(retry_after))));
  }
  return response;
}

HttpResponse TextResponse(std::string text) {
  HttpResponse response;
  response.content_type = "text/plain";
  response.body = std::move(text);
  return response;
}

std::vector<std::string> PathSegments(const std::string& path) {
  std::vector<std::string> out;
  for (const std::string& piece : Split(path, '/')) {
    if (!piece.empty()) out.push_back(piece);
  }
  return out;
}

/// Strict pagination parse: a missing parameter falls back, but a
/// present-yet-malformed or negative one is the caller's error (400).
Result<size_t> QuerySize(const HttpRequest& request, const std::string& key,
                         size_t fallback) {
  auto it = request.query.find(key);
  if (it == request.query.end()) return fallback;
  Result<int64_t> parsed = Value(it->second).ToInt64();
  if (!parsed.ok() || *parsed < 0) {
    return Status::InvalidArgument("query parameter '" + key +
                                   "' must be a non-negative integer, got '" +
                                   it->second + "'");
  }
  return static_cast<size_t>(*parsed);
}

/// 405 with the mandatory `Allow` header and the error envelope.
HttpResponse MethodNotAllowed(const HttpRequest& request,
                              const std::string& allow) {
  JsonValue body = JsonValue::MakeObject();
  body.Set("error", JsonValue::MakeString("MethodNotAllowed"));
  body.Set("message",
           JsonValue::MakeString("method " + request.method +
                                 " not allowed here; allowed: " + allow));
  HttpResponse response = JsonResponse(405, std::move(body));
  response.headers["Allow"] = allow;
  return response;
}

/// Attaches the uniform pagination envelope to a collection response.
/// `total` is the collection size before slicing; `limit` 0 = no limit.
void AddPageMeta(JsonValue* body, size_t limit, size_t offset, size_t total) {
  body->Set("limit", JsonValue::MakeNumber(static_cast<double>(limit)));
  body->Set("offset", JsonValue::MakeNumber(static_cast<double>(offset)));
  size_t end = total;
  if (limit > 0) end = std::min(total, offset + limit);
  if (end < total) {
    body->Set("next_offset", JsonValue::MakeNumber(static_cast<double>(end)));
  } else {
    body->Set("next_offset", JsonValue());
  }
  body->Set("total_rows", JsonValue::MakeNumber(static_cast<double>(total)));
}

/// Strong-validator ETag for an object version: `"<version>"`.
std::string VersionETag(uint64_t version) {
  return "\"" + std::to_string(version) + "\"";
}

/// Parses a conditional header value: `"<version>"`, a bare number, or
/// `*` (any, returned as 0). nullopt on anything else.
std::optional<uint64_t> ParseETagVersion(const std::string& text) {
  std::string t = Trim(text);
  if (t == "*") return 0;
  if (t.size() >= 2 && t.front() == '"' && t.back() == '"') {
    t = t.substr(1, t.size() - 2);
  }
  Result<int64_t> parsed = Value(t).ToInt64();
  if (!parsed.ok() || *parsed <= 0) return std::nullopt;
  return static_cast<uint64_t>(*parsed);
}

/// Decodes an append body — a JSON array of row objects, or an object
/// wrapping one under "rows" — into schema-ordered row-major Values.
/// Unknown columns are the caller's error; absent columns become nulls.
Result<std::vector<std::vector<Value>>> RowsFromJsonBody(
    const std::string& body, const Schema& schema) {
  SI_ASSIGN_OR_RETURN(JsonValue doc, ParseJson(body));
  const std::vector<JsonValue>* records = nullptr;
  if (doc.is_array()) {
    records = &doc.array_items();
  } else if (doc.is_object()) {
    const JsonValue* rows = doc.Find("rows");
    if (rows == nullptr || !rows->is_array()) {
      return Status::InvalidArgument(
          "append body must be a JSON array of row objects or "
          "{\"rows\": [...]}");
    }
    records = &rows->array_items();
  } else {
    return Status::InvalidArgument(
        "append body must be a JSON array of row objects");
  }
  std::vector<std::vector<Value>> out;
  out.reserve(records->size());
  for (const JsonValue& record : *records) {
    if (!record.is_object()) {
      return Status::InvalidArgument(
          "each appended row must be a JSON object");
    }
    for (const auto& [key, cell] : record.members()) {
      (void)cell;
      if (!schema.Contains(key)) {
        return Status::InvalidArgument("appended row has unknown column '" +
                                       key + "'");
      }
    }
    std::vector<Value> values;
    values.reserve(schema.num_fields());
    for (size_t c = 0; c < schema.num_fields(); ++c) {
      const JsonValue* cell = record.Find(schema.field(c).name);
      values.push_back(cell == nullptr ? Value() : cell->ToTableValue());
    }
    out.push_back(std::move(values));
  }
  return out;
}

/// Slices a list of names per limit/offset into a JSON array.
JsonValue NamesPage(const std::vector<std::string>& names, size_t limit,
                    size_t offset) {
  JsonValue list = JsonValue::MakeArray();
  size_t end = names.size();
  if (limit > 0) end = std::min(end, offset + limit);
  for (size_t i = offset; i < end; ++i) {
    list.Append(JsonValue::MakeString(names[i]));
  }
  return list;
}

}  // namespace

Status ApiServer::CreateDashboard(const std::string& name,
                                  const std::string& flow_text,
                                  Dashboard::Options options) {
  return CreateDashboardInternal(name, flow_text, std::move(options),
                                 /*persist=*/true);
}

Status ApiServer::CreateDashboardInternal(const std::string& name,
                                          const std::string& flow_text,
                                          Dashboard::Options options,
                                          bool persist) {
  SI_ASSIGN_OR_RETURN(FlowFile file, ParseFlowFile(flow_text, name));
  if (options.shared_schemas == nullptr && shared_ != nullptr) {
    options.shared_schemas = shared_;
    options.shared_tables = shared_;
  }
  if (options.result_cache == nullptr && options_.enable_result_cache) {
    options.result_cache = &ResultCache::Process();
  }
  if (durability_ != nullptr && options.durability == nullptr) {
    options.durability = durability_.get();
    options.durability_name = name;
  }
  SI_ASSIGN_OR_RETURN(std::unique_ptr<Dashboard> dashboard,
                      Dashboard::Create(std::move(file), std::move(options)));
  {
    std::lock_guard<std::mutex> lock(mu_);
    dashboards_[name] = std::move(dashboard);
  }
  if (persist && durability_ != nullptr && !durability_->read_only()) {
    // Persist the identity so a restart can recreate the dashboard. A
    // failure flips the store read-only (recorded there); the in-memory
    // dashboard still works.
    Status persisted = durability_->PersistDashboard(name, flow_text);
    (void)persisted;
  }
  return Status::OK();
}

void ApiServer::InitDurability() {
  if (options_.durability.dir.empty()) return;
  durability_ = DurabilityManager::Open(options_.durability);
  Result<DurabilityManager::RecoveryReport> report = durability_->Recover();
  if (!report.ok()) {
    durability_->MarkReadOnly("recovery failed: " +
                              report.status().message());
    return;
  }
  for (const DurabilityManager::RecoveredDashboard& dash :
       report->dashboards) {
    Status created = CreateDashboardInternal(
        dash.name, dash.flow_text, Dashboard::Options(), /*persist=*/false);
    if (!created.ok()) {
      durability_->MarkReadOnly("recovering dashboard '" + dash.name +
                                "' failed: " + created.message());
      continue;
    }
    Result<Dashboard*> dashboard = GetDashboard(dash.name);
    if (!dashboard.ok()) continue;
    Status restored = (*dashboard)->RestoreObjects(dash.objects);
    if (!restored.ok()) {
      durability_->MarkReadOnly("restoring objects of dashboard '" +
                                dash.name + "' failed: " +
                                restored.message());
      continue;
    }
    // Re-seed the /changes changelog so cursors issued before the crash
    // keep patching contiguously: base states first, then the committed
    // WAL tail as append events. Safe to replay through the registry —
    // a freshly constructed server has no subscribers yet.
    for (const auto& [object, table] : dash.base_tables) {
      Status seeded =
          object_log_.Publish(dash.name + "/" + object, table, dash.name);
      (void)seeded;
    }
    for (const DurabilityManager::RecoveredEvent& event : dash.tail) {
      const std::string key = dash.name + "/" + event.object;
      Status seeded =
          event.delta != nullptr
              ? object_log_.PublishAppend(key, event.table, event.delta,
                                          dash.name, event.prev_version)
              : object_log_.Publish(key, event.table, dash.name);
      (void)seeded;
    }
  }
}

Result<Dashboard*> ApiServer::GetDashboard(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = dashboards_.find(name);
  if (it == dashboards_.end()) {
    return Status::NotFound("no dashboard named '" + name + "'");
  }
  return it->second.get();
}

std::vector<std::string> ApiServer::DashboardNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [name, dashboard] : dashboards_) out.push_back(name);
  return out;
}

HttpResponse ApiServer::Handle(const HttpRequest& request) {
  auto start = std::chrono::steady_clock::now();
  MetricsRegistry& metrics = MetricsRegistry::Default();
  HttpResponse response;
  // `server.request` injection site: fires before routing, modelling a
  // request dropped at the front door.
  std::optional<Status> injected =
      FaultInjector::Get().Check(kFaultServerRequest);
  if (injected.has_value()) {
    metrics
        .GetCounter("faults_injected_total",
                    "faults fired by the injection harness")
        ->Increment();
    response = ErrorResponse(*injected);
  } else if ([&] {
               std::lock_guard<std::mutex> lock(gov_mu_);
               return draining_;
             }()) {
    // Shutdown() was called: shed before admission so drain progress is
    // never delayed by new arrivals.
    response = ErrorResponse(Status::Unavailable(
        "server is shutting down; not accepting new requests"));
  } else {
    // Admission: bounded concurrency with a FIFO wait queue. A full
    // queue answers 429 (+Retry-After); a queue timeout answers 503.
    Result<AdmissionSlot> slot = admission_.Admit();
    if (!slot.ok()) {
      response = ErrorResponse(slot.status());
    } else {
      // Per-request cancellation token. The deadline is armed on it, so
      // a request that outlives request_deadline_ms is genuinely aborted
      // (kCancelled at the next morsel/task boundary), not merely
      // re-labelled 504 after running to completion.
      auto token = std::make_shared<CancellationToken>();
      if (options_.request_deadline_ms > 0) {
        token->ArmDeadline(options_.request_deadline_ms);
      }
      uint64_t request_id;
      {
        std::lock_guard<std::mutex> lock(gov_mu_);
        request_id = next_request_id_++;
        active_tokens_[request_id] = token;
      }
      response = Route(request, token.get());
      {
        std::lock_guard<std::mutex> lock(gov_mu_);
        active_tokens_.erase(request_id);
        if (active_tokens_.empty()) tokens_done_.notify_all();
      }
      // Map the cancellation cause onto the right HTTP answer: a fired
      // deadline is the client's 504, a shutdown cancel is a 503. A
      // plain client cancel keeps the 499 envelope from ErrorResponse.
      if (token->cancelled() &&
          token->cause() == CancelCause::kDeadline) {
        metrics
            .GetCounter("http_deadline_exceeded_total",
                        "requests answered 504 after blowing the deadline")
            ->Increment();
        response = ErrorResponse(Status::DeadlineExceeded(
            "request exceeded deadline of " +
            std::to_string(
                static_cast<int64_t>(options_.request_deadline_ms)) +
            " ms: " + token->reason()));
      } else if (token->cancelled() &&
                 token->cause() == CancelCause::kShutdown) {
        response = ErrorResponse(Status::Unavailable(
            "request cancelled: server is shutting down"));
      } else {
        // Backstop for routes without cancellation points (e.g. a slow
        // connector fetch): a blown deadline still answers 504.
        double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
        if (options_.request_deadline_ms > 0 &&
            elapsed_ms > options_.request_deadline_ms) {
          metrics
              .GetCounter("http_deadline_exceeded_total",
                          "requests answered 504 after blowing the deadline")
              ->Increment();
          response = ErrorResponse(Status::DeadlineExceeded(
              "request exceeded deadline of " +
              std::to_string(
                  static_cast<int64_t>(options_.request_deadline_ms)) +
              " ms"));
        }
      }
    }
  }
  metrics.GetCounter("http_requests_total", "API requests handled")
      ->Increment();
  if (response.status >= 400) {
    metrics.GetCounter("http_errors_total", "API requests answered >= 400")
        ->Increment();
  }
  metrics
      .GetHistogram("http_request_ms", Histogram::LatencyBoundsMs(),
                    "wall time of one API request")
      ->Observe(std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count());
  return response;
}

ApiServer::ShutdownReport ApiServer::Shutdown(double drain_deadline_ms) {
  {
    std::lock_guard<std::mutex> lock(gov_mu_);
    draining_ = true;
  }
  admission_.BeginShutdown();
  ShutdownReport report;
  std::unique_lock<std::mutex> lock(gov_mu_);
  auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(
              std::max(0.0, drain_deadline_ms)));
  report.drained = tokens_done_.wait_until(
      lock, deadline, [&] { return active_tokens_.empty(); });
  if (!report.drained) {
    // Drain deadline blown: fire every straggler's token. Each aborts at
    // its next cancellation point and answers 503.
    for (auto& [id, token] : active_tokens_) {
      token->Cancel("server shutting down", CancelCause::kShutdown);
      ++report.stragglers_cancelled;
    }
    MetricsRegistry::Default()
        .GetCounter("shutdown_stragglers_cancelled_total",
                    "in-flight requests cancelled at the drain deadline")
        ->Increment(report.stragglers_cancelled);
  }
  return report;
}

size_t ApiServer::in_flight() const {
  std::lock_guard<std::mutex> lock(gov_mu_);
  return active_tokens_.size();
}

std::string ApiServer::StoreTrace(std::string chrome_json) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string run_id = "run-" + std::to_string(++run_counter_);
  traces_[run_id] = std::move(chrome_json);
  trace_order_.push_back(run_id);
  while (trace_order_.size() > kMaxStoredTraces) {
    traces_.erase(trace_order_.front());
    trace_order_.pop_front();
  }
  return run_id;
}

HttpResponse ApiServer::Route(const HttpRequest& request,
                              CancellationToken* cancel) {
  std::vector<std::string> segments = PathSegments(request.path);

  // Canonical routes live under /api/v1; the bare paths are deprecated
  // aliases of the same handlers, marked by a Deprecation header.
  bool versioned = false;
  if (!segments.empty() && segments[0] == "api") {
    if (segments.size() < 2 || segments[1] != "v1") {
      return ErrorResponse(Status::NotFound(
          "unknown API version; expected /api/v1/..."));
    }
    segments.erase(segments.begin(), segments.begin() + 2);
    versioned = true;
  }
  HttpResponse response = RouteV1(segments, request, cancel);
  if (!versioned) response.headers["Deprecation"] = "true";
  return response;
}

HttpResponse ApiServer::RouteV1(const std::vector<std::string>& segments,
                                const HttpRequest& request,
                                CancellationToken* cancel) {
  if (segments.empty()) {
    return ErrorResponse(Status::NotFound("empty path"));
  }

  if (segments[0] == "dashboards") {
    return HandleDashboards(segments, request, cancel);
  }

  // /health — liveness plus the durable store's status. `storage` is
  // always present: `durable: false` when durability is off, otherwise
  // the WAL/snapshot/recovery counters and the read-only reason (if any).
  if (segments[0] == "health" && segments.size() == 1) {
    if (request.method != "GET") return MethodNotAllowed(request, "GET");
    JsonValue body = JsonValue::MakeObject();
    bool read_only = durability_ != nullptr && durability_->read_only();
    body.Set("status", JsonValue::MakeString(read_only ? "read_only" : "ok"));
    body.Set("dashboards", JsonValue::MakeNumber(
                               static_cast<double>(DashboardNames().size())));
    // Which kernel variant the columnar filter/aggregate library selected
    // at startup (avx2/neon/scalar, overridable with SI_SIMD).
    body.Set("simd_isa",
             JsonValue::MakeString(simd::IsaName(simd::SelectedIsa())));
    JsonValue storage = JsonValue::MakeObject();
    if (durability_ == nullptr) {
      storage.Set("durable", JsonValue::MakeBool(false));
    } else {
      DurabilityManager::Stats stats = durability_->stats();
      storage.Set("durable", JsonValue::MakeBool(true));
      storage.Set("read_only", JsonValue::MakeBool(stats.read_only));
      if (stats.read_only) {
        storage.Set("read_only_reason",
                    JsonValue::MakeString(stats.read_only_reason));
      }
      storage.Set("wal_records_written",
                  JsonValue::MakeNumber(
                      static_cast<double>(stats.wal_records_written)));
      storage.Set("wal_bytes_written",
                  JsonValue::MakeNumber(
                      static_cast<double>(stats.wal_bytes_written)));
      storage.Set("wal_fsyncs", JsonValue::MakeNumber(
                                    static_cast<double>(stats.wal_fsyncs)));
      storage.Set("snapshots_written",
                  JsonValue::MakeNumber(
                      static_cast<double>(stats.snapshots_written)));
      storage.Set("recovery_replayed_records",
                  JsonValue::MakeNumber(static_cast<double>(
                      stats.recovery_replayed_records)));
      storage.Set("recovery_ms", JsonValue::MakeNumber(stats.recovery_ms));
    }
    body.Set("storage", std::move(storage));
    return JsonResponse(200, std::move(body));
  }

  // /metrics — Prometheus-style exposition of the process registry.
  if (segments[0] == "metrics" && segments.size() == 1) {
    if (request.method != "GET") return MethodNotAllowed(request, "GET");
    return TextResponse(MetricsRegistry::Default().RenderText());
  }

  // /trace/<run-id> — Chrome trace JSON of a past POST .../run.
  if (segments[0] == "trace") {
    if (request.method != "GET") return MethodNotAllowed(request, "GET");
    if (segments.size() != 2) {
      return ErrorResponse(Status::NotFound("expected /trace/<run-id>"));
    }
    std::lock_guard<std::mutex> lock(mu_);
    auto it = traces_.find(segments[1]);
    if (it == traces_.end()) {
      return ErrorResponse(
          Status::NotFound("no trace for run '" + segments[1] + "'"));
    }
    HttpResponse response;
    response.body = it->second;
    return response;
  }

  if (segments[0] == "shared") {
    if (request.method != "GET") return MethodNotAllowed(request, "GET");
    Result<size_t> limit = QuerySize(request, "limit", 0);
    if (!limit.ok()) return ErrorResponse(limit.status());
    Result<size_t> offset = QuerySize(request, "offset", 0);
    if (!offset.ok()) return ErrorResponse(offset.status());
    std::vector<SharedDataRegistry::Entry> entries;
    if (shared_ != nullptr) entries = shared_->List();
    JsonValue list = JsonValue::MakeArray();
    size_t end = entries.size();
    if (*limit > 0) end = std::min(end, *offset + *limit);
    for (size_t i = *offset; i < end; ++i) {
      JsonValue item = JsonValue::MakeObject();
      item.Set("name", JsonValue::MakeString(entries[i].name));
      item.Set("publisher", JsonValue::MakeString(entries[i].publisher));
      item.Set("rows", JsonValue::MakeNumber(
                           static_cast<double>(entries[i].num_rows)));
      list.Append(std::move(item));
    }
    JsonValue body = JsonValue::MakeObject();
    body.Set("shared", std::move(list));
    AddPageMeta(&body, *limit, *offset, entries.size());
    return JsonResponse(200, std::move(body));
  }

  // /<dashboard>/ds[...], /<dashboard>/explore/<dataset>
  Result<Dashboard*> dashboard = GetDashboard(segments[0]);
  if (!dashboard.ok()) return ErrorResponse(dashboard.status());
  return HandleDatasets(*dashboard, {segments.begin() + 1, segments.end()},
                        request, cancel);
}

HttpResponse ApiServer::HandleDashboards(
    const std::vector<std::string>& segments, const HttpRequest& request,
    CancellationToken* cancel) {
  if (segments.size() == 1) {
    if (request.method != "GET") return MethodNotAllowed(request, "GET");
    Result<size_t> limit = QuerySize(request, "limit", 0);
    if (!limit.ok()) return ErrorResponse(limit.status());
    Result<size_t> offset = QuerySize(request, "offset", 0);
    if (!offset.ok()) return ErrorResponse(offset.status());
    std::vector<std::string> names = DashboardNames();
    JsonValue body = JsonValue::MakeObject();
    body.Set("dashboards", NamesPage(names, *limit, *offset));
    AddPageMeta(&body, *limit, *offset, names.size());
    return JsonResponse(200, std::move(body));
  }
  const std::string& name = segments[1];
  if (segments.size() == 3 && segments[2] == "create") {
    if (request.method != "POST") return MethodNotAllowed(request, "POST");
    Status created = CreateDashboard(name, request.body, Dashboard::Options());
    if (!created.ok()) return ErrorResponse(created);
    JsonValue body = JsonValue::MakeObject();
    body.Set("created", JsonValue::MakeString(name));
    return JsonResponse(201, std::move(body));
  }
  if (segments.size() == 3 && segments[2] == "run") {
    if (request.method != "POST") return MethodNotAllowed(request, "POST");
    Result<Dashboard*> dashboard = GetDashboard(name);
    if (!dashboard.ok()) return ErrorResponse(dashboard.status());
    Tracer tracer;
    Result<ExecutionStats> stats = (*dashboard)->Run(&tracer, cancel);
    if (!stats.ok()) return ErrorResponse(stats.status());
    std::string run_id = StoreTrace(tracer.ToChromeJson());
    JsonValue body = JsonValue::MakeObject();
    body.Set("flows_executed",
             JsonValue::MakeNumber(stats->flows_executed));
    body.Set("flows_cached", JsonValue::MakeNumber(stats->flows_cached));
    body.Set("sources_reused", JsonValue::MakeNumber(stats->sources_reused));
    // hit: every flow answered from cache; partial: some; miss: none.
    const char* cache_state =
        stats->flows_cached == 0
            ? "miss"
            : (stats->flows_executed == 0 ? "hit" : "partial");
    body.Set("cache", JsonValue::MakeString(cache_state));
    body.Set("rows_produced", JsonValue::MakeNumber(
                                  static_cast<double>(stats->rows_produced)));
    body.Set("wall_ms", JsonValue::MakeNumber(stats->wall_ms));
    // True when the run completed by spilling some materialization to
    // disk under memory pressure — previously these runs 500'd with
    // kResourceExhausted.
    body.Set("spilled", JsonValue::MakeBool(stats->spills > 0));
    body.Set("spills", JsonValue::MakeNumber(stats->spills));
    body.Set("simd_isa",
             JsonValue::MakeString(simd::IsaName(simd::SelectedIsa())));
    body.Set("trace_id", JsonValue::MakeString(run_id));
    // Storage block only when durability is on, so envelopes of
    // non-durable servers stay byte-identical to the pre-durability API.
    if (durability_ != nullptr) {
      DurabilityManager::Stats storage_stats = durability_->stats();
      JsonValue storage = JsonValue::MakeObject();
      storage.Set("durable", JsonValue::MakeBool(true));
      storage.Set("read_only", JsonValue::MakeBool(storage_stats.read_only));
      storage.Set("snapshots_written",
                  JsonValue::MakeNumber(static_cast<double>(
                      storage_stats.snapshots_written)));
      storage.Set("wal_records_written",
                  JsonValue::MakeNumber(static_cast<double>(
                      storage_stats.wal_records_written)));
      body.Set("storage", std::move(storage));
    }
    return JsonResponse(200, std::move(body));
  }
  if (segments.size() >= 3 && segments[2] == "objects") {
    Result<Dashboard*> dashboard = GetDashboard(name);
    if (!dashboard.ok()) return ErrorResponse(dashboard.status());
    return HandleObjects(name, *dashboard,
                         {segments.begin() + 3, segments.end()}, request,
                         cancel);
  }
  if (segments.size() == 2) {
    if (request.method != "GET") return MethodNotAllowed(request, "GET");
    Result<Dashboard*> dashboard = GetDashboard(name);
    if (!dashboard.ok()) return ErrorResponse(dashboard.status());
    return TextResponse((*dashboard)->flow_file().ToText());
  }
  return ErrorResponse(Status::NotFound("unknown dashboards route"));
}

HttpResponse ApiServer::HandleObjects(const std::string& dash_name,
                                      Dashboard* dashboard,
                                      const std::vector<std::string>& segments,
                                      const HttpRequest& request,
                                      CancellationToken* cancel) {
  (void)cancel;  // appends run under the dashboard's own governance
  const DataStore& store = dashboard->store();

  // GET /dashboards/<d>/objects — materialized objects with versions.
  if (segments.empty()) {
    if (request.method != "GET") return MethodNotAllowed(request, "GET");
    Result<size_t> limit = QuerySize(request, "limit", 0);
    if (!limit.ok()) return ErrorResponse(limit.status());
    Result<size_t> offset = QuerySize(request, "offset", 0);
    if (!offset.ok()) return ErrorResponse(offset.status());
    std::vector<std::string> names = store.Names();
    JsonValue list = JsonValue::MakeArray();
    size_t end = names.size();
    if (*limit > 0) end = std::min(end, *offset + *limit);
    for (size_t i = *offset; i < end; ++i) {
      Result<TablePtr> table = store.Get(names[i]);
      if (!table.ok()) continue;
      JsonValue item = JsonValue::MakeObject();
      item.Set("name", JsonValue::MakeString(names[i]));
      item.Set("version", JsonValue::MakeNumber(
                              static_cast<double>((*table)->version())));
      item.Set("rows", JsonValue::MakeNumber(
                           static_cast<double>((*table)->num_rows())));
      list.Append(std::move(item));
    }
    JsonValue body = JsonValue::MakeObject();
    body.Set("objects", std::move(list));
    AddPageMeta(&body, *limit, *offset, names.size());
    return JsonResponse(200, std::move(body));
  }

  std::string head = PercentDecode(segments[0]);

  // POST /objects/<name>:append — JSON rows in, 202 + new version out,
  // with incremental maintenance of everything downstream.
  const std::string kAppend = ":append";
  if (head.size() > kAppend.size() && EndsWith(head, kAppend)) {
    if (segments.size() != 1) {
      return ErrorResponse(Status::NotFound("unknown objects route"));
    }
    if (request.method != "POST") return MethodNotAllowed(request, "POST");
    const std::string object = head.substr(0, head.size() - kAppend.size());
    Result<TablePtr> base = store.Get(object);
    if (!base.ok()) return ErrorResponse(base.status());
    uint64_t base_version = (*base)->version();

    // Optimistic concurrency: If-Match pins the version the writer saw.
    uint64_t expected_version = 0;
    auto if_match = request.headers.find("If-Match");
    if (if_match != request.headers.end()) {
      std::optional<uint64_t> parsed = ParseETagVersion(if_match->second);
      if (!parsed.has_value()) {
        return ErrorResponse(Status::InvalidArgument(
            "If-Match must be \"<version>\" or *, got '" + if_match->second +
            "'"));
      }
      expected_version = *parsed;
    }

    Result<std::vector<std::vector<Value>>> rows =
        RowsFromJsonBody(request.body, (*base)->schema());
    if (!rows.ok()) return ErrorResponse(rows.status());

    Result<Dashboard::AppendResult> appended =
        dashboard->AppendToObject(object, *rows, expected_version);
    if (!appended.ok()) {
      if (appended.status().code() == StatusCode::kConflict &&
          expected_version != 0) {
        // The If-Match precondition failed: 412 with the current version
        // so the writer can re-read, rebase, and retry.
        HttpResponse response = ErrorResponse(appended.status());
        response.status = 412;
        Result<TablePtr> current = store.Get(object);
        if (current.ok()) {
          response.headers["ETag"] = VersionETag((*current)->version());
        }
        return response;
      }
      return ErrorResponse(appended.status());
    }

    // Publication: record every changed object's delta in the changelog
    // feeding /changes subscribers, and forward published outputs into
    // the shared registry so other dashboards patch instead of refetch.
    for (const auto& [changed, delta] : appended->deltas) {
      Result<TablePtr> grown = store.Get(changed);
      if (!grown.ok()) continue;
      uint64_t prev = 0;
      if (auto it = appended->prev_versions.find(changed);
          it != appended->prev_versions.end()) {
        prev = it->second;
      }
      object_log_.PublishAppend(dash_name + "/" + changed, *grown, delta,
                                dash_name, prev);
    }
    for (const std::string& changed : appended->full_changed) {
      Result<TablePtr> rebuilt = store.Get(changed);
      if (!rebuilt.ok()) continue;
      object_log_.Publish(dash_name + "/" + changed, *rebuilt, dash_name);
    }
    if (shared_ != nullptr) {
      for (const auto& [publish_name, data_name] :
           dashboard->plan().published) {
        if (!shared_->Contains(publish_name)) continue;  // never published
        Result<TablePtr> grown = store.Get(data_name);
        if (!grown.ok()) continue;
        if (auto it = appended->deltas.find(data_name);
            it != appended->deltas.end()) {
          uint64_t prev = 0;
          if (auto pv = appended->prev_versions.find(data_name);
              pv != appended->prev_versions.end()) {
            prev = pv->second;
          }
          shared_->PublishAppend(publish_name, *grown, it->second, dash_name,
                                 prev);
        } else if (appended->full_changed.count(data_name) > 0) {
          shared_->Publish(publish_name, *grown, dash_name);
        }
      }
    }

    JsonValue body = JsonValue::MakeObject();
    body.Set("object", JsonValue::MakeString(object));
    body.Set("version", JsonValue::MakeNumber(
                            static_cast<double>(appended->version)));
    body.Set("previous_version",
             JsonValue::MakeNumber(static_cast<double>(base_version)));
    body.Set("rows_appended", JsonValue::MakeNumber(static_cast<double>(
                                  appended->rows_appended)));
    body.Set("flows_delta",
             JsonValue::MakeNumber(appended->stats.flows_delta));
    body.Set("flows_full_fallback",
             JsonValue::MakeNumber(appended->stats.flows_full_fallback));
    body.Set("wall_ms", JsonValue::MakeNumber(appended->stats.wall_ms));
    JsonValue changed_list = JsonValue::MakeArray();
    for (const auto& [changed, delta] : appended->deltas) {
      (void)delta;
      changed_list.Append(JsonValue::MakeString(changed));
    }
    body.Set("delta_objects", std::move(changed_list));
    JsonValue rebuilt_list = JsonValue::MakeArray();
    for (const std::string& changed : appended->full_changed) {
      rebuilt_list.Append(JsonValue::MakeString(changed));
    }
    body.Set("rebuilt_objects", std::move(rebuilt_list));
    HttpResponse response = JsonResponse(202, std::move(body));
    response.headers["ETag"] = VersionETag(appended->version);
    return response;
  }

  const std::string& object = head;
  Result<TablePtr> table = store.Get(object);
  if (!table.ok()) return ErrorResponse(table.status());

  // GET /objects/<name> — versioned read; 304 when If-None-Match holds.
  if (segments.size() == 1) {
    if (request.method != "GET") return MethodNotAllowed(request, "GET");
    const std::string etag = VersionETag((*table)->version());
    auto inm = request.headers.find("If-None-Match");
    if (inm != request.headers.end()) {
      std::optional<uint64_t> parsed = ParseETagVersion(inm->second);
      if (parsed.has_value() &&
          (*parsed == 0 || *parsed == (*table)->version())) {
        HttpResponse response;
        response.status = 304;
        response.headers["ETag"] = etag;
        return response;
      }
    }
    Result<size_t> limit = QuerySize(request, "limit", 100);
    if (!limit.ok()) return ErrorResponse(limit.status());
    Result<size_t> offset = QuerySize(request, "offset", 0);
    if (!offset.ok()) return ErrorResponse(offset.status());
    JsonValue body = JsonValue::MakeObject();
    body.Set("name", JsonValue::MakeString(object));
    body.Set("version", JsonValue::MakeNumber(
                            static_cast<double>((*table)->version())));
    body.Set("rows", TableToJson(**table, *limit, *offset));
    AddPageMeta(&body, *limit, *offset, (*table)->num_rows());
    HttpResponse response = JsonResponse(200, std::move(body));
    response.headers["ETag"] = etag;
    return response;
  }

  // GET /objects/<name>/changes?since=<version>[&timeout_ms=<ms>] — the
  // subscriber long-poll: versioned deltas strictly after the cursor.
  if (segments.size() == 2 && segments[1] == "changes") {
    if (request.method != "GET") return MethodNotAllowed(request, "GET");
    Result<size_t> since = QuerySize(request, "since", 0);
    if (!since.ok()) return ErrorResponse(since.status());
    Result<size_t> timeout = QuerySize(request, "timeout_ms", 0);
    if (!timeout.ok()) return ErrorResponse(timeout.status());
    const std::string key = dash_name + "/" + object;
    // First contact seeds the changelog with the current table so a
    // caught-up subscriber can park on the change condition variable.
    if (object_log_.Version(key) == 0) {
      object_log_.Publish(key, *table, dash_name);
    }
    int64_t wait_ms =
        static_cast<int64_t>(std::min<size_t>(*timeout, 30000));
    SharedDataRegistry::Changes changes =
        wait_ms > 0
            ? object_log_.WaitForChange(key, *since, wait_ms)
            : object_log_.ChangesSince(key, *since);
    JsonValue events = JsonValue::MakeArray();
    for (const SharedDataRegistry::ChangeEvent& event : changes.events) {
      JsonValue item = JsonValue::MakeObject();
      item.Set("version", JsonValue::MakeNumber(
                              static_cast<double>(event.version)));
      item.Set("append", JsonValue::MakeBool(event.append));
      if (event.append && event.delta != nullptr) {
        item.Set("rows", TableToJson(*event.delta));
      } else {
        item.Set("rows", JsonValue());  // full rewrite: refetch the object
      }
      events.Append(std::move(item));
    }
    JsonValue body = JsonValue::MakeObject();
    body.Set("object", JsonValue::MakeString(object));
    body.Set("since",
             JsonValue::MakeNumber(static_cast<double>(*since)));
    body.Set("version", JsonValue::MakeNumber(
                            static_cast<double>(object_log_.Version(key))));
    body.Set("contiguous", JsonValue::MakeBool(changes.contiguous));
    body.Set("events", std::move(events));
    return JsonResponse(200, std::move(body));
  }

  return ErrorResponse(Status::NotFound("unknown objects route"));
}

HttpResponse ApiServer::HandleDatasets(Dashboard* dashboard,
                                       const std::vector<std::string>& segments,
                                       const HttpRequest& request,
                                       CancellationToken* cancel) {
  if (segments.empty()) {
    return ErrorResponse(Status::NotFound("unknown route"));
  }
  if (request.method != "GET") return MethodNotAllowed(request, "GET");

  // /<dash>/explore/<dataset> — the data explorer's tabular view.
  if (segments[0] == "explore" && segments.size() == 2) {
    Result<TablePtr> table = dashboard->EndpointData(segments[1]);
    if (!table.ok()) return ErrorResponse(table.status());
    Result<size_t> limit = QuerySize(request, "limit", 20);
    if (!limit.ok()) return ErrorResponse(limit.status());
    return TextResponse((*table)->ToDisplayString(*limit));
  }

  if (segments[0] != "ds") {
    return ErrorResponse(Status::NotFound("unknown route"));
  }

  // /<dash>/ds — list endpoint data objects (fig. 27).
  if (segments.size() == 1) {
    Result<size_t> limit = QuerySize(request, "limit", 0);
    if (!limit.ok()) return ErrorResponse(limit.status());
    Result<size_t> offset = QuerySize(request, "offset", 0);
    if (!offset.ok()) return ErrorResponse(offset.status());
    const std::vector<std::string>& endpoints = dashboard->plan().endpoints;
    JsonValue body = JsonValue::MakeObject();
    body.Set("ds", NamesPage(endpoints, *limit, *offset));
    AddPageMeta(&body, *limit, *offset, endpoints.size());
    return JsonResponse(200, std::move(body));
  }

  const std::string& dataset = segments[1];
  // Endpoint-only exposure: non-endpoint objects are not served.
  const auto& endpoints = dashboard->plan().endpoints;
  if (std::find(endpoints.begin(), endpoints.end(), dataset) ==
      endpoints.end()) {
    return ErrorResponse(Status::NotFound(
        "'" + dataset + "' is not an endpoint data object"));
  }
  Result<TablePtr> table = dashboard->EndpointData(dataset);
  if (!table.ok()) return ErrorResponse(table.status());
  TablePtr current = *table;

  // Interactive ad-hoc work (filters / groupby below) runs under the
  // request's token so a fired deadline aborts it mid-operator.
  ExecContext interactive_ctx = dashboard->exec_context();
  interactive_ctx.cancel = cancel;

  // Chained /filter/<col>/<op>/<value> segments narrow the dataset before
  // browsing or grouping (extended fig. 30 grammar). Values arrive
  // percent-encoded in the path; literals are type-inferred so numeric
  // comparisons work against numeric columns.
  size_t next = 2;
  struct ParsedFilter {
    std::string column;
    FilterCompareOp::Cmp cmp;
    Value literal;
  };
  std::vector<ParsedFilter> filters;
  while (next < segments.size() && segments[next] == "filter") {
    if (segments.size() - next < 4) {
      return ErrorResponse(Status::InvalidArgument(
          "filter needs /filter/<column>/<op>/<value>"));
    }
    ParsedFilter parsed;
    parsed.column = PercentDecode(segments[next + 1]);
    Result<FilterCompareOp::Cmp> cmp =
        FilterCompareOp::ParseCmp(segments[next + 2]);
    if (!cmp.ok()) return ErrorResponse(cmp.status());
    parsed.cmp = *cmp;
    parsed.literal = Value::Infer(PercentDecode(segments[next + 3]));
    filters.push_back(std::move(parsed));
    next += 4;
  }

  // Sharing fast path: a chain of string-equality filters ending in a
  // groupby is exactly the cube's query shape, so serve it through the
  // endpoint's SharedScanBatcher — repeated queries answer from the
  // result cache and concurrent ones coalesce into shared scans. Only
  // string literals lower: the cube keeps postings for dictionary
  // (string) columns alone, so string equality is the one filter it
  // answers faster than FilterCompareOp. (A null literal would also
  // differ: cube membership matches null cells, FilterCompareOp never
  // does.) Any miss here falls through to the operator path below, which
  // handles every shape.
  if (segments.size() == next + 4 && segments[next] == "groupby") {
    bool cube_eligible = true;
    for (const ParsedFilter& filter : filters) {
      if (filter.cmp != FilterCompareOp::Cmp::kEq ||
          !filter.literal.is_string()) {
        cube_eligible = false;
        break;
      }
    }
    if (cube_eligible) {
      DataCube::Query cube_query;
      for (const ParsedFilter& filter : filters) {
        cube_query.filters.push_back(
            DataCube::Filter{filter.column, {filter.literal}, false});
      }
      const std::string group_col = PercentDecode(segments[next + 1]);
      const std::string agg_fn = PercentDecode(segments[next + 2]);
      const std::string agg_col = PercentDecode(segments[next + 3]);
      cube_query.group_by = {group_col};
      cube_query.aggregates = {
          AggregateSpec{agg_fn, agg_col, agg_fn + "_" + agg_col}};
      Result<Dashboard::CubeQueryResult> from_cube =
          dashboard->CubeQuery(dataset, cube_query);
      if (from_cube.ok()) {
        Result<size_t> limit = QuerySize(request, "limit", 0);
        if (!limit.ok()) return ErrorResponse(limit.status());
        Result<size_t> offset = QuerySize(request, "offset", 0);
        if (!offset.ok()) return ErrorResponse(offset.status());
        JsonValue body = JsonValue::MakeObject();
        body.Set("rows", TableToJson(*from_cube->table, *limit, *offset));
        body.Set("cache", JsonValue::MakeString(
                              from_cube->cache_hit ? "hit" : "miss"));
        AddPageMeta(&body, *limit, *offset, from_cube->table->num_rows());
        return JsonResponse(200, std::move(body));
      }
    }
  }

  for (const ParsedFilter& parsed : filters) {
    FilterCompareOp filter(parsed.column, parsed.cmp, parsed.literal);
    Result<TablePtr> filtered = filter.Execute({current}, interactive_ctx);
    if (!filtered.ok()) return ErrorResponse(filtered.status());
    current = std::move(*filtered);
  }

  // /<dash>/ds/<dataset>[/filter...] — browse rows (fig. 28).
  if (next == segments.size()) {
    Result<size_t> limit = QuerySize(request, "limit", 100);
    if (!limit.ok()) return ErrorResponse(limit.status());
    Result<size_t> offset = QuerySize(request, "offset", 0);
    if (!offset.ok()) return ErrorResponse(offset.status());
    JsonValue body = JsonValue::MakeObject();
    body.Set("name", JsonValue::MakeString(dataset));
    body.Set("rows", TableToJson(*current, *limit, *offset));
    AddPageMeta(&body, *limit, *offset, current->num_rows());
    return JsonResponse(200, std::move(body));
  }

  // .../groupby/<col>/<agg>/<col> — ad-hoc query (fig. 30's simplified
  // query language), over the filtered rows.
  if (segments.size() == next + 4 && segments[next] == "groupby") {
    const std::string group_col = PercentDecode(segments[next + 1]);
    const std::string agg_fn = PercentDecode(segments[next + 2]);
    const std::string agg_col = PercentDecode(segments[next + 3]);
    Result<TableOperatorPtr> groupby = GroupByOp::Create(
        {group_col}, {AggregateSpec{agg_fn, agg_col,
                                    agg_fn + "_" + agg_col}});
    if (!groupby.ok()) return ErrorResponse(groupby.status());
    Result<TablePtr> result = (*groupby)->Execute({current}, interactive_ctx);
    if (!result.ok()) return ErrorResponse(result.status());
    Result<size_t> limit = QuerySize(request, "limit", 0);
    if (!limit.ok()) return ErrorResponse(limit.status());
    Result<size_t> offset = QuerySize(request, "offset", 0);
    if (!offset.ok()) return ErrorResponse(offset.status());
    JsonValue body = JsonValue::MakeObject();
    body.Set("rows", TableToJson(**result, *limit, *offset));
    AddPageMeta(&body, *limit, *offset, (*result)->num_rows());
    return JsonResponse(200, std::move(body));
  }

  return ErrorResponse(Status::NotFound("unknown ds route"));
}

}  // namespace shareinsights
