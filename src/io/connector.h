#ifndef SHAREINSIGHTS_IO_CONNECTOR_H_
#define SHAREINSIGHTS_IO_CONNECTOR_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/retry.h"
#include "common/rng.h"
#include "io/error_policy.h"
#include "obs/trace.h"
#include "table/table.h"

namespace shareinsights {

/// `column => json.path` mapping from a D-section declaration like
/// `question => title` (figure 6). When `path` is empty the column maps
/// to a payload field of the same name.
struct ColumnMapping {
  std::string column;
  std::string path;
};

/// The protocol/payload parameters of one data object, i.e. the key/value
/// pairs in a D-section details block (`source:`, `protocol:`, `format:`,
/// `separator:`, `http_headers:` entries flattened as `http_headers.X`).
class DataSourceParams {
 public:
  void Set(const std::string& key, const std::string& value) {
    params_[key] = value;
  }
  bool Has(const std::string& key) const { return params_.count(key) > 0; }
  std::string Get(const std::string& key,
                  const std::string& fallback = "") const {
    auto it = params_.find(key);
    return it == params_.end() ? fallback : it->second;
  }
  const std::map<std::string, std::string>& all() const { return params_; }

 private:
  std::map<std::string, std::string> params_;
};

/// Protocol connector: fetches a raw payload for a data object. The
/// platform ships file/http/https/ftp/jdbc connectors; users add more via
/// ConnectorRegistry (the paper's Connectors extension API).
class Connector {
 public:
  virtual ~Connector() = default;
  /// Protocol name this connector serves, e.g. "file", "http".
  virtual std::string protocol() const = 0;
  /// Fetches the payload described by `params` (notably `source`).
  virtual Result<std::string> Fetch(const DataSourceParams& params) = 0;
};

/// Payload format: parses a fetched payload into a Table. The platform
/// ships csv/tsv/json; users add more via FormatRegistry (the paper's
/// Data-formats extension API).
class Format {
 public:
  virtual ~Format() = default;
  virtual std::string name() const = 0;
  /// Parses `payload`. `declared` is the D-section schema (may be empty
  /// for header-carrying formats); `mappings` carry `=>` path bindings.
  /// Formats honouring an `error_policy:` param report rejected rows via
  /// `report` (may be null).
  virtual Result<TablePtr> Parse(const std::string& payload,
                                 const DataSourceParams& params,
                                 const std::optional<Schema>& declared,
                                 const std::vector<ColumnMapping>& mappings,
                                 ParseReport* report = nullptr) = 0;
};

/// In-process stand-in for the network: URL -> payload. Examples and
/// tests publish payloads here, and the http/https/ftp/jdbc connectors
/// read from it. This substitutes for live provider APIs (Gnip,
/// stackexchange) per DESIGN.md while exercising the same ingestion path.
class SimulatedRemoteStore {
 public:
  /// Deterministic "flaky provider" mode: while set, each Fetch first
  /// consults this before payload lookup. The first `fail_first` fetches
  /// fail unconditionally; afterwards each fetch fails with
  /// `fail_probability` drawn from a splitmix64 Rng seeded by `seed`, so
  /// a fixed seed yields the same failure pattern every run. `latency_ms`
  /// delays every fetch, failed or not.
  struct FlakyMode {
    int fail_first = 0;
    double fail_probability = 0;
    int latency_ms = 0;
    uint64_t seed = 0;
    Status status = Status::IoError("flaky simulated remote");
  };

  static SimulatedRemoteStore& Get();

  void Publish(const std::string& url, std::string payload);
  /// Registers a dynamic responder consulted when no static payload
  /// matches (lets tests emulate paginated/parameterized APIs). The
  /// responder is invoked OUTSIDE the store's lock (a copy is taken
  /// under the lock), so it may call back into Publish/Fetch without
  /// deadlocking and is safe under the executor's thread pool.
  void SetResponder(
      std::function<Result<std::string>(const std::string& url,
                                        const DataSourceParams&)> responder);
  /// Enables flaky mode; pass a default FlakyMode{} via ClearFlaky() to
  /// turn it off.
  void SetFlaky(FlakyMode flaky);
  void ClearFlaky();
  Result<std::string> Fetch(const std::string& url,
                            const DataSourceParams& params) const;
  /// Drops ALL registered state: static payloads, the dynamic responder,
  /// and flaky mode. Tests relying on a responder surviving Clear() must
  /// re-register it.
  void Clear();
  /// Fetches attempted / failed (flaky or missing) since Clear().
  int64_t fetches() const;
  int64_t failures() const;

 private:
  SimulatedRemoteStore() = default;
  mutable std::mutex mu_;
  std::map<std::string, std::string> payloads_;
  std::function<Result<std::string>(const std::string&,
                                    const DataSourceParams&)>
      responder_;
  FlakyMode flaky_;
  mutable Rng flaky_rng_{0};
  mutable int64_t fetches_ = 0;
  mutable int64_t failures_ = 0;
};

/// Registry of protocol connectors (extension point). Thread-safe.
class ConnectorRegistry {
 public:
  /// Registry pre-loaded with the platform connectors.
  static ConnectorRegistry& Default();

  ConnectorRegistry();

  Status Register(std::shared_ptr<Connector> connector);
  Result<std::shared_ptr<Connector>> Get(const std::string& protocol) const;
  std::vector<std::string> Protocols() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Connector>> connectors_;
};

/// Registry of payload formats (extension point). Thread-safe.
class FormatRegistry {
 public:
  /// Registry pre-loaded with csv/tsv/json.
  static FormatRegistry& Default();

  FormatRegistry();

  Status Register(std::shared_ptr<Format> format);
  Result<std::shared_ptr<Format>> Get(const std::string& name) const;
  std::vector<std::string> Names() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Format>> formats_;
};

/// Retry schedule of one data object, read from its D-section details:
/// `retry.max_attempts`, `retry.backoff_ms`, `retry.backoff_multiplier`,
/// `retry.jitter_seed`, and `timeout_ms` (overall deadline across
/// attempts). Absent keys keep RetryPolicy defaults (single attempt).
RetryPolicy RetryPolicyFromParams(const DataSourceParams& params);

/// Telemetry of one LoadDataObject call, surfaced by the executor in
/// ExecutionStats and spans.
struct LoadReport {
  /// Fetch+parse attempts made (1 = first try succeeded).
  int attempts = 1;
  /// Rows rejected by the skip/quarantine error policies.
  int64_t rows_quarantined = 0;
  /// Side table of quarantined rows (null unless policy is quarantine
  /// and at least one row was rejected).
  TablePtr quarantine;
  /// Digest of what the table was built from: the payload bytes and
  /// length, every DataSourceParams entry, the format name, the declared
  /// schema and the `=>` mappings. 0 when no payload got past the fetch.
  uint64_t digest = 0;
  /// True when `digest` matched the PreviousLoad handed in and its table
  /// was returned without parsing.
  bool reused = false;
};

/// What an earlier load of the same data object produced, while the
/// store still holds exactly that table (DataStore::LastLoad). Same
/// digest means same bytes and same parse inputs, so the table a parse
/// would build is byte-identical to `table`.
struct PreviousLoad {
  uint64_t digest = 0;
  TablePtr table;
};

/// End-to-end ingestion of one data object: resolve the connector from
/// `protocol` (defaulting from the source string: "http://..." => http,
/// otherwise file), fetch the payload, resolve the format (`format:` key,
/// defaulting from the source extension), and parse.
///
/// Fault tolerance (docs/ROBUSTNESS.md):
///   - the per-protocol circuit breaker (CircuitBreakerRegistry) is
///     consulted first; an open breaker fails fast with kUnavailable and
///     is surfaced as a `circuit_open_<protocol>` gauge;
///   - the fetch+parse attempt runs under the object's RetryPolicy
///     (`retry.*` / `timeout_ms` params): transient failures retry with
///     exponential backoff + deterministic jitter until attempts or the
///     deadline run out, feeding io_retries_total;
///   - the `io.fetch` / `io.parse` FaultInjector sites fire inside each
///     attempt (faults_injected_total).
///
/// Unchanged sources: every fetched payload is digested (LoadReport::
/// digest). When `previous` carries the same digest, its table is
/// returned as is: no parse, no `source:load` charge, and the `io.parse`
/// span says `reused=true` (io_sources_reused_total). The check runs
/// after the `io.parse` fault site, so injected faults and retries fire
/// at the same attempts whether or not a previous load exists.
///
/// When `tracer` is set, the fetch and parse steps are recorded as
/// `io.fetch` / `io.parse` spans under `trace_parent` (the executor
/// passes its per-source span), with protocol/bytes/format/rows/attempts
/// attributes. Reads also feed the io_* metrics in
/// MetricsRegistry::Default().
Result<TablePtr> LoadDataObject(const DataSourceParams& params,
                                const std::optional<Schema>& declared,
                                const std::vector<ColumnMapping>& mappings,
                                ConnectorRegistry* connectors = nullptr,
                                FormatRegistry* formats = nullptr,
                                Tracer* tracer = nullptr,
                                SpanId trace_parent = 0,
                                LoadReport* report = nullptr,
                                const PreviousLoad* previous = nullptr);

/// Streaming ingestion of one append batch for an already-loaded data
/// object: same fetch/retry/fault-injection path as LoadDataObject, but
/// the payload is parsed against `base`'s schema, so the batch comes out
/// as typed columns — dictionary-encoded string columns intern through
/// the same sorted-dictionary scheme as the base — instead of a
/// re-inferred whole-table reload. Readers infer cell types from the
/// batch itself, so batch columns are then coerced to the base types
/// where no value changes: int64 widens to double, and a column with no
/// values takes the base type. The result is a delta table whose schema
/// is byte-equal to `base->schema()`, ready for ConcatTables /
/// Executor::ExecuteAppend; any other type mismatch is rejected with a
/// SchemaError naming the column rather than silently widening the base.
/// Feeds io_append_batches_total on top of the usual io_* metrics.
Result<TablePtr> LoadAppendBatch(const DataSourceParams& params,
                                 const TablePtr& base,
                                 const std::vector<ColumnMapping>& mappings,
                                 ConnectorRegistry* connectors = nullptr,
                                 FormatRegistry* formats = nullptr,
                                 Tracer* tracer = nullptr,
                                 SpanId trace_parent = 0,
                                 LoadReport* report = nullptr);

}  // namespace shareinsights

#endif  // SHAREINSIGHTS_IO_CONNECTOR_H_
