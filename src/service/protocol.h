// Wire protocol of aalignd (docs/service.md): newline-delimited JSON over
// a plain TCP stream, one request object per line in, one response object
// per line out, in order. The document model is obs::Json - the same
// minimal RFC 8259 subset the metrics exporter uses - so the service adds
// no parsing dependency.
//
// Request line:
//   {"id": 7, "queries": ["MKV..."], "top_k": 5,
//    "deadline_ms": 250, "filter": "auto"}
//
// Success line:
//   {"id": 7, "ok": true, "degraded": false, "filtered": true,
//    "queue_ms": 0.1, "exec_ms": 5.2,
//    "results": [{"hits": [{"index": 3, "subject": "db3", "score": 87}]}]}
//
// Error line (structured - malformed or oversized input never tears down
// the connection, and server-side stops map to distinct codes):
//   {"id": 7, "ok": false,
//    "error": {"code": "deadline_exceeded", "message": "..."}}
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "filter/signature.h"
#include "obs/json.h"

namespace aalign::service {

// Stable wire error codes (the names are the contract; see
// docs/service.md for when each is produced).
enum class ErrorCode : std::uint8_t {
  None = 0,
  InvalidRequest,    // malformed JSON / schema violation / bad field value
  EmptyDatabase,     // the service has no subjects to search
  QueryTooLong,      // a query exceeds the configured maximum length
  Overloaded,        // shed by admission control (queue full)
  DeadlineExceeded,  // the request's deadline passed before completion
  Cancelled,         // client disconnected / operator abort mid-request
  ServerShutdown,    // arrived while the server was draining
  Internal,          // unexpected server-side failure
};

const char* error_code_name(ErrorCode c);
// ErrorCode::Internal for unknown names (a response parser never throws).
ErrorCode error_code_from_name(const std::string& name);

struct WireRequest {
  std::int64_t id = 0;                // client-chosen, echoed verbatim
  std::vector<std::string> queries;   // residue strings, one per query
  std::size_t top_k = 10;
  std::int64_t deadline_ms = 0;       // relative budget; 0 = no deadline
  // Two-stage routing ("off" | "on" | "auto"): whether the signature
  // pre-filter may screen subjects before exact rescoring. Requests that
  // omit the field (filter_explicit=false) inherit the server's default
  // mode (aalignd --filter, Auto unless overridden).
  filter::FilterMode filter = filter::FilterMode::Auto;
  bool filter_explicit = false;
};

struct WireHit {
  std::size_t index = 0;  // ORIGINAL database position
  std::string subject;    // subject sequence id
  long score = 0;
};

struct WireResult {
  std::vector<WireHit> hits;  // best top_k, descending score
};

struct WireResponse {
  std::int64_t id = 0;
  bool ok = false;
  ErrorCode error = ErrorCode::None;
  std::string message;
  // Always false: every response is exact. Still sent as
  // "degraded": false because deployed clients parse the key.
  bool degraded = false;
  bool filtered = false;   // the signature pre-filter screened subjects
  // Partial-result contract (gateway fan-out, docs/deployment.md): true
  // when one or more shards missed the deadline or were down, so `results`
  // covers only the surviving partitions. Every hit present is still
  // exact; a response is never silently partial - either this flag is set
  // or the merge saw every shard.
  bool incomplete = false;
  double queue_ms = 0.0;   // admission-to-dequeue wait
  double exec_ms = 0.0;    // alignment execution time
  std::vector<WireResult> results;  // one per query, request order
};

// Parses one request document. Returns "" and fills `out` on success,
// else a human-readable description of the first violation (the caller
// wraps it in an InvalidRequest response). Unknown fields are ignored,
// including the retired degraded-mode opt-out older clients still send.
std::string parse_request(const obs::Json& doc, WireRequest& out);

obs::Json request_json(const WireRequest& req);
obs::Json response_json(const WireResponse& resp);

// Parses one response document (the client side). Unparseable documents
// come back as ok=false / Internal rather than throwing.
WireResponse parse_response(const obs::Json& doc);

// Convenience error-response builder.
WireResponse error_response(std::int64_t id, ErrorCode code,
                            std::string message);

}  // namespace aalign::service
