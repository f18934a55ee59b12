#include "service/protocol.h"

namespace aalign::service {

const char* error_code_name(ErrorCode c) {
  switch (c) {
    case ErrorCode::None: return "none";
    case ErrorCode::InvalidRequest: return "invalid_request";
    case ErrorCode::EmptyDatabase: return "empty_database";
    case ErrorCode::QueryTooLong: return "query_too_long";
    case ErrorCode::Overloaded: return "overloaded";
    case ErrorCode::DeadlineExceeded: return "deadline_exceeded";
    case ErrorCode::Cancelled: return "cancelled";
    case ErrorCode::ServerShutdown: return "server_shutdown";
    case ErrorCode::Internal: return "internal";
  }
  return "internal";
}

ErrorCode error_code_from_name(const std::string& name) {
  for (ErrorCode c :
       {ErrorCode::None, ErrorCode::InvalidRequest, ErrorCode::EmptyDatabase,
        ErrorCode::QueryTooLong, ErrorCode::Overloaded,
        ErrorCode::DeadlineExceeded, ErrorCode::Cancelled,
        ErrorCode::ServerShutdown, ErrorCode::Internal}) {
    if (name == error_code_name(c)) return c;
  }
  return ErrorCode::Internal;
}

std::string parse_request(const obs::Json& doc, WireRequest& out) {
  if (!doc.is_object()) return "request must be a JSON object";
  out = WireRequest{};

  if (const obs::Json* id = doc.find("id")) {
    if (!id->is_number()) return "'id' must be a number";
    out.id = id->as_int();
  }

  const obs::Json* queries = doc.find("queries");
  if (queries == nullptr) return "missing 'queries'";
  if (!queries->is_array()) return "'queries' must be an array";
  out.queries.reserve(queries->size());
  for (std::size_t i = 0; i < queries->size(); ++i) {
    const obs::Json& q = queries->at(i);
    if (!q.is_string()) return "'queries' entries must be strings";
    out.queries.push_back(q.as_string());
  }

  if (const obs::Json* k = doc.find("top_k")) {
    if (!k->is_number() || k->as_int() < 0) {
      return "'top_k' must be a non-negative number";
    }
    out.top_k = static_cast<std::size_t>(k->as_int());
  }
  if (const obs::Json* d = doc.find("deadline_ms")) {
    if (!d->is_number() || d->as_int() < 0) {
      return "'deadline_ms' must be a non-negative number";
    }
    out.deadline_ms = d->as_int();
  }
  if (const obs::Json* f = doc.find("filter")) {
    if (!f->is_string()) return "'filter' must be \"off\", \"on\", or \"auto\"";
    const auto mode = filter::parse_filter_mode(f->as_string());
    if (!mode) return "'filter' must be \"off\", \"on\", or \"auto\"";
    out.filter = *mode;
    out.filter_explicit = true;
  }
  return "";
}

obs::Json request_json(const WireRequest& req) {
  obs::Json doc = obs::Json::object();
  doc.set("id", req.id);
  obs::Json qs = obs::Json::array();
  for (const std::string& q : req.queries) qs.push_back(q);
  doc.set("queries", std::move(qs));
  doc.set("top_k", req.top_k);
  if (req.deadline_ms > 0) doc.set("deadline_ms", req.deadline_ms);
  if (req.filter_explicit || req.filter != filter::FilterMode::Auto) {
    doc.set("filter", filter::filter_mode_name(req.filter));
  }
  return doc;
}

obs::Json response_json(const WireResponse& resp) {
  obs::Json doc = obs::Json::object();
  doc.set("id", resp.id);
  doc.set("ok", resp.ok);
  if (!resp.ok) {
    obs::Json err = obs::Json::object();
    err.set("code", error_code_name(resp.error));
    err.set("message", resp.message);
    doc.set("error", std::move(err));
    return doc;
  }
  doc.set("degraded", resp.degraded);
  doc.set("filtered", resp.filtered);
  if (resp.incomplete) doc.set("incomplete", true);
  doc.set("queue_ms", resp.queue_ms);
  doc.set("exec_ms", resp.exec_ms);
  obs::Json results = obs::Json::array();
  for (const WireResult& r : resp.results) {
    obs::Json hits = obs::Json::array();
    for (const WireHit& h : r.hits) {
      obs::Json hit = obs::Json::object();
      hit.set("index", h.index);
      hit.set("subject", h.subject);
      hit.set("score", h.score);
      hits.push_back(std::move(hit));
    }
    obs::Json res = obs::Json::object();
    res.set("hits", std::move(hits));
    results.push_back(std::move(res));
  }
  doc.set("results", std::move(results));
  return doc;
}

WireResponse parse_response(const obs::Json& doc) {
  WireResponse resp;
  if (!doc.is_object()) {
    resp.error = ErrorCode::Internal;
    resp.message = "response is not a JSON object";
    return resp;
  }
  resp.id = doc["id"].as_int();
  resp.ok = doc["ok"].as_bool();
  if (!resp.ok) {
    const obs::Json& err = doc["error"];
    resp.error = error_code_from_name(err["code"].as_string());
    resp.message = err["message"].as_string();
    return resp;
  }
  if (const obs::Json* f = doc.find("filtered")) resp.filtered = f->as_bool();
  if (const obs::Json* p = doc.find("incomplete")) resp.incomplete = p->as_bool();
  resp.queue_ms = doc["queue_ms"].as_double();
  resp.exec_ms = doc["exec_ms"].as_double();
  const obs::Json& results = doc["results"];
  for (std::size_t i = 0; i < results.size(); ++i) {
    const obs::Json& r = results.at(i);
    WireResult out;
    const obs::Json& hits = r["hits"];
    for (std::size_t j = 0; j < hits.size(); ++j) {
      const obs::Json& h = hits.at(j);
      WireHit hit;
      hit.index = static_cast<std::size_t>(h["index"].as_int());
      hit.subject = h["subject"].as_string();
      hit.score = static_cast<long>(h["score"].as_int());
      out.hits.push_back(std::move(hit));
    }
    resp.results.push_back(std::move(out));
  }
  return resp;
}

WireResponse error_response(std::int64_t id, ErrorCode code,
                            std::string message) {
  WireResponse resp;
  resp.id = id;
  resp.ok = false;
  resp.error = code;
  resp.message = std::move(message);
  return resp;
}

}  // namespace aalign::service
