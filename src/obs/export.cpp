#include "obs/export.h"

#include <cstdio>

#include "simd/isa.h"

#ifndef AALIGN_GIT_SHA
#define AALIGN_GIT_SHA "unknown"
#endif
#ifndef AALIGN_BUILD_TYPE
#define AALIGN_BUILD_TYPE "unknown"
#endif

namespace aalign::obs {

const char* build_git_sha() { return AALIGN_GIT_SHA; }
const char* build_type() { return AALIGN_BUILD_TYPE; }

Json run_metadata_json(const RunMeta& meta) {
  Json run = Json::object();
  run.set("tool", meta.tool);
  run.set("git_sha", build_git_sha());
  run.set("build", build_type());
  const char* dispatch = simd::isa_name(simd::best_available_isa());
  run.set("isa_dispatch", dispatch);
  run.set("isa", meta.isa.empty() ? std::string(dispatch) : meta.isa);
  run.set("threads", meta.threads);
  return run;
}

Json snapshot_json(const Snapshot& snap) {
  Json counters = Json::object();
  for (const CounterSnapshot& c : snap.counters) {
    counters.set(c.name, c.value);
  }
  Json histograms = Json::object();
  for (const HistogramSnapshot& h : snap.histograms) {
    Json one = Json::object();
    one.set("count", h.count);
    one.set("sum", h.sum);
    one.set("min", h.min);
    one.set("max", h.max);
    Json buckets = Json::array();
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (h.buckets[b] == 0) continue;
      Json pair = Json::array();
      pair.push_back(histogram_bucket_low(static_cast<int>(b)));
      pair.push_back(h.buckets[b]);
      buckets.push_back(std::move(pair));
    }
    one.set("buckets", std::move(buckets));
    histograms.set(h.name, std::move(one));
  }
  Json timers = Json::object();
  for (const TimerSnapshot& t : snap.timers) {
    Json one = Json::object();
    one.set("count", t.count);
    one.set("total_ns", t.total_ns);
    one.set("min_ns", t.min_ns);
    one.set("max_ns", t.max_ns);
    one.set("total_cycles", t.total_cycles);
    timers.set(t.name, std::move(one));
  }
  Json metrics = Json::object();
  metrics.set("counters", std::move(counters));
  metrics.set("histograms", std::move(histograms));
  metrics.set("timers", std::move(timers));
  return metrics;
}

Json make_run_document(const RunMeta& meta, Json workload, Json series,
                       const Snapshot* snap) {
  Json doc = Json::object();
  doc.set("schema", kSchemaName);
  doc.set("schema_version", kSchemaVersion);
  doc.set("run", run_metadata_json(meta));
  if (!workload.is_null()) doc.set("workload", std::move(workload));
  if (!series.is_null()) doc.set("series", std::move(series));
  if (snap != nullptr) doc.set("metrics", snapshot_json(*snap));
  return doc;
}

std::string validate_run_document(const Json& doc) {
  if (!doc.is_object()) return "document is not an object";
  const Json& schema = doc["schema"];
  if (!schema.is_string() || schema.as_string() != kSchemaName) {
    return "missing or wrong 'schema' (want \"" + std::string(kSchemaName) +
           "\")";
  }
  const Json& version = doc["schema_version"];
  if (!version.is_number() || version.as_int() != kSchemaVersion) {
    return "missing or wrong 'schema_version' (want " +
           std::to_string(kSchemaVersion) + ")";
  }
  const Json& run = doc["run"];
  if (!run.is_object()) return "missing 'run' object";
  for (const char* key : {"tool", "git_sha", "build", "isa_dispatch", "isa"}) {
    if (!run[key].is_string()) {
      return std::string("run.") + key + " missing or not a string";
    }
  }
  if (!run["threads"].is_number()) return "run.threads missing";
  if (doc.contains("series") && !doc["series"].is_object()) {
    return "'series' is not an object of row arrays";
  }
  if (doc.contains("series")) {
    const Json& series = doc["series"];
    for (const std::string& name : series.keys()) {
      const Json& rows = series[name];
      if (!rows.is_array()) return "series." + name + " is not an array";
      for (std::size_t i = 0; i < rows.size(); ++i) {
        if (!rows.at(i).is_object()) {
          return "series." + name + " row " + std::to_string(i) +
                 " is not an object";
        }
      }
    }
  }
  if (doc.contains("headline")) {
    const Json& headline = doc["headline"];
    if (!headline.is_object() || !headline["name"].is_string() ||
        !headline["value"].is_number()) {
      return "'headline' must be {name: string, value: number}";
    }
  }
  if (doc.contains("metrics")) {
    const Json& metrics = doc["metrics"];
    if (!metrics.is_object()) return "'metrics' is not an object";
    for (const char* key : {"counters", "histograms", "timers"}) {
      if (!metrics[key].is_object()) {
        return std::string("metrics.") + key + " missing or not an object";
      }
    }
    const Json& histograms = metrics["histograms"];
    for (const std::string& name : histograms.keys()) {
      const Json& h = histograms[name];
      if (!h["count"].is_number() || !h["sum"].is_number() ||
          !h["buckets"].is_array()) {
        return "metrics.histograms." + name + " malformed";
      }
    }
  }
  return "";
}

bool write_json_file(const std::string& path, const Json& doc) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string text = doc.dump(2);
  const bool ok = std::fputs(text.c_str(), f) >= 0 && std::fputc('\n', f) >= 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace aalign::obs
