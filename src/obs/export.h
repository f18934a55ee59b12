// Versioned machine-readable export of a run: one JSON document shape
// shared by aalign_search --metrics-json, every bench_*/fig*/ablate_*
// binary, and tools/bench_compare.py (the CI perf gate reads these).
//
// Document layout (schema "aalign.run", schema_version 2 - see
// docs/observability.md for the field-by-field contract):
//
//   {
//     "schema": "aalign.run", "schema_version": 2,
//     "run":      { tool, git_sha, build, isa_dispatch, isa, threads },
//     "workload": { tool-specific scalars },
//     "headline": { "name": ..., "value": ... },        (optional)
//     "series":   { "<name>": [ {row}, ... ], ... },    (optional)
//     "metrics":  { counters: {name: u64},
//                   histograms: {name: {count,sum,min,max,
//                                       buckets: [[low,count],...]}},
//                   timers: {name: {count,total_ns,min_ns,max_ns,
//                                   total_cycles}} }
//   }
//
// Version history: 1 = the historical ad-hoc BENCH_*.json shapes (no
// schema marker); 2 = this unified document.
#pragma once

#include <string>

#include "obs/json.h"
#include "obs/metrics.h"

namespace aalign::obs {

inline constexpr const char* kSchemaName = "aalign.run";
inline constexpr int kSchemaVersion = 2;

struct RunMeta {
  std::string tool;  // binary/benchmark name
  std::string isa;   // ISA the run actually used ("" = dispatch decision)
  int threads = 0;   // 0 = unspecified
};

// Git SHA the library was configured from ("unknown" outside a checkout).
const char* build_git_sha();
// CMAKE_BUILD_TYPE the library was compiled under.
const char* build_type();

// The "run" metadata object: tool/sha/build plus the runtime ISA dispatch
// decision (simd::best_available_isa() on this machine).
Json run_metadata_json(const RunMeta& meta);

// Registry snapshot -> the "metrics" object. Histogram buckets are
// emitted sparsely as [bucket_low, count] pairs.
Json snapshot_json(const Snapshot& snap);

// Assembles the full document. Null workload/series are omitted; a
// non-null snapshot becomes the "metrics" member.
Json make_run_document(const RunMeta& meta, Json workload, Json series,
                       const Snapshot* snap);

// Structural validation of a schema-version-2 document; returns an empty
// string on success, else a description of the first violation. Tests and
// the export paths both go through this, so a document that a binary
// writes is a document the gate can read.
std::string validate_run_document(const Json& doc);

// Pretty-printed write (trailing newline). False on I/O failure.
bool write_json_file(const std::string& path, const Json& doc);

}  // namespace aalign::obs
