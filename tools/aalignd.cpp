// aalignd: the alignment daemon. Serves query-vs-database protein search
// over the newline-delimited JSON TCP protocol (docs/service.md) with
// per-request deadlines, cooperative cancellation and overload shedding.
//
// Three roles, one binary (docs/deployment.md):
//   aalignd -d db.fasta [options]          # single-process server
//   aalignd --db-index db.aidx --shard 0/4 # shard member of a fleet
//   aalignd --gateway --backend h:p ...    # scatter-gather front end
//
// Options:
//   -d FILE            database FASTA
//   --db-index FILE    prebuilt binary index (aalign_index build): the
//                      database AND signature index attach by mmap in
//                      O(1) instead of parse + sort + hash. Any defect
//                      falls back to -d (reason logged) or fails fast
//                      when no FASTA was given.
//   --demo-db N        generate a synthetic database of N records
//   --shard I/N        serve only slice I of an N-way partition of the
//                      index's shard directory (requires --db-index; hits
//                      carry fleet-global original indices)
//   --gateway          scatter-gather mode: no database, fan out to the
//                      --backend list and merge per-shard top-k
//   --backend H:P      one shard backend (repeat per shard, shard order)
//   --merge-budget-ms N  deadline headroom reserved for the merge  [20]
//   --connect-timeout-ms N  per-backend connect bound              [1000]
//   --bind ADDR        listen address                   [127.0.0.1]
//   --port N           listen port (0 = ephemeral)      [7731]
//   --matrix NAME      blosum45|blosum62|blosum80|pam250  [blosum62]
//   --open N / --ext N gap penalties                    [10 / 2]
//   --threads N        alignment worker threads         [hardware]
//   --executors N      concurrent request executors     [1]
//   --queue-cap N      admission queue capacity         [64]
//   --max-query-len N  per-query residue limit          [100000]
//   --filter MODE      signature pre-filter default for requests that
//                      omit the field: on|off|auto      [auto]
//   --metrics-json F   write an "aalign.run" v2 document on shutdown
//
// SIGTERM/SIGINT initiate drain-then-exit: the listener closes, every
// queued and in-flight request completes and is answered, then the
// process exits (writing the metrics document last).
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "filter/signature.h"
#include "obs/export.h"
#include "seq/fasta.h"
#include "seq/generator.h"
#include "service/gateway.h"
#include "service/service.h"
#include "service/tcp.h"
#include "simd/isa.h"
#include "store/loader.h"
#include "util/parse.h"

using namespace aalign;

namespace {

// Async-signal-safe by construction (docs/concurrency.md, enforced by
// clang-tidy's bugprone-signal-handler): the handler only stores to a
// volatile sig_atomic_t. No locks, no allocation, no IO, no CondVar
// notify - the main loop polls the flag and runs the drain cascade in
// normal thread context.
volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "aalignd: %s (try --help)\n", msg.c_str());
  std::exit(2);
}

// `text`, the value of numeric flag `flag`, as a T in [lo, hi]; a usage
// error otherwise.
template <class T>
T flag_number(const std::string& flag, const std::string& text, T lo, T hi) {
  if (const auto v = util::parse_number(text, lo, hi)) return *v;
  die(flag + " wants a number in [" + std::to_string(lo) + ", " +
      std::to_string(hi) + "] (got '" + text + "')");
}

const score::ScoreMatrix& matrix_by_name(const std::string& name) {
  if (name == "blosum62") return score::ScoreMatrix::blosum62();
  if (name == "blosum45") return score::ScoreMatrix::blosum45();
  if (name == "blosum80") return score::ScoreMatrix::blosum80();
  if (name == "pam250") return score::ScoreMatrix::pam250();
  die("unknown matrix '" + name + "'");
}

void print_help() {
  std::printf(
      "aalignd - alignment service daemon (see docs/service.md,\n"
      "          docs/deployment.md for the fleet roles)\n"
      "  aalignd -d db.fasta [options]\n"
      "  aalignd --db-index db.aidx [options]\n"
      "  aalignd --db-index db.aidx --shard I/N   fleet shard member\n"
      "  aalignd --gateway --backend H:P ...      fleet front end\n"
      "  aalignd --demo-db 2000\n\n"
      "  --db-index FILE  mmap a prebuilt index (aalign_index build)\n"
      "  --shard I/N      serve slice I of an N-way partition\n"
      "  --gateway        scatter-gather over the --backend list\n"
      "  --backend H:P    one shard backend (repeatable, shard order)\n"
      "  --merge-budget-ms N / --connect-timeout-ms N [20 / 1000]\n"
      "  --bind ADDR / --port N                       [127.0.0.1 / 7731]\n"
      "  --matrix blosum45|blosum62|blosum80|pam250   [blosum62]\n"
      "  --open N / --ext N                           [10 / 2]\n"
      "  --threads N / --executors N                  [hardware / 1]\n"
      "  --queue-cap N                                [64]\n"
      "  --max-query-len N                            [100000]\n"
      "  --filter on|off|auto  pre-filter default      [auto]\n"
      "  --metrics-json FILE  run document on shutdown\n");
}

void write_metrics_doc(const std::string& path, const char* isa, int threads,
                       obs::Json workload) {
  obs::RunMeta meta;
  meta.tool = "aalignd";
  meta.isa = isa;
  meta.threads = threads;
  const obs::Snapshot snap = obs::registry().snapshot();
  const obs::Json doc =
      obs::make_run_document(meta, std::move(workload), obs::Json(), &snap);
  if (!obs::write_json_file(path, doc)) {
    std::fprintf(stderr, "aalignd: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::printf("aalignd: wrote %s\n", path.c_str());
}

void wait_for_signal() {
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::printf("aalignd: draining...\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string db_path, db_index_path;
  std::size_t demo_db = 0;
  std::string matrix_name = "blosum62";
  std::string metrics_json;
  bool gateway_mode = false;
  std::size_t shard_i = 0, shard_n = 0;  // --shard I/N; n == 0 = whole index
  service::ServiceOptions sopt;
  // Wire default: two-stage routing on for the regime it is calibrated
  // for (local alignment); requests override per call via "filter".
  sopt.search.filter.mode = filter::FilterMode::Auto;
  service::GatewayOptions gopt;
  service::TcpServerOptions topt;
  topt.port = 7731;
  int open = 10, ext = 2;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) die("missing value for " + a);
      return argv[++i];
    };
    if (a == "-h" || a == "--help") {
      print_help();
      return 0;
    } else if (a == "-d") {
      db_path = next();
    } else if (a == "--db-index") {
      db_index_path = next();
    } else if (a == "--demo-db") {
      demo_db = flag_number<std::size_t>(a, next(), 1, 100000000);
    } else if (a == "--shard") {
      const std::string v = next();
      const std::size_t slash = v.find('/');
      if (slash == std::string::npos) die("--shard wants I/N (got '" + v + "')");
      shard_i = flag_number<std::size_t>(a, v.substr(0, slash), 0, 65535);
      shard_n = flag_number<std::size_t>(a, v.substr(slash + 1), 1, 65536);
      if (shard_n == 0 || shard_i >= shard_n) {
        die("--shard wants I < N, N >= 1 (got '" + v + "')");
      }
    } else if (a == "--gateway") {
      gateway_mode = true;
    } else if (a == "--backend") {
      gopt.backends.push_back(next());
    } else if (a == "--merge-budget-ms") {
      gopt.merge_budget_ms = flag_number<std::int64_t>(a, next(), 0, 3600000);
    } else if (a == "--connect-timeout-ms") {
      gopt.connect_timeout_ms =
          flag_number<std::int64_t>(a, next(), 1, 3600000);
    } else if (a == "--bind") {
      topt.bind_addr = next();
    } else if (a == "--port") {
      topt.port = flag_number<std::uint16_t>(a, next(), 0, 65535);
    } else if (a == "--matrix") {
      matrix_name = next();
    } else if (a == "--open") {
      open = flag_number<int>(a, next(), 0, 1000);
    } else if (a == "--ext") {
      ext = flag_number<int>(a, next(), 0, 1000);
    } else if (a == "--threads") {
      sopt.search.threads = flag_number<int>(a, next(), 0, 1024);
    } else if (a == "--executors") {
      sopt.executors = flag_number<int>(a, next(), 1, 1024);
    } else if (a == "--queue-cap") {
      sopt.queue_capacity = flag_number<std::size_t>(a, next(), 1, 1000000);
    } else if (a == "--max-query-len") {
      sopt.max_query_len =
          flag_number<std::size_t>(a, next(), 1, 100000000);
    } else if (a == "--filter") {
      const std::string v = next();
      const auto mode = filter::parse_filter_mode(v);
      if (!mode) die("--filter must be on, off, or auto (got '" + v + "')");
      sopt.search.filter.mode = *mode;
    } else if (a == "--metrics-json") {
      metrics_json = next();
    } else {
      die("unknown option '" + a + "'");
    }
  }

  if (gateway_mode) {
    // Front-end role: no database, no kernels - scatter to the backends
    // and merge their per-shard top-k (src/service/gateway.h).
    if (shard_n != 0 || !db_path.empty() || !db_index_path.empty() ||
        demo_db != 0) {
      die("--gateway takes no database options");
    }
    if (gopt.backends.empty()) die("--gateway needs --backend HOST:PORT");
    service::Gateway gw(gopt);
    service::TcpServer server(gw, topt);
    try {
      server.start();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "aalignd: %s\n", e.what());
      return 1;
    }
    std::printf("aalignd: gateway over %zu backends on %s:%u\n",
                gw.backend_count(), topt.bind_addr.c_str(),
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);
    wait_for_signal();
    server.request_stop();
    server.join();   // connections finish their in-flight request
    gw.shutdown();   // closes the idle backend connections
    if (!metrics_json.empty()) {
      obs::Json workload = obs::Json::object();
      workload.set("backends", gw.backend_count());
      workload.set("merge_budget_ms", gopt.merge_budget_ms);
      write_metrics_doc(metrics_json, "none", 0, std::move(workload));
    }
    std::printf("aalignd: drained, exiting\n");
    return 0;
  }
  if (gopt.backends.size() > 0) die("--backend requires --gateway");

  if (db_path.empty() && db_index_path.empty() && demo_db == 0) {
    die("need -d FILE, --db-index FILE, --demo-db N, or --gateway");
  }
  if (shard_n != 0 && db_index_path.empty()) {
    die("--shard requires --db-index (the index's shard directory is the "
        "partition unit)");
  }

  const score::ScoreMatrix& matrix = matrix_by_name(matrix_name);
  seq::Database db;
  bool db_loaded = false;
  if (!db_index_path.empty()) {
    // O(1) startup: mmap the prebuilt index; the service-ready time no
    // longer scales with database size (no parse, no sort, no k-mer
    // hashing — AlignService skips its signature build because
    // filter.index arrives prebuilt, and the profile build reads the
    // stored per-tier LUT rows). A defective index degrades to the FASTA
    // path with the reason logged, or fails fast without one.
    try {
      const store::MappedIndex idx = store::MappedIndex::open(db_index_path);
      if (std::string(idx.header().matrix_name) != matrix.name()) {
        throw std::runtime_error("index built for matrix '" +
                                 std::string(idx.header().matrix_name) +
                                 "', requested '" + matrix.name() + "'");
      }
      std::shared_ptr<const filter::SignatureIndex> sigs;
      if (shard_n != 0) {
        const store::ShardSlice slice = idx.shard_slice(shard_i, shard_n);
        if (slice.empty()) {
          // Never serve an empty slice: the fleet was over-partitioned.
          throw std::runtime_error(
              "slice " + std::to_string(shard_i) + "/" +
              std::to_string(shard_n) + " is empty (the index has only " +
              std::to_string(idx.shards().size()) + " shards)");
        }
        db = idx.database(slice);
        sopt.global_index_map = idx.original_indices(slice);
        sigs = idx.signatures(slice);
        std::printf(
            "aalignd: shard %zu/%zu = index shards [%zu, +%zu), "
            "%zu subjects, %llu residues\n",
            shard_i, shard_n, slice.first_shard, slice.shard_count,
            slice.seq_count, static_cast<unsigned long long>(slice.residues));
      } else {
        db = idx.database();
        sigs = idx.signatures();
      }
      // A filtering daemon checks the signature sections at start, so a
      // corrupt one takes the fallback below (AlignService would refuse
      // it); a filter-off daemon never reads them.
      if (sopt.search.filter.mode != filter::FilterMode::Off) sigs->verify();
      sopt.search.filter.index = std::move(sigs);
      sopt.search.filter.params = idx.filter_params();
      // Attach the stored per-tier profile LUTs: striped profiles build
      // from the mapped rows instead of per-cell matrix lookups
      // (cache.profile.lut_attach counts the uses; bit-identical by the
      // matrix-name check above).
      sopt.search.query.lut.i8 = idx.profile_lut_i8();
      sopt.search.query.lut.i16 = idx.profile_lut_i16();
      sopt.search.query.lut.i32 = idx.profile_lut_i32();
      sopt.search.query.lut.stride = idx.header().lut_stride;
      sopt.search.query.lut.backing = idx.file();
      db_loaded = true;
      std::printf("aalignd: attached index %s (%zu subjects, %llu bytes)\n",
                  db_index_path.c_str(), db.size(),
                  static_cast<unsigned long long>(idx.file_bytes()));
    } catch (const std::exception& e) {
      if (shard_n != 0) {
        // A shard member must not silently serve the whole database.
        std::fprintf(stderr, "aalignd: cannot serve shard from %s: %s\n",
                     db_index_path.c_str(), e.what());
        return 2;
      }
      std::fprintf(stderr,
                   "aalignd: cannot use index %s (%s); falling back to "
                   "FASTA parse\n",
                   db_index_path.c_str(), e.what());
      store::count_fallback_parse();
      if (db_path.empty() && demo_db == 0) {
        die("--db-index unusable and no -d to fall back on");
      }
    }
  }
  if (!db_loaded) {
    if (!db_path.empty()) {
      db = seq::Database(matrix.alphabet(), seq::read_fasta_file(db_path));
    } else {
      seq::SequenceGenerator gen(42);
      db = seq::Database(matrix.alphabet(),
                         gen.protein_database(demo_db, 120.0, 0.6, 10, 400));
    }
  }

  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(open, ext);

  service::AlignService svc(matrix, cfg, std::move(db), sopt);
  service::TcpServer server(svc, topt);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aalignd: %s\n", e.what());
    return 1;
  }
  std::printf("aalignd: serving %zu subjects on %s:%u (isa %s)\n",
              svc.database().size(), topt.bind_addr.c_str(),
              static_cast<unsigned>(server.port()),
              simd::isa_name(sopt.search.query.isa));
  std::fflush(stdout);

  wait_for_signal();
  server.request_stop();
  server.join();    // every connection finishes its in-flight request
  svc.shutdown();   // executors drain whatever is still queued

  if (!metrics_json.empty()) {
    obs::Json workload = obs::Json::object();
    workload.set("subjects", svc.database().size());
    workload.set("queue_capacity", sopt.queue_capacity);
    write_metrics_doc(metrics_json, simd::isa_name(sopt.search.query.isa),
                      sopt.search.threads, std::move(workload));
  }
  std::printf("aalignd: drained, exiting\n");
  return 0;
}
