// aalign_client: command-line client of aalignd (docs/service.md).
// Reads queries from a FASTA file (or generates one synthetic query),
// sends them as a single request, and prints the hit tables.
//
// Usage:
//   aalign_client -q queries.fasta [options]
//   aalign_client --demo
//
// Options:
//   -q FILE          query FASTA (all records sent in one request)
//   --demo           one synthetic 150-residue query
//   --host ADDR      server address              [127.0.0.1]
//   --port N         server port                 [7731]
//   --top K          hits per query              [10]
//   --deadline-ms N  per-request deadline        [none]
//   --repeat N       send the request N times    [1]
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "seq/fasta.h"
#include "seq/generator.h"
#include "service/client.h"
#include "util/parse.h"

using namespace aalign;

namespace {

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "aalign_client: %s (try --help)\n", msg.c_str());
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

void print_help() {
  std::printf(
      "aalign_client - aalignd wire-protocol client (docs/service.md)\n"
      "  aalign_client -q queries.fasta [options]\n"
      "  aalign_client --demo\n\n"
      "  --host ADDR / --port N        [127.0.0.1 / 7731]\n"
      "  --top K                       [10]\n"
      "  --deadline-ms N               [none]\n"
      "  --repeat N                    [1]\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string query_path, host = "127.0.0.1";
  bool demo = false;
  std::uint16_t port = 7731;
  service::WireRequest req;
  int repeat = 1;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) die("missing value for " + a);
      return argv[++i];
    };
    if (a == "-h" || a == "--help") {
      print_help();
      return 0;
    } else if (a == "-q") {
      query_path = next();
    } else if (a == "--demo") {
      demo = true;
    } else if (a == "--host") {
      host = next();
    } else if (a == "--port") {
      port = flag_number<std::uint16_t>(a, next(), 1, 65535);
    } else if (a == "--top") {
      req.top_k = flag_number<std::size_t>(a, next(), 1, 1000000);
    } else if (a == "--deadline-ms") {
      req.deadline_ms = flag_number<std::int64_t>(a, next(), 0, 3600000);
    } else if (a == "--repeat") {
      repeat = flag_number<int>(a, next(), 1, 1000000);
    } else {
      die("unknown option '" + a + "'");
    }
  }

  std::vector<std::string> names;
  if (!query_path.empty()) {
    for (const seq::Sequence& s : seq::read_fasta_file(query_path)) {
      names.push_back(s.id);
      req.queries.push_back(s.residues);
    }
  } else if (demo) {
    seq::SequenceGenerator gen(7);
    const seq::Sequence q = gen.protein(150, "demo_query");
    names.push_back(q.id);
    req.queries.push_back(q.residues);
  } else {
    die("need -q FILE or --demo");
  }
  if (req.queries.empty()) die("no query records found");

  try {
    service::ServiceClient client(host, port);
    for (int r = 0; r < repeat; ++r) {
      req.id = r + 1;
      const service::WireResponse resp = client.call(req);
      if (!resp.ok) {
        std::fprintf(stderr, "aalign_client: request %lld failed: %s (%s)\n",
                     static_cast<long long>(resp.id),
                     service::error_code_name(resp.error),
                     resp.message.c_str());
        return 1;
      }
      std::printf("# request %lld: queue %.2f ms, exec %.2f ms\n",
                  static_cast<long long>(resp.id), resp.queue_ms,
                  resp.exec_ms);
      for (std::size_t qi = 0; qi < resp.results.size(); ++qi) {
        std::printf("query %s:\n", names[qi].c_str());
        int rank = 1;
        for (const service::WireHit& hit : resp.results[qi].hits) {
          std::printf("  %3d. %-24s score %ld (index %zu)\n", rank++,
                      hit.subject.c_str(), hit.score, hit.index);
        }
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aalign_client: %s\n", e.what());
    return 1;
  }
  return 0;
}
