// aalign_index: build, verify, and inspect the binary database index
// (docs/database_format.md).
//
// Usage:
//   aalign_index build -d db.fasta -o db.aidx [options]
//   aalign_index verify db.aidx        # full per-shard checksum audit
//   aalign_index inspect db.aidx       # header, section table, shards
//
// Build options:
//   --matrix NAME        blosum45|blosum62|blosum80|pam250   [blosum62]
//   --filter-k N         signature k-mer length              [3]
//   --filter-bits N      signature width, multiple of 512    [2048]
//   --shard-residues N   residue budget per shard            [1048576]
//
// Exit codes: 0 success, 2 usage error, 3 store error (the stderr line
// carries the structured `store.<code>` token the CI fuzzer greps).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "seq/fasta.h"
#include "store/builder.h"
#include "store/loader.h"
#include "util/parse.h"

using namespace aalign;

namespace {

[[noreturn]] void usage_die(const std::string& msg) {
  std::fprintf(stderr, "aalign_index: %s (try --help)\n", msg.c_str());
  std::exit(2);
}

// `text`, the value of numeric flag `flag`, as a T in [lo, hi]; a usage
// error otherwise.
template <class T>
T flag_number(const std::string& flag, const std::string& text, T lo, T hi) {
  if (const auto v = util::parse_number(text, lo, hi)) return *v;
  usage_die(flag + " wants a number in [" + std::to_string(lo) + ", " +
            std::to_string(hi) + "] (got '" + text + "')");
}

const score::ScoreMatrix& matrix_by_name(const std::string& name) {
  if (name == "blosum62") return score::ScoreMatrix::blosum62();
  if (name == "blosum45") return score::ScoreMatrix::blosum45();
  if (name == "blosum80") return score::ScoreMatrix::blosum80();
  if (name == "pam250") return score::ScoreMatrix::pam250();
  usage_die("unknown matrix '" + name + "'");
}

void print_help() {
  std::printf(
      "aalign_index - database index builder (docs/database_format.md)\n"
      "  aalign_index build -d db.fasta -o db.aidx [options]\n"
      "  aalign_index verify db.aidx\n"
      "  aalign_index inspect db.aidx\n\n"
      "  --matrix blosum45|blosum62|blosum80|pam250   [blosum62]\n"
      "  --filter-k N / --filter-bits N               [3 / 2048]\n"
      "  --shard-residues N                           [1048576]\n");
}

int run_build(int argc, char** argv) {
  std::string db_path, out_path, matrix_name = "blosum62";
  store::BuildParams params;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage_die("missing value for " + a);
      return argv[++i];
    };
    if (a == "-d") db_path = next();
    else if (a == "-o") out_path = next();
    else if (a == "--matrix") matrix_name = next();
    else if (a == "--filter-k") params.filter.k = flag_number<int>(a, next(), 1, 32);
    else if (a == "--filter-bits")
      params.filter.bits = flag_number<std::size_t>(a, next(), 512, 1u << 24);
    else if (a == "--shard-residues")
      params.shard_target_residues =
          flag_number<std::size_t>(a, next(), 1, std::size_t{1} << 40);
    else usage_die("unknown build option '" + a + "'");
  }
  if (db_path.empty() || out_path.empty()) {
    usage_die("build needs -d db.fasta and -o db.aidx");
  }
  const score::ScoreMatrix& matrix = matrix_by_name(matrix_name);
  seq::Database db(matrix.alphabet(), seq::read_fasta_file(db_path));
  store::write_index(out_path, db, matrix, params);
  std::printf("aalign_index: wrote %s (%zu sequences, %zu residues)\n",
              out_path.c_str(), db.size(), db.total_residues());
  return 0;
}

int run_verify(const std::string& path) {
  const store::MappedIndex idx =
      store::MappedIndex::open(path, store::Verify::Full);
  std::printf(
      "aalign_index: %s OK (version %u, %llu sequences, %llu shards, "
      "fingerprint %016llx)\n",
      path.c_str(), idx.header().format_version,
      static_cast<unsigned long long>(idx.header().seq_count),
      static_cast<unsigned long long>(idx.header().shard_count),
      static_cast<unsigned long long>(idx.header().build_fingerprint));
  return 0;
}

int run_inspect(const std::string& path) {
  const store::MappedIndex idx = store::MappedIndex::open(path);
  const store::Header& h = idx.header();
  std::printf("file            %s\n", path.c_str());
  std::printf("format version  %u\n", h.format_version);
  std::printf("file bytes      %llu\n",
              static_cast<unsigned long long>(h.file_bytes));
  std::printf("fingerprint     %016llx\n",
              static_cast<unsigned long long>(h.build_fingerprint));
  std::printf("matrix          %s (alphabet %u)\n", h.matrix_name,
              h.alphabet_size);
  std::printf("sequences       %llu (%llu residues)\n",
              static_cast<unsigned long long>(h.seq_count),
              static_cast<unsigned long long>(h.residue_total));
  std::printf("filter          k=%u bits=%llu threshold=%g\n", h.filter_k,
              static_cast<unsigned long long>(h.filter_bits),
              h.filter_threshold);
  // Hot sections stay mapped after open(); open() releases the cold ones
  // (a filter scan or a LUT-wired service faults them back). Each line
  // ends with where a serving process checks the section: at open, on its
  // first filter use (the signature sections), or only under `verify`
  // (the per-shard residue checksums).
  std::printf("sections        %u\n", h.section_count);
  for (const store::SectionEntry& e : idx.sections()) {
    const auto kind = static_cast<store::SectionKind>(e.kind);
    const char* verified = (e.flags & store::kSectionFlagPerShardChecksum)
                               ? "verify (per shard)"
                           : store::signature_section(kind) ? "first filter use"
                                                            : "open";
    std::printf("  %-14s offset %-10llu %10llu B  %-4s  verified: %s\n",
                store::section_kind_name(kind),
                static_cast<unsigned long long>(e.offset),
                static_cast<unsigned long long>(e.bytes),
                store::cold_section(kind) ? "cold" : "hot", verified);
  }
  std::printf("shards          %llu\n",
              static_cast<unsigned long long>(h.shard_count));
  // A shard is a cut of the longest-first order: its first subject is its
  // longest, its last its shortest, and its residues run between them.
  const seq::Database db = idx.database();
  const auto shards = idx.shards();
  std::size_t first_seq = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const std::size_t count = shards[i].seq_count;
    const auto longest = db.residues(first_seq);
    const auto shortest = db.residues(first_seq + count - 1);
    std::printf("  shard %-4zu seqs [%zu, +%zu)  len %zu..%zu  %zu B\n", i,
                first_seq, count, shortest.size(), longest.size(),
                static_cast<std::size_t>(shortest.data() + shortest.size() -
                                         longest.data()));
    first_seq += count;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], "-h") == 0 ||
      std::strcmp(argv[1], "--help") == 0) {
    print_help();
    return argc < 2 ? 2 : 0;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "build") return run_build(argc, argv);
    if (cmd == "verify" || cmd == "inspect") {
      if (argc != 3) usage_die(cmd + " needs exactly one index path");
      return cmd == "verify" ? run_verify(argv[2]) : run_inspect(argv[2]);
    }
  } catch (const store::StoreError& e) {
    std::fprintf(stderr, "aalign_index: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aalign_index: %s\n", e.what());
    return 3;
  }
  usage_die("unknown command '" + cmd + "' (build|verify|inspect)");
}
