// Database search example: the paper's Sec. V-E use case end to end.
//
// Builds (or reads) a protein database, searches it with a query using
// the multi-threaded hybrid kernels, and prints the top hits with their
// similarity statistics (query coverage / identity, measured from a real
// traceback, as in Fig. 10's axes).
//
// Usage:
//   database_search                         # synthetic 5k-sequence demo
//   database_search DB.fasta QUERY.fasta    # your own FASTA files
#include <cstdio>
#include <string>

#include "core/stats.h"
#include "search/database_search.h"
#include "seq/fasta.h"
#include "seq/generator.h"
#include "seq/pairgen.h"

using namespace aalign;

int main(int argc, char** argv) {
  const auto& matrix = score::ScoreMatrix::blosum62();
  const auto& alphabet = matrix.alphabet();

  seq::Sequence query;
  std::vector<seq::Sequence> raw_db;

  if (argc >= 3) {
    raw_db = seq::read_fasta_file(argv[1]);
    const auto queries = seq::read_fasta_file(argv[2]);
    if (queries.empty() || raw_db.empty()) {
      std::fprintf(stderr, "empty FASTA input\n");
      return 1;
    }
    query = queries.front();
  } else {
    // Synthetic demo: a database with a handful of planted homologs.
    seq::SequenceGenerator gen(7);
    query = gen.protein(400, "demo_query");
    raw_db = gen.protein_database(5000);
    for (auto qc : {seq::Level::Hi, seq::Level::Md}) {
      for (auto mi : {seq::Level::Hi, seq::Level::Md}) {
        raw_db.push_back(
            seq::make_similar_subject(gen, query, {qc, mi}));
      }
    }
  }

  seq::Database db(alphabet, raw_db);
  const auto qenc = alphabet.encode(query.residues);

  search::SearchOptions opt;
  opt.top_k = 10;
  opt.query.strategy = Strategy::Hybrid;

  search::DatabaseSearch engine(matrix, {}, opt);
  const search::SearchResult res = engine.search(qenc, db);

  std::printf("query '%s' (%zu aa) vs %zu sequences (%zu residues)\n",
              query.id.c_str(), query.size(), db.size(),
              db.total_residues());
  std::printf("search took %.3f s  =  %.2f GCUPS on %s; %llu adaptive "
              "promotions, %llu hybrid switches\n\n",
              res.seconds, res.gcups, simd::isa_name(opt.query.isa),
              static_cast<unsigned long long>(res.promotions),
              static_cast<unsigned long long>(res.stats.switches));

  std::printf("%-4s %-24s %7s %7s %6s %6s\n", "#", "subject", "score",
              "len", "QC", "MI");
  int rank = 1;
  for (const search::SearchHit& hit : res.top) {
    const seq::Record subj = db.by_original(hit.index);
    const core::SimilarityStats st =
        core::measure_similarity(matrix, qenc, subj.view());
    std::printf("%-4d %-24.24s %7ld %7zu %5.0f%% %5.0f%%\n", rank++,
                subj.id.c_str(), hit.score, subj.size(),
                st.query_coverage * 100.0, st.max_identity * 100.0);
  }
  return 0;
}
