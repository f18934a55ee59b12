// Sequence substrate: alphabets, FASTA round-trips, generators, the
// controlled-similarity pair generator (verified with real QC/MI
// measurements), and the database container.
#include <fcntl.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/stats.h"
#include "score/matrices.h"
#include "seq/database.h"
#include "seq/fasta.h"
#include "seq/generator.h"
#include "seq/pairgen.h"
#include "test_helpers.h"

using namespace aalign;
using namespace aalign::seq;

namespace {

TEST(Alphabet, ProteinRoundTripAndWildcards) {
  const auto& a = score::Alphabet::protein();
  EXPECT_EQ(a.size(), 24);
  EXPECT_EQ(a.itoc(a.ctoi('W')), 'W');
  EXPECT_EQ(a.itoc(a.ctoi('w')), 'W');  // case-insensitive
  EXPECT_EQ(a.ctoi('J'), a.wildcard());  // unknown -> X
  EXPECT_EQ(a.ctoi('!'), a.wildcard());
  const auto enc = a.encode("ARNDX*");
  EXPECT_EQ(test::decode(a, enc), "ARNDX*");
  EXPECT_TRUE(a.encode("").empty());
}

TEST(Alphabet, DnaRoundTrip) {
  const auto& a = score::Alphabet::dna();
  EXPECT_EQ(a.size(), 5);
  EXPECT_EQ(test::decode(a, a.encode("acgtn")), "ACGTN");
  EXPECT_EQ(a.ctoi('X'), a.wildcard());
}

TEST(Matrices, StandardTablesAreSymmetricWithPositiveDiagonal) {
  for (const score::ScoreMatrix* m :
       {&score::ScoreMatrix::blosum62(), &score::ScoreMatrix::blosum45(),
        &score::ScoreMatrix::blosum80(), &score::ScoreMatrix::pam250()}) {
    SCOPED_TRACE(m->name());
    const int n = m->size();
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        EXPECT_EQ(m->at(i, j), m->at(j, i)) << i << "," << j;
      }
      if (i < 20) {
        EXPECT_GT(m->at(i, i), 0);  // real residues self-match
      }
    }
    EXPECT_GT(m->max_score(), 0);
    EXPECT_LT(m->min_score(), 0);
  }
}

TEST(Matrices, DnaMatrix) {
  const score::ScoreMatrix m = score::ScoreMatrix::dna(5, 4);
  EXPECT_EQ(m.score('A', 'A'), 5);
  EXPECT_EQ(m.score('A', 'C'), -4);
  EXPECT_EQ(m.score('A', 'N'), 0);
}

// The table stores int8 scores: a match or -mismatch outside [-128, 127]
// is rejected instead of wrapping (dna(200, 4) once scored a match -56).
TEST(Matrices, DnaMatrixRejectsScoresOutsideInt8) {
  EXPECT_THROW(score::ScoreMatrix::dna(128, 1), std::invalid_argument);
  EXPECT_THROW(score::ScoreMatrix::dna(1, 129), std::invalid_argument);
  EXPECT_THROW(score::ScoreMatrix::dna(200, 4), std::invalid_argument);
  try {
    score::ScoreMatrix::dna(1, 129);
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("-129"), std::string::npos)
        << e.what();
  }
  const score::ScoreMatrix edge = score::ScoreMatrix::dna(127, 128);
  EXPECT_EQ(edge.score('A', 'A'), 127);
  EXPECT_EQ(edge.score('A', 'C'), -128);
}

TEST(Fasta, RoundTrip) {
  std::vector<Sequence> seqs = {
      {"seq1 description here", "MKVLAA"},
      {"seq2", std::string(200, 'W')},
  };
  std::ostringstream out;
  write_fasta(out, seqs, 70);
  const auto back = parse_fasta(out.str());
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].id, "seq1 description here");
  EXPECT_EQ(back[0].residues, "MKVLAA");
  EXPECT_EQ(back[1].residues, seqs[1].residues);
}

TEST(Fasta, HandlesCrlfAndBlankLines) {
  const auto seqs = parse_fasta(">a\r\nMKV\r\n\r\nLAA\r\n>b\nWW\n");
  ASSERT_EQ(seqs.size(), 2u);
  EXPECT_EQ(seqs[0].residues, "MKVLAA");
  EXPECT_EQ(seqs[1].residues, "WW");
}

TEST(Fasta, RejectsDataBeforeHeader) {
  EXPECT_THROW(parse_fasta("MKVLAA\n>a\nWW\n"), std::runtime_error);
}

TEST(Fasta, SkipsCommentLines) {
  // Old-style ';' comments are skipped anywhere, even before the first
  // header; they never end a record.
  const auto seqs =
      parse_fasta(";file comment\n>a\nMK\n;mid-record\nVL\n>b\nW\n");
  ASSERT_EQ(seqs.size(), 2u);
  EXPECT_EQ(seqs[0].residues, "MKVL");
  EXPECT_EQ(seqs[1].residues, "W");
}

TEST(Fasta, DropsEmbeddedWhitespace) {
  const auto seqs = parse_fasta(">a b\nMK V\tL\vAA  \n   \nW W\n");
  ASSERT_EQ(seqs.size(), 1u);
  EXPECT_EQ(seqs[0].id, "a b");  // header text is kept verbatim
  EXPECT_EQ(seqs[0].residues, "MKVLAAWW");
}

TEST(Fasta, ReadsMissingFinalNewline) {
  auto seqs = parse_fasta(">a\nMKV\nLAA");
  ASSERT_EQ(seqs.size(), 1u);
  EXPECT_EQ(seqs[0].residues, "MKVLAA");

  seqs = parse_fasta(">a\nMK\n>b");
  ASSERT_EQ(seqs.size(), 2u);
  EXPECT_EQ(seqs[1].id, "b");
  EXPECT_EQ(seqs[1].residues, "");
}

TEST(Fasta, RejectsWhitespaceLineBeforeHeader) {
  // A line of blanks is data, not a blank line: before any header it is
  // the same structural error as residues there.
  EXPECT_THROW(parse_fasta("  \n>a\nWW\n"), std::runtime_error);
}

TEST(Fasta, FileMatchesStream) {
  const std::string text =
      ";comment\r\n>a one\r\nMK V\r\n\r\nLAA\r\n>b\nW\n\n>c\n;x\nAC\tGT";
  const std::string path = ::testing::TempDir() + "fasta_file_matches.fa";
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  const auto from_file = read_fasta_file(path);
  const auto from_stream = parse_fasta(text);
  std::remove(path.c_str());
  ASSERT_EQ(from_file.size(), 3u);
  ASSERT_EQ(from_stream.size(), 3u);
  const char* ids[] = {"a one", "b", "c"};
  const char* residues[] = {"MKVLAA", "W", "ACGT"};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(from_file[i].id, ids[i]);
    EXPECT_EQ(from_file[i].residues, residues[i]);
    EXPECT_EQ(from_stream[i].id, ids[i]);
    EXPECT_EQ(from_stream[i].residues, residues[i]);
  }
  EXPECT_THROW(read_fasta_file(path), std::runtime_error);  // now gone

  {
    std::ofstream out(path, std::ios::binary);
    out << "MK\n>a\nW\n";
  }
  EXPECT_THROW(read_fasta_file(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Fasta, DirectoryPathThrows) {
  // A directory opens but cannot be read: the error names the path and
  // the system's reason, where it used to read as an empty database.
  const std::string dir = ::testing::TempDir();
  try {
    read_fasta_file(dir);
    FAIL() << "read_fasta_file returned for a directory";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(dir), std::string::npos) << what;
    EXPECT_NE(what.find(std::strerror(EISDIR)), std::string::npos) << what;
  }
}

TEST(Fasta, ReadsPipeToItsEnd) {
  // A pipe reports no size: the reader goes on past its first buffer
  // (64 KiB) to the end. The pipe is sized to hold the whole text, so no
  // writer has to run alongside.
  std::vector<Sequence> seqs;
  for (int i = 0; i < 40; ++i) {
    seqs.push_back({std::to_string(i),
                    std::string(4000, static_cast<char>('A' + i % 20))});
  }
  std::ostringstream text;
  write_fasta(text, seqs, 60);
  const std::string bytes = text.str();
  ASSERT_GT(bytes.size(), std::size_t{1} << 17);
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_GE(::fcntl(fds[1], F_SETPIPE_SZ, 1 << 20),
            static_cast<int>(bytes.size()));
  ASSERT_EQ(::write(fds[1], bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  ::close(fds[1]);
  const auto back = read_fasta_file("/dev/fd/" + std::to_string(fds[0]));
  ::close(fds[0]);
  ASSERT_EQ(back.size(), seqs.size());
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    EXPECT_EQ(back[i].id, seqs[i].id);
    EXPECT_EQ(back[i].residues, seqs[i].residues);
  }
}

TEST(Generator, ProteinLengthAndAlphabet) {
  SequenceGenerator gen(1);
  const Sequence s = gen.protein(500);
  EXPECT_EQ(s.size(), 500u);
  const auto& a = score::Alphabet::protein();
  for (char c : s.residues) {
    EXPECT_LT(a.ctoi(c), 20);  // only real residues
  }
}

TEST(Generator, Deterministic) {
  SequenceGenerator g1(42), g2(42);
  EXPECT_EQ(g1.protein(100).residues, g2.protein(100).residues);
}

TEST(Generator, DatabaseLengthDistribution) {
  SequenceGenerator gen(7);
  const auto db = gen.protein_database(2000, 290.0, 0.55, 30, 5000);
  ASSERT_EQ(db.size(), 2000u);
  std::vector<std::size_t> lens;
  for (const auto& s : db) {
    EXPECT_GE(s.size(), 30u);
    EXPECT_LE(s.size(), 5000u);
    lens.push_back(s.size());
  }
  std::sort(lens.begin(), lens.end());
  const std::size_t median = lens[lens.size() / 2];
  EXPECT_GT(median, 200u);  // log-normal centered near 290
  EXPECT_LT(median, 400u);
  EXPECT_GT(lens.back(), 2 * median);  // heavy right tail
}

TEST(PairGen, HitsSimilarityBands) {
  SequenceGenerator gen(11);
  const Sequence query = gen.protein(800, "Q800");
  const auto qenc = score::Alphabet::protein().encode(query.residues);
  const auto& m = score::ScoreMatrix::blosum62();

  // Band edges are loose: the generator targets band centers, the
  // measurement is a real SW traceback.
  auto lo_hi = [](Level l) -> std::pair<double, double> {
    switch (l) {
      case Level::Lo: return {0.0, 0.35};
      case Level::Md: return {0.25, 0.75};
      case Level::Hi: return {0.65, 1.01};
    }
    return {0, 1};
  };

  for (Level qc : {Level::Lo, Level::Md, Level::Hi}) {
    for (Level mi : {Level::Md, Level::Hi}) {
      // (lo MI pairs drown in noise; the paper's lo_* points are also the
      // loosest. Checked separately below.)
      const SimilaritySpec spec{qc, mi};
      const Sequence subj = make_similar_subject(gen, query, spec);
      const auto senc = score::Alphabet::protein().encode(subj.residues);
      const core::SimilarityStats st =
          core::measure_similarity(m, qenc, senc);
      const auto [qlo, qhi] = lo_hi(qc);
      const auto [mlo, mhi] = lo_hi(mi);
      EXPECT_GE(st.query_coverage, qlo) << spec.label();
      EXPECT_LE(st.query_coverage, qhi) << spec.label();
      EXPECT_GE(st.max_identity, mlo) << spec.label();
      EXPECT_LE(st.max_identity, mhi) << spec.label();
    }
  }
}

TEST(PairGen, LowIdentityIsDissimilar) {
  SequenceGenerator gen(13);
  const Sequence query = gen.protein(600, "Q600");
  const auto qenc = score::Alphabet::protein().encode(query.residues);
  const Sequence subj =
      make_similar_subject(gen, query, {Level::Hi, Level::Lo});
  const auto senc = score::Alphabet::protein().encode(subj.residues);
  const core::SimilarityStats st =
      core::measure_similarity(score::ScoreMatrix::blosum62(), qenc, senc);
  EXPECT_LT(st.max_identity, 0.5);
}

// Building stores the sequences longest first; equal lengths keep their
// input order, and every stored position maps back to its input.
TEST(Database, SortAndTotals) {
  SequenceGenerator gen(3);
  std::vector<Sequence> seqs = gen.protein_database(50, 100);
  seqs.push_back(seqs[7]);  // a length tie, input order 7 then 50
  const Database db(score::Alphabet::protein(), seqs);
  ASSERT_EQ(db.size(), seqs.size());
  std::size_t total = 0;
  for (const Sequence& s : seqs) total += s.size();
  EXPECT_EQ(db.total_residues(), total);
  for (std::size_t i = 1; i < db.size(); ++i) {
    EXPECT_GE(db[i - 1].size(), db[i].size());
    if (db[i - 1].size() == db[i].size()) {
      EXPECT_LT(db.original_index(i - 1), db.original_index(i));
    }
  }
  for (std::size_t pos = 0; pos < db.size(); ++pos) {
    const Sequence& in = seqs[db.original_index(pos)];
    EXPECT_EQ(db[pos].id, in.id);
    EXPECT_EQ(test::decode(score::Alphabet::protein(), db[pos].view()),
              in.residues);
    EXPECT_EQ(db.position_of(db.original_index(pos)), pos);
  }
  EXPECT_LT(db.position_of(7), db.position_of(50));
}

}  // namespace
