// Mutation driver for the FASTA reader (seq/fasta): seeded byte flips,
// splices and truncations of the corpora in data/store/*.fasta, and of one
// of them rewritten in 70-column CRLF lines with ';' comments, so
// that mutants cross the squeeze's 64-byte blocks at every offset. Every
// mutant must parse to the same records as the reference parser
// (tests/setup_oracles.h), through the best and the scalar squeeze, or
// all must throw std::runtime_error; nothing else - no other exception,
// no crash, no sanitizer report - is allowed.
//
// AALIGN_FUZZ_ROUNDS scales the mutant count (default 3 rounds of 500
// mutants per corpus); sanitizer CI jobs raise it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "seq/fasta.h"
#include "setup_oracles.h"
#include "simd/isa.h"

using namespace aalign;

namespace {

int fuzz_rounds(int fallback) {
  if (const char* env = std::getenv("AALIGN_FUZZ_ROUNDS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return fallback;
}

std::vector<std::string> load_corpora() {
  std::vector<std::string> out;
  for (const auto& e :
       std::filesystem::directory_iterator(AALIGN_DATA_DIR "/store")) {
    if (e.path().extension() != ".fasta") continue;
    std::ifstream in(e.path(), std::ios::binary);
    out.emplace_back(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
  }
  if (out.empty()) return out;
  // The smallest corpus by content: directory order is unspecified.
  const std::string& base = *std::min_element(out.begin(), out.end());
  std::string crlf = ";70-column CRLF corpus\r\n";
  for (const seq::Sequence& s : test::parse_fasta_oracle(base)) {
    crlf += ">" + s.id + "\r\n";
    for (std::size_t at = 0; at < s.residues.size(); at += 70) {
      crlf += s.residues.substr(at, 70) + "\r\n";
    }
    crlf += ";end of " + s.id + "\r\n";
  }
  out.push_back(std::move(crlf));
  return out;
}

// One mutant of `base`: a few byte flips (biased towards the bytes the
// parser branches on), a splice of a slice of `donor`, a deleted range or a
// truncation - or several of them.
std::string mutate(std::mt19937_64& rng, std::string s,
                   const std::string& donor) {
  static constexpr char kBytes[] = {'>', '\n', '\r', ';', ' ',  '\t',
                                    '\v', '\f', '\0', 'A', '\xff', '*'};
  const auto pick = [&](std::size_t n) {
    return n == 0 ? std::size_t{0} : static_cast<std::size_t>(rng() % n);
  };
  for (int step = 0, steps = 1 + static_cast<int>(pick(3)); step < steps;
       ++step) {
    switch (pick(4)) {
      case 0:  // byte flips
        for (int i = 0, n = 1 + static_cast<int>(pick(8)); i < n && !s.empty();
             ++i) {
          s[pick(s.size())] = pick(2) == 0
                                  ? kBytes[pick(sizeof kBytes)]
                                  : static_cast<char>(rng() & 0xFF);
        }
        break;
      case 1: {  // splice a donor slice in
        const std::size_t from = pick(donor.size());
        const std::size_t len = pick(std::min<std::size_t>(
            donor.size() - from + 1, 4096));
        s.insert(pick(s.size() + 1), donor, from, len);
        break;
      }
      case 2: {  // delete a range
        const std::size_t at = pick(s.size() + 1);
        s.erase(at, pick(std::min<std::size_t>(s.size() - at + 1, 4096)));
        break;
      }
      default:  // truncate
        s.resize(pick(s.size() + 1));
        break;
    }
  }
  return s;
}

// Same records, or both throw; returns whether the oracle threw.
bool check_same(const std::string& text) {
  std::vector<seq::Sequence> want;
  try {
    want = test::parse_fasta_oracle(text);
  } catch (const std::runtime_error&) {
    EXPECT_THROW(seq::parse_fasta(text), std::runtime_error);
    EXPECT_THROW(seq::parse_fasta(text, simd::IsaKind::Scalar),
                 std::runtime_error);
    return true;
  }
  for (const simd::IsaKind isa :
       {simd::best_available_isa(), simd::IsaKind::Scalar}) {
    const std::vector<seq::Sequence> got = seq::parse_fasta(text, isa);
    EXPECT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
      EXPECT_EQ(got[i].id, want[i].id) << "record " << i;
      EXPECT_EQ(got[i].residues, want[i].residues) << "record " << i;
    }
  }
  return false;
}

TEST(FuzzFasta, MutantsParseAsTheOracle) {
  const std::vector<std::string> corpora = load_corpora();
  ASSERT_FALSE(corpora.empty());
  const int mutants = fuzz_rounds(3) * 500;
  const std::string path = ::testing::TempDir() + "fuzz_fasta.fa";
  std::mt19937_64 rng(0xFA57A);
  int thrown = 0, parsed = 0;
  for (std::size_t c = 0; c < corpora.size(); ++c) {
    for (int i = 0; i < mutants; ++i) {
      const std::string text =
          mutate(rng, corpora[c], corpora[(c + i) % corpora.size()]);
      SCOPED_TRACE(::testing::Message() << "corpus " << c << " mutant " << i
                                        << " (" << text.size() << " bytes)");
      (check_same(text) ? thrown : parsed)++;
      if (i % 16 == 0) {  // the file reader reads the same records
        {
          std::ofstream out(path, std::ios::binary);
          out << text;
        }
        bool oracle_threw = false;
        std::vector<seq::Sequence> want;
        try {
          want = test::read_fasta_file_oracle(path);
        } catch (const std::runtime_error&) {
          oracle_threw = true;
        }
        if (oracle_threw) {
          EXPECT_THROW(seq::read_fasta_file(path), std::runtime_error);
        } else {
          const std::vector<seq::Sequence> got = seq::read_fasta_file(path);
          ASSERT_EQ(got.size(), want.size());
          for (std::size_t k = 0; k < got.size(); ++k) {
            EXPECT_EQ(got[k].id, want[k].id);
            EXPECT_EQ(got[k].residues, want[k].residues);
          }
        }
      }
      if (HasFailure()) return;
    }
  }
  std::remove(path.c_str());
  // Both outcomes were exercised.
  EXPECT_GT(thrown, 0);
  EXPECT_GT(parsed, 0);
}

}  // namespace
