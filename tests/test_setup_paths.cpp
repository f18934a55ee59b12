// Differential tests of the set-up path against the implementations it
// replaced (tests/setup_oracles.h): the FASTA parser over seeded random
// texts and special lines at every 64-byte block offset, each squeeze form
// against a reference over every length and alignment, the alphabet
// encode over every byte value, alignment and length, and the query
// striping, through every form, at every width and index code.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "score/alphabet.h"
#include "score/profile.h"
#include "seq/database.h"
#include "seq/fasta.h"
#include "setup_oracles.h"
#include "simd/isa.h"
#include "simd/primitives.h"
#include "test_helpers.h"

using namespace aalign;

namespace {

// ------------------------------------------------------------------ FASTA

// One random FASTA text: headers, residue lines with every whitespace
// byte mid-line, CRLF endings, blank and whitespace-only lines, ';'
// comments, empty records, 70-column lines (records over many 64-byte
// blocks), lines over 64 KiB, and (sometimes) data before the first header
// or no final newline.
std::string random_fasta_text(std::mt19937_64& rng) {
  const auto pick = [&](int n) {
    return static_cast<int>(rng() % static_cast<std::uint64_t>(n));
  };
  static constexpr char kSpaces[] = {' ', '\t', '\n', '\v', '\f', '\r'};
  static constexpr char kResidues[] = "ACDEFGHIKLMNPQRSTVWYXBZ*acgtn-.";
  const auto eol = [&] { return pick(4) == 0 ? "\r\n" : "\n"; };
  std::string text;
  if (pick(8) == 0) text += "MKV\n";  // data before any header
  if (pick(3) == 0) text += ";file comment\n";
  const int records = pick(12);
  for (int r = 0; r < records; ++r) {
    text += '>';
    for (int i = pick(20); i > 0; --i) {
      text += static_cast<char>(pick(4) == 0 ? ' ' : 'a' + pick(26));
    }
    text += eol();
    const int lines = pick(6) == 0 ? 0 : pick(8);  // empty records too
    for (int k = 0; k < lines; ++k) {
      switch (pick(10)) {
        case 0: text += eol(); continue;                     // blank
        case 1: text += ";comment > x"; text += eol(); continue;
        case 2: text += "  \t"; text += eol(); continue;     // blanks only
        case 3: text += "\r"; text += eol(); continue;       // lone CR
        default: break;
      }
      const int len = pick(40) == 0 ? (1 << 16) + pick(3000)
                      : pick(3) == 0 ? 70
                                     : pick(90);
      for (int i = 0; i < len; ++i) {
        text += pick(25) == 0 ? kSpaces[pick(6)]
                              : kResidues[pick(sizeof kResidues - 1)];
      }
      text += eol();
    }
  }
  if (!text.empty() && pick(4) == 0) text.pop_back();  // no final newline
  return text;
}

void expect_same_records(const std::vector<seq::Sequence>& got,
                         const std::vector<seq::Sequence>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "record " << i;
    EXPECT_EQ(got[i].residues, want[i].residues) << "record " << i;
  }
}

TEST(FastaOracle, RandomTextsParseAsBefore) {
  std::mt19937_64 rng(2701);
  int thrown = 0;
  for (int round = 0; round < 400; ++round) {
    SCOPED_TRACE(round);
    const std::string text = random_fasta_text(rng);
    std::vector<seq::Sequence> want;
    try {
      want = test::parse_fasta_oracle(text);
    } catch (const std::runtime_error&) {
      ++thrown;
      EXPECT_THROW(seq::parse_fasta(text), std::runtime_error);
      continue;
    }
    expect_same_records(seq::parse_fasta(text), want);
  }
  EXPECT_GT(thrown, 0);  // the data-before-header path was exercised
}

// Each special line - a CRLF end, '\v', '\f', a ';' comment, blanks only,
// a lone '\r', an empty line - starting at every offset of the body's
// first three 64-byte blocks, through every squeeze form.
TEST(FastaOracle, SpecialLinesAtEveryBlockOffset) {
  const std::string specials[] = {"MKV\r\n", "\vMK\n",  "M\fK\n",
                                  ";c>x\n",   "  \t\n", "\r\n",
                                  "\n",       ";\r\n",  "\v\f\r\n"};
  for (const std::string& special : specials) {
    for (int off = 0; off < 3 * 64; ++off) {
      std::string text = ">r1 x\n";
      if (off > 0) text += std::string(off - 1, 'A') + "\n";
      text += special;
      text += std::string(70, 'C') + "\r\n" + special + ">r2\n" + special;
      SCOPED_TRACE(::testing::Message() << "offset " << off << " special "
                                        << ::testing::PrintToString(special));
      const std::vector<seq::Sequence> want = test::parse_fasta_oracle(text);
      for (const simd::IsaKind isa : test::available_isas()) {
        expect_same_records(seq::parse_fasta(text, isa), want);
      }
    }
  }
}

TEST(FastaOracle, FilesReadAsBefore) {
  std::mt19937_64 rng(2702);
  const std::string path = ::testing::TempDir() + "fasta_oracle.fa";
  for (int round = 0; round < 40; ++round) {
    SCOPED_TRACE(round);
    const std::string text = random_fasta_text(rng);
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
      expect_same_records(seq::read_fasta_file(path), want);
    }
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------- squeeze

// What every squeeze form must write: the bytes of `s` that are neither
// whitespace nor in a ';' comment line.
std::string squeeze_reference(std::string_view s) {
  std::string out;
  bool line_start = true, comment = false;
  for (const char c : s) {
    comment = comment || (line_start && c == ';');
    if (!comment && !test::oracle_is_space(c)) out += c;
    line_start = c == '\n';
    comment = comment && !line_start;
  }
  return out;
}

TEST(SqueezeOracle, EveryLengthAndOffset) {
  const auto forms = test::distinct_forms(&simd::Primitives::squeeze);
  static constexpr char kSpaces[] = {' ', '\t', '\n', '\v', '\f', '\r'};
  std::mt19937_64 rng(2708);
  // Whitespace from none to all; at the denser ones ';' after a newline
  // opens comment lines, some running past a block's end.
  for (const int per_64 : {0, 1, 4, 16, 32, 63, 64}) {
    std::string text(64 + 257 + 64, '\0');
    for (char& c : text) {
      const bool space = static_cast<int>(rng() % 64) < per_64;
      c = space ? kSpaces[rng() % 6]
                : (rng() % 16 == 0 ? ';' : static_cast<char>('A' + rng() % 26));
    }
    for (int off = 0; off < 64; ++off) {
      for (int len = 0; len <= 257; ++len) {
        const std::string_view in(text.data() + off, len);
        const std::string want = squeeze_reference(in);
        for (const auto& [name, fn] : forms) {
          // Guard bytes on both sides: nothing is written outside dst's n.
          std::string out(len + 2, '\xA5');
          const std::size_t n = fn(in.data(), in.size(), out.data() + 1);
          ASSERT_EQ(n, want.size()) << name << " density " << per_64
                                    << " offset " << off << " len " << len;
          ASSERT_EQ(out.front(), '\xA5');
          ASSERT_EQ(out.back(), '\xA5');
          ASSERT_EQ(out.substr(1, n), want)
              << name << " density " << per_64 << " offset " << off
              << " len " << len;
        }
      }
    }
  }
}

// ----------------------------------------------------------------- encode

TEST(EncodeOracle, EveryByteLengthAndOffset) {
  const score::Alphabet* alphabets[] = {&score::Alphabet::protein(),
                                        &score::Alphabet::dna(),
                                        &test::matrix40().alphabet()};
  // Every byte value, in a shuffled order, then the same again.
  std::string bytes(256, '\0');
  for (int i = 0; i < 256; ++i) bytes[i] = static_cast<char>(i);
  std::shuffle(bytes.begin(), bytes.end(), std::mt19937_64(2703));
  bytes += bytes;
  const auto forms = test::distinct_forms(&simd::Primitives::translate);
  for (const score::Alphabet* a : alphabets) {
    std::array<std::uint8_t, 256> table{};
    for (int c = 0; c < 256; ++c) table[c] = a->ctoi(static_cast<char>(c));
    for (int off = 0; off < 64; ++off) {
      for (int len = 0; len <= 257; ++len) {
        const std::string_view in(bytes.data() + off, len);
        const std::vector<std::uint8_t> want = test::encode_oracle(*a, in);
        ASSERT_EQ(a->encode(in), want) << "offset " << off << " len " << len;
        for (const auto& [name, fn] : forms) {
          // Guard bytes on both sides: the masked tail writes nothing past
          // `len`.
          std::vector<std::uint8_t> out(len + 2, 0xA5);
          fn(table.data(), in.data(), out.data() + 1, in.size());
          ASSERT_EQ(out.front(), 0xA5);
          ASSERT_EQ(out.back(), 0xA5);
          ASSERT_TRUE(std::equal(want.begin(), want.end(), out.begin() + 1))
              << name << " offset " << off << " len " << len;
        }
      }
    }
  }
}

TEST(EncodeOracle, FastaBuiltDatabaseEncodesAsBefore) {
  // Database(alphabet, seqs) encodes each subject in place through the
  // same translation.
  std::mt19937_64 rng(2707);
  std::vector<seq::Sequence> seqs;
  for (int i = 0; i < 50; ++i) {
    std::string residues(rng() % 300, '\0');
    for (char& c : residues) c = static_cast<char>(rng() & 0xFF);
    seqs.push_back({std::to_string(i), residues});
  }
  const score::Alphabet& a = score::Alphabet::protein();
  const seq::Database db(a, seqs);
  ASSERT_EQ(db.size(), seqs.size());
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    const auto got = db.by_original(i).residues;
    const std::vector<std::uint8_t> want =
        test::encode_oracle(a, seqs[i].residues);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "subject " << i;
  }
}

// ----------------------------------------------------------------- stripe

template <class T>
void check_stripe(int width, score::IndexCode code, int m, int alpha,
                  std::mt19937_64& rng) {
  SCOPED_TRACE(::testing::Message() << "bytes " << sizeof(T) << " width "
                                    << width << " code " << code.mul << "/"
                                    << code.add << " m " << m << " alpha "
                                    << alpha);
  std::vector<std::uint8_t> query = test::random_symbols(rng, m, alpha);
  score::StripedProfile<T> got, want;
  util::AlignedBuffer<T> got_idx, want_idx;
  score::stripe_query(got, query, alpha, width, got_idx, code);
  test::stripe_query_oracle(want, query, alpha, width, want_idx, code);
  ASSERT_EQ(got.m, want.m);
  ASSERT_EQ(got.width, want.width);
  ASSERT_EQ(got.segs, want.segs);
  ASSERT_EQ(got.alpha, want.alpha);
  ASSERT_EQ(got_idx.size(), want_idx.size());
  for (std::size_t k = 0; k < got_idx.size(); ++k) {
    ASSERT_EQ(got_idx[k], want_idx[k]) << "cell " << k;
  }

  // An out-of-alphabet byte throws the same message from both; with two,
  // the message names the first in query order.
  const std::size_t first = rng() % query.size();
  query[first] = static_cast<std::uint8_t>(std::min(alpha + 1, 255));
  query.back() = 255;
  std::string got_msg, want_msg;
  try {
    score::stripe_query(got, query, alpha, width, got_idx, code);
  } catch (const std::invalid_argument& e) {
    got_msg = e.what();
  }
  try {
    test::stripe_query_oracle(want, query, alpha, width, want_idx, code);
  } catch (const std::invalid_argument& e) {
    want_msg = e.what();
  }
  EXPECT_FALSE(want_msg.empty());
  EXPECT_EQ(got_msg, want_msg);
}

template <class T>
void check_stripe_all(std::mt19937_64& rng) {
  const score::IndexCode codes[] = {{1, 0}, {0x0202, 0x0100}, {3, 7}};
  for (int width : {1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 24, 32, 40, 64}) {
    for (const score::IndexCode& code : codes) {
      for (int m : {1, width - 1, width, width + 1, 2 * width + 1, 8000}) {
        if (m < 1) continue;
        for (int alpha : {5, 24, 40, 255}) {
          check_stripe<T>(width, code, m, alpha, rng);
        }
      }
    }
  }
}

// Every striping form (the scalar one too, which only the scalar-only
// build reaches through stripe_query) against the oracle, with the largest
// query byte it returns.
TEST(StripeOracle, EveryFormMatches) {
  const auto forms = test::distinct_forms(&simd::Primitives::stripe);
  std::mt19937_64 rng(2709);
  const score::IndexCode codes[] = {{1, 0}, {0x0202, 0x0100}, {3, 7}};
  for (int width : {1, 3, 4, 8, 16, 17, 32, 64}) {
    for (int m = 1; m <= 2 * 16 * width + 1; m += m < 80 ? 1 : 13) {
      const int alpha = 1 + static_cast<int>(rng() % 255);
      const std::vector<std::uint8_t> q = test::random_symbols(rng, m, alpha);
      const std::uint8_t top = *std::max_element(q.begin(), q.end());
      for (const score::IndexCode& code : codes) {
        score::StripedProfile<std::int32_t> want;
        util::AlignedBuffer<std::int32_t> want_idx;
        test::stripe_query_oracle(want, q, alpha, width, want_idx, code);
        for (const int bytes : {1, 2, 4}) {
          const std::size_t n = want_idx.size();
          for (const auto& [name, fn] : forms) {
            std::vector<std::uint8_t> out(n * bytes + 1, 0xA5);
            ASSERT_EQ(fn(q.data(), q.size(), static_cast<std::size_t>(
                                                 want.segs),
                         static_cast<std::size_t>(width),
                         static_cast<std::uint8_t>(alpha),
                         {bytes, code.mul, code.add}, out.data()),
                      top);
            ASSERT_EQ(out.back(), 0xA5);
            for (std::size_t k = 0; k < n; ++k) {
              std::uint32_t lane = 0;
              std::memcpy(&lane, out.data() + k * bytes, bytes);
              const auto expect = static_cast<std::uint32_t>(want_idx[k]) &
                                  (bytes == 4 ? ~0u : (1u << 8 * bytes) - 1);
              ASSERT_EQ(lane, expect)
                  << name << " width " << width << " m " << m
                  << " bytes " << bytes
                  << " code " << code.mul << "/" << code.add << " cell " << k;
            }
          }
        }
      }
    }
  }
}

TEST(StripeOracle, EveryWidthAndCodeInt8) {
  std::mt19937_64 rng(2704);
  check_stripe_all<std::int8_t>(rng);
}

TEST(StripeOracle, EveryWidthAndCodeInt16) {
  std::mt19937_64 rng(2705);
  check_stripe_all<std::int16_t>(rng);
}

TEST(StripeOracle, EveryWidthAndCodeInt32) {
  std::mt19937_64 rng(2706);
  check_stripe_all<std::int32_t>(rng);
}

}  // namespace
