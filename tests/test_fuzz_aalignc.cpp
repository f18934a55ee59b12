// Mutation driver for the code-translation front end (codegen/): seeded
// byte flips, deletions, truncations, splices, inserted tokens and long
// runs of '(' / '[' / '{' applied to the paradigm kernels in
// data/paradigm/*.c and the diagnostic fixtures in data/diagnostics/*.c,
// each fed through lex, parse, verify and DiagnosticEngine::render (and the
// JSON export). Every mutant must either verify or be rejected with AA0xx
// diagnostics; nothing else - no exception, no crash, no sanitizer report -
// is allowed.
//
// AALIGN_FUZZ_ROUNDS scales the mutant count (default 3 rounds of 400
// mutants per corpus); sanitizer CI jobs raise it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "codegen/diagnostics.h"
#include "codegen/parser.h"
#include "codegen/sema.h"

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
  for (const char* dir : {"/paradigm", "/diagnostics"}) {
    std::vector<std::filesystem::path> files;
    for (const auto& e :
         std::filesystem::directory_iterator(std::string(AALIGN_DATA_DIR) +
                                             dir)) {
      if (e.path().extension() == ".c") files.push_back(e.path());
    }
    std::sort(files.begin(), files.end());  // a seed names one mutant set
    for (const auto& path : files) {
      std::ifstream in(path, std::ios::binary);
      out.emplace_back(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
    }
  }
  return out;
}

// Tokens of the paradigm's grammar, a few outside it, and integer
// literals on either side of the lexer's range.
constexpr const char* kTokens[] = {
    "(",     ")",     "[",    "]",   "{",  "}",   ";",    ",",   "=",
    "+",     "-",     "*",    "<",   "<=", "++",  "max",  "for", "const",
    "int",   "ctoi",  "i",    "j",   "T",  "0",   "1",    "-1",  "/*",
    "*/",    "//",    "\n",   "@",   "#",  "$",   "\"",   "GAP_OPEN",
    "2147483647",     "2147483648",  "-2147483648",       "4294967296",
    "9223372036854775807",           "99999999999999999999",
    "184467440737095516161844674407370955161",
};

// One mutant of `base`: byte edits, a deleted range, a truncation, a splice
// of a slice of `donor`, inserted tokens or a long run of one bracket - or
// several of them.
std::string mutate(std::mt19937_64& rng, std::string s,
                   const std::string& donor) {
  static constexpr char kBytes[] = {'(', ')', '[', ']', '{',  '}', ';',
                                    '-', '+', '*', '9', '\n', '\0'};
  const auto pick = [&](std::size_t n) {
    return n == 0 ? std::size_t{0} : static_cast<std::size_t>(rng() % n);
  };
  for (int step = 0, steps = 1 + static_cast<int>(pick(3)); step < steps;
       ++step) {
    switch (pick(6)) {
      case 0:  // byte edits
        for (int i = 0, n = 1 + static_cast<int>(pick(6)); i < n && !s.empty();
             ++i) {
          char& c = s[pick(s.size())];
          switch (pick(3)) {
            case 0: c = static_cast<char>(c ^ (1 << pick(8))); break;
            case 1: c = kBytes[pick(sizeof kBytes)]; break;
            default: c = static_cast<char>(rng() & 0xFF); break;
          }
        }
        break;
      case 1: {  // delete a range
        const std::size_t at = pick(s.size() + 1);
        s.erase(at, pick(std::min<std::size_t>(s.size() - at + 1, 256)));
        break;
      }
      case 2:  // truncate
        s.resize(pick(s.size() + 1));
        break;
      case 3: {  // splice a donor slice in
        const std::size_t from = pick(donor.size());
        const std::size_t len =
            pick(std::min<std::size_t>(donor.size() - from + 1, 512));
        s.insert(pick(s.size() + 1), donor, from, len);
        break;
      }
      case 4:  // inserted tokens
        for (int i = 0, n = 1 + static_cast<int>(pick(4)); i < n; ++i) {
          s.insert(pick(s.size() + 1),
                   std::string(kTokens[pick(std::size(kTokens))]).append(" "));
        }
        break;
      default: {  // a long run of one bracket
        static constexpr char kOpen[] = {'(', '[', '{'};
        const std::size_t len = 1 + pick(std::size_t{1} << (4 + pick(9)));
        s.insert(pick(s.size() + 1), len, kOpen[pick(sizeof kOpen)]);
        break;
      }
    }
  }
  return s;
}

// "AA0" and two digits, the documented code shape.
bool is_aa_code(const std::string& code) {
  return code.size() == 5 && code.compare(0, 3, "AA0") == 0 &&
         std::isdigit(static_cast<unsigned char>(code[3])) &&
         std::isdigit(static_cast<unsigned char>(code[4]));
}

// Runs `source` through the front end as aalignc --verify-only does, then
// renders the diagnostics both ways. Returns whether it verified.
bool front_end(const std::string& source) {
  codegen::DiagnosticEngine diags;
  const codegen::Program program = codegen::parse(source, diags);
  codegen::KernelSpec spec;
  if (!diags.has_errors()) spec = codegen::verify(program, diags);
  const std::string human = diags.render(source, "mutant.c");
  const std::string json = diags.to_json("mutant.c").dump(2);
  EXPECT_FALSE(json.empty());
  for (const codegen::Diagnostic& d : diags.diagnostics()) {
    EXPECT_TRUE(is_aa_code(d.code)) << "code '" << d.code << "'";
    EXPECT_FALSE(d.message.empty()) << d.code;
    EXPECT_NE(human.find("[" + d.code + "]"), std::string::npos) << d.code;
  }
  if (diags.has_errors()) return false;
  EXPECT_FALSE(spec.summary().empty());
  return true;
}

TEST(FuzzAalignc, MutantsVerifyOrNameTheirError) {
  const std::vector<std::string> corpora = load_corpora();
  ASSERT_GE(corpora.size(), 8u);
  for (const std::string& c : corpora) front_end(c);  // pristine inputs
  const int mutants = fuzz_rounds(3) * 400;
  std::mt19937_64 rng(0xAA1C);
  int verified = 0, rejected = 0;
  for (std::size_t c = 0; c < corpora.size(); ++c) {
    for (int i = 0; i < mutants; ++i) {
      const std::string text =
          mutate(rng, corpora[c], corpora[(c + i) % corpora.size()]);
      SCOPED_TRACE(::testing::Message() << "corpus " << c << " mutant " << i
                                        << " (" << text.size() << " bytes)");
      (front_end(text) ? verified : rejected)++;
      if (HasFailure()) return;
    }
  }
  RecordProperty("verified", verified);
  RecordProperty("rejected", rejected);
  // Both outcomes were exercised: some mutants still verify (a flip in a
  // comment, a spliced duplicate statement) and most are rejected.
  EXPECT_GT(verified, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
