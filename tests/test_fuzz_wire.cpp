// Mutation driver for the aalignd wire parsers (obs::Json::parse, then
// service::parse_request / parse_response): seeded byte flips, splices,
// deletions and truncations of real request and response lines, built
// with request_json / response_json from the queries in
// data/store/queries.fasta, plus a deeply nested line. Every mutant must
// parse or come back as an error string - no exception, no crash, no
// sanitizer report. A request that parses must survive a
// request_json round trip unchanged.
//
// AALIGN_FUZZ_ROUNDS scales the mutant count (default 3 rounds of 500
// mutants per seed line); sanitizer CI jobs raise it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "obs/json.h"
#include "seq/fasta.h"
#include "service/protocol.h"

using namespace aalign;

namespace {

int fuzz_rounds(int fallback) {
  if (const char* env = std::getenv("AALIGN_FUZZ_ROUNDS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return fallback;
}

// Well-formed wire lines: requests with every optional field, success
// responses with hits, error and incomplete responses, and a line of '['
// far past the parser's nesting cap.
std::vector<std::string> seed_lines() {
  const std::vector<seq::Sequence> qs =
      seq::read_fasta_file(AALIGN_DATA_DIR "/store/queries.fasta");
  std::vector<std::string> out;

  service::WireRequest req;
  req.id = 7;
  for (const seq::Sequence& q : qs) req.queries.push_back(q.residues);
  req.top_k = 5;
  out.push_back(service::request_json(req).dump());
  req.id = -3;
  req.queries.resize(1);
  req.deadline_ms = 250;
  req.filter = filter::FilterMode::Off;
  req.filter_explicit = true;
  out.push_back(service::request_json(req).dump());

  service::WireResponse resp;
  resp.id = 7;
  resp.ok = true;
  resp.filtered = true;
  resp.queue_ms = 0.125;
  resp.exec_ms = 5.5;
  for (std::size_t qi = 0; qi < qs.size(); ++qi) {
    service::WireResult r;
    for (std::size_t h = 0; h < 3; ++h) {
      r.hits.push_back(service::WireHit{qi * 3 + h, qs[h % qs.size()].id,
                                        static_cast<long>(90 - 7 * h)});
    }
    resp.results.push_back(std::move(r));
  }
  out.push_back(service::response_json(resp).dump());
  resp.incomplete = true;
  resp.results.resize(1);
  out.push_back(service::response_json(resp).dump(2));
  out.push_back(service::response_json(
                    service::error_response(
                        9, service::ErrorCode::DeadlineExceeded,
                        "deadline \"250 ms\" passed\n"))
                    .dump());

  out.push_back(std::string(std::size_t{1} << 16, '['));
  return out;
}

// One mutant of `base`: a few byte flips (biased towards the bytes the
// parser branches on), a splice of a slice of `donor`, a deleted range or a
// truncation - or several of them.
std::string mutate(std::mt19937_64& rng, std::string s,
                   const std::string& donor) {
  static constexpr char kBytes[] = {'{', '}', '[', ']', '"', ':', ',', '\\',
                                    'u', '-', '.', 'e', '0', '9', 't', 'n',
                                    ' ', '\n', '\0', '\xff'};
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
        const std::size_t len =
            pick(std::min<std::size_t>(donor.size() - from + 1, 512));
        s.insert(pick(s.size() + 1), donor, from, len);
        break;
      }
      case 2: {  // delete a range
        const std::size_t at = pick(s.size() + 1);
        s.erase(at, pick(std::min<std::size_t>(s.size() - at + 1, 512)));
        break;
      }
      default:  // truncate
        s.resize(pick(s.size() + 1));
        break;
    }
  }
  return s;
}

void expect_same_request(const service::WireRequest& a,
                         const service::WireRequest& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.top_k, b.top_k);
  EXPECT_EQ(a.deadline_ms, b.deadline_ms);
  EXPECT_EQ(a.filter, b.filter);
  EXPECT_EQ(a.filter_explicit, b.filter_explicit);
}

struct Outcome {
  bool json = false;     // obs::Json::parse accepted the line
  bool request = false;  // ... and parse_request accepted the document
};

// Feeds one line through both parsers.
Outcome check_line(const std::string& line) {
  std::string err;
  obs::Json doc;
  EXPECT_NO_THROW(doc = obs::Json::parse(line, &err));
  Outcome out;
  out.json = !doc.is_null() || err.empty();

  service::WireRequest req;
  std::string verr;
  EXPECT_NO_THROW(verr = service::parse_request(doc, req));
  out.request = out.json && verr.empty();
  if (out.request) {
    service::WireRequest again;
    EXPECT_EQ(service::parse_request(
                  obs::Json::parse(service::request_json(req).dump()), again),
              "");
    expect_same_request(req, again);
  }
  EXPECT_NO_THROW((void)service::parse_response(doc));
  return out;
}

TEST(FuzzWire, SeedLinesParse) {
  const std::vector<std::string> seeds = seed_lines();
  for (std::size_t i = 0; i + 1 < seeds.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "seed " << i);
    EXPECT_TRUE(check_line(seeds[i]).json);
  }
  service::WireRequest req;
  EXPECT_EQ(service::parse_request(obs::Json::parse(seeds[0]), req), "");
  EXPECT_TRUE(service::parse_response(obs::Json::parse(seeds[2])).ok);
  // The nesting seed fails with an error rather than recursing.
  EXPECT_FALSE(check_line(seeds.back()).json);
}

TEST(FuzzWire, MutantsParseOrReportAnError) {
  const std::vector<std::string> seeds = seed_lines();
  const int mutants = fuzz_rounds(3) * 500;
  std::mt19937_64 rng(0x3153);
  int parsed = 0, rejected = 0, requests = 0;
  for (std::size_t c = 0; c < seeds.size(); ++c) {
    for (int i = 0; i < mutants; ++i) {
      const std::string line =
          mutate(rng, seeds[c], seeds[(c + 1 + i) % seeds.size()]);
      SCOPED_TRACE(::testing::Message() << "seed " << c << " mutant " << i
                                        << " (" << line.size() << " bytes)");
      const Outcome o = check_line(line);
      (o.json ? parsed : rejected)++;
      requests += o.request ? 1 : 0;
      if (::testing::Test::HasFailure()) return;
    }
  }
  // Every outcome occurs, or the mutator is too timid or too destructive.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
  EXPECT_GT(requests, 0);
}

}  // namespace
