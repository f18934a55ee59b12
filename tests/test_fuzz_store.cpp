// Mutation driver for the index loader (store::MappedIndex::open): indexes
// built from the corpora in data/store/*.fasta at two shard sizes, then
// seeded byte flips, splices, deleted ranges and truncations - half of the
// mutants resealed (every shard, section and header checksum recomputed
// with store::checksum) so that they get past the checksums and reach the
// layout checks. Every mutant either opens - and then database(), a walk
// of every residues(pos) and id(pos) that stays inside the mapping, the
// permutation round trip, one filtered scan of its signatures() and
// verify_shards() all run clean - or throws a StoreError naming its
// store.<code> (from the scan, store.section_checksum); nothing else - no
// other exception, no crash, no sanitizer report - is allowed.
//
// A second test edits only the Inverse section's entries (an entry set to
// the sequence count, to another position or to a random word, or two
// entries swapped), reseals, and requires every mutant that differs from
// its base to reach the pass that checks the inverse against the
// permutation and be rejected there as store.bad_layout.
//
// AALIGN_FUZZ_ROUNDS scales the mutant count (default 3 rounds of 150
// mutants, and of 7 Inverse mutants, per index); sanitizer CI jobs raise
// it.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "filter/signature.h"
#include "score/matrices.h"
#include "seq/database.h"
#include "seq/fasta.h"
#include "store/builder.h"
#include "store/loader.h"

using namespace aalign;

namespace {

using Bytes = std::vector<std::uint8_t>;

int fuzz_rounds(int fallback) {
  if (const char* env = std::getenv("AALIGN_FUZZ_ROUNDS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return fallback;
}

// One index per (corpus, shard size): the default budget (one shard for
// these corpora) and a small one that cuts many shards.
std::vector<Bytes> build_indexes() {
  const score::ScoreMatrix& matrix = score::ScoreMatrix::blosum62();
  std::vector<Bytes> out;
  for (const auto& e :
       std::filesystem::directory_iterator(AALIGN_DATA_DIR "/store")) {
    if (e.path().extension() != ".fasta") continue;
    const seq::Database db(matrix.alphabet(),
                           seq::read_fasta_file(e.path().string()));
    for (const std::size_t shard : {std::size_t{1} << 20, std::size_t{600}}) {
      store::BuildParams params;
      params.shard_target_residues = shard;
      out.push_back(store::build_index_bytes(db, matrix, params));
    }
  }
  return out;
}

template <class T>
bool read_at(const Bytes& m, std::uint64_t at, T& out) {
  if (at > m.size() || sizeof(T) > m.size() - at) return false;
  std::memcpy(&out, m.data() + at, sizeof(T));
  return true;
}

bool in_file(const Bytes& m, std::uint64_t offset, std::uint64_t bytes) {
  return offset <= m.size() && bytes <= m.size() - offset;
}

// Recomputes every checksum the mutant's own tables locate - shard
// checksums, then section checksums (the ShardDir section holds the
// shard checksums), then the header checksum - skipping any range that
// falls outside the file. A resealed mutant fails only the layout checks.
void reseal(Bytes& m) {
  store::Header hdr{};
  if (!read_at(m, 0, hdr)) return;
  std::vector<store::SectionEntry> sections;
  for (std::uint32_t i = 0; i < store::kSectionCount; ++i) {
    store::SectionEntry e{};
    const std::uint64_t at = sizeof hdr + i * sizeof e;
    if (!read_at(m, at, e)) return;
    sections.push_back(e);
  }
  // A shard's range is derived: it starts at the sequence where the shard
  // before it ended, and spans SeqBlob bytes from the residue offset of its
  // first sequence to the one past its last, or to the section's end for
  // the shard that ends at the last sequence.
  const auto at_kind = [&](store::SectionKind kind) -> store::SectionEntry& {
    return sections[static_cast<std::uint32_t>(kind) - 1];
  };
  const store::SectionEntry& dir = at_kind(store::SectionKind::ShardDir);
  const store::SectionEntry& off = at_kind(store::SectionKind::SeqOffsets);
  const store::SectionEntry& blob = at_kind(store::SectionKind::SeqBlob);
  const auto offset = [&](std::uint64_t seq, std::uint64_t& out) {
    return seq <= (~std::uint64_t{0} - off.offset) / sizeof out &&
           read_at(m, off.offset + seq * sizeof out, out);
  };
  std::uint64_t first_seq = 0;
  for (std::uint64_t s = 0; s < hdr.shard_count; ++s) {
    const std::uint64_t at = dir.offset + s * sizeof(store::ShardEntry);
    store::ShardEntry sh{};
    if (at < dir.offset || !read_at(m, at, sh)) break;
    const std::uint64_t first = first_seq;
    if (sh.seq_count > ~std::uint64_t{0} - first) break;
    first_seq += sh.seq_count;
    std::uint64_t begin = 0, end = blob.bytes;
    if (!offset(first, begin)) continue;
    if (first_seq != hdr.seq_count && !offset(first_seq, end)) continue;
    if (end < begin || blob.offset > ~std::uint64_t{0} - begin ||
        !in_file(m, blob.offset + begin, end - begin)) {
      continue;
    }
    sh.checksum = store::checksum(m.data() + blob.offset + begin, end - begin);
    std::memcpy(m.data() + at, &sh, sizeof sh);
  }
  for (std::uint32_t i = 0; i < store::kSectionCount; ++i) {
    store::SectionEntry& e = sections[i];
    if ((e.flags & store::kSectionFlagPerShardChecksum) ||
        !in_file(m, e.offset, e.bytes)) {
      continue;
    }
    e.checksum = store::checksum(m.data() + e.offset, e.bytes);
    std::memcpy(m.data() + sizeof hdr + i * sizeof e, &e, sizeof e);
  }
  if (!in_file(m, 0, hdr.header_bytes) || hdr.header_bytes < sizeof hdr) {
    return;
  }
  hdr.header_checksum = 0;
  std::memcpy(m.data(), &hdr, sizeof hdr);
  hdr.header_checksum = store::checksum(m.data(), hdr.header_bytes);
  std::memcpy(m.data(), &hdr, sizeof hdr);
}

// One mutant of `base`: a few byte edits (a third in the header, a third
// in the header, section table and directories - the bytes the loader
// branches on - and a third anywhere), a
// splice of a slice of `donor`, a deleted range or a truncation - or
// several of them.
Bytes mutate(std::mt19937_64& rng, Bytes m, const Bytes& donor,
             std::uint64_t structure_end) {
  const auto pick = [&](std::size_t n) {
    return n == 0 ? std::size_t{0} : static_cast<std::size_t>(rng() % n);
  };
  for (int step = 0, steps = 1 + static_cast<int>(pick(3)); step < steps;
       ++step) {
    switch (pick(6)) {
      case 0:
      case 1:
      case 2: {  // byte edits
        for (int i = 0, n = 1 + static_cast<int>(pick(4)); i < n && !m.empty();
             ++i) {
          const std::size_t region = pick(3);
          const std::size_t at = pick(std::min<std::size_t>(
              region == 0   ? sizeof(store::Header)
              : region == 1 ? structure_end
                            : m.size(),
              m.size()));
          switch (pick(4)) {
            case 0: m[at] ^= static_cast<std::uint8_t>(1u << pick(8)); break;
            case 1: m[at] = static_cast<std::uint8_t>(rng()); break;
            case 2: m[at] = 0xFF; break;
            default: m[at] = 0; break;
          }
        }
        break;
      }
      case 3: {  // splice a donor slice in, over or into the mutant
        const std::size_t from = pick(donor.size());
        const std::size_t len =
            pick(std::min<std::size_t>(donor.size() - from + 1, 512));
        const std::size_t at = pick(m.size() + 1);
        if (pick(2) == 0) {
          m.insert(m.begin() + static_cast<std::ptrdiff_t>(at),
                   donor.begin() + static_cast<std::ptrdiff_t>(from),
                   donor.begin() + static_cast<std::ptrdiff_t>(from + len));
        } else {
          const std::size_t n = std::min(len, m.size() - at);
          std::copy_n(donor.begin() + static_cast<std::ptrdiff_t>(from), n,
                      m.begin() + static_cast<std::ptrdiff_t>(at));
        }
        break;
      }
      case 4: {  // delete a range
        const std::size_t at = pick(m.size() + 1);
        const std::size_t len =
            pick(std::min<std::size_t>(m.size() - at + 1, 512));
        m.erase(m.begin() + static_cast<std::ptrdiff_t>(at),
                m.begin() + static_cast<std::ptrdiff_t>(at + len));
        break;
      }
      default:  // truncate
        m.resize(pick(m.size() + 1));
        break;
    }
  }
  return m;
}

// The end of the hot directories (header, section table, ShardDir,
// SeqOffsets): the region where most byte edits land.
std::uint64_t structure_end(const Bytes& m) {
  store::SectionEntry blob{};
  read_at(m,
          sizeof(store::Header) +
              (static_cast<std::uint32_t>(store::SectionKind::SeqBlob) - 1) *
                  sizeof(store::SectionEntry),
          blob);
  return blob.offset;
}

void write_file(const std::string& path, const Bytes& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

// True when [p, p + n) lies inside the mapping of `file`.
bool in_mapping(const store::MappedFile& file, const void* p, std::size_t n) {
  const std::uintptr_t lo = reinterpret_cast<std::uintptr_t>(file.data());
  const std::uintptr_t at = reinterpret_cast<std::uintptr_t>(p);
  return at >= lo && at - lo <= file.size() && n <= file.size() - (at - lo);
}

// A 64-residue query (protein codes 0..19), long enough that a scan
// reads every screened subject's signature.
const std::vector<std::uint8_t> kScanQuery = [] {
  std::vector<std::uint8_t> q(64);
  for (std::size_t i = 0; i < q.size(); ++i) {
    q[i] = static_cast<std::uint8_t>(i * 7 % 20);
  }
  return q;
}();

enum class Outcome {
  Opened,
  RejectedAtOpen,
  RejectedAtScan,
  RejectedAtShards,
};

// Opens the mutant at `path` and uses it the way a search would, adding
// every byte it reads to `sink`, then runs one filtered scan through its
// signatures(), which verifies the signature sections a Directory open
// deferred. A StoreError is a rejection and must name its code; one from
// the scan must be store.section_checksum.
Outcome open_and_walk(const std::string& path, std::uint64_t& sink) {
  Outcome stage = Outcome::RejectedAtOpen;
  try {
    const store::MappedIndex idx =
        store::MappedIndex::open(path, store::Verify::Directory);
    stage = Outcome::RejectedAtScan;
    const seq::Database db = idx.database();
    const store::MappedFile& file = *idx.file();
    for (std::size_t pos = 0; pos < db.size(); ++pos) {
      const auto r = db.residues(pos);
      const std::string_view id = db.id(pos);
      EXPECT_TRUE(in_mapping(file, r.data(), r.size())) << "subject " << pos;
      EXPECT_TRUE(in_mapping(file, id.data(), id.size())) << "subject " << pos;
      for (const std::uint8_t c : r) sink += c;
      for (const char c : id) sink += static_cast<unsigned char>(c);
      const std::size_t orig = db.original_index(pos);
      EXPECT_LT(orig, db.size());
      EXPECT_EQ(db.position_of(orig), pos);
    }
    std::vector<std::uint8_t> alive;
    const filter::FilterStats fs =
        idx.signatures()->scan(kScanQuery, simd::best_available_isa(), alive);
    sink += fs.survivors;
    stage = Outcome::RejectedAtShards;
    idx.verify_shards();
    return Outcome::Opened;
  } catch (const store::StoreError& e) {
    const std::string name = store::store_errc_name(e.errc());
    EXPECT_NE(name, "store.unknown") << e.what();
    EXPECT_EQ(std::string(e.what()).rfind(name, 0), 0u) << e.what();
    if (stage == Outcome::RejectedAtScan) {
      EXPECT_EQ(e.errc(), store::StoreErrc::SectionChecksum) << e.what();
    } else if (stage == Outcome::RejectedAtShards) {
      EXPECT_EQ(e.errc(), store::StoreErrc::ShardChecksum) << e.what();
    }
    return stage;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "non-StoreError exception: " << e.what();
  }
  return stage;
}

TEST(FuzzStore, MutantsOpenCleanOrNameTheirError) {
  const std::vector<Bytes> indexes = build_indexes();
  ASSERT_GE(indexes.size(), 2u);
  const std::string path = ::testing::TempDir() + "fuzz_store_" +
                           std::to_string(::getpid()) + ".aidx";
  std::uint64_t sink = 0;
  for (const Bytes& base : indexes) {  // the pristine indexes open clean
    write_file(path, base);
    ASSERT_EQ(open_and_walk(path, sink), Outcome::Opened);
  }
  const int mutants = fuzz_rounds(3) * 150;
  std::mt19937_64 rng(0x57012E);
  int counts[2][4] = {};  // [plain, resealed][Outcome]
  for (std::size_t c = 0; c < indexes.size(); ++c) {
    const Bytes& base = indexes[c];
    const std::uint64_t hot_end = structure_end(base);
    for (int i = 0; i < mutants; ++i) {
      Bytes m = mutate(rng, base, indexes[(c + i) % indexes.size()], hot_end);
      const bool resealed = i % 2 == 1;
      if (resealed) reseal(m);
      SCOPED_TRACE(::testing::Message()
                   << "index " << c << " mutant " << i << " ("
                   << m.size() << " bytes, resealed " << resealed << ")");
      write_file(path, m);
      counts[resealed][static_cast<int>(open_and_walk(path, sink))]++;
      if (HasFailure()) return;
    }
  }
  std::remove(path.c_str());
  RecordProperty("bytes_read_sum", std::to_string(sink));
  const char* const kOutcomes[] = {"opened", "rejected_at_open",
                                   "rejected_at_scan", "rejected_at_shards"};
  for (int r = 0; r < 2; ++r) {
    for (int o = 0; o < 4; ++o) {
      RecordProperty(std::string(r ? "resealed_" : "plain_") + kOutcomes[o],
                     counts[r][o]);
    }
  }
  // Every outcome was exercised: plain mutants caught at open, by the
  // first scan (only signature bytes edited) and, with only residues
  // edited, by the shard checksums after a Directory open; resealed
  // mutants that are valid files again and ones the layout checks reject.
  constexpr int kOpened = static_cast<int>(Outcome::Opened);
  constexpr int kAtOpen = static_cast<int>(Outcome::RejectedAtOpen);
  constexpr int kAtScan = static_cast<int>(Outcome::RejectedAtScan);
  constexpr int kAtShards = static_cast<int>(Outcome::RejectedAtShards);
  EXPECT_GT(counts[0][kAtOpen], 0);
  EXPECT_GT(counts[0][kAtScan], 0);
  EXPECT_GT(counts[0][kAtShards], 0);
  EXPECT_GT(counts[1][kOpened], 0);
  EXPECT_GT(counts[1][kAtOpen], 0);
}

// Resealed mutants whose edits all lie in the Inverse section: each one
// that differs from its base must be rejected by the inverse check.
TEST(FuzzStore, ResealedInverseMutantsFailTheInverseCheck) {
  const std::vector<Bytes> indexes = build_indexes();
  const std::string path = ::testing::TempDir() + "fuzz_store_inverse_" +
                           std::to_string(::getpid()) + ".aidx";
  std::mt19937_64 rng(0x1A7E5E);
  int reached = 0;
  for (std::size_t c = 0; c < indexes.size(); ++c) {
    const Bytes& base = indexes[c];
    store::Header hdr{};
    store::SectionEntry inv{};
    ASSERT_TRUE(read_at(base, 0, hdr));
    ASSERT_TRUE(read_at(
        base,
        sizeof hdr +
            (static_cast<std::uint32_t>(store::SectionKind::Inverse) - 1) *
                sizeof inv,
        inv));
    const std::uint64_t n = hdr.seq_count;
    ASSERT_GE(n, 2u);
    const auto at = [&](std::uint64_t o) {
      return inv.offset + o * sizeof(std::uint32_t);
    };
    for (int i = 0; i < fuzz_rounds(3) * 7; ++i) {
      Bytes m = base;
      for (int e = 0, edits = 1 + static_cast<int>(rng() % 3); e < edits;
           ++e) {
        const std::uint64_t o = rng() % n;
        std::uint32_t v = 0;
        switch (rng() % 4) {
          case 0: v = static_cast<std::uint32_t>(n); break;
          case 1: v = static_cast<std::uint32_t>(rng() % n); break;
          case 2: v = static_cast<std::uint32_t>(rng()); break;
          default: {  // swap entries o and p
            const std::uint64_t p = rng() % n;
            std::memcpy(&v, m.data() + at(p), sizeof v);
            std::memcpy(m.data() + at(p), m.data() + at(o), sizeof v);
            break;
          }
        }
        std::memcpy(m.data() + at(o), &v, sizeof v);
      }
      if (m == base) continue;
      reseal(m);
      SCOPED_TRACE(::testing::Message() << "index " << c << " mutant " << i);
      write_file(path, m);
      try {
        store::MappedIndex::open(path, store::Verify::Directory);
        ADD_FAILURE() << "opened an index whose inverse was edited";
      } catch (const store::StoreError& e) {
        EXPECT_EQ(e.errc(), store::StoreErrc::BadLayout) << e.what();
        EXPECT_NE(std::string(e.what()).find("inverse"), std::string::npos)
            << e.what();
        reached += e.errc() == store::StoreErrc::BadLayout;
      }
      if (HasFailure()) return;
    }
  }
  std::remove(path.c_str());
  RecordProperty("inverse_mutants_rejected", reached);
  EXPECT_GT(reached, 0);
}

}  // namespace
