// Store-layer test suite (docs/database_format.md): round-trip fidelity,
// byte-identical deterministic rebuilds, the corruption-rejection table
// (every mutation class -> its structured StoreErrc), loader edge cases,
// and the load-bearing invariant of the whole PR: a search served from
// the mmapped index is BIT-IDENTICAL - scores, top-k order, original
// indices - to one served from the FASTA-parse path, across ISAs and
// filter modes, single and batched.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "filter/signature.h"
#include "obs/metrics.h"
#include "score/matrices.h"
#include "search/batch_scheduler.h"
#include "search/database_search.h"
#include "seq/fasta.h"
#include "store/builder.h"
#include "store/loader.h"
#include "test_helpers.h"

using namespace aalign;

namespace {

AlignConfig local_config() {
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);
  return cfg;
}

// A deterministic workload with planted homologs so filtered searches
// have real survivors and the top-k is not pure noise.
std::vector<seq::Sequence> make_workload(std::uint64_t seed,
                                         std::size_t background,
                                         std::size_t homologs,
                                         std::size_t min_len = 40,
                                         std::size_t max_len = 320) {
  const score::Alphabet& protein = score::Alphabet::protein();
  std::mt19937_64 rng(seed);
  std::vector<seq::Sequence> out;
  std::uniform_int_distribution<std::size_t> len(min_len, max_len);
  for (std::size_t i = 0; i < background; ++i) {
    out.push_back(test::sequence(protein, "bg" + std::to_string(i),
                                 test::random_protein(rng, len(rng))));
  }
  for (std::size_t i = 0; i < homologs && !out.empty(); ++i) {
    const auto parent = protein.encode(out[i * 7 % background].residues);
    out.push_back(test::sequence(protein, "hom" + std::to_string(i),
                                 test::mutate(rng, parent, 0.2, 0.03)));
  }
  return out;
}

// The workload as the FASTA path builds it: encoded with the protein
// alphabet, longest first.
seq::Database protein_db(const std::vector<seq::Sequence>& seqs) {
  return seq::Database(score::Alphabet::protein(), seqs);
}

// RAII temp index file: built once, deleted at scope exit.
class TempIndex {
 public:
  TempIndex(const seq::Database& db, const score::ScoreMatrix& matrix,
            store::BuildParams params = {}) {
    path_ = ::testing::TempDir() + "store_test_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)) + ".aidx";
    store::write_index(path_, db, matrix, params);
  }
  ~TempIndex() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void write_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

// Asserts db A and B are indistinguishable through the public interface.
void expect_same_database(const seq::Database& a, const seq::Database& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.total_residues(), b.total_residues());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << "position " << i;
    ASSERT_EQ(a[i].size(), b[i].size()) << "position " << i;
    const auto va = a[i].view(), vb = b[i].view();
    EXPECT_TRUE(std::equal(va.begin(), va.end(), vb.begin())) << "position "
                                                              << i;
    EXPECT_EQ(a.original_index(i), b.original_index(i)) << "position " << i;
  }
}

}  // namespace

TEST(Store, RoundTripPreservesDatabase) {
  const score::ScoreMatrix& matrix = score::ScoreMatrix::blosum62();
  const auto seqs = make_workload(11, 60, 4);
  const seq::Database fasta_db = protein_db(seqs);
  const seq::Database build_db = protein_db(seqs);
  TempIndex tmp(build_db, matrix);

  const store::MappedIndex idx = store::MappedIndex::open(tmp.path());
  const seq::Database mapped = idx.database();
  expect_same_database(fasta_db, mapped);
  EXPECT_NE(mapped.backing(), nullptr);
  EXPECT_EQ(idx.header().seq_count, fasta_db.size());
  EXPECT_EQ(idx.header().residue_total, fasta_db.total_residues());
  EXPECT_STREQ(idx.header().matrix_name, matrix.name().c_str());

  // Stored order is length-sorted and the shards cut it in order: each
  // shard starts where the last ended, its first subject its longest.
  std::uint64_t next = 0;
  for (const store::ShardEntry& sh : idx.shards()) {
    EXPECT_GE(mapped[next].size(), mapped[next + sh.seq_count - 1].size());
    next += sh.seq_count;
  }
  EXPECT_EQ(next, mapped.size());
}

TEST(Store, RoundTripPreservesSignatures) {
  const score::ScoreMatrix& matrix = score::ScoreMatrix::blosum62();
  const auto seqs = make_workload(12, 40, 2);
  const seq::Database db = protein_db(seqs);
  TempIndex tmp(db, matrix);

  const filter::SignatureIndex fresh(db);
  const store::MappedIndex idx = store::MappedIndex::open(tmp.path());
  const auto stored = idx.signatures();
  ASSERT_NE(stored, nullptr);
  ASSERT_EQ(stored->size(), fresh.size());
  EXPECT_EQ(stored->words_per_signature(), fresh.words_per_signature());
  EXPECT_TRUE(stored->matches(db));
  const auto fb = fresh.blob(), sb = stored->blob();
  ASSERT_EQ(fb.size(), sb.size());
  EXPECT_TRUE(std::equal(fb.begin(), fb.end(), sb.begin()));
  const auto fp = fresh.popcounts(), sp = stored->popcounts();
  EXPECT_TRUE(std::equal(fp.begin(), fp.end(), sp.begin()));
  const auto fl = fresh.lengths(), sl = stored->lengths();
  EXPECT_TRUE(std::equal(fl.begin(), fl.end(), sl.begin()));
}

TEST(Store, ProfileLutsMatchMatrix) {
  const score::ScoreMatrix& matrix = score::ScoreMatrix::blosum62();
  const auto seqs = make_workload(13, 10, 0);
  const seq::Database db = protein_db(seqs);
  TempIndex tmp(db, matrix);
  const store::MappedIndex idx = store::MappedIndex::open(tmp.path());

  const int alpha = matrix.size();
  const auto lut16 = idx.profile_lut_i16();
  ASSERT_EQ(lut16.size(),
            static_cast<std::size_t>(alpha) * store::kProfileLutStride);
  for (int a = 0; a < alpha; ++a) {
    for (int c = 0; c < alpha; ++c) {
      EXPECT_EQ(lut16[static_cast<std::size_t>(a) * store::kProfileLutStride +
                      static_cast<std::size_t>(c)],
                static_cast<std::int16_t>(matrix.at(c, a)))
          << "a=" << a << " c=" << c;
    }
    // Pad row + trailing entries are zero.
    for (std::size_t c = static_cast<std::size_t>(alpha);
         c < store::kProfileLutStride; ++c) {
      EXPECT_EQ(lut16[static_cast<std::size_t>(a) * store::kProfileLutStride + c],
                0);
    }
  }
  EXPECT_EQ(idx.profile_lut_i8().size(), lut16.size());
  EXPECT_EQ(idx.profile_lut_i32().size(), lut16.size());
}

TEST(Store, RebuildsAreByteIdentical) {
  const score::ScoreMatrix& matrix = score::ScoreMatrix::blosum62();
  const auto seqs = make_workload(14, 50, 3);
  const seq::Database db1 = protein_db(seqs);
  const seq::Database db2 = protein_db(seqs);
  const auto bytes1 = store::build_index_bytes(db1, matrix);
  const auto bytes2 = store::build_index_bytes(db2, matrix);
  EXPECT_EQ(bytes1, bytes2);

  // And the fingerprint moves when the input does.
  auto changed = seqs;
  changed.front().residues.push_back('D');
  const seq::Database db3 = protein_db(changed);
  const auto bytes3 = store::build_index_bytes(db3, matrix);
  EXPECT_NE(bytes1, bytes3);
}

// ---------------------------------------------------------------------------
// The differential gate: mmap-served search == FASTA-served search,
// bit for bit, across ISA x filter mode, single-query and batched.
// ---------------------------------------------------------------------------

TEST(Store, MmapSearchBitIdenticalToFastaPath) {
  const score::ScoreMatrix& matrix = score::ScoreMatrix::blosum62();
  const auto seqs = make_workload(15, 80, 6);
  const seq::Database build_db = protein_db(seqs);
  TempIndex tmp(build_db, matrix);
  const store::MappedIndex idx = store::MappedIndex::open(tmp.path());

  std::mt19937_64 rng(99);
  std::vector<std::vector<std::uint8_t>> queries;
  const score::Alphabet& protein = score::Alphabet::protein();
  queries.push_back(protein.encode(seqs[4].residues));  // exact member
  queries.push_back(
      test::mutate(rng, protein.encode(seqs[10].residues), 0.25, 0.03));
  queries.push_back(test::random_protein(rng, 150));

  std::vector<simd::IsaKind> isas = {simd::IsaKind::Scalar};
  if (simd::best_available_isa() != simd::IsaKind::Scalar) {
    isas.push_back(simd::best_available_isa());
  }
  for (const simd::IsaKind isa : isas) {
    for (const filter::FilterMode mode :
         {filter::FilterMode::Off, filter::FilterMode::On}) {
      search::SearchOptions opt;
      opt.threads = 2;
      opt.top_k = 10;
      opt.query.isa = isa;
      opt.filter.mode = mode;

      // FASTA path: parse-order database, search sorts + indexes itself.
      const seq::Database fasta_db = protein_db(seqs);
      const search::DatabaseSearch fasta_engine(matrix, local_config(), opt);

      // mmap path: stored order + prebuilt signatures.
      seq::Database mapped_db = idx.database();
      search::SearchOptions mopt = opt;
      mopt.filter.index = idx.signatures();
      const search::DatabaseSearch mmap_engine(matrix, local_config(), mopt);

      for (const auto& q : queries) {
        const search::SearchResult a = fasta_engine.search(q, fasta_db);
        const search::SearchResult b = mmap_engine.search(q, mapped_db);
        ASSERT_EQ(a.top.size(), b.top.size())
            << simd::isa_name(isa) << " " << filter_mode_name(mode);
        for (std::size_t r = 0; r < a.top.size(); ++r) {
          EXPECT_EQ(a.top[r].index, b.top[r].index)
              << "rank " << r << " " << simd::isa_name(isa) << " "
              << filter_mode_name(mode);
          EXPECT_EQ(a.top[r].score, b.top[r].score)
              << "rank " << r << " " << simd::isa_name(isa) << " "
              << filter_mode_name(mode);
        }
      }

      // Batched path (tile scheduler) against the same pair of databases.
      const auto fasta_many = fasta_engine.search_many(queries, fasta_db);
      const auto mmap_many = mmap_engine.search_many(queries, mapped_db);
      ASSERT_EQ(fasta_many.size(), mmap_many.size());
      for (std::size_t qi = 0; qi < fasta_many.size(); ++qi) {
        ASSERT_EQ(fasta_many[qi].top.size(), mmap_many[qi].top.size());
        for (std::size_t r = 0; r < fasta_many[qi].top.size(); ++r) {
          EXPECT_EQ(fasta_many[qi].top[r].index, mmap_many[qi].top[r].index);
          EXPECT_EQ(fasta_many[qi].top[r].score, mmap_many[qi].top[r].score);
        }
      }
    }
  }
}

TEST(Store, PrebuiltIndexCountsReuseNotBuild) {
  const score::ScoreMatrix& matrix = score::ScoreMatrix::blosum62();
  const auto seqs = make_workload(16, 50, 3);
  const seq::Database db = protein_db(seqs);
  TempIndex tmp(db, matrix);
  const store::MappedIndex idx = store::MappedIndex::open(tmp.path());
  seq::Database mapped = idx.database();

  search::SearchOptions opt;
  opt.threads = 1;
  opt.filter.mode = filter::FilterMode::On;
  opt.filter.index = idx.signatures();
  obs::Counter& builds = obs::registry().counter("filter.index_builds");
  obs::Counter& reuses = obs::registry().counter("filter.index_reuses");
  const std::uint64_t builds_before = builds.value();
  const std::uint64_t reuses_before = reuses.value();

  const search::DatabaseSearch engine(matrix, local_config(), opt);
  std::mt19937_64 qrng(5);
  const auto q = test::random_protein(qrng, 120);
  engine.search(q, mapped);
  EXPECT_EQ(builds.value(), builds_before);  // no k-mer was rehashed
  EXPECT_GE(reuses.value(), reuses_before + 1);
}

// ---------------------------------------------------------------------------
// Corruption-rejection table: every mutation class -> its StoreErrc.
// ---------------------------------------------------------------------------

class StoreCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    const score::ScoreMatrix& matrix = score::ScoreMatrix::blosum62();
    const auto seqs = make_workload(17, 40, 2);
    const seq::Database db = protein_db(seqs);
    bytes_ = store::build_index_bytes(db, matrix);
    // Unique per process AND fixture instance: ctest runs each case as
    // its own concurrent process, so a shared name would race (and the
    // `this` address alone can coincide across processes).
    path_ = ::testing::TempDir() + "store_corrupt_case_" +
            std::to_string(::getpid()) + "_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)) + ".aidx";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  // Writes a mutated copy and returns the loader's rejection code.
  store::StoreErrc open_expecting_error(
      const std::vector<std::uint8_t>& mutated,
      store::Verify verify = store::Verify::Full) {
    write_file(path_, mutated);
    try {
      store::MappedIndex::open(path_, verify);
    } catch (const store::StoreError& e) {
      // The contract the CI fuzzer greps: what() starts with the token.
      EXPECT_EQ(std::string(e.what()).rfind(store::store_errc_name(e.errc()), 0),
                0u);
      return e.errc();
    }
    ADD_FAILURE() << "loader accepted a corrupt file";
    return store::StoreErrc::IoError;
  }

  std::vector<std::uint8_t> flipped(std::size_t offset, int bit = 0) const {
    auto m = bytes_;
    m[offset] ^= static_cast<std::uint8_t>(1 << bit);
    return m;
  }

  static std::size_t section_at(store::SectionKind kind) {
    return sizeof(store::Header) +
           (static_cast<std::size_t>(kind) - 1) * sizeof(store::SectionEntry);
  }

  static store::SectionEntry section(const std::vector<std::uint8_t>& m,
                                     store::SectionKind kind) {
    store::SectionEntry e;
    std::memcpy(&e, m.data() + section_at(kind), sizeof e);
    return e;
  }

  // Recomputes section `kind`'s checksum, then the header checksum, so an
  // edited section passes every checksum and reaches the layout checks.
  static void reseal(std::vector<std::uint8_t>& m, store::SectionKind kind) {
    store::SectionEntry e = section(m, kind);
    e.checksum = store::checksum(m.data() + e.offset, e.bytes);
    std::memcpy(m.data() + section_at(kind), &e, sizeof e);
    store::Header hdr{};
    std::memcpy(&hdr, m.data(), sizeof hdr);
    hdr.header_checksum = 0;
    std::memcpy(m.data(), &hdr, sizeof hdr);
    hdr.header_checksum = store::checksum(m.data(), hdr.header_bytes);
    std::memcpy(m.data(), &hdr, sizeof hdr);
  }

  void expect_rejected_at_first_scan(
      const std::vector<std::uint8_t>& mutated,
      const std::vector<search::SearchResult>& pristine);

  std::vector<std::uint8_t> bytes_;
  std::string path_;
};

TEST_F(StoreCorruption, TruncationsRejected) {
  using store::StoreErrc;
  EXPECT_EQ(open_expecting_error({}), StoreErrc::Truncated);
  EXPECT_EQ(open_expecting_error({bytes_.begin(), bytes_.begin() + 100}),
            StoreErrc::Truncated);
  EXPECT_EQ(open_expecting_error(
                {bytes_.begin(), bytes_.begin() + bytes_.size() / 2}),
            StoreErrc::Truncated);
  EXPECT_EQ(
      open_expecting_error({bytes_.begin(), bytes_.begin() + bytes_.size() - 1}),
      StoreErrc::Truncated);
}

TEST_F(StoreCorruption, HeaderFlipsRejected) {
  using store::StoreErrc;
  EXPECT_EQ(open_expecting_error(flipped(0)), StoreErrc::BadMagic);
  EXPECT_EQ(open_expecting_error(flipped(8)), StoreErrc::BadEndian);
  EXPECT_EQ(open_expecting_error(flipped(12)), StoreErrc::BadVersion);
  // A flip anywhere else in the checksummed header range must be caught
  // by geometry checks or the header checksum - walk a spread of offsets.
  for (const std::size_t off : {40u, 80u, 120u, 160u, 200u, 400u}) {
    const store::StoreErrc errc = open_expecting_error(flipped(off, 4));
    EXPECT_TRUE(errc == StoreErrc::HeaderChecksum ||
                errc == StoreErrc::BadLayout || errc == StoreErrc::Truncated)
        << "offset " << off << " -> " << store::store_errc_name(errc);
  }
}

TEST_F(StoreCorruption, PayloadFlipsRejected) {
  using store::StoreErrc;
  // Fixed verify tier: every payload byte is covered by a section or
  // shard checksum, so a flip anywhere must surface one of the two.
  std::size_t blob_mid = 0;
  {
    write_file(path_, bytes_);
    const store::MappedIndex idx = store::MappedIndex::open(path_);
    const auto first = idx.database().residues(0);
    blob_mid = static_cast<std::size_t>(first.data() - idx.file()->data()) +
               first.size() / 2;
  }
  const store::StoreErrc in_blob = open_expecting_error(flipped(blob_mid));
  EXPECT_EQ(in_blob, StoreErrc::ShardChecksum);
  const store::StoreErrc near_end =
      open_expecting_error(flipped(bytes_.size() - 1, 7));
  EXPECT_TRUE(near_end == StoreErrc::SectionChecksum ||
              near_end == StoreErrc::ShardChecksum);
}

TEST_F(StoreCorruption, DirectoryVerifySkipsResidueBlob) {
  // The O(1)-startup contract: a residue-blob flip passes Directory
  // verification (no residue reads) but fails Full verification.
  std::size_t blob_mid = 0;
  {
    write_file(path_, bytes_);
    const store::MappedIndex idx = store::MappedIndex::open(path_);
    const auto first = idx.database().residues(0);
    blob_mid = static_cast<std::size_t>(first.data() - idx.file()->data()) +
               first.size() / 2;
  }
  write_file(path_, flipped(blob_mid));
  EXPECT_NO_THROW(store::MappedIndex::open(path_, store::Verify::Directory));
  EXPECT_EQ(open_expecting_error(flipped(blob_mid), store::Verify::Full),
            store::StoreErrc::ShardChecksum);
}

TEST_F(StoreCorruption, NewerFormatVersionRejected) {
  // An index written by a FUTURE builder: version bumped and the header
  // checksum made internally consistent again - the reject must come
  // from the version gate, not the checksum, and must count.
  auto m = bytes_;
  store::Header hdr{};
  std::memcpy(&hdr, m.data(), sizeof hdr);
  hdr.format_version = store::kFormatVersion + 1;
  hdr.header_checksum = 0;
  std::memcpy(m.data(), &hdr, sizeof hdr);
  const std::uint64_t sum = store::checksum(m.data(), hdr.header_bytes);
  hdr.header_checksum = sum;
  std::memcpy(m.data(), &hdr, sizeof hdr);

  obs::Counter& rejects = obs::registry().counter("store.version_rejects");
  const std::uint64_t before = rejects.value();
  EXPECT_EQ(open_expecting_error(m), store::StoreErrc::BadVersion);
  EXPECT_EQ(rejects.value(), before + 1);
}

// The stored order is the order the signatures were built in, so
// residue offsets that are not longest first are a layout defect even
// with every checksum intact. Subject 0 is given the last subject's
// length, so subject 1 takes up the rest of their residues and is longer.
TEST_F(StoreCorruption, UnsortedSeqDirRejected) {
  auto m = bytes_;
  store::Header hdr{};
  std::memcpy(&hdr, m.data(), sizeof hdr);
  const store::SectionEntry dir = section(m, store::SectionKind::SeqOffsets);
  const auto off = [&](std::size_t i) {
    std::uint64_t v;
    std::memcpy(&v, m.data() + dir.offset + i * sizeof v, sizeof v);
    return v;
  };
  const std::uint64_t first_len = off(1) - off(0);
  const std::uint64_t last_len = off(hdr.seq_count) - off(hdr.seq_count - 1);
  ASSERT_GT(first_len, last_len);
  const std::uint64_t cut = off(0) + last_len;
  std::memcpy(m.data() + dir.offset + sizeof cut, &cut, sizeof cut);
  reseal(m, store::SectionKind::SeqOffsets);
  EXPECT_EQ(open_expecting_error(m), store::StoreErrc::BadLayout);
}

// A Permutation section that names one original index twice.
TEST_F(StoreCorruption, DuplicatePermutationEntryRejected) {
  auto m = bytes_;
  const store::SectionEntry perm =
      section(m, store::SectionKind::Permutation);
  std::memcpy(m.data() + perm.offset + sizeof(std::uint32_t),
              m.data() + perm.offset, sizeof(std::uint32_t));
  reseal(m, store::SectionKind::Permutation);
  EXPECT_EQ(open_expecting_error(m), store::StoreErrc::BadLayout);
}

// Resealed Inverse sections that disagree with the permutation: two
// entries swapped, an entry equal to the sequence count (one past the last
// position), and an entry naming a valid position whose permutation entry
// is another original index. Every checksum passes; the pass that checks
// perm[inv[o]] == o rejects each.
TEST_F(StoreCorruption, InverseThatDisagreesWithThePermutationRejected) {
  store::Header hdr{};
  std::memcpy(&hdr, bytes_.data(), sizeof hdr);
  const store::SectionEntry inv =
      section(bytes_, store::SectionKind::Inverse);
  const auto entry = [&](const std::vector<std::uint8_t>& m, std::size_t o) {
    std::uint32_t v;
    std::memcpy(&v, m.data() + inv.offset + o * sizeof v, sizeof v);
    return v;
  };
  const auto with = [&](std::size_t o, std::uint32_t v,
                        std::vector<std::uint8_t> m) {
    std::memcpy(m.data() + inv.offset + o * sizeof v, &v, sizeof v);
    return m;
  };
  ASSERT_GE(hdr.seq_count, 3u);
  const auto swapped =
      with(2, entry(bytes_, 1), with(1, entry(bytes_, 2), bytes_));
  const auto past_end =
      with(1, static_cast<std::uint32_t>(hdr.seq_count), bytes_);
  const auto not_back = with(0, entry(bytes_, 2), bytes_);
  for (auto m : {swapped, past_end, not_back}) {
    ASSERT_TRUE(m != bytes_);
    reseal(m, store::SectionKind::Inverse);
    for (const store::Verify verify :
         {store::Verify::Directory, store::Verify::Full}) {
      EXPECT_EQ(open_expecting_error(m, verify), store::StoreErrc::BadLayout);
    }
  }
}

// A residue offset near 2^64: 2^64 - 64 plus any length of 64 or more
// wraps back inside the blob, so an additive `offset + length <= blob
// end` test would pass it. A mapped database trusts the offsets, so the
// check that they never decrease is the only guard on its residue reads.
TEST_F(StoreCorruption, WrappedSeqDirOffsetRejected) {
  auto m = bytes_;
  const store::SectionEntry dir = section(m, store::SectionKind::SeqOffsets);
  std::uint64_t second;
  std::memcpy(&second, m.data() + dir.offset + 2 * sizeof second,
              sizeof second);
  ASSERT_GE(second, 64u);  // long enough for the end to wrap
  const std::uint64_t wrapped = ~std::uint64_t{0} - 63;
  std::memcpy(m.data() + dir.offset + sizeof wrapped, &wrapped,
              sizeof wrapped);
  reseal(m, store::SectionKind::SeqOffsets);
  EXPECT_EQ(open_expecting_error(m, store::Verify::Directory),
            store::StoreErrc::BadLayout);
  EXPECT_EQ(open_expecting_error(m), store::StoreErrc::BadLayout);
}

// The same wrap in the shard directory: shard 0's and shard 1's sequence
// counts raised by 2^63, so the running total wraps past 2^64 back onto
// the true one and the shards after them still tile. Only the check of
// each count against what is left stands between it and offsets read far
// past the SeqOffsets section.
TEST_F(StoreCorruption, WrappedShardOffsetRejected) {
  const score::ScoreMatrix& matrix = score::ScoreMatrix::blosum62();
  store::BuildParams params;
  params.shard_target_residues = 2000;
  bytes_ = store::build_index_bytes(protein_db(make_workload(17, 40, 2)),
                                    matrix, params);
  auto m = bytes_;
  const store::SectionEntry dir = section(m, store::SectionKind::ShardDir);
  ASSERT_GE(dir.bytes, 3 * sizeof(store::ShardEntry));
  store::ShardEntry first, second;
  std::memcpy(&first, m.data() + dir.offset, sizeof first);
  std::memcpy(&second, m.data() + dir.offset + sizeof first, sizeof second);
  const std::uint64_t half = std::uint64_t{1} << 63;
  first.seq_count += half;
  second.seq_count += half;
  std::memcpy(m.data() + dir.offset, &first, sizeof first);
  std::memcpy(m.data() + dir.offset + sizeof first, &second, sizeof second);
  reseal(m, store::SectionKind::ShardDir);
  EXPECT_EQ(open_expecting_error(m, store::Verify::Directory),
            store::StoreErrc::BadLayout);
  EXPECT_EQ(open_expecting_error(m), store::StoreErrc::BadLayout);
}

// Residue offsets that rise from 0 but stop one residue short of the
// blob's payload: the last subject loses its last residue.
TEST_F(StoreCorruption, ResidueOffsetsShortOfBlobRejected) {
  auto m = bytes_;
  store::Header hdr{};
  std::memcpy(&hdr, m.data(), sizeof hdr);
  const store::SectionEntry dir = section(m, store::SectionKind::SeqOffsets);
  const std::uint64_t short_end = hdr.residue_total - 1;
  std::memcpy(m.data() + dir.offset + hdr.seq_count * sizeof short_end,
              &short_end, sizeof short_end);
  reseal(m, store::SectionKind::SeqOffsets);
  EXPECT_EQ(open_expecting_error(m, store::Verify::Directory),
            store::StoreErrc::BadLayout);
}

// Id offsets whose last entry runs one byte past the IdBlob section: the
// last id would be read from the next section.
TEST_F(StoreCorruption, IdOffsetsPastIdBlobRejected) {
  auto m = bytes_;
  store::Header hdr{};
  std::memcpy(&hdr, m.data(), sizeof hdr);
  const store::SectionEntry dir = section(m, store::SectionKind::IdOffsets);
  const std::uint64_t past =
      section(m, store::SectionKind::IdBlob).bytes + 1;
  std::memcpy(m.data() + dir.offset + hdr.seq_count * sizeof past, &past,
              sizeof past);
  reseal(m, store::SectionKind::IdOffsets);
  EXPECT_EQ(open_expecting_error(m, store::Verify::Directory),
            store::StoreErrc::BadLayout);
}

namespace {

// Two filter-off queries over `idx`, run through a BatchScheduler that
// holds the index's signatures but never scans them.
std::vector<search::SearchResult> filter_off_hits(
    const store::MappedIndex& idx) {
  std::mt19937_64 rng(37);
  const std::vector<std::vector<std::uint8_t>> queries = {
      test::random_protein(rng, 40), test::random_protein(rng, 90)};
  search::SearchOptions opt;
  opt.threads = 2;
  opt.top_k = 10;
  opt.filter.mode = filter::FilterMode::Off;
  opt.filter.index = idx.signatures();
  return search::BatchScheduler(score::ScoreMatrix::blosum62(),
                                local_config(), opt)
      .run(queries, idx.database());
}

// The error one filtered scan of `sigs` throws.
store::StoreErrc scan_error(const filter::SignatureIndex& sigs) {
  std::mt19937_64 rng(41);
  std::vector<std::uint8_t> alive;
  try {
    sigs.scan(test::random_protein(rng, 60), simd::IsaKind::Scalar, alive);
  } catch (const store::StoreError& e) {
    return e.errc();
  }
  ADD_FAILURE() << "a scan screened an unverified signature";
  return store::StoreErrc::IoError;
}

}  // namespace

// The contract for a mutant whose one defect is a signature-section
// checksum: a Full open rejects it; a Directory open accepts it and serves
// a filter-off search whose hits are the pristine index's, bit for bit,
// without hashing a signature; its first filtered scan throws
// store.section_checksum, and so do a second and one through a window()
// view of another slice, which hash nothing again.
void StoreCorruption::expect_rejected_at_first_scan(
    const std::vector<std::uint8_t>& mutated,
    const std::vector<search::SearchResult>& pristine) {
  EXPECT_EQ(open_expecting_error(mutated, store::Verify::Full),
            store::StoreErrc::SectionChecksum);
  write_file(path_, mutated);
  const store::MappedIndex idx =
      store::MappedIndex::open(path_, store::Verify::Directory);
  obs::Counter& verifies = obs::registry().counter("store.signature_verifies");
  const std::uint64_t before = verifies.value();

  const auto hits = filter_off_hits(idx);
  EXPECT_EQ(verifies.value(), before);
  ASSERT_EQ(hits.size(), pristine.size());
  for (std::size_t q = 0; q < hits.size(); ++q) {
    EXPECT_EQ(hits[q].scores, pristine[q].scores) << "query " << q;
    ASSERT_EQ(hits[q].top.size(), pristine[q].top.size()) << "query " << q;
    for (std::size_t r = 0; r < hits[q].top.size(); ++r) {
      EXPECT_EQ(hits[q].top[r].index, pristine[q].top[r].index) << r;
      EXPECT_EQ(hits[q].top[r].score, pristine[q].top[r].score) << r;
    }
  }

  const auto sigs = idx.signatures();
  EXPECT_EQ(scan_error(*sigs), store::StoreErrc::SectionChecksum);
  EXPECT_EQ(scan_error(*sigs), store::StoreErrc::SectionChecksum);
  const std::size_t half = sigs->size() / 2;
  const filter::SignatureIndex other =
      sigs->window(half, sigs->size() - half, 0);
  EXPECT_EQ(scan_error(other), store::StoreErrc::SectionChecksum);
  EXPECT_EQ(verifies.value(), before + 1);
}

// A Directory open defers the signature sections' checksums to the first
// filter use; a Full open still hashes them, a window at a time, releasing
// each window's pages once hashed. A database large enough that SigBlob
// spans several 1 MiB windows: a flip at its first, middle and last byte,
// and one in each of SigPopcounts and SigLengths, is rejected by a Full
// open and by the first scan after a Directory open, and leaves a
// filter-off search untouched.
TEST_F(StoreCorruption, SignatureSectionFlipsRejectedAtFullOpenAndFirstScan) {
  const score::ScoreMatrix& matrix = score::ScoreMatrix::blosum62();
  const seq::Database db = protein_db(make_workload(19, 9000, 0, 8, 24));
  bytes_ = store::build_index_bytes(db, matrix);

  const store::SectionEntry blob =
      section(bytes_, store::SectionKind::SigBlob);
  ASSERT_GT(blob.bytes, std::uint64_t{2} << 20);  // at least three windows
  const store::SectionEntry pops =
      section(bytes_, store::SectionKind::SigPopcounts);
  const store::SectionEntry lens =
      section(bytes_, store::SectionKind::SigLengths);

  // The pristine file opens at both levels, and the pages a Full open
  // released read back unchanged.
  write_file(path_, bytes_);
  std::vector<search::SearchResult> pristine;
  for (const store::Verify verify :
       {store::Verify::Full, store::Verify::Directory}) {
    const store::MappedIndex idx = store::MappedIndex::open(path_, verify);
    for (const store::SectionEntry& e : {blob, pops, lens}) {
      EXPECT_EQ(std::memcmp(idx.file()->range(e.offset, e.bytes),
                            bytes_.data() + e.offset, e.bytes),
                0)
          << "section " << e.kind;
    }
    pristine = filter_off_hits(idx);
  }

  for (const std::uint64_t off :
       {blob.offset, blob.offset + blob.bytes / 2,
        blob.offset + blob.bytes - 1, pops.offset + pops.bytes / 2,
        lens.offset + lens.bytes / 3}) {
    SCOPED_TRACE(::testing::Message() << "offset " << off);
    expect_rejected_at_first_scan(flipped(off, 3), pristine);
  }
}

// Every byte of the first 256-byte stride of SeqOffsets, Inverse,
// IdOffsets and SigBlob feeds one of the checksum's 32 lanes (word k of
// each stride feeds lane k): a single-bit flip at each of them, so every
// bit position of every lane's word, is rejected - by a Directory open in
// the hot sections and a cold one, and in SigBlob by a Full open and the
// first scan after a Directory open. The database holds 66 subjects, so
// the u32 Inverse section spans a whole stride.
TEST_F(StoreCorruption, EveryChecksumLaneGuardsItsSection) {
  bytes_ = store::build_index_bytes(protein_db(make_workload(17, 64, 2)),
                                    score::ScoreMatrix::blosum62());
  write_file(path_, bytes_);
  const std::vector<search::SearchResult> pristine = filter_off_hits(
      store::MappedIndex::open(path_, store::Verify::Directory));
  for (const store::SectionKind kind :
       {store::SectionKind::SeqOffsets, store::SectionKind::Inverse,
        store::SectionKind::IdOffsets, store::SectionKind::SigBlob}) {
    const store::SectionEntry e = section(bytes_, kind);
    ASSERT_GE(e.bytes, store::kChecksumStride);
    for (std::size_t off = 0; off < store::kChecksumStride; ++off) {
      SCOPED_TRACE(::testing::Message()
                   << "section " << e.kind << " byte " << off);
      const auto m = flipped(e.offset + off, int(off % 8));
      if (kind == store::SectionKind::SigBlob) {
        expect_rejected_at_first_scan(m, pristine);
      } else {
        EXPECT_EQ(open_expecting_error(m, store::Verify::Directory),
                  store::StoreErrc::SectionChecksum);
      }
    }
  }
}

// A sequence count with bit 63 set, the header resealed: every section
// size derived from it wraps past 2^64 back onto the well-formed size, so
// only the count-against-file-size check stands between it and a
// directory span longer than its section.
TEST_F(StoreCorruption, WrappingHeaderCountRejected) {
  auto m = bytes_;
  store::Header hdr{};
  std::memcpy(&hdr, m.data(), sizeof hdr);
  hdr.seq_count |= std::uint64_t{1} << 63;
  hdr.header_checksum = 0;
  std::memcpy(m.data(), &hdr, sizeof hdr);
  hdr.header_checksum = store::checksum(m.data(), hdr.header_bytes);
  std::memcpy(m.data(), &hdr, sizeof hdr);
  write_file(path_, m);
  try {
    store::MappedIndex::open(path_);
    ADD_FAILURE() << "loader accepted a wrapping sequence count";
  } catch (const store::StoreError& e) {
    EXPECT_EQ(e.errc(), store::StoreErrc::BadLayout);
    EXPECT_NE(std::string(e.what()).find("header counts"), std::string::npos)
        << e.what();
  }
}

// A filter k past INT_MAX, the header resealed: filter_params() hands k
// to the filter as an int, where it would turn negative, so open rejects
// it with the other filter geometry.
TEST_F(StoreCorruption, FilterKBeyondIntRejected) {
  auto m = bytes_;
  store::Header hdr{};
  std::memcpy(&hdr, m.data(), sizeof hdr);
  hdr.filter_k = std::uint32_t{1} << 31;
  hdr.header_checksum = 0;
  std::memcpy(m.data(), &hdr, sizeof hdr);
  hdr.header_checksum = store::checksum(m.data(), hdr.header_bytes);
  std::memcpy(m.data(), &hdr, sizeof hdr);
  EXPECT_EQ(open_expecting_error(m, store::Verify::Directory),
            store::StoreErrc::BadLayout);
}

// A version-1 file (the single-chain checksum), a version-2 one (each
// sequence padded to 64 bytes), a version-3 one (the four-lane checksum)
// or a version-4 one (32-byte directory entries) is rejected by the
// version gate with the rebuild hint, before any checksum is read.
TEST_F(StoreCorruption, VersionOneFileRejected) {
  for (const std::uint32_t version : {1u, 2u, 3u, 4u}) {
    auto m = bytes_;
    std::memcpy(m.data() + offsetof(store::Header, format_version), &version,
                sizeof version);
    write_file(path_, m);
    try {
      store::MappedIndex::open(path_);
      ADD_FAILURE() << "loader accepted a version-" << version << " file";
    } catch (const store::StoreError& e) {
      EXPECT_EQ(e.errc(), store::StoreErrc::BadVersion) << version;
      EXPECT_NE(std::string(e.what()).find("rebuild with aalign_index"),
                std::string::npos)
          << e.what();
    }
  }
}

// Subject 1 pointed at subject 0's residues, every checksum resealed. An
// offset array cannot state an alias - a subject's range is the gap
// between its offsets - so the nearest mutant moves subject 1's start
// back onto subject 0's: subject 0 comes out empty, and the order is no
// longer longest first.
TEST_F(StoreCorruption, SeqDirEntryAliasesAnotherSubjectRejected) {
  auto m = bytes_;
  const store::SectionEntry dir = section(m, store::SectionKind::SeqOffsets);
  std::uint64_t first, second;
  std::memcpy(&first, m.data() + dir.offset, sizeof first);
  std::memcpy(&second, m.data() + dir.offset + sizeof first, sizeof second);
  ASSERT_GT(second, first);  // subject 0 is not empty
  std::memcpy(m.data() + dir.offset + sizeof first, &first, sizeof first);
  reseal(m, store::SectionKind::SeqOffsets);
  EXPECT_EQ(open_expecting_error(m, store::Verify::Directory),
            store::StoreErrc::BadLayout);
  EXPECT_EQ(open_expecting_error(m), store::StoreErrc::BadLayout);
}

// A shard starts where the one before it ends, so only the counts can
// break the tiling. Resealed: shard 1 of several one subject short leaves
// the last subject in no shard's checksum; shard 1 emptied, with shard 2
// taking its subjects, keeps the sum (so only the nonzero-count check
// stands in the way).
TEST_F(StoreCorruption, ShardBlobGapRejected) {
  const score::ScoreMatrix& matrix = score::ScoreMatrix::blosum62();
  store::BuildParams params;
  params.shard_target_residues = 2000;
  bytes_ = store::build_index_bytes(protein_db(make_workload(17, 40, 2)),
                                    matrix, params);
  auto m = bytes_;
  const store::SectionEntry dir = section(m, store::SectionKind::ShardDir);
  ASSERT_GE(dir.bytes, 3 * sizeof(store::ShardEntry));  // shard 1 is inner
  const std::size_t at = dir.offset + sizeof(store::ShardEntry);
  store::ShardEntry shard, next;
  std::memcpy(&shard, m.data() + at, sizeof shard);
  std::memcpy(&next, m.data() + at + sizeof shard, sizeof next);
  ASSERT_GE(shard.seq_count, 2u);
  const std::uint64_t short_by_one[2] = {shard.seq_count - 1, next.seq_count};
  const std::uint64_t emptied[2] = {0, next.seq_count + shard.seq_count};
  for (const auto* counts : {short_by_one, emptied}) {
    store::ShardEntry a = shard, b = next;
    a.seq_count = counts[0];
    b.seq_count = counts[1];
    std::memcpy(m.data() + at, &a, sizeof a);
    std::memcpy(m.data() + at + sizeof a, &b, sizeof b);
    reseal(m, store::SectionKind::ShardDir);
    EXPECT_EQ(open_expecting_error(m, store::Verify::Directory),
              store::StoreErrc::BadLayout)
        << "count " << counts[0];
    EXPECT_EQ(open_expecting_error(m), store::StoreErrc::BadLayout)
        << "count " << counts[0];
  }
}

// The loader hashes the signature sections in windows: the checksum's
// lane state chained over stride-multiple windows, the last one ragged,
// equals one call; a ragged window anywhere but last breaks the chain.
TEST(StoreFormat, ChecksumChainsOverStrideWindows) {
  std::mt19937_64 rng(6);
  std::vector<std::uint8_t> bytes(4099);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
  const std::uint64_t whole = store::checksum(bytes.data(), bytes.size());
  for (const std::size_t window : {256u, 512u, 1024u, 4096u}) {
    store::Checksum h;
    for (std::size_t pos = 0; pos < bytes.size(); pos += window) {
      h.update(bytes.data() + pos, std::min(window, bytes.size() - pos));
    }
    EXPECT_EQ(h.digest(), whole) << "window " << window;
  }
  store::Checksum ragged;
  ragged.update(bytes.data(), 40);
  ragged.update(bytes.data() + 40, bytes.size() - 40);
  EXPECT_NE(ragged.digest(), whole);
  // So does a window of whole file-alignment units short of a stride:
  // sections start 64-byte aligned, which is why the loader cuts its
  // windows from each section's start, not on file offsets.
  store::Checksum aligned;
  aligned.update(bytes.data(), store::kFileAlignment);
  aligned.update(bytes.data() + store::kFileAlignment,
                 bytes.size() - store::kFileAlignment);
  EXPECT_NE(aligned.digest(), whole);
  // Not the single-chain hash of version 1.
  EXPECT_NE(whole, store::fnv1a64(bytes.data(), bytes.size()));
}

// The loader hashes large sections in windows: fnv1a64 chained over
// 8-byte-multiple windows, the last one ragged, equals one call.
TEST(StoreFormat, Fnv1a64ChainsOverEightByteWindows) {
  std::mt19937_64 rng(5);
  std::vector<std::uint8_t> bytes(4099);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
  const std::uint64_t whole = store::fnv1a64(bytes.data(), bytes.size());
  for (const std::size_t window : {8u, 64u, 1000u, 4096u}) {
    std::uint64_t h = store::kFnvOffsetBasis;
    for (std::size_t pos = 0; pos < bytes.size(); pos += window) {
      const std::size_t n = std::min(window, bytes.size() - pos);
      h = store::fnv1a64(bytes.data() + pos, n, h);
    }
    EXPECT_EQ(h, whole) << "window " << window;
  }
  // A ragged window anywhere but last breaks the chain (the byte-wise
  // tail and the lane loop do not commute), which is why the loader's
  // windows end on 8-byte boundaries.
  const std::uint64_t ragged = store::fnv1a64(
      bytes.data() + 5, bytes.size() - 5, store::fnv1a64(bytes.data(), 5));
  EXPECT_NE(ragged, whole);
}

// ---------------------------------------------------------------------------
// The record table: one flat seq::Record per sequence, residues viewed in
// place.
// ---------------------------------------------------------------------------

namespace {

// Sequences with an empty member and ids of 0, 15, 16 and 40 bytes (either
// side of the std::string small-buffer size), through the FASTA parser.
std::vector<seq::Sequence> record_workload() {
  std::mt19937_64 rng(24);
  std::vector<seq::Sequence> seqs;
  const auto& alphabet = score::Alphabet::protein();
  const auto residues = [&](std::size_t n) {
    return test::decode(alphabet, test::random_protein(rng, n));
  };
  seqs.push_back({"", residues(50)});
  seqs.push_back({std::string(15, 'a'), residues(120)});
  seqs.push_back({std::string(16, 'b'), ""});
  seqs.push_back({std::string(40, 'c'), residues(120)});
  for (int i = 0; i < 60; ++i) {
    seqs.push_back({std::string("r").append(std::to_string(i)),
                    residues(20 + (i * 37) % 300)});
  }
  std::ostringstream fasta;
  seq::write_fasta(fasta, seqs);
  return seq::parse_fasta(fasta.str());
}

bool inside(std::span<const std::uint8_t> v, const store::MappedFile& f) {
  return v.data() >= f.data() && v.data() + v.size() <= f.data() + f.size();
}

}  // namespace

TEST(StoreRecords, ResiduesLieInsideTheMapping) {
  const score::ScoreMatrix& matrix = score::ScoreMatrix::blosum62();
  const auto parsed = record_workload();
  seq::Database db(matrix.alphabet(), parsed);
  store::BuildParams params;
  params.shard_target_residues = 2000;  // several shards, two slices
  TempIndex tmp(db, matrix, params);
  const store::MappedIndex idx = store::MappedIndex::open(tmp.path());
  const store::MappedFile& f = *idx.file();

  const seq::Database whole = idx.database();
  ASSERT_EQ(whole.size(), parsed.size());
  for (std::size_t i = 0; i < whole.size(); ++i) {
    EXPECT_TRUE(inside(whole[i].view(), f)) << "position " << i;
  }
  std::size_t covered = 0;
  for (std::size_t s = 0; s < 2; ++s) {
    const store::ShardSlice slice = idx.shard_slice(s, 2);
    const seq::Database part = idx.database(slice);
    ASSERT_EQ(part.size(), slice.seq_count);
    EXPECT_EQ(part.total_residues(), slice.residues);
    for (std::size_t i = 0; i < part.size(); ++i) {
      EXPECT_TRUE(inside(part[i].view(), f)) << "slice " << s << " " << i;
      EXPECT_EQ(part[i].view().data(),
                whole[slice.first_seq + i].view().data());
    }
    covered += part.size();
  }
  EXPECT_EQ(covered, whole.size());
}

TEST(StoreRecords, MatchTheFastaParsedDatabase) {
  const score::ScoreMatrix& matrix = score::ScoreMatrix::blosum62();
  const auto parsed = record_workload();
  seq::Database build_db(matrix.alphabet(), parsed);
  TempIndex tmp(build_db, matrix);
  seq::Database fasta_db(matrix.alphabet(), parsed);

  const store::MappedIndex idx = store::MappedIndex::open(tmp.path());
  const seq::Database mapped = idx.database();
  expect_same_database(fasta_db, mapped);
  for (std::size_t orig = 0; orig < parsed.size(); ++orig) {
    EXPECT_EQ(mapped.position_of(orig), fasta_db.position_of(orig));
    EXPECT_EQ(mapped.by_original(orig).id, parsed[orig].id);
    EXPECT_EQ(test::decode(matrix.alphabet(), mapped.by_original(orig).view()),
              parsed[orig].residues);
  }
}

// The builder writes a FASTA-built database's arrays verbatim: the mapped
// SeqOffsets, IdOffsets, Permutation and Inverse payloads are its offsets,
// permutation and inverse byte for byte, and the blobs its residues and
// ids. The mapped database's inverse is the Inverse section itself.
TEST(StoreRecords, MappedArraysAreTheDatabaseArrays) {
  const score::ScoreMatrix& matrix = score::ScoreMatrix::blosum62();
  const auto parsed = record_workload();
  const seq::Database db(matrix.alphabet(), parsed);
  ASSERT_TRUE(db.permuted());
  TempIndex tmp(db, matrix);
  const store::MappedIndex idx = store::MappedIndex::open(tmp.path());
  const auto payload = [&](store::SectionKind kind) {
    const store::SectionEntry& e =
        idx.sections()[static_cast<std::size_t>(kind) - 1];
    return idx.file()->range(e.offset, e.bytes);
  };
  const seq::Database::Layout& l = db.layout();
  const auto same = [](const std::uint8_t* mapped, const void* owned,
                       std::size_t bytes) {
    return std::memcmp(mapped, owned, bytes) == 0;
  };
  ASSERT_EQ(l.offsets.size(), db.size() + 1);
  ASSERT_EQ(l.offsets.front(), 0u);
  EXPECT_TRUE(same(payload(store::SectionKind::SeqOffsets), l.offsets.data(),
                   l.offsets.size_bytes()));
  EXPECT_TRUE(same(payload(store::SectionKind::IdOffsets),
                   l.id_offsets.data(), l.id_offsets.size_bytes()));
  EXPECT_TRUE(same(payload(store::SectionKind::Permutation), l.orig.data(),
                   l.orig.size_bytes()));
  ASSERT_NE(l.inv, nullptr);
  EXPECT_TRUE(same(payload(store::SectionKind::Inverse), l.inv.get(),
                   db.size() * sizeof(std::uint32_t)));
  const seq::Database mapped = idx.database();
  ASSERT_TRUE(mapped.permuted());
  EXPECT_EQ(static_cast<const void*>(mapped.layout().inv.get()),
            static_cast<const void*>(payload(store::SectionKind::Inverse)));
  EXPECT_TRUE(same(payload(store::SectionKind::SeqBlob), l.residues,
                   db.total_residues()));
  EXPECT_TRUE(same(payload(store::SectionKind::IdBlob), l.ids,
                   l.id_offsets.back()));
}

// A slice's database views subspans of the mapped offset arrays: at every
// slice's first and last subject, its id and residues are those of the
// whole database's subject with the same original index.
TEST(StoreRecords, SliceIdsMatchTheWholeDatabase) {
  const score::ScoreMatrix& matrix = score::ScoreMatrix::blosum62();
  const auto parsed = record_workload();
  store::BuildParams params;
  params.shard_target_residues = 1500;  // several shards
  TempIndex tmp(seq::Database(matrix.alphabet(), parsed), matrix, params);
  const store::MappedIndex idx = store::MappedIndex::open(tmp.path());
  const seq::Database whole = idx.database();
  ASSERT_GE(idx.header().shard_count, 4u);
  for (const std::size_t n : {1u, 2u, 3u, 4u}) {
    std::size_t covered = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const store::ShardSlice slice = idx.shard_slice(i, n);
      const seq::Database part = idx.database(slice);
      const std::vector<std::size_t> orig = idx.original_indices(slice);
      ASSERT_EQ(part.size(), slice.seq_count);
      ASSERT_EQ(orig.size(), slice.seq_count);
      ASSERT_FALSE(part.empty()) << i << "/" << n;
      EXPECT_FALSE(part.permuted());
      EXPECT_EQ(part.total_residues(), slice.residues);
      for (const std::size_t local : {std::size_t{0}, part.size() - 1}) {
        const seq::Record want = whole.by_original(orig[local]);
        EXPECT_EQ(part.by_original(local).id, want.id)
            << i << "/" << n << " subject " << local;
        EXPECT_EQ(part.by_original(local).view().data(), want.view().data())
            << i << "/" << n << " subject " << local;
        EXPECT_EQ(want.id, parsed[orig[local]].id);
      }
      covered += part.size();
    }
    EXPECT_EQ(covered, whole.size()) << n;
  }
}

TEST(StoreRecords, DatabaseOutlivesItsIndex) {
  const score::ScoreMatrix& matrix = score::ScoreMatrix::blosum62();
  const auto parsed = record_workload();
  seq::Database build_db(matrix.alphabet(), parsed);
  TempIndex tmp(build_db, matrix);
  seq::Database fasta_db(matrix.alphabet(), parsed);

  seq::Database mapped;
  {
    const store::MappedIndex idx = store::MappedIndex::open(tmp.path());
    mapped = idx.database();
  }
  ASSERT_NE(mapped.backing(), nullptr);  // the mapping is pinned
  expect_same_database(fasta_db, mapped);
}

// ---------------------------------------------------------------------------
// Loader edge cases.
// ---------------------------------------------------------------------------

TEST(StoreEdge, EmptyDatabaseRoundTrips) {
  const score::ScoreMatrix& matrix = score::ScoreMatrix::blosum62();
  seq::Database db;
  TempIndex tmp(db, matrix);
  const store::MappedIndex idx =
      store::MappedIndex::open(tmp.path(), store::Verify::Full);
  EXPECT_EQ(idx.header().seq_count, 0u);
  EXPECT_EQ(idx.header().shard_count, 0u);
  const seq::Database mapped = idx.database();
  EXPECT_TRUE(mapped.empty());
  EXPECT_EQ(mapped.total_residues(), 0u);
  const auto sig = idx.signatures();
  EXPECT_EQ(sig->size(), 0u);
}

TEST(StoreEdge, SingleSequencePerShard) {
  const score::ScoreMatrix& matrix = score::ScoreMatrix::blosum62();
  const auto seqs = make_workload(18, 7, 0);
  const seq::Database db = protein_db(seqs);
  store::BuildParams params;
  params.shard_target_residues = 1;  // every sequence overflows the budget
  TempIndex tmp(db, matrix, params);
  const store::MappedIndex idx =
      store::MappedIndex::open(tmp.path(), store::Verify::Full);
  EXPECT_EQ(idx.header().shard_count, seqs.size());
  for (const store::ShardEntry& sh : idx.shards()) {
    EXPECT_EQ(sh.seq_count, 1u);
  }
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    EXPECT_EQ(idx.shard_slice(i, seqs.size()).first_seq, i);
  }
  expect_same_database(db, idx.database());
}

TEST(StoreEdge, ShardBoundaryExactlyAtPageSize) {
  // 64 sequences x 64 residues, budget 4096: the sequences pack back to
  // back, shards fill to exactly the 4096-byte page, and every boundary
  // lands on a page edge. The greedy packer must neither split a sequence
  // nor leak one across the budget.
  const score::ScoreMatrix& matrix = score::ScoreMatrix::blosum62();
  std::mt19937_64 rng(19);
  const score::Alphabet& protein = matrix.alphabet();
  std::vector<seq::Sequence> seqs;
  for (int i = 0; i < 64; ++i) {
    seqs.push_back(test::sequence(protein, "pg" + std::to_string(i),
                                  test::random_protein(rng, 64)));
  }
  store::BuildParams params;
  params.shard_target_residues = 4096;
  TempIndex tmp(protein_db(seqs), matrix, params);
  const store::MappedIndex idx =
      store::MappedIndex::open(tmp.path(), store::Verify::Full);
  ASSERT_EQ(idx.header().shard_count, 1u);  // 64 * 64 == 4096 fits exactly
  const store::ShardEntry sh = idx.shards().front();
  EXPECT_EQ(sh.seq_count, 64u);
  // Exactly one page of residues, with no zero tail.
  EXPECT_EQ(idx.shard_slice(0, 1).residues, 4096u);
  EXPECT_EQ(idx.sections()[static_cast<std::size_t>(
                               store::SectionKind::SeqBlob) - 1].bytes,
            4096u);

  // One residue more than the budget: the 65th sequence starts shard 2.
  seqs.push_back(
      test::sequence(protein, "pg64", test::random_protein(rng, 64)));
  TempIndex tmp2(protein_db(seqs), matrix, params);
  const store::MappedIndex idx2 =
      store::MappedIndex::open(tmp2.path(), store::Verify::Full);
  EXPECT_EQ(idx2.header().shard_count, 2u);
  EXPECT_EQ(idx2.shards()[0].seq_count, 64u);
  EXPECT_EQ(idx2.shards()[1].seq_count, 1u);
}

TEST(StoreEdge, TwoDatabasesShareOneMapping) {
  const score::ScoreMatrix& matrix = score::ScoreMatrix::blosum62();
  const auto seqs = make_workload(20, 30, 2);
  const seq::Database db = protein_db(seqs);
  TempIndex tmp(db, matrix);

  const store::MappedIndex idx = store::MappedIndex::open(tmp.path());
  seq::Database a = idx.database();
  seq::Database b = idx.database();
  // Same mapping, zero residue copies: the views alias byte for byte.
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].view().data(), b[i].view().data()) << "position " << i;
  }
  EXPECT_EQ(a.backing(), b.backing());

  // Copying a database copies no residues either: the copy views the same
  // bytes and shares the same backing and order.
  const seq::Database copy = a;
  ASSERT_EQ(copy.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(copy.residues(i).data(), a.residues(i).data()) << "position "
                                                             << i;
    EXPECT_EQ(copy.id(i).data(), a.id(i).data()) << "position " << i;
    EXPECT_EQ(copy.original_index(i), a.original_index(i));
  }
  EXPECT_EQ(copy.backing(), a.backing());

  // Both stay valid and searchable after the MappedIndex handle dies.
  search::SearchOptions opt;
  opt.threads = 1;
  std::mt19937_64 rng(21);
  const auto q = test::random_protein(rng, 100);
  search::SearchResult ra, rb;
  {
    seq::Database c = idx.database();
    const search::DatabaseSearch engine(matrix, local_config(), opt);
    ra = engine.search(q, a);
    rb = engine.search(q, c);
  }
  ASSERT_EQ(ra.top.size(), rb.top.size());
  for (std::size_t r = 0; r < ra.top.size(); ++r) {
    EXPECT_EQ(ra.top[r].index, rb.top[r].index);
    EXPECT_EQ(ra.top[r].score, rb.top[r].score);
  }
}

// ---------------------------------------------------------------------------
// Residency: what a search keeps of the mapping.
// ---------------------------------------------------------------------------

namespace {

// Pages of [begin, end) present in this process, read from the present
// bit (63) of /proc/self/pagemap, which an unprivileged reader sees; -1
// when the page table cannot be read.
long present_pages(const std::uint8_t* begin, const std::uint8_t* end) {
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const int fd = ::open("/proc/self/pagemap", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return -1;
  long present = 0;
  for (std::uintptr_t a = reinterpret_cast<std::uintptr_t>(begin) / page;
       a * page < reinterpret_cast<std::uintptr_t>(end); ++a) {
    std::uint64_t entry = 0;
    if (::pread(fd, &entry, sizeof entry,
                static_cast<off_t>(a * sizeof entry)) != sizeof entry) {
      ::close(fd);
      return -1;
    }
    present += static_cast<long>(entry >> 63);
  }
  ::close(fd);
  return present;
}

}  // namespace

// A filter-off search reads the hot sections only, and the kernel maps
// page-cache folios of up to 2 MiB whole: with SigBlob wider than one
// folio, a fault near the end of the hot sections would map signature
// pages unless open() gave the cold tail a mapping of its own. After the
// search no page from the first page boundary in IdOffsets to the end of
// the file is present - no id page and no signature page; a filter-on
// search then faults the signatures back and returns the FASTA path's
// hits. Neither the open nor the filter-off search hashed the signatures:
// store.signature_verifies has not moved.
TEST(StoreResidency, FilterOffSearchLeavesSignaturesUnmapped) {
  const score::ScoreMatrix& matrix = score::ScoreMatrix::blosum62();
  const auto seqs = make_workload(23, 9000, 40, 8, 24);
  TempIndex tmp(protein_db(seqs), matrix);
  obs::Counter& verifies = obs::registry().counter("store.signature_verifies");
  const std::uint64_t verifies_before = verifies.value();
  const store::MappedIndex idx = store::MappedIndex::open(tmp.path());
  const auto section = [&](store::SectionKind kind) {
    return idx.sections()[static_cast<std::size_t>(kind) - 1];
  };
  ASSERT_GT(section(store::SectionKind::SigBlob).bytes,
            std::uint64_t{2} << 20);
  const seq::Database db = idx.database();

  std::mt19937_64 rng(31);
  std::vector<std::vector<std::uint8_t>> queries = {
      score::Alphabet::protein().encode(seqs[9003].residues),
      test::random_protein(rng, 60)};
  search::SearchOptions opt;
  opt.threads = 2;
  opt.top_k = 10;
  opt.filter.mode = filter::FilterMode::Off;
  search::BatchScheduler(matrix, local_config(), opt).run(queries, db);
  EXPECT_EQ(verifies.value(), verifies_before);

  const std::uint8_t* base = idx.file()->data();
  const store::SectionEntry dir = section(store::SectionKind::SeqOffsets);
  if (present_pages(base + dir.offset, base + dir.offset + dir.bytes) <= 0) {
    GTEST_SKIP() << "/proc/self/pagemap shows no present bit";
  }
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::uint64_t cold =
      store::align_up(section(store::kFirstColdSection).offset, page);
  EXPECT_EQ(present_pages(base + cold, base + idx.file_bytes()), 0);
  // The ids lead the cold tail: no page wholly inside IdOffsets or IdBlob
  // is present either, though the database() the search ran on views them.
  for (const store::SectionKind kind :
       {store::SectionKind::IdOffsets, store::SectionKind::IdBlob}) {
    const store::SectionEntry e = section(kind);
    ASSERT_GE(e.bytes, 2 * page) << "section " << e.kind;
    EXPECT_EQ(present_pages(base + store::align_up(e.offset, page),
                            base + e.offset + e.bytes),
              0)
        << "section " << e.kind;
  }

  opt.filter.mode = filter::FilterMode::On;
  search::SearchOptions mopt = opt;
  mopt.filter.index = idx.signatures();
  const auto mapped =
      search::BatchScheduler(matrix, local_config(), mopt).run(queries, db);
  const seq::Database fasta_db = protein_db(seqs);
  search::BatchScheduler fasta_engine(matrix, local_config(), opt);
  const auto fasta = fasta_engine.run(queries, fasta_db);
  ASSERT_EQ(mapped.size(), fasta.size());
  for (std::size_t q = 0; q < fasta.size(); ++q) {
    ASSERT_EQ(mapped[q].top.size(), fasta[q].top.size()) << "query " << q;
    EXPECT_FALSE(fasta[q].top.empty());
    for (std::size_t r = 0; r < fasta[q].top.size(); ++r) {
      EXPECT_EQ(mapped[q].top[r].index, fasta[q].top[r].index) << q << "/" << r;
      EXPECT_EQ(mapped[q].top[r].score, fasta[q].top[r].score) << q << "/" << r;
    }
  }
}
