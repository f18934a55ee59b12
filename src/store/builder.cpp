#include "store/builder.h"

#include <cstdio>
#include <cstring>
#include <limits>
#include <span>
#include <string_view>
#include <vector>

#include "store/format.h"

namespace aalign::store {

namespace {

// Append-only byte sink that keeps every region 64-byte aligned and
// zero-fills the padding (so padded ranges checksum deterministically).
class Blob {
 public:
  std::uint64_t offset() const { return bytes_.size(); }

  std::uint64_t append(const void* data, std::size_t n) {
    const std::uint64_t at = bytes_.size();
    bytes_.resize(bytes_.size() + n);
    if (n != 0) std::memcpy(bytes_.data() + at, data, n);
    return at;
  }

  void pad_to_alignment() {
    static constexpr std::uint8_t kZeros[kFileAlignment] = {};
    const std::size_t pad = align_up(bytes_.size()) - bytes_.size();
    if (pad != 0) append(kZeros, pad);
  }

  std::uint8_t* at(std::uint64_t offset) { return bytes_.data() + offset; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

// Mirrors core::clamp_score without pulling a core/simd dependency into
// the store layer: saturate to [neg-inf sentinel, max], where the
// sentinel is min (8/16-bit) or min/2 (32-bit).
template <class T>
T clamp_entry(long v) {
  const long lo = sizeof(T) >= 4
                      ? static_cast<long>(std::numeric_limits<T>::min()) / 2
                      : static_cast<long>(std::numeric_limits<T>::min());
  if (v > static_cast<long>(std::numeric_limits<T>::max())) {
    return std::numeric_limits<T>::max();
  }
  if (v < lo) return static_cast<T>(lo);
  return static_cast<T>(v);
}

// One [alpha][kProfileLutStride] table per precision tier, laid out
// exactly as core/inter_kernel.h builds its in-register LUT: row per
// QUERY symbol, indexed by subject character, pad row (index alpha)
// zero, trailing entries zero.
template <class T>
std::vector<T> make_profile_lut(const score::ScoreMatrix& matrix) {
  const int alpha = matrix.size();
  std::vector<T> lut(static_cast<std::size_t>(alpha) * kProfileLutStride,
                     T{0});
  for (int a = 0; a < alpha; ++a) {
    T* row = lut.data() + static_cast<std::size_t>(a) * kProfileLutStride;
    for (int c = 0; c < alpha; ++c) row[c] = clamp_entry<T>(matrix.at(c, a));
  }
  return lut;
}

std::uint64_t input_fingerprint(const seq::Database& db,
                                const score::ScoreMatrix& matrix,
                                const BuildParams& params) {
  std::uint64_t h = fnv1a64(matrix.name().data(), matrix.name().size());
  const std::uint32_t alpha = static_cast<std::uint32_t>(matrix.size());
  h = fnv1a64(&alpha, sizeof alpha, h);
  const filter::FilterParams& fp = params.filter;
  h = fnv1a64(&fp.k, sizeof fp.k, h);
  h = fnv1a64(&fp.bits, sizeof fp.bits, h);
  const std::uint64_t shard = params.shard_target_residues;
  h = fnv1a64(&shard, sizeof shard, h);
  for (std::size_t i = 0; i < db.size(); ++i) {
    const std::string_view id = db.id(i);
    h = fnv1a64(id.data(), id.size(), h);
    const auto view = db.residues(i);
    h = fnv1a64(view.data(), view.size(), h);
  }
  return h;
}

}  // namespace

std::vector<std::uint8_t> build_index_bytes(const seq::Database& db,
                                            const score::ScoreMatrix& matrix,
                                            const BuildParams& params) {
  if (matrix.name().size() >= sizeof(Header{}.matrix_name)) {
    throw std::invalid_argument("store: matrix name too long for the header");
  }
  if (params.shard_target_residues == 0) {
    throw std::invalid_argument("store: shard_target_residues must be > 0");
  }
  // The stored order IS the database's (longest-first) order, so
  // mmap-served positions, permutation, and signature index line up bit
  // for bit with the FASTA-parse path.
  const std::size_t n = db.size();

  // The signature index is the expensive part of service startup that the
  // store precomputes (beside parsing).
  const filter::SignatureIndex sig(db, params.filter);

  // ---- Assemble section payloads -----------------------------------------
  // The database's own arrays: its offsets rebased to start at 0 (a
  // slice's do not; a whole database's already do, so they are written as
  // they are) and its permutation.
  const seq::Database::Layout& l = db.layout();
  const auto rebased = [n](std::span<const std::uint64_t> off) {
    std::vector<std::uint64_t> out(n + 1, 0);
    for (std::size_t i = 0; i < off.size(); ++i) out[i] = off[i] - off[0];
    return out;
  };
  const std::vector<std::uint64_t> offsets = rebased(l.offsets);
  const std::vector<std::uint64_t> id_offsets = rebased(l.id_offsets);
  const std::uint8_t* residues =
      n == 0 ? nullptr : l.residues + l.offsets.front();
  const char* ids = n == 0 ? nullptr : l.ids + l.id_offsets.front();

  // The permutation and the database's own inverse of it, so open checks
  // the pair in place instead of building the inverse.
  std::vector<std::uint32_t> perm(n);
  std::vector<std::uint32_t> inv(n);
  for (std::size_t i = 0; i < n; ++i) {
    perm[i] = static_cast<std::uint32_t>(db.original_index(i));
    inv[i] = static_cast<std::uint32_t>(db.position_of(i));
  }

  const auto lut8 = make_profile_lut<std::int8_t>(matrix);
  const auto lut16 = make_profile_lut<std::int16_t>(matrix);
  const auto lut32 = make_profile_lut<std::int32_t>(matrix);

  // ---- Greedy length-sorted sharding -------------------------------------
  std::vector<ShardEntry> shard_dir;
  std::uint64_t shard_residues = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t len = offsets[i + 1] - offsets[i];
    if (shard_dir.empty() ||
        shard_residues + len > params.shard_target_residues) {
      shard_dir.push_back({});
      shard_residues = 0;
    }
    shard_dir.back().seq_count += 1;
    shard_residues += len;
  }

  // ---- Lay out the file ---------------------------------------------------
  Blob out;
  Header hdr{};
  std::memcpy(hdr.magic, kMagic, sizeof kMagic);
  hdr.endian_tag = kEndianTag;
  hdr.format_version = kFormatVersion;
  hdr.build_fingerprint = input_fingerprint(db, matrix, params);
  hdr.seq_count = n;
  hdr.residue_total = db.total_residues();
  hdr.shard_count = shard_dir.size();
  hdr.alphabet_size = static_cast<std::uint32_t>(matrix.size());
  hdr.section_count = kSectionCount;
  std::memcpy(hdr.matrix_name, matrix.name().data(), matrix.name().size());
  hdr.filter_k = static_cast<std::uint32_t>(params.filter.k);
  hdr.lut_stride = kProfileLutStride;
  hdr.filter_bits = params.filter.bits;
  hdr.sig_words = sig.words_per_signature();
  hdr.filter_threshold = params.filter.threshold;
  hdr.filter_min_subject = params.filter.min_subject;
  hdr.filter_min_query = params.filter.min_query;
  hdr.filter_min_informative = params.filter.min_informative;
  hdr.filter_near_margin = params.filter.near_margin;
  hdr.filter_min_background = params.filter.min_background;

  const std::uint64_t hdr_at = out.append(&hdr, sizeof hdr);
  SectionEntry sections[kSectionCount] = {};
  const std::uint64_t sections_at = out.append(sections, sizeof sections);
  out.pad_to_alignment();
  hdr.header_bytes = out.offset();

  std::size_t next_section = 0;
  const auto add_section = [&](SectionKind kind, const void* data,
                               std::size_t bytes, std::uint32_t flags = 0) {
    SectionEntry& e = sections[next_section++];
    e.kind = static_cast<std::uint32_t>(kind);
    e.flags = flags;
    e.offset = out.offset();
    out.append(data, bytes);
    out.pad_to_alignment();
    e.bytes = out.offset() - e.offset;  // padded (checksummed) size
    return &e;
  };

  // Shard directory first (checksummed last: its entries hold the residue
  // checksums computed below).
  const SectionEntry* shard_section =
      add_section(SectionKind::ShardDir, shard_dir.data(),
                  shard_dir.size() * sizeof(ShardEntry));
  add_section(SectionKind::SeqOffsets, offsets.data(),
              offsets.size() * sizeof(std::uint64_t));
  const SectionEntry* blob_section =
      add_section(SectionKind::SeqBlob, residues, offsets.back(),
                  kSectionFlagPerShardChecksum);
  add_section(SectionKind::Permutation, perm.data(),
              perm.size() * sizeof(std::uint32_t));
  add_section(SectionKind::Inverse, inv.data(),
              inv.size() * sizeof(std::uint32_t));
  add_section(SectionKind::IdOffsets, id_offsets.data(),
              id_offsets.size() * sizeof(std::uint64_t));
  add_section(SectionKind::IdBlob, ids, id_offsets.back());
  add_section(SectionKind::SigPopcounts, sig.popcounts().data(),
              sig.popcounts().size() * sizeof(std::uint32_t));
  add_section(SectionKind::SigLengths, sig.lengths().data(),
              sig.lengths().size() * sizeof(std::uint32_t));
  add_section(SectionKind::SigBlob, sig.blob().data(),
              sig.blob().size() * sizeof(std::int32_t));
  add_section(SectionKind::ProfileLutI8, lut8.data(),
              lut8.size() * sizeof(std::int8_t));
  add_section(SectionKind::ProfileLutI16, lut16.data(),
              lut16.size() * sizeof(std::int16_t));
  add_section(SectionKind::ProfileLutI32, lut32.data(),
              lut32.size() * sizeof(std::int32_t));
  if (next_section != kSectionCount) {
    throw StoreError(StoreErrc::BadLayout, "builder wrote " +
                                               std::to_string(next_section) +
                                               " sections, expected " +
                                               std::to_string(kSectionCount));
  }
  hdr.file_bytes = out.offset();

  // ---- Shard checksums, then section checksums ---------------------------
  // The last shard's range runs on through the blob's zero tail, so every
  // blob byte is under one shard's checksum.
  std::uint64_t first_seq = 0;
  for (ShardEntry& sh : shard_dir) {
    const ShardRange r =
        shard_range(first_seq, sh.seq_count, offsets, blob_section->bytes);
    sh.checksum =
        checksum(out.at(blob_section->offset + r.begin), r.end - r.begin);
    first_seq += sh.seq_count;
  }
  // An empty database's shard directory has a null data(), which memcpy
  // must not see.
  if (!shard_dir.empty()) {
    std::memcpy(out.at(shard_section->offset), shard_dir.data(),
                shard_dir.size() * sizeof(ShardEntry));
  }
  for (SectionEntry& e : sections) {
    if (e.flags & kSectionFlagPerShardChecksum) continue;
    e.checksum = checksum(out.at(e.offset), e.bytes);
  }

  // Header checksum covers [0, header_bytes) with the field zeroed; the
  // section table is written before hashing so it is covered too.
  std::memcpy(out.at(sections_at), sections, sizeof sections);
  hdr.header_checksum = 0;
  std::memcpy(out.at(hdr_at), &hdr, sizeof hdr);
  hdr.header_checksum = checksum(out.at(0), hdr.header_bytes);
  std::memcpy(out.at(hdr_at), &hdr, sizeof hdr);

  return out.take();
}

void write_index(const std::string& path, const seq::Database& db,
                 const score::ScoreMatrix& matrix, const BuildParams& params) {
  const std::vector<std::uint8_t> bytes =
      build_index_bytes(db, matrix, params);
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw StoreError(StoreErrc::IoError, "cannot create " + tmp);
  }
  const std::size_t written =
      bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fclose(f) == 0;
  if (written != bytes.size() || !flushed) {
    std::remove(tmp.c_str());
    throw StoreError(StoreErrc::IoError, "short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw StoreError(StoreErrc::IoError,
                     "cannot rename " + tmp + " to " + path);
  }
}

}  // namespace aalign::store
