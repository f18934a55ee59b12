#include "store/loader.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace aalign::store {

namespace {

std::string at_path(const std::string& path, const std::string& what) {
  return path + ": " + what;
}

// Payload (unpadded) byte count each section must hold for this header.
std::uint64_t expected_payload_bytes(const Header& h, SectionKind kind) {
  const std::uint64_t lut_rows =
      static_cast<std::uint64_t>(h.alphabet_size) * h.lut_stride;
  switch (kind) {
    case SectionKind::ShardDir:
      return h.shard_count * sizeof(ShardEntry);
    case SectionKind::SeqDir:
      return h.seq_count * sizeof(SeqEntry);
    case SectionKind::IdBlob:
      return 0;  // variable; validated via SeqDir id ranges
    case SectionKind::SeqBlob:
      return 0;  // variable; validated via shard/seq ranges
    case SectionKind::Permutation:
      return h.seq_count * sizeof(std::uint64_t);
    case SectionKind::SigPopcounts:
    case SectionKind::SigLengths:
      return h.seq_count * sizeof(std::uint32_t);
    case SectionKind::SigBlob:
      return h.seq_count * h.sig_words * sizeof(std::int32_t);
    case SectionKind::ProfileLutI8:
      return lut_rows * sizeof(std::int8_t);
    case SectionKind::ProfileLutI16:
      return lut_rows * sizeof(std::int16_t);
    case SectionKind::ProfileLutI32:
      return lut_rows * sizeof(std::int32_t);
  }
  return 0;
}

// A filter-off search never reads the cold sections (format.h), so open
// hashes them a window at a time and drops each window's pages once
// hashed: the windows bound open's transient peak. The hot sections are
// not released: every search reads SeqDir through its database() view.
constexpr std::uint64_t kHashWindow = std::uint64_t{1} << 20;

// True when [offset, offset + bytes) lies inside section `e`. Written in
// subtraction form: offset + bytes can wrap past 2^64 and land back inside
// the section.
bool inside_section(std::uint64_t offset, std::uint64_t bytes,
                    const SectionEntry& e) {
  return offset >= e.offset && offset - e.offset <= e.bytes &&
         bytes <= e.bytes - (offset - e.offset);
}

// Marks an original index no position has claimed yet in open()'s inverse
// permutation, so the index must hold fewer sequences than this.
constexpr std::uint32_t kUnplaced = std::numeric_limits<std::uint32_t>::max();

std::uint64_t section_checksum(const MappedFile& f, const SectionEntry& e) {
  if (!cold_section(SectionKind(e.kind))) {
    return checksum(f.range(e.offset, e.bytes), e.bytes);
  }
  // Windows are cut every kHashWindow bytes from the section's start, so
  // every window but the last spans a multiple of kChecksumStride bytes
  // and the chain equals one call. (Sections start 64-byte aligned, not
  // stride-aligned: file-aligned cuts would break the chain.) A page a
  // window boundary splits stays resident until open() releases the
  // whole cold range.
  static_assert(kHashWindow % kChecksumStride == 0);
  Checksum h;
  for (std::uint64_t done = 0; done < e.bytes;) {
    const std::uint64_t n = std::min(kHashWindow, e.bytes - done);
    h.update(f.range(e.offset + done, n), n);
    f.release(e.offset + done, n);
    done += n;
  }
  return h.digest();
}

}  // namespace

MappedIndex MappedIndex::open(const std::string& path, Verify verify) {
  const auto t0 = std::chrono::steady_clock::now();
  MappedIndex idx;
  idx.file_ = MappedFile::map(path);
  const MappedFile& f = *idx.file_;

  // ---- Header ------------------------------------------------------------
  if (f.size() < sizeof(Header)) {
    throw StoreError(StoreErrc::Truncated,
                     at_path(path, "file shorter than the " +
                                       std::to_string(sizeof(Header)) +
                                       "-byte header (" +
                                       std::to_string(f.size()) + " bytes)"));
  }
  std::memcpy(&idx.hdr_, f.data(), sizeof(Header));
  const Header& h = idx.hdr_;
  if (std::memcmp(h.magic, kMagic, sizeof kMagic) != 0) {
    throw StoreError(StoreErrc::BadMagic,
                     at_path(path, "not an aalign index file"));
  }
  if (h.endian_tag != kEndianTag) {
    throw StoreError(
        StoreErrc::BadEndian,
        at_path(path, "endianness tag mismatch (built on a foreign-endian "
                      "host); rebuild with aalign_index"));
  }
  if (h.format_version != kFormatVersion) {
    obs::registry().counter("store.version_rejects").add(1);
    throw StoreError(
        StoreErrc::BadVersion,
        at_path(path, "format version " + std::to_string(h.format_version) +
                          ", this build reads only version " +
                          std::to_string(kFormatVersion) +
                          "; rebuild with aalign_index"));
  }
  const std::uint64_t min_header =
      sizeof(Header) + kSectionCount * sizeof(SectionEntry);
  if (h.header_bytes < min_header || h.header_bytes != align_up(h.header_bytes) ||
      h.header_bytes > h.file_bytes || h.section_count != kSectionCount) {
    throw StoreError(StoreErrc::BadLayout,
                     at_path(path, "inconsistent header geometry"));
  }
  if (f.size() < h.file_bytes) {
    throw StoreError(
        StoreErrc::Truncated,
        at_path(path, "file is " + std::to_string(f.size()) +
                          " bytes, header declares " +
                          std::to_string(h.file_bytes)));
  }
  if (f.size() > h.file_bytes) {
    throw StoreError(StoreErrc::BadLayout,
                     at_path(path, "trailing bytes beyond the declared size"));
  }
  if (h.filter_k < 1 || h.filter_bits == 0 || h.filter_bits % 512 != 0 ||
      h.sig_words != h.filter_bits / 32 || h.lut_stride != kProfileLutStride ||
      h.alphabet_size == 0) {
    throw StoreError(StoreErrc::BadLayout,
                     at_path(path, "inconsistent filter/profile geometry"));
  }
  // Every count a section size is derived from fits the file, so those
  // products cannot wrap past 2^64 onto a well-formed size and hand out a
  // directory span longer than its section.
  if (h.sig_words > h.file_bytes / sizeof(std::int32_t) ||
      h.seq_count > h.file_bytes / (h.sig_words * sizeof(std::int32_t)) ||
      h.shard_count > h.file_bytes / sizeof(ShardEntry)) {
    throw StoreError(StoreErrc::BadLayout,
                     at_path(path, "header counts exceed the file size"));
  }

  // Header checksum covers [0, header_bytes) with the field zeroed.
  {
    std::vector<std::uint8_t> copy(f.range(0, h.header_bytes),
                                   f.range(0, h.header_bytes) + h.header_bytes);
    Header* zeroed = reinterpret_cast<Header*>(copy.data());
    zeroed->header_checksum = 0;
    if (checksum(copy.data(), copy.size()) != h.header_checksum) {
      throw StoreError(StoreErrc::HeaderChecksum,
                       at_path(path, "header/section-table checksum mismatch"));
    }
  }

  // ---- Section table: geometry, then checksums ----------------------------
  const auto sections = idx.sections();
  std::uint64_t cursor = h.header_bytes;
  for (std::uint32_t i = 0; i < kSectionCount; ++i) {
    const SectionEntry& e = sections[i];
    if (e.kind != i + 1) {
      throw StoreError(StoreErrc::BadLayout,
                       at_path(path, "section " + std::to_string(i) +
                                         " has kind " + std::to_string(e.kind) +
                                         ", expected " + std::to_string(i + 1)));
    }
    if (e.offset != cursor || e.bytes != align_up(e.bytes) ||
        e.offset + e.bytes > h.file_bytes) {
      throw StoreError(StoreErrc::BadLayout,
                       at_path(path, "section " + std::to_string(e.kind) +
                                         " breaks the file tiling"));
    }
    const std::uint64_t need = expected_payload_bytes(h, SectionKind(e.kind));
    if (need != 0 && e.bytes != align_up(need)) {
      throw StoreError(StoreErrc::BadLayout,
                       at_path(path, "section " + std::to_string(e.kind) +
                                         " size disagrees with the header "
                                         "counts"));
    }
    cursor = e.offset + e.bytes;
  }
  if (cursor != h.file_bytes) {
    throw StoreError(StoreErrc::BadLayout,
                     at_path(path, "sections do not tile the file"));
  }
  // The offsets now tile the file, so the cold tail can get its own
  // mapping before it is hashed: no later fault on the hot side maps it.
  const std::uint64_t cold = idx.section(kFirstColdSection).offset;
  f.split_at(cold);
  for (const SectionEntry& e : sections) {
    if (e.flags & kSectionFlagPerShardChecksum) continue;
    if (section_checksum(f, e) != e.checksum) {
      throw StoreError(StoreErrc::SectionChecksum,
                       at_path(path, "section " + std::to_string(e.kind) +
                                         " checksum mismatch"));
    }
  }
  // A window releases only the pages wholly inside its section, so pages
  // two cold sections share are still resident: drop the range once.
  f.release(cold, h.file_bytes - cold);

  // ---- Directory cross-checks (still O(seq_count), no residue reads) -----
  const SectionEntry& blob = idx.section(SectionKind::SeqBlob);
  const SectionEntry& ids = idx.section(SectionKind::IdBlob);
  const auto seqs = idx.seq_dir();
  std::uint64_t residues = 0;
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    const SeqEntry& s = seqs[i];
    if (s.id_offset > ids.bytes || s.id_bytes > ids.bytes - s.id_offset) {
      throw StoreError(StoreErrc::BadLayout,
                       at_path(path, "sequence directory entry out of range"));
    }
    // Stored order is the serving order the signatures were built in.
    if (i > 0 && s.length > seqs[i - 1].length) {
      throw StoreError(StoreErrc::BadLayout,
                       at_path(path, "sequence directory not longest first"));
    }
    residues += s.length;
  }
  if (residues != h.residue_total) {
    throw StoreError(StoreErrc::BadLayout,
                     at_path(path, "residue total disagrees with directory"));
  }
  // Each original index exactly once, checked while building the inverse
  // every database() shares: inv[orig] = pos, kUnplaced until claimed. An
  // identity permutation keeps no inverse.
  if (seqs.size() >= kUnplaced) {
    throw StoreError(StoreErrc::BadLayout,
                     at_path(path, "more sequences than the u32 inverse "
                                   "permutation indexes"));
  }
  const auto perm = idx.permutation();
  const auto inv = std::make_shared<std::uint32_t[]>(seqs.size(), kUnplaced);
  bool identity = true;
  for (std::size_t pos = 0; pos < perm.size(); ++pos) {
    const std::uint64_t orig = perm[pos];
    if (orig >= perm.size() || inv[orig] != kUnplaced) {
      throw StoreError(StoreErrc::BadLayout,
                       at_path(path, "permutation section is not a "
                                     "permutation of the sequences"));
    }
    inv[orig] = static_cast<std::uint32_t>(pos);
    identity = identity && orig == pos;
  }
  if (!identity) idx.inv_ = inv;
  // The only guard on Database::residues(), since a mapped database
  // trusts these ranges: shards tile SeqBlob in order, and each shard's
  // entries run back to back from its start and fill it up to its padding.
  // So every residue a database reads lies in exactly one shard, under
  // that shard's checksum, and no two subjects share a byte.
  std::uint64_t seq_cursor = 0;
  std::uint64_t blob_cursor = blob.offset;
  for (const ShardEntry& sh : idx.shards()) {
    if (sh.first_seq != seq_cursor || sh.seq_count == 0 ||
        sh.seq_count > h.seq_count - seq_cursor ||
        sh.blob_offset != blob_cursor ||
        !inside_section(sh.blob_offset, sh.blob_bytes, blob)) {
      throw StoreError(StoreErrc::BadLayout,
                       at_path(path, "shard directory entry out of range"));
    }
    const std::uint64_t end = sh.blob_offset + sh.blob_bytes;
    std::uint64_t at = sh.blob_offset;
    for (const SeqEntry& s : seqs.subspan(sh.first_seq, sh.seq_count)) {
      if (s.residue_offset != at || s.length > end - at) {
        throw StoreError(StoreErrc::BadLayout,
                         at_path(path, "sequence directory entry out of "
                                       "range of its shard"));
      }
      at += s.length;
    }
    if (sh.blob_bytes != align_up(at - sh.blob_offset)) {
      throw StoreError(StoreErrc::BadLayout,
                       at_path(path, "shard size disagrees with its "
                                     "residues"));
    }
    seq_cursor += sh.seq_count;
    blob_cursor = end;
  }
  if (seq_cursor != h.seq_count) {
    throw StoreError(StoreErrc::BadLayout,
                     at_path(path, "shards do not cover every sequence"));
  }
  if (blob_cursor != blob.offset + blob.bytes) {
    throw StoreError(StoreErrc::BadLayout,
                     at_path(path, "shards do not tile the residue blob"));
  }

  if (verify == Verify::Full) idx.verify_shards();

  obs::registry().counter("store.mmap_bytes").add(f.size());
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  obs::registry().histogram("store.load_us").record(
      static_cast<std::uint64_t>(us));
  return idx;
}

std::span<const SectionEntry> MappedIndex::sections() const {
  return {reinterpret_cast<const SectionEntry*>(file_->range(
              sizeof(Header), kSectionCount * sizeof(SectionEntry))),
          kSectionCount};
}

const SectionEntry& MappedIndex::section(SectionKind kind) const {
  return sections()[static_cast<std::uint32_t>(kind) - 1];
}

template <class T>
std::span<const T> MappedIndex::typed_section(SectionKind kind,
                                              std::size_t count) const {
  const SectionEntry& e = section(kind);
  return {reinterpret_cast<const T*>(file_->range(e.offset, count * sizeof(T))),
          count};
}

std::span<const ShardEntry> MappedIndex::shards() const {
  return typed_section<ShardEntry>(SectionKind::ShardDir, hdr_.shard_count);
}

std::span<const SeqEntry> MappedIndex::seq_dir() const {
  return typed_section<SeqEntry>(SectionKind::SeqDir, hdr_.seq_count);
}

filter::FilterParams MappedIndex::filter_params() const {
  filter::FilterParams p;
  p.k = static_cast<int>(hdr_.filter_k);
  p.bits = hdr_.filter_bits;
  p.threshold = hdr_.filter_threshold;
  p.min_subject = hdr_.filter_min_subject;
  p.min_query = hdr_.filter_min_query;
  p.min_informative = hdr_.filter_min_informative;
  p.near_margin = hdr_.filter_near_margin;
  p.min_background = hdr_.filter_min_background;
  return p;
}

std::span<const std::uint64_t> MappedIndex::permutation() const {
  return typed_section<std::uint64_t>(SectionKind::Permutation,
                                      hdr_.seq_count);
}

seq::Database MappedIndex::view(std::span<const SeqEntry> dir,
                                std::uint64_t residues,
                                bool with_order) const {
  // open() checked every entry's residue and id ranges, the order and the
  // permutation, so the view addresses the mapping as it stands.
  seq::Database::Layout l;
  l.dir = dir;
  l.residues = file_->data();  // SeqDir residue offsets are absolute
  l.ids = reinterpret_cast<const char*>(file_->data()) +
          section(SectionKind::IdBlob).offset;
  if (with_order && inv_) {
    l.orig = permutation();
    l.inv = inv_;
  }
  l.total_residues = residues;
  l.backing = file_;
  return seq::Database(std::move(l));
}

seq::Database MappedIndex::database() const {
  return view(seq_dir(), hdr_.residue_total, true);
}

std::shared_ptr<const filter::SignatureIndex> MappedIndex::signatures() const {
  const std::size_t n = hdr_.seq_count;
  // Zero-copy: the index scans straight over the mapped sections (all
  // 64-byte aligned by the format), pinned by the shared MappedFile.
  return std::make_shared<const filter::SignatureIndex>(
      filter_params(), n, hdr_.residue_total,
      typed_section<std::int32_t>(SectionKind::SigBlob, n * hdr_.sig_words),
      typed_section<std::uint32_t>(SectionKind::SigPopcounts, n),
      typed_section<std::uint32_t>(SectionKind::SigLengths, n), file_);
}

ShardSlice MappedIndex::shard_slice(std::size_t i, std::size_t n) const {
  if (n == 0 || i >= n) {
    throw std::invalid_argument("shard_slice: need i < n, got " +
                                std::to_string(i) + "/" + std::to_string(n));
  }
  const auto all = shards();
  const auto seqs = seq_dir();
  // Exact per-shard residue totals from the sequence directory (blob_bytes
  // includes the shard's tail padding).
  std::vector<std::uint64_t> shard_residues(all.size(), 0);
  for (std::size_t s = 0; s < all.size(); ++s) {
    for (std::uint64_t k = 0; k < all[s].seq_count; ++k) {
      shard_residues[s] += seqs[all[s].first_seq + k].length;
    }
  }
  // Greedy contiguous residue balancing: cut each slice once it holds its
  // fair share of what remains. Deterministic, and every slice gets at
  // least one shard while shards remain.
  std::uint64_t remaining = hdr_.residue_total;
  std::size_t shard = 0;
  ShardSlice out;
  for (std::size_t slice = 0; slice < n; ++slice) {
    const std::size_t slices_left = n - slice;
    const std::uint64_t target = remaining / slices_left;
    const std::size_t first = shard;
    std::uint64_t taken = 0;
    while (shard < all.size()) {
      // Leave at least one shard per remaining slice.
      if (shard - first > 0 && all.size() - shard <= slices_left - 1) break;
      if (shard - first > 0 && taken >= target) break;
      taken += shard_residues[shard];
      ++shard;
    }
    if (slice == i) {
      out.first_shard = first;
      out.shard_count = shard - first;
      if (out.shard_count > 0) {
        out.first_seq = all[first].first_seq;
        for (std::size_t s = first; s < shard; ++s) {
          out.seq_count += all[s].seq_count;
        }
        out.residues = taken;
      }
      return out;
    }
    remaining -= taken;
  }
  return out;  // unreachable: slice i handled inside the loop
}

seq::Database MappedIndex::database(const ShardSlice& slice) const {
  return view(seq_dir().subspan(slice.first_seq, slice.seq_count),
              slice.residues, false);
}

std::shared_ptr<const filter::SignatureIndex> MappedIndex::signatures(
    const ShardSlice& slice) const {
  const std::size_t n = hdr_.seq_count;
  // A window() view over the FULL zero-copy blob, not a sliced blob: the
  // filter's empirical background median is a whole-database statistic,
  // so a slice-scoped index would make drop verdicts partition-dependent
  // and break gateway/single-process bit-identity (docs/deployment.md).
  // The view screens only [first_seq, first_seq + seq_count) and its
  // matches() fingerprint is the slice's.
  const auto blob =
      typed_section<std::int32_t>(SectionKind::SigBlob, n * hdr_.sig_words);
  const auto pops =
      typed_section<std::uint32_t>(SectionKind::SigPopcounts, n);
  const auto lens = typed_section<std::uint32_t>(SectionKind::SigLengths, n);
  const filter::SignatureIndex full(filter_params(), n, hdr_.residue_total,
                                    blob, pops, lens, file_);
  return std::make_shared<const filter::SignatureIndex>(
      full.window(slice.first_seq, slice.seq_count, slice.residues));
}

std::vector<std::size_t> MappedIndex::original_indices(
    const ShardSlice& slice) const {
  const auto sub = permutation().subspan(slice.first_seq, slice.seq_count);
  return std::vector<std::size_t>(sub.begin(), sub.end());
}

std::span<const std::int8_t> MappedIndex::profile_lut_i8() const {
  return typed_section<std::int8_t>(
      SectionKind::ProfileLutI8,
      static_cast<std::size_t>(hdr_.alphabet_size) * hdr_.lut_stride);
}

std::span<const std::int16_t> MappedIndex::profile_lut_i16() const {
  return typed_section<std::int16_t>(
      SectionKind::ProfileLutI16,
      static_cast<std::size_t>(hdr_.alphabet_size) * hdr_.lut_stride);
}

std::span<const std::int32_t> MappedIndex::profile_lut_i32() const {
  return typed_section<std::int32_t>(
      SectionKind::ProfileLutI32,
      static_cast<std::size_t>(hdr_.alphabet_size) * hdr_.lut_stride);
}

void MappedIndex::verify_shards() const {
  const auto all = shards();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const ShardEntry& sh = all[i];
    if (checksum(file_->range(sh.blob_offset, sh.blob_bytes), sh.blob_bytes) !=
        sh.checksum) {
      throw StoreError(
          StoreErrc::ShardChecksum,
          at_path(file_->path(),
                  "shard " + std::to_string(i) + " (sequences [" +
                      std::to_string(sh.first_seq) + ", +" +
                      std::to_string(sh.seq_count) +
                      ")) residue checksum mismatch"));
    }
  }
}

}  // namespace aalign::store
