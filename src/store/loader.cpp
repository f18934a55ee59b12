#include "store/loader.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "simd/primitives.h"
#include "simd/isa.h"

namespace aalign::store {

namespace {

std::string at_path(const std::string& path, const std::string& what) {
  return path + ": " + what;
}

// Payload (unpadded) byte count each section must hold for this header.
// IdBlob's is the last entry of IdOffsets, checked once that is hashed.
std::uint64_t expected_payload_bytes(const Header& h, SectionKind kind) {
  const std::uint64_t lut_rows =
      static_cast<std::uint64_t>(h.alphabet_size) * h.lut_stride;
  switch (kind) {
    case SectionKind::ShardDir:
      return h.shard_count * sizeof(ShardEntry);
    case SectionKind::SeqOffsets:
    case SectionKind::IdOffsets:
      return (h.seq_count + 1) * sizeof(std::uint64_t);
    case SectionKind::SeqBlob:
      return h.residue_total;
    case SectionKind::Permutation:
    case SectionKind::Inverse:
    case SectionKind::SigPopcounts:
    case SectionKind::SigLengths:
      return h.seq_count * sizeof(std::uint32_t);
    case SectionKind::IdBlob:
      return 0;
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

// True when `payload` bytes zero-padded to kFileAlignment span exactly
// `bytes`, a kFileAlignment multiple. Written in subtraction form:
// align_up(payload) wraps past 2^64 for a payload near it.
bool pads_to(std::uint64_t payload, std::uint64_t bytes) {
  return payload <= bytes && bytes - payload < kFileAlignment;
}

// A filter-off search never reads the cold sections (format.h), so open
// hashes one larger than this a window at a time and drops each window's
// pages once hashed: the windows bound open's transient peak. The hot
// sections are not released: every search reads SeqOffsets through its
// database() view.
constexpr std::uint64_t kHashWindow = std::uint64_t{1} << 20;

std::uint64_t section_checksum(const MappedFile& f, const SectionEntry& e) {
  // A cold section that fits one window stays mapped too, so the checks
  // after the hash (IdOffsets') read it without faulting it back: open()
  // drops the whole cold range once they are done.
  if (!cold_section(SectionKind(e.kind)) || e.bytes <= kHashWindow) {
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

StoreError section_mismatch(const std::string& path, const SectionEntry& e) {
  return StoreError(StoreErrc::SectionChecksum,
                    at_path(path, "section " + std::to_string(e.kind) +
                                      " checksum mismatch"));
}

// The deferred half of a Directory open: hashes the signature sections in
// one call each, not in released windows, so their pages stay mapped for
// the filter scan that reads them next. Counts and times every run, a
// failing one too.
void check_signature_sections(const MappedFile& f,
                              const std::vector<SectionEntry>& sections) {
  const auto t0 = std::chrono::steady_clock::now();
  const SectionEntry* bad = nullptr;
  for (const SectionEntry& e : sections) {
    if (checksum(f.range(e.offset, e.bytes), e.bytes) != e.checksum) {
      bad = &e;
      break;
    }
  }
  obs::Registry& r = obs::registry();
  r.counter("store.signature_verifies").add(1);
  r.histogram("store.signature_verify_us")
      .record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
  if (bad != nullptr) throw section_mismatch(f.path(), *bad);
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
  // filter_params() hands k to the filter as an int.
  constexpr auto kMaxFilterK =
      static_cast<std::uint32_t>(std::numeric_limits<int>::max());
  if (h.filter_k < 1 || h.filter_k > kMaxFilterK || h.filter_bits == 0 ||
      h.filter_bits % 512 != 0 ||
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
      h.shard_count > h.file_bytes / sizeof(ShardEntry) ||
      h.residue_total > h.file_bytes) {
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
    if (SectionKind(e.kind) != SectionKind::IdBlob &&
        !pads_to(expected_payload_bytes(h, SectionKind(e.kind)), e.bytes)) {
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
  // A Directory open leaves the signature sections to the first filter
  // use: one deferred check per opened index, shared by every signatures()
  // and window() view, so a filter-off search never reads them.
  std::vector<SectionEntry> deferred;
  for (const SectionEntry& e : sections) {
    if (e.flags & kSectionFlagPerShardChecksum) continue;
    if (verify == Verify::Directory && signature_section(SectionKind(e.kind))) {
      deferred.push_back(e);
      continue;
    }
    if (section_checksum(f, e) != e.checksum) throw section_mismatch(path, e);
  }
  if (!deferred.empty()) {
    idx.sig_check_ = std::make_shared<const filter::DeferredCheck>(
        [file = idx.file_, deferred = std::move(deferred)] {
          check_signature_sections(*file, deferred);
        });
  }

  // ---- Offsets, order, shards, permutation (O(seq_count), no residues) ---
  // A mapped database trusts these arrays, so they are the only guard on
  // its residue and id reads: both offset arrays start at 0, never fall
  // and end at their payloads - one scan each.
  const simd::Primitives& prim = simd::primitives();
  const std::uint64_t n = h.seq_count;
  const auto off = idx.residue_offsets();
  const simd::OffsetFaults seq_faults =
      prim.offset_scan(off.data(), off.size());
  if (off.front() != 0 || seq_faults.fall || off.back() != h.residue_total) {
    throw StoreError(StoreErrc::BadLayout,
                     at_path(path, "residue offsets do not tile the residue "
                                   "blob"));
  }
  // Stored order is the serving order the signatures were built in.
  if (seq_faults.growth) {
    throw StoreError(StoreErrc::BadLayout,
                     at_path(path, "sequences not longest first"));
  }
  // Id lengths are in no order: the scan's growth does not matter here.
  const auto id_off = idx.id_offsets();
  const bool id_fall = prim.offset_scan(id_off.data(), id_off.size()).fall;
  if (id_off.front() != 0 || id_fall ||
      !pads_to(id_off.back(), idx.section(SectionKind::IdBlob).bytes)) {
    throw StoreError(StoreErrc::BadLayout,
                     at_path(path, "id offsets do not tile the id blob"));
  }
  // Each shard starts where the one before it ends, so nonzero counts that
  // sum to the sequence count tile the sequences, and the shards' residue
  // ranges (the offsets') tile the blob.
  std::uint64_t seq_cursor = 0;
  for (const ShardEntry& sh : idx.shards()) {
    if (sh.seq_count == 0 || sh.seq_count > n - seq_cursor) {
      throw StoreError(StoreErrc::BadLayout,
                       at_path(path, "shards do not tile the sequences"));
    }
    seq_cursor += sh.seq_count;
  }
  if (seq_cursor != n) {
    throw StoreError(StoreErrc::BadLayout,
                     at_path(path, "shards do not cover every sequence"));
  }
  // Every position and original index is a u32 (seq::Database's bound).
  if (n >= std::numeric_limits<std::uint32_t>::max()) {
    throw StoreError(StoreErrc::BadLayout,
                     at_path(path, "more sequences than the u32 inverse "
                                   "permutation indexes"));
  }
  // perm[inv[o]] == o for every original index o makes perm onto [0, n),
  // so a permutation, and inv its inverse: one read-only pass (a gather per
  // register where the CPU has one), and the inverse every database()
  // shares is the mapped section. An identity permutation is served
  // unpermuted.
  const simd::InverseFaults inv_faults =
      prim.inverse_check(idx.permutation().data(), idx.inverse().data(), n);
  if (inv_faults.bad) {
    throw StoreError(StoreErrc::BadLayout,
                     at_path(path, "permutation and inverse sections are not "
                                   "inverse permutations of the sequences"));
  }
  idx.permuted_ = inv_faults.moved;
  // Drops the cold range once its checks have read it: the sections that
  // fit one hash window, and the pages a window shares with a neighbour
  // section.
  f.release(cold, h.file_bytes - cold);

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

std::span<const std::uint64_t> MappedIndex::residue_offsets() const {
  return typed_section<std::uint64_t>(SectionKind::SeqOffsets,
                                      hdr_.seq_count + 1);
}

std::span<const std::uint64_t> MappedIndex::id_offsets() const {
  return typed_section<std::uint64_t>(SectionKind::IdOffsets,
                                      hdr_.seq_count + 1);
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

std::span<const std::uint32_t> MappedIndex::permutation() const {
  return typed_section<std::uint32_t>(SectionKind::Permutation,
                                      hdr_.seq_count);
}

std::span<const std::uint32_t> MappedIndex::inverse() const {
  return typed_section<std::uint32_t>(SectionKind::Inverse, hdr_.seq_count);
}

seq::Database MappedIndex::view(std::size_t first, std::size_t count,
                                bool with_order) const {
  // open() checked both offset arrays, the order, the permutation and its
  // inverse, so the view addresses the mapping as it stands: subspans of
  // the mapped offsets, based at their blobs.
  seq::Database::Layout l;
  l.offsets = residue_offsets().subspan(first, count + 1);
  l.residues = file_->data() + section(SectionKind::SeqBlob).offset;
  l.id_offsets = id_offsets().subspan(first, count + 1);
  l.ids = reinterpret_cast<const char*>(file_->data()) +
          section(SectionKind::IdBlob).offset;
  if (with_order && permuted_) {
    l.orig = permutation();
    // Aliases the mapping: the inverse is the section itself.
    l.inv = std::shared_ptr<const std::uint32_t[]>(file_, inverse().data());
  }
  l.backing = file_;
  return seq::Database(std::move(l));
}

seq::Database MappedIndex::database() const {
  return view(0, hdr_.seq_count, true);
}

std::shared_ptr<const filter::SignatureIndex> MappedIndex::signatures() const {
  const std::size_t n = hdr_.seq_count;
  // Zero-copy: the index scans straight over the mapped sections (all
  // 64-byte aligned by the format), pinned by the shared MappedFile.
  return std::make_shared<const filter::SignatureIndex>(
      filter_params(), n, hdr_.residue_total,
      typed_section<std::int32_t>(SectionKind::SigBlob, n * hdr_.sig_words),
      typed_section<std::uint32_t>(SectionKind::SigPopcounts, n),
      typed_section<std::uint32_t>(SectionKind::SigLengths, n), file_,
      sig_check_);
}

ShardSlice MappedIndex::shard_slice(std::size_t i, std::size_t n) const {
  if (n == 0 || i >= n) {
    throw std::invalid_argument("shard_slice: need i < n, got " +
                                std::to_string(i) + "/" + std::to_string(n));
  }
  const auto all = shards();
  const auto off = residue_offsets();
  // Greedy contiguous residue balancing: cut each slice once it holds its
  // fair share of what remains. Deterministic, and every slice gets at
  // least one shard while shards remain. The shards tile the sequences in
  // order (open() checked), so a slice's sequences run from where the one
  // before it ended, and its exact residue count is the offsets'
  // difference across them.
  std::uint64_t remaining = hdr_.residue_total;
  std::size_t shard = 0;
  std::size_t seq = 0;
  ShardSlice out;
  for (std::size_t slice = 0; slice < n; ++slice) {
    const std::size_t slices_left = n - slice;
    const std::uint64_t target = remaining / slices_left;
    const std::size_t first = shard;
    const std::size_t first_seq = seq;
    std::uint64_t taken = 0;
    while (shard < all.size()) {
      // Leave at least one shard per remaining slice.
      if (shard - first > 0 && all.size() - shard <= slices_left - 1) break;
      if (shard - first > 0 && taken >= target) break;
      seq += all[shard].seq_count;
      taken = off[seq] - off[first_seq];
      ++shard;
    }
    if (slice == i) {
      out.first_shard = first;
      out.shard_count = shard - first;
      if (out.shard_count > 0) {
        out.first_seq = first_seq;
        out.seq_count = seq - first_seq;
        out.residues = taken;
      }
      return out;
    }
    remaining -= taken;
  }
  return out;  // unreachable: slice i handled inside the loop
}

seq::Database MappedIndex::database(const ShardSlice& slice) const {
  return view(slice.first_seq, slice.seq_count, false);
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
                                    blob, pops, lens, file_, sig_check_);
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
  const auto off = residue_offsets();
  const SectionEntry& blob = section(SectionKind::SeqBlob);
  std::uint64_t first_seq = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const ShardEntry& sh = all[i];
    const ShardRange r = shard_range(first_seq, sh.seq_count, off, blob.bytes);
    if (checksum(file_->range(blob.offset + r.begin, r.end - r.begin),
                 r.end - r.begin) != sh.checksum) {
      throw StoreError(
          StoreErrc::ShardChecksum,
          at_path(file_->path(),
                  "shard " + std::to_string(i) + " (sequences [" +
                      std::to_string(first_seq) + ", +" +
                      std::to_string(sh.seq_count) +
                      ")) residue checksum mismatch"));
    }
    first_seq += sh.seq_count;
  }
}

}  // namespace aalign::store
