// mmap-backed index loading: the O(1)-startup half of the store layer.
//
// MappedIndex::open maps the file and verifies the header + the metadata
// section checksums — work proportional to the subject count, never to
// the residue volume: 16 B of hot metadata (a u64 residue offset, a u32
// permutation entry and a u32 inverse entry) and 8 B of id offset plus
// the id per subject are hashed at open, by the format's 32-lane checksum
// (store/format.h), whose lane update runs as AVX-512F or AVX2 vector code
// where the CPU has it, near the speed of a plain read of the same bytes.
// It checks the section geometry first, then gives the cold sections
// (format.h: the ids, signatures and profile tables, which a filter-off
// search never reads) a mapping of their own. A cold section it checks
// that spans more than one 1 MiB window is hashed a window at a time,
// windows cut from the section's start (so each window but the last is
// whole checksum strides), and each window's pages are released once
// hashed; a smaller one (IdOffsets, IdBlob) stays mapped for the checks
// that read it next. The whole cold range is released once the layout
// checks below are done.
// The kernel maps page-cache folios of up to 2 MiB whole but clips them
// at mapping bounds, so after a filter-off search on a 26,032-subject
// index (Linux 6.18, ext4) no id or signature page is resident and the
// mapping's resident bytes are the hot sections the search read
// (docs/database_format.md). Reporting a hit faults its id's pages back; a
// filter scan faults the signature pages back.
//
// Under Verify::Directory the three signature sections (format.h
// signature_section) are the exception: open checks their geometry, and
// their checksums are hashed once per opened index, on the first
// SignatureIndex::verify() of any index that signatures() returns (a
// filter scan calls it before it reads a signature byte; a component that
// filters calls it when it is built). A mismatch throws
// store.section_checksum from that call and every later one. Verify::Full
// hashes them at open, and also the residue blob per shard (the
// `aalign_index verify` / CI corruption-fuzz path); the serving path
// trusts the page cache and the per-shard checksums stay available for
// offline audit.
//
// open() also checks that both offset arrays (residues and ids) start at
// 0, never decrease and end at their blob's payload, and that the
// sequences are longest first - one branch-free scan per array - that the
// shards tile the sequences in order (so their residue ranges tile the
// blob), and that the Permutation and Inverse sections are a permutation
// and its inverse (one read-only pass; nothing is allocated). The scans
// and the inverse pass run as vector code where the CPU has it
// (simd/primitives.h). database() then does no per-subject work: the
// seq::Database it returns views the mapped SeqOffsets, SeqBlob,
// IdOffsets, IdBlob, Permutation and Inverse sections in place, with the
// MappedFile pinned as its backing(). signatures() rehydrates the
// persisted SignatureIndex without hashing a single k-mer. Both are
// bit-identical to what the FASTA-parse path would produce
// (tests/test_store.cpp enforces this differentially).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "filter/signature.h"
#include "seq/database.h"
#include "store/format.h"
#include "store/mmap_file.h"

namespace aalign::store {

enum class Verify {
  Directory,  // header + metadata checksums (the O(1)-startup default);
              // the signature sections' on their first filter use
  Full,       // every checksum at open, per-shard residue blob included
};

// A contiguous run of the index's shard directory, the partition unit of
// a fleet deployment (docs/deployment.md): slice i of n covers shards
// [first_shard, first_shard + shard_count) and therefore sequences
// [first_seq, first_seq + seq_count) in stored order. Contiguity is what
// keeps the sliced database and signature index zero-copy - both are
// plain subranges of the mapped sections.
struct ShardSlice {
  std::size_t first_shard = 0;
  std::size_t shard_count = 0;
  std::size_t first_seq = 0;
  std::size_t seq_count = 0;
  std::uint64_t residues = 0;  // exact residue total of the slice

  bool empty() const { return seq_count == 0; }
};

class MappedIndex {
 public:
  // Maps and validates `path`. Throws StoreError naming the first defect:
  // store.io_error, store.bad_magic, store.bad_endian, store.bad_version
  // (also bumps the store.version_rejects counter), store.truncated,
  // store.header_checksum, store.section_checksum, store.bad_layout —
  // plus store.shard_checksum under Verify::Full. On success records
  // store.mmap_bytes and store.load_us. (A Directory open's signature
  // check records store.signature_verifies and store.signature_verify_us
  // when it runs.)
  static MappedIndex open(const std::string& path,
                          Verify verify = Verify::Directory);

  const Header& header() const { return hdr_; }
  const std::string& path() const { return file_->path(); }
  std::uint64_t file_bytes() const { return hdr_.file_bytes; }

  // The section table, one entry per SectionKind in kind order.
  std::span<const SectionEntry> sections() const;
  std::span<const ShardEntry> shards() const;

  // Filter parameters the signature sections were built with.
  filter::FilterParams filter_params() const;

  // Zero-copy database in stored order - longest first, as the builder
  // wrote it and open() checked - with the stored original-index
  // permutation and the mapping pinned as the database's backing(). O(1):
  // a view of the mapped offset arrays, not a copy of them.
  seq::Database database() const;

  // Prebuilt signature index (never bumps filter.index_builds). Every
  // index this and signatures(slice) return, and their window() views,
  // share this MappedIndex's one deferred signature check (verify()).
  std::shared_ptr<const filter::SignatureIndex> signatures() const;

  // Slice i of n: a residue-balanced contiguous partition of the shard
  // directory (deterministic for a given index, so every fleet member
  // computes the same split), in O(shards). Throws std::invalid_argument unless
  // i < n. Slices beyond the shard count come back empty - aalignd
  // refuses to serve one (docs/deployment.md covers sizing n).
  ShardSlice shard_slice(std::size_t i, std::size_t n) const;

  // Zero-copy O(1) database over `slice`, which shard_slice() made (its
  // range is trusted): subspans of the mapped offset arrays, in stored
  // order and UNPERMUTED:
  // a slice cannot carry the global permutation (its values fall outside
  // [0, seq_count)), so the fleet-global original indices travel
  // separately via original_indices() and are re-attached at the wire
  // layer (ServiceOptions::global_index_map).
  seq::Database database(const ShardSlice& slice) const;

  // Prebuilt signature index over one slice (zero-copy subranges; the
  // per-signature stride is a multiple of the 64-byte file alignment).
  std::shared_ptr<const filter::SignatureIndex> signatures(
      const ShardSlice& slice) const;

  // Fleet-global ORIGINAL index of each slice sequence, in slice stored
  // order (the Permutation section subrange).
  std::vector<std::size_t> original_indices(const ShardSlice& slice) const;

  // Per-precision-tier substitution tables, [alphabet_size][lut_stride]
  // in core/inter_kernel.h's table-lookup row layout.
  std::span<const std::int8_t> profile_lut_i8() const;
  std::span<const std::int16_t> profile_lut_i16() const;
  std::span<const std::int32_t> profile_lut_i32() const;

  // Re-checks every per-shard residue checksum (the Verify::Full step).
  // Throws StoreError(StoreErrc::ShardChecksum) naming the first bad
  // shard.
  void verify_shards() const;

  const std::shared_ptr<const MappedFile>& file() const { return file_; }

 private:
  MappedIndex() = default;

  const SectionEntry& section(SectionKind kind) const;
  // The offset sections, seq_count + 1 entries each.
  std::span<const std::uint64_t> residue_offsets() const;
  std::span<const std::uint64_t> id_offsets() const;
  // The Permutation section: orig[pos] = original index.
  std::span<const std::uint32_t> permutation() const;
  // The Inverse section: inv[orig] = stored position.
  std::span<const std::uint32_t> inverse() const;
  // Database viewing stored positions [first, first + count) of the
  // mapping, carrying the stored permutation when `with_order`: the one
  // builder behind both database() overloads.
  seq::Database view(std::size_t first, std::size_t count,
                     bool with_order) const;
  template <class T>
  std::span<const T> typed_section(SectionKind kind,
                                   std::size_t count) const;

  std::shared_ptr<const MappedFile> file_;
  Header hdr_{};
  // False when open() found the stored order to be the input order: then
  // database() carries no permutation.
  bool permuted_ = false;
  // The signature sections' deferred checksum check, made by a Directory
  // open and shared by every signatures() and by copies of this handle;
  // null when open() hashed them (Verify::Full).
  std::shared_ptr<const filter::DeferredCheck> sig_check_;
};

}  // namespace aalign::store
