// On-disk layout of the versioned aalign database index (docs/
// database_format.md). One file holds everything a serving process needs
// to become query-ready: the shard directory, the residue offsets and the
// residues packed back to back longest first, the original-index
// permutation and its inverse, the ids (offsets and bytes), the signature
// index, and the per-precision-tier score profile tables — every section
// 64-byte aligned — so the loader can `mmap` the file and serve
// `seq::Database` zero-copy straight off the page cache: the offset and
// permutation sections are the database's own arrays.
//
// Integrity model: the header (including the section table) carries one
// checksum; every metadata section carries its own; the residue blob is
// checksummed PER SHARD so a corrupt shard is named, not just detected. A
// shard is a cut of the one packed run of residues: its range is the
// residue offsets of its first sequence and the one past its last, and
// the last shard's also takes the blob's zero tail.
// Every byte of a well-formed file is covered by exactly one of those
// checksums (alignment padding is zero-filled and checksummed with its
// owning region), so any single bit flip is detectable. The loader
// verifies the header + metadata at open (O(directory), independent of
// residue volume — the O(1)-startup path), the signature sections once,
// before their first filter use, and the blob shards on demand
// (`Verify::Full`, the `aalign_index verify` path, checks everything at
// open).
//
// Compatibility policy (docs/database_format.md): the format version is
// bumped on ANY layout change; readers reject files whose version or
// endianness tag differ from their own — there are no in-place upgrades,
// indexes are cheap to rebuild from FASTA (`aalign_index build`).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>

#include "simd/primitives.h"

namespace aalign::store {

inline constexpr char kMagic[8] = {'A', 'A', 'L', 'N', 'I', 'D', 'X', '1'};
inline constexpr std::uint32_t kEndianTag = 0x01020304u;
// Version 2 introduced the four-lane integrity checksum, version 3 packs
// the residues within each shard back to back, version 4 widens the
// checksum to 32 lanes over 256-byte strides (Checksum below), and
// version 5 replaces the 32-byte directory entries with offset arrays,
// packs all residues in one run, narrows the permutation to u32, drops
// each shard's stored first sequence (the counts before it give it) and
// moves the ids to the cold tail. Version 6 stores the inverse
// permutation (the Inverse section), so open checks it in place instead
// of building it.
inline constexpr std::uint32_t kFormatVersion = 6;
// Every section starts aligned to this many bytes in the file
// (util::kVectorAlignment, so signature rows can feed aligned vector
// loads) and is zero-padded to a multiple of it. Sequences and shards
// inside the residue blob are not aligned: nothing reads residues with
// aligned loads.
inline constexpr std::size_t kFileAlignment = 64;
// Entries per row of the per-tier score profile tables; mirrors
// core/inter_kernel.h's kLutStride (the in-register table-lookup layout).
inline constexpr std::uint32_t kProfileLutStride = 64;

// The build fingerprint's hash: FNV-1a run over 64-bit little-endian
// lanes with a byte-wise tail. One multiply per 8 bytes, and the lane
// count still advances the state, so inputs differing only in trailing
// zero bytes hash differently. Not cryptographic.
//
// Chaining is exact at 8-byte boundaries: when `bytes` of the first call
// is a multiple of 8, fnv1a64(b, n2, fnv1a64(a, n1)) equals one call over
// the concatenation.
inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ull;
inline std::uint64_t fnv1a64(const void* data, std::size_t bytes,
                             std::uint64_t seed = kFnvOffsetBasis) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, sizeof w);
    h ^= w;
    h *= simd::kFnvPrime;
  }
  for (; i < bytes; ++i) {
    h ^= p[i];
    h *= simd::kFnvPrime;
  }
  return h;
}

// The format's integrity checksum (header, metadata sections, residue
// shards), version 4: FNV-1a on 32 independent 64-bit lanes over 256-byte
// strides (word k of every stride feeds lane k, lane k seeded with the
// offset basis XOR k), folded at the end by fnv1a64 over the 32 lane
// states. Each lane step is a bijection of the lane, so any single bit
// flip changes the digest. The 32 chains are independent, so the lane
// update (simd/primitives.h) runs as vector code on every backend that
// has it - AVX2 and AVX-512F - with the same digest as the scalar loop.
// A ragged tail (a section's is 64, 128 or 192 bytes; a residue shard's
// any length) continues lane 0 through fnv1a64. Not cryptographic - the
// threat model is truncation and bit rot, not an adversary.
//
// Streaming: the state is the lanes, so update() calls chain exactly when
// every call but the last is a multiple of kChecksumStride bytes; the
// loader hashes large sections in windows cut that way from the
// section's start.
inline constexpr std::size_t kChecksumLanes = simd::kFnvLanes;
inline constexpr std::size_t kChecksumStride = simd::kFnvStride;

class Checksum {
 public:
  Checksum();
  void update(const void* data, std::size_t bytes);
  std::uint64_t digest() const { return fnv1a64(lane_, sizeof lane_); }

 private:
  std::uint64_t lane_[kChecksumLanes];
};

inline std::uint64_t checksum(const void* data, std::size_t bytes) {
  Checksum h;
  h.update(data, bytes);
  return h.digest();
}

// Section identities; the section table always holds all of them in this
// order (a section absent from a particular database has bytes == 0).
enum class SectionKind : std::uint32_t {
  ShardDir = 1,       // ShardEntry[shard_count]
  SeqOffsets = 2,     // u64[seq_count + 1]: residue offsets into SeqBlob
  SeqBlob = 3,        // packed residues, per-shard checksums
  Permutation = 4,    // u32[seq_count]: orig[pos] = original index
  Inverse = 5,        // u32[seq_count]: inv[orig] = stored position
  IdOffsets = 6,      // u64[seq_count + 1]: id offsets into IdBlob
  IdBlob = 7,         // concatenated sequence ids (no terminators)
  SigPopcounts = 8,   // u32[seq_count]
  SigLengths = 9,     // u32[seq_count]
  SigBlob = 10,       // i32[seq_count * sig_words]
  ProfileLutI8 = 11,  // i8 [alpha][kProfileLutStride]
  ProfileLutI16 = 12, // i16[alpha][kProfileLutStride]
  ProfileLutI32 = 13, // i32[alpha][kProfileLutStride]
};
inline constexpr std::uint32_t kSectionCount = 13;

// The cold sections, IdOffsets through the profile tables: the file's
// tail that a filter-off search never reads. Only hit reporting reads the
// ids, only a filter scan reads the signatures, and only a service wired
// to the stored LUTs reads the profile tables. The hot head is what a
// search reads per subject: 12 bytes of it (a u64 residue offset and a
// u32 permutation entry) besides the residues, and the Inverse section,
// which open checks and a hit's by_original() reads. MappedIndex::open
// gives the tail its own mapping and releases its pages once its checks
// have read them (loader.h).
inline constexpr SectionKind kFirstColdSection = SectionKind::IdOffsets;
constexpr bool cold_section(SectionKind kind) {
  return kind >= kFirstColdSection;
}

// The signature sections, SigPopcounts through SigBlob: a Verify::Directory
// open checks their geometry but leaves their checksums to the first
// filter use (loader.h), since only a filter scan reads them.
constexpr bool signature_section(SectionKind kind) {
  return kind >= SectionKind::SigPopcounts && kind <= SectionKind::SigBlob;
}

// "ShardDir", "SeqOffsets", ...: the SectionKind's enumerator name.
const char* section_kind_name(SectionKind kind);

// Per-shard checksum flag on the SeqBlob section: its section-level
// checksum field is unused (0); integrity lives in ShardEntry::checksum.
inline constexpr std::uint32_t kSectionFlagPerShardChecksum = 1;

struct SectionEntry {
  std::uint32_t kind = 0;   // SectionKind
  std::uint32_t flags = 0;
  std::uint64_t offset = 0;  // absolute file offset, kFileAlignment-aligned
  std::uint64_t bytes = 0;   // padded (checksummed) size
  std::uint64_t checksum = 0;
};
static_assert(sizeof(SectionEntry) == 32);

// A shard is a cut of the stored order: the shards tile the sequences in
// order, so shard i's first sequence is the sum of the seq_counts before
// it, and its residues are SeqBlob bytes [off[first], off[first +
// seq_count]) of the SeqOffsets array `off` - through the end of the
// section, zero tail included, for the last shard. Shards that tile the
// sequences tile the blob too.
struct ShardEntry {
  std::uint64_t seq_count = 0;
  std::uint64_t checksum = 0;  // checksum() of the shard's residue range
};
static_assert(sizeof(ShardEntry) == 16);

// The SeqBlob payload bytes [begin, end) the shard of `seq_count`
// sequences from position `first_seq` checksums, from the SeqOffsets array
// `off` of a blob section of `blob_bytes`: the shard that ends at the
// last sequence runs on through the blob's zero tail.
struct ShardRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};
inline ShardRange shard_range(std::uint64_t first_seq, std::uint64_t seq_count,
                              std::span<const std::uint64_t> off,
                              std::uint64_t blob_bytes) {
  const std::uint64_t past = first_seq + seq_count;
  return {off[first_seq], past + 1 == off.size() ? blob_bytes : off[past]};
}

// Fixed-size header at offset 0, followed immediately by the section
// table; `header_bytes` spans both (plus padding to kFileAlignment) and
// is the range `header_checksum` covers (with the checksum field itself
// zeroed during hashing).
struct Header {
  char magic[8] = {};
  std::uint32_t endian_tag = 0;
  std::uint32_t format_version = 0;
  std::uint64_t header_bytes = 0;
  std::uint64_t file_bytes = 0;
  // Deterministic digest of everything the builder consumed (matrix name,
  // alphabet, filter params, every id + residue string): two builds from
  // identical inputs produce identical fingerprints AND identical files.
  std::uint64_t build_fingerprint = 0;
  std::uint64_t seq_count = 0;
  std::uint64_t residue_total = 0;
  std::uint64_t shard_count = 0;
  std::uint32_t alphabet_size = 0;
  std::uint32_t section_count = 0;
  char matrix_name[24] = {};  // NUL-padded builder matrix
  // filter::FilterParams the signature sections were built with.
  std::uint32_t filter_k = 0;
  std::uint32_t lut_stride = 0;  // kProfileLutStride at build time
  std::uint64_t filter_bits = 0;
  std::uint64_t sig_words = 0;  // int32 words per signature
  double filter_threshold = 0.0;
  std::uint64_t filter_min_subject = 0;
  std::uint64_t filter_min_query = 0;
  double filter_min_informative = 0.0;
  double filter_near_margin = 0.0;
  std::uint64_t filter_min_background = 0;
  std::uint64_t header_checksum = 0;
};
static_assert(sizeof(Header) == 176);

// ---------------------------------------------------------------------------
// Structured load/build errors. Every reject path names a stable
// `store.<code>` token (the string the CI corruption self-test greps), so
// a corrupt, truncated, foreign-endian, or future-version file is always
// a diagnosable error — never a crash, never silently wrong scores.
// ---------------------------------------------------------------------------

enum class StoreErrc {
  IoError,          // store.io_error         open/stat/mmap/write failed
  BadMagic,         // store.bad_magic        not an aalign index file
  BadEndian,        // store.bad_endian       built on a foreign-endian host
  BadVersion,       // store.bad_version      format version mismatch
  Truncated,        // store.truncated        file shorter than declared
  HeaderChecksum,   // store.header_checksum  header/section-table bit rot
  SectionChecksum,  // store.section_checksum metadata section bit rot
  ShardChecksum,    // store.shard_checksum   residue shard bit rot
  BadLayout,        // store.bad_layout       internally inconsistent
                    //                        offsets/counts/sizes
};

const char* store_errc_name(StoreErrc errc);  // the "store.<code>" token

class StoreError : public std::runtime_error {
 public:
  StoreError(StoreErrc errc, const std::string& detail)
      : std::runtime_error(std::string(store_errc_name(errc)) + ": " +
                           detail),
        errc_(errc) {}

  StoreErrc errc() const { return errc_; }

 private:
  StoreErrc errc_;
};

// Counts one FASTA-parse fallback (`store.fallback_parses`): tools call
// this when a requested index is unusable and they re-parse instead.
void count_fallback_parse();

inline std::size_t align_up(std::size_t n, std::size_t a = kFileAlignment) {
  return (n + a - 1) / a * a;
}

}  // namespace aalign::store
