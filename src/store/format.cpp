#include "store/format.h"

#include "obs/metrics.h"

namespace aalign::store {

Checksum::Checksum() {
  for (std::size_t k = 0; k < kChecksumLanes; ++k) {
    lane_[k] = kFnvOffsetBasis ^ k;
  }
}

void Checksum::update(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  const std::size_t strides = bytes / kChecksumStride;
  simd::primitives().fnv_lanes(lane_, p, strides);
  const std::size_t tail = strides * kChecksumStride;
  if (tail < bytes) lane_[0] = fnv1a64(p + tail, bytes - tail, lane_[0]);
}

const char* store_errc_name(StoreErrc errc) {
  switch (errc) {
    case StoreErrc::IoError:
      return "store.io_error";
    case StoreErrc::BadMagic:
      return "store.bad_magic";
    case StoreErrc::BadEndian:
      return "store.bad_endian";
    case StoreErrc::BadVersion:
      return "store.bad_version";
    case StoreErrc::Truncated:
      return "store.truncated";
    case StoreErrc::HeaderChecksum:
      return "store.header_checksum";
    case StoreErrc::SectionChecksum:
      return "store.section_checksum";
    case StoreErrc::ShardChecksum:
      return "store.shard_checksum";
    case StoreErrc::BadLayout:
      return "store.bad_layout";
  }
  return "store.unknown";
}

const char* section_kind_name(SectionKind kind) {
  switch (kind) {
    case SectionKind::ShardDir:
      return "ShardDir";
    case SectionKind::SeqOffsets:
      return "SeqOffsets";
    case SectionKind::SeqBlob:
      return "SeqBlob";
    case SectionKind::Permutation:
      return "Permutation";
    case SectionKind::Inverse:
      return "Inverse";
    case SectionKind::IdOffsets:
      return "IdOffsets";
    case SectionKind::IdBlob:
      return "IdBlob";
    case SectionKind::SigPopcounts:
      return "SigPopcounts";
    case SectionKind::SigLengths:
      return "SigLengths";
    case SectionKind::SigBlob:
      return "SigBlob";
    case SectionKind::ProfileLutI8:
      return "ProfileLutI8";
    case SectionKind::ProfileLutI16:
      return "ProfileLutI16";
    case SectionKind::ProfileLutI32:
      return "ProfileLutI32";
  }
  return "unknown";
}

void count_fallback_parse() {
  obs::registry().counter("store.fallback_parses").add(1);
}

}  // namespace aalign::store
