#include "store/format.h"

#include "obs/metrics.h"

namespace aalign::store {

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
    case SectionKind::SeqDir:
      return "SeqDir";
    case SectionKind::IdBlob:
      return "IdBlob";
    case SectionKind::SeqBlob:
      return "SeqBlob";
    case SectionKind::Permutation:
      return "Permutation";
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
