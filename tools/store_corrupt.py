#!/usr/bin/env python3
"""Corruption self-test for the binary database index (store layer).

Mutates a known-good index file — truncations at several offsets, single
bit flips in the header, section table, shard directory, residue blob,
the middle of every metadata section (located through the section
table), each 8-byte word of one 256-byte stride of the signature blob and
of the first stride of the SeqOffsets, Permutation, Inverse and IdOffsets
sections (one per checksum lane, 32 each), and final byte, plus
version-1 through version-5 headers — and runs `aalign_index verify` on
every mutant.

The *resealed* mutants edit an offset array, the shard directory, the
permutation or its inverse, then recompute the edited section's checksum
and the header
checksum (a Python port of the format's 32-lane FNV-1a, store/format.h
`Checksum`). They get past every checksum and reach the layout checks:
a residue offset that decreases, one near 2^64 (whose range would wrap
back inside the blob), a final residue offset short of the blob payload,
two lengths out of longest-first order, an id offset that decreases, a
final id offset past the IdBlob, a permutation naming one index twice, an
inverse entry equal to the sequence count, two inverse entries swapped, a
shard count that wraps past 2^64, shard counts that sum to one sequence
fewer or one more than the index holds, and an empty shard whose
neighbour takes its sequences (the counts still add up). One more
reseals a version-5 header, which the version gate rejects.

Each mutant must be REJECTED the structured way:

  * nonzero exit code (a mutant that verifies clean is a checksum or
    layout-check hole),
  * not killed by a signal (a crash on corrupt input is a loader bug),
  * stderr naming a `store.<code>` token (the documented error contract);
    a resealed layout mutant must name `store.bad_layout`, the resealed
    version-5 header `store.bad_version`.

Usage:
  store_corrupt.py --tool build/tools/aalign_index --index db.aidx

Exit code 0 when every mutation is rejected correctly; 1 otherwise, with
one line per failing mutant. Designed to run under ASan in CI (any
out-of-bounds read while parsing a mutant fails the job).
"""

import argparse
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

STORE_ERR = re.compile(r"store\.[a-z_]+")

HEADER_BYTES = 176  # sizeof(store::Header); section table follows
SECTION_ENTRY_BYTES = 32
# store::SectionKind in kind order; the section table holds one entry each.
SECTION_NAMES = (
    "shard_dir", "seq_offsets", "seq_blob", "permutation", "inverse",
    "id_offsets", "id_blob",
    "sig_popcounts", "sig_lengths", "sig_blob",
    "profile_lut_i8", "profile_lut_i16", "profile_lut_i32",
)
SHARD_DIR_SECTION = SECTION_NAMES.index("shard_dir")
SEQ_OFFSETS_SECTION = SECTION_NAMES.index("seq_offsets")
SEQ_BLOB_SECTION = SECTION_NAMES.index("seq_blob")
PERMUTATION_SECTION = SECTION_NAMES.index("permutation")
INVERSE_SECTION = SECTION_NAMES.index("inverse")
ID_OFFSETS_SECTION = SECTION_NAMES.index("id_offsets")
ID_BLOB_SECTION = SECTION_NAMES.index("id_blob")
SIG_BLOB_SECTION = SECTION_NAMES.index("sig_blob")
FORMAT_VERSION_OFFSET = 12  # store::Header::format_version (u32)
HEADER_BYTES_OFFSET = 16  # store::Header::header_bytes (u64)
HEADER_CHECKSUM_OFFSET = 168  # store::Header::header_checksum (u64)
SECTION_CHECKSUM_OFFSET = 24  # store::SectionEntry::checksum (u64)
SEQ_COUNT_OFFSET = 40  # store::Header::seq_count (u64)
RESIDUE_TOTAL_OFFSET = 48  # store::Header::residue_total (u64)
SHARD_COUNT_OFFSET = 56  # store::Header::shard_count (u64)
SHARD_ENTRY_BYTES = 16  # store::ShardEntry: seq_count, checksum
SHARD_SEQ_COUNT = 0  # store::ShardEntry::seq_count (u64)
# The integrity checksum runs 32 FNV-1a lanes over 256-byte strides: word
# k of every stride feeds lane k.
CHECKSUM_LANES = 32
CHECKSUM_STRIDE = 8 * CHECKSUM_LANES
FNV_OFFSET_BASIS = 14695981039346656037
FNV_PRIME = 1099511628211
U64 = (1 << 64) - 1
# A residue offset whose end wraps past 2^64 for any length >= 64.
WRAPPING_OFFSET = (1 << 64) - 64


def fnv1a64(data: bytes, seed: int = FNV_OFFSET_BASIS) -> int:
    """store::fnv1a64: FNV-1a over little-endian u64 words, byte-wise tail."""
    h = seed
    whole = len(data) // 8 * 8
    for (word,) in struct.iter_unpack("<Q", data[:whole]):
        h = ((h ^ word) * FNV_PRIME) & U64
    for byte in data[whole:]:
        h = ((h ^ byte) * FNV_PRIME) & U64
    return h


def checksum(data: bytes) -> int:
    """store::checksum: 32 FNV-1a lanes over 256-byte strides, folded."""
    lanes = [FNV_OFFSET_BASIS ^ k for k in range(CHECKSUM_LANES)]
    whole = len(data) // CHECKSUM_STRIDE * CHECKSUM_STRIDE
    stride = f"<{CHECKSUM_LANES}Q"
    for words in struct.iter_unpack(stride, data[:whole]):
        lanes = [((lane ^ w) * FNV_PRIME) & U64 for lane, w in zip(lanes, words)]
    if whole < len(data):
        lanes[0] = fnv1a64(data[whole:], lanes[0])
    return fnv1a64(struct.pack(stride, *lanes))


def seal_header(m: bytearray) -> bytes:
    """Recomputes the header checksum over the header and section table."""
    (header_bytes,) = struct.unpack_from("<Q", m, HEADER_BYTES_OFFSET)
    struct.pack_into("<Q", m, HEADER_CHECKSUM_OFFSET, 0)
    struct.pack_into("<Q", m, HEADER_CHECKSUM_OFFSET,
                     checksum(bytes(m[:header_bytes])))
    return bytes(m)


def reseal(m: bytearray, index: int) -> bytes:
    """Recomputes section `index`'s checksum, then the header checksum."""
    offset, nbytes = section_range(m, index)
    entry = HEADER_BYTES + index * SECTION_ENTRY_BYTES
    struct.pack_into("<Q", m, entry + SECTION_CHECKSUM_OFFSET,
                     checksum(bytes(m[offset:offset + nbytes])))
    return seal_header(m)


def section_range(data: bytes, index: int):
    """Reads section `index`'s (offset, bytes) out of the section table."""
    at = HEADER_BYTES + index * SECTION_ENTRY_BYTES
    _, _, offset, nbytes, _ = struct.unpack_from("<IIQQQ", data, at)
    return offset, nbytes


def resealed_mutations(data: bytes):
    """Yields (name, mutated_bytes) pairs that every checksum accepts and
    the layout checks must reject."""
    (seq_count,) = struct.unpack_from("<Q", data, SEQ_COUNT_OFFSET)
    (residue_total,) = struct.unpack_from("<Q", data, RESIDUE_TOTAL_OFFSET)
    shard_dir, _ = section_range(data, SHARD_DIR_SECTION)
    seqs, _ = section_range(data, SEQ_OFFSETS_SECTION)
    ids, _ = section_range(data, ID_OFFSETS_SECTION)
    _, id_blob_bytes = section_range(data, ID_BLOB_SECTION)
    perm, _ = section_range(data, PERMUTATION_SECTION)
    inv, _ = section_range(data, INVERSE_SECTION)

    def offset(base, i):
        return struct.unpack_from("<Q", data, base + 8 * i)[0]

    def set_offset(name, base, i, value, section):
        m = bytearray(data)
        struct.pack_into("<Q", m, base + 8 * i, value)
        return name, reseal(m, section)

    # Subject 1's range would start before subject 0's end.
    yield set_offset("resealed_seq_offset_decreases", seqs, 2,
                     offset(seqs, 1) - 1, SEQ_OFFSETS_SECTION)
    # Subject 0's range would end past 2^64 - 64: its end and subject 1's
    # range wrap back inside the blob.
    yield set_offset("resealed_wrapped_seq_offset", seqs, 1, WRAPPING_OFFSET,
                     SEQ_OFFSETS_SECTION)
    # The last subject loses its last residue: the offsets no longer end
    # at the blob payload.
    yield set_offset("resealed_seq_offsets_short", seqs, seq_count,
                     residue_total - 1, SEQ_OFFSETS_SECTION)
    # Subject 0 takes the last subject's length and subject 1 the rest of
    # their residues: no longer longest first.
    last_len = offset(seqs, seq_count) - offset(seqs, seq_count - 1)
    yield set_offset("resealed_seq_lengths_unsorted", seqs, 1,
                     offset(seqs, 0) + last_len, SEQ_OFFSETS_SECTION)
    yield set_offset("resealed_id_offset_decreases", ids, 2,
                     offset(ids, 1) - 1, ID_OFFSETS_SECTION)
    yield set_offset("resealed_id_offsets_past_blob", ids, seq_count,
                     id_blob_bytes + 1, ID_OFFSETS_SECTION)

    m = bytearray(data)
    m[perm + 4:perm + 8] = data[perm:perm + 4]
    yield "resealed_duplicate_permutation", reseal(m, PERMUTATION_SECTION)

    # The inverse must be the permutation's: an entry one past the last
    # position, and two entries swapped (each a valid position).
    m = bytearray(data)
    struct.pack_into("<I", m, inv + 4, seq_count)
    yield "resealed_inverse_past_end", reseal(m, INVERSE_SECTION)
    m = bytearray(data)
    m[inv:inv + 8] = data[inv + 4:inv + 8] + data[inv:inv + 4]
    yield "resealed_inverse_swapped", reseal(m, INVERSE_SECTION)

    m = bytearray(data)
    struct.pack_into("<Q", m, shard_dir + SHARD_SEQ_COUNT, WRAPPING_OFFSET)
    yield "resealed_wrapped_shard_count", reseal(m, SHARD_DIR_SECTION)

    # A shard starts where the one before it ends, so its first sequence
    # is derived, not stored: the counts are what can break the tiling.
    # The first shard's count one short leaves the last sequence in no
    # shard; one long runs the shards past the last sequence. An empty
    # first shard whose successor takes its sequences keeps the sum (in a
    # one-shard index it also comes up short).
    (shard_count,) = struct.unpack_from("<Q", data, SHARD_COUNT_OFFSET)
    counts = [struct.unpack_from("<Q", data, shard_dir + s * SHARD_ENTRY_BYTES
                                 + SHARD_SEQ_COUNT)[0]
              for s in range(min(2, shard_count))]

    def set_counts(name, new_counts):
        m = bytearray(data)
        for s, count in enumerate(new_counts):
            struct.pack_into("<Q", m, shard_dir + s * SHARD_ENTRY_BYTES +
                             SHARD_SEQ_COUNT, count)
        return f"resealed_shard_counts_{name}", reseal(m, SHARD_DIR_SECTION)

    yield set_counts("short", [counts[0] - 1])
    yield set_counts("long", [counts[0] + 1])
    yield set_counts("empty_shard", [0] + [counts[0] + c for c in counts[1:]])


def lane_flips(data: bytes, name: str, stride: int):
    """One bit flip in each 8-byte word of the 256-byte stride at `stride`:
    word k of every stride feeds checksum lane k."""
    for lane in range(CHECKSUM_LANES):
        m = bytearray(data)
        m[stride + 8 * lane + 3] ^= 1 << (lane % 8)
        yield f"flip_{name}_lane{lane}", bytes(m)


def mutations(data: bytes):
    """Yields (name, mutated_bytes) pairs covering every layout region."""
    n = len(data)
    yield "truncate_empty", b""
    yield "truncate_mid_header", data[:100]
    yield "truncate_after_header", data[:256]
    yield "truncate_half", data[: n // 2]
    yield "truncate_last_byte", data[: n - 1]

    def flip(offset, bit=0):
        m = bytearray(data)
        m[offset] ^= 1 << bit
        return bytes(m)

    yield "flip_magic", flip(0)
    yield "flip_endian_tag", flip(8)
    yield "flip_version", flip(12)
    yield "flip_header_mid", flip(100, 3)
    yield "flip_section_table", flip(180, 5)
    shard_dir, _ = section_range(data, SHARD_DIR_SECTION)
    yield "flip_shard_dir", flip(shard_dir + 4, 1)
    yield "flip_blob_mid", flip(n // 2, 7)
    blob_off, blob_bytes = section_range(data, SEQ_BLOB_SECTION)
    if blob_bytes > 0:
        yield "flip_residue_blob", flip(blob_off + blob_bytes // 2, 2)
    # Every metadata section carries its own checksum, verified at open.
    for index, name in enumerate(SECTION_NAMES):
        off, nbytes = section_range(data, index)
        if index != SEQ_BLOB_SECTION and nbytes > 0:
            yield f"flip_in_{name}", flip(off + nbytes // 2, 4)
    # One flip per checksum lane in the stride in the middle of sig_blob
    # (strides are counted from the section's start, so the stride is
    # lane-aligned) and in the first stride of each offset array, the
    # permutation and its inverse.
    off, nbytes = section_range(data, SIG_BLOB_SECTION)
    if nbytes >= CHECKSUM_STRIDE:
        yield from lane_flips(
            data, "sig_blob",
            off + nbytes // 2 // CHECKSUM_STRIDE * CHECKSUM_STRIDE)
    for index in (SEQ_OFFSETS_SECTION, PERMUTATION_SECTION, INVERSE_SECTION,
                  ID_OFFSETS_SECTION):
        off, nbytes = section_range(data, index)
        if nbytes >= CHECKSUM_STRIDE:
            yield from lane_flips(data, SECTION_NAMES[index], off)
    yield "flip_last_byte", flip(n - 1, 6)
    for version in (1, 2, 3, 4, 5):
        m = bytearray(data)
        struct.pack_into("<I", m, FORMAT_VERSION_OFFSET, version)
        yield f"format_version_{version}", bytes(m)
    yield "append_trailing_byte", data + b"\x00"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--tool", required=True, help="path to aalign_index")
    ap.add_argument("--index", required=True, help="known-good index file")
    args = ap.parse_args()

    data = Path(args.index).read_bytes()
    if len(data) < 512:
        print(f"store_corrupt: {args.index} is implausibly small", file=sys.stderr)
        return 1

    # Sanity: the pristine file must verify clean, or every "rejection"
    # below is meaningless.
    clean = subprocess.run(
        [args.tool, "verify", args.index], capture_output=True, text=True
    )
    if clean.returncode != 0:
        print(f"store_corrupt: pristine index failed verify: {clean.stderr.strip()}")
        return 1
    # Resealing an untouched file must reproduce it, or the checksum port
    # is wrong and the resealed mutants test nothing.
    (seq_count,) = struct.unpack_from("<Q", data, SEQ_COUNT_OFFSET)
    if seq_count < 2:
        print(f"store_corrupt: {args.index} holds fewer than 2 sequences")
        return 1
    for index in (SHARD_DIR_SECTION, SEQ_OFFSETS_SECTION, PERMUTATION_SECTION,
                  INVERSE_SECTION, ID_OFFSETS_SECTION):
        if reseal(bytearray(data), index) != data:
            print(f"store_corrupt: resealing section {SECTION_NAMES[index]} "
                  "changed a pristine file (checksum port is wrong)")
            return 1

    cases = [(name, m, None) for name, m in mutations(data)]
    cases += [(name, m, "store.bad_layout")
              for name, m in resealed_mutations(data)]
    m = bytearray(data)
    struct.pack_into("<I", m, FORMAT_VERSION_OFFSET, 5)
    cases.append(("resealed_format_version_5", seal_header(m),
                  "store.bad_version"))
    failures = []
    with tempfile.TemporaryDirectory() as td:
        for name, mutated, want in cases:
            mutant = Path(td) / f"{name}.aidx"
            mutant.write_bytes(mutated)
            proc = subprocess.run(
                [args.tool, "verify", str(mutant)],
                capture_output=True,
                text=True,
                timeout=60,
            )
            if proc.returncode == 0:
                failures.append(f"{name}: accepted a corrupt file (exit 0)")
            elif proc.returncode < 0:
                failures.append(f"{name}: killed by signal {-proc.returncode}")
            elif not STORE_ERR.search(proc.stderr):
                failures.append(
                    f"{name}: exit {proc.returncode} without a store.* token: "
                    f"{proc.stderr.strip()!r}"
                )
            elif want is not None and STORE_ERR.search(proc.stderr).group(0) != want:
                failures.append(
                    f"{name}: rejected with "
                    f"{STORE_ERR.search(proc.stderr).group(0)}, expected {want}"
                )
            else:
                token = STORE_ERR.search(proc.stderr).group(0)
                print(f"store_corrupt: {name:32s} rejected with {token}")

    if failures:
        for f in failures:
            print(f"store_corrupt: FAIL {f}")
        return 1
    print("store_corrupt: all mutations rejected with structured errors")
    return 0


if __name__ == "__main__":
    sys.exit(main())
