#!/usr/bin/env python3
"""Corruption self-test for the binary database index (store layer).

Mutates a known-good index file — truncations at several offsets, single
bit flips in the header, section table, shard directory, residue blob,
the middle of every metadata section (located through the section
table), each 8-byte word of one 256-byte stride of the signature blob
(one per checksum lane, 32 in all), and final byte, plus version-1,
version-2 and version-3 headers — and runs `aalign_index verify` on every
mutant.

Six more mutants are *resealed*: an edit to the shard directory, the
sequence directory or the permutation, after which the edited section's
checksum and the header checksum are recomputed (a Python port of the
format's 32-lane FNV-1a, store/format.h `Checksum`). They get past
every checksum and reach the layout checks: a residue range whose end
wraps past 2^64 (sequence and shard directory), a sequence directory out
of longest-first order, a permutation naming one index twice, a
sequence directory entry aliasing the previous subject's residues, and
a shard that starts 64 bytes late (a gap the shards no longer tile).

Each mutant must be REJECTED the structured way:

  * nonzero exit code (a mutant that verifies clean is a checksum or
    layout-check hole),
  * not killed by a signal (a crash on corrupt input is a loader bug),
  * stderr naming a `store.<code>` token (the documented error contract);
    a resealed mutant must name `store.bad_layout`.

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
    "shard_dir", "seq_dir", "id_blob", "seq_blob", "permutation",
    "sig_popcounts", "sig_lengths", "sig_blob",
    "profile_lut_i8", "profile_lut_i16", "profile_lut_i32",
)
SHARD_DIR_SECTION = SECTION_NAMES.index("shard_dir")
SEQ_DIR_SECTION = SECTION_NAMES.index("seq_dir")
SEQ_BLOB_SECTION = SECTION_NAMES.index("seq_blob")
PERMUTATION_SECTION = SECTION_NAMES.index("permutation")
SIG_BLOB_SECTION = SECTION_NAMES.index("sig_blob")
FORMAT_VERSION_OFFSET = 12  # store::Header::format_version (u32)
HEADER_BYTES_OFFSET = 16  # store::Header::header_bytes (u64)
HEADER_CHECKSUM_OFFSET = 168  # store::Header::header_checksum (u64)
SECTION_CHECKSUM_OFFSET = 24  # store::SectionEntry::checksum (u64)
SEQ_COUNT_OFFSET = 40  # store::Header::seq_count (u64)
SEQ_ENTRY_BYTES = 32  # store::SeqEntry: residue_offset, length, id range
SHARD_ENTRY_BYTES = 64  # store::ShardEntry
SHARD_BLOB_OFFSET = 16  # store::ShardEntry::blob_offset (u64)
SHARD_BLOB_BYTES = 24  # store::ShardEntry::blob_bytes (u64)
SHARD_COUNT_OFFSET = 56  # store::Header::shard_count (u64)
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


def reseal(m: bytearray, index: int) -> bytes:
    """Recomputes section `index`'s checksum, then the header checksum."""
    offset, nbytes = section_range(m, index)
    entry = HEADER_BYTES + index * SECTION_ENTRY_BYTES
    struct.pack_into("<Q", m, entry + SECTION_CHECKSUM_OFFSET,
                     checksum(bytes(m[offset:offset + nbytes])))
    (header_bytes,) = struct.unpack_from("<Q", m, HEADER_BYTES_OFFSET)
    struct.pack_into("<Q", m, HEADER_CHECKSUM_OFFSET, 0)
    struct.pack_into("<Q", m, HEADER_CHECKSUM_OFFSET,
                     checksum(bytes(m[:header_bytes])))
    return bytes(m)


def section_range(data: bytes, index: int):
    """Reads section `index`'s (offset, bytes) out of the section table."""
    at = HEADER_BYTES + index * SECTION_ENTRY_BYTES
    _, _, offset, nbytes, _ = struct.unpack_from("<IIQQQ", data, at)
    return offset, nbytes


def resealed_mutations(data: bytes):
    """Yields (name, mutated_bytes) pairs that every checksum accepts."""
    (seq_count,) = struct.unpack_from("<Q", data, SEQ_COUNT_OFFSET)
    shard_dir, _ = section_range(data, SHARD_DIR_SECTION)
    seq_dir, _ = section_range(data, SEQ_DIR_SECTION)
    perm, _ = section_range(data, PERMUTATION_SECTION)
    last = seq_dir + (seq_count - 1) * SEQ_ENTRY_BYTES

    m = bytearray(data)
    struct.pack_into("<Q", m, seq_dir, WRAPPING_OFFSET)
    yield "resealed_wrapped_seq_dir_offset", reseal(m, SEQ_DIR_SECTION)

    m = bytearray(data)
    struct.pack_into("<Q", m, shard_dir + SHARD_BLOB_OFFSET, WRAPPING_OFFSET)
    yield "resealed_wrapped_shard_offset", reseal(m, SHARD_DIR_SECTION)

    m = bytearray(data)
    first_entry = data[seq_dir:seq_dir + SEQ_ENTRY_BYTES]
    m[seq_dir:seq_dir + SEQ_ENTRY_BYTES] = data[last:last + SEQ_ENTRY_BYTES]
    m[last:last + SEQ_ENTRY_BYTES] = first_entry
    yield "resealed_seq_dir_unsorted", reseal(m, SEQ_DIR_SECTION)

    m = bytearray(data)
    m[perm + 8:perm + 16] = data[perm:perm + 8]
    yield "resealed_duplicate_permutation", reseal(m, PERMUTATION_SECTION)

    # Subject 1 reads subject 0's residues (no longer than them: the
    # directory is longest first, so the range stays inside the blob).
    m = bytearray(data)
    m[seq_dir + SEQ_ENTRY_BYTES:seq_dir + SEQ_ENTRY_BYTES + 8] = \
        data[seq_dir:seq_dir + 8]
    yield "resealed_seq_dir_alias", reseal(m, SEQ_DIR_SECTION)

    # The second shard (the first, in a one-shard index) starts 64 bytes
    # late and ends where it did, so its range stays inside the blob.
    (shard_count,) = struct.unpack_from("<Q", data, SHARD_COUNT_OFFSET)
    entry = shard_dir + min(1, shard_count - 1) * SHARD_ENTRY_BYTES
    m = bytearray(data)
    for field, delta in ((SHARD_BLOB_OFFSET, 64), (SHARD_BLOB_BYTES, -64)):
        (value,) = struct.unpack_from("<Q", data, entry + field)
        struct.pack_into("<Q", m, entry + field, value + delta)
    yield "resealed_shard_blob_gap", reseal(m, SHARD_DIR_SECTION)


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
    yield "flip_shard_dir", flip(260, 1)
    yield "flip_blob_mid", flip(n // 2, 7)
    blob_off, blob_bytes = section_range(data, SEQ_BLOB_SECTION)
    if blob_bytes > 0:
        yield "flip_residue_blob", flip(blob_off + blob_bytes // 2, 2)
    # Every metadata section carries its own checksum, verified at open.
    for index, name in enumerate(SECTION_NAMES):
        off, nbytes = section_range(data, index)
        if index != SEQ_BLOB_SECTION and nbytes > 0:
            yield f"flip_in_{name}", flip(off + nbytes // 2, 4)
    # One flip per checksum lane: each 8-byte word of the 256-byte stride
    # in the middle of sig_blob (strides are counted from the section's
    # start, so the stride is lane-aligned).
    off, nbytes = section_range(data, SIG_BLOB_SECTION)
    if nbytes >= CHECKSUM_STRIDE:
        stride = off + nbytes // 2 // CHECKSUM_STRIDE * CHECKSUM_STRIDE
        for lane in range(CHECKSUM_LANES):
            yield f"flip_sig_blob_lane{lane}", flip(stride + 8 * lane + 3, lane % 8)
    yield "flip_last_byte", flip(n - 1, 6)
    for version in (1, 2, 3):
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
    for index in (SHARD_DIR_SECTION, SEQ_DIR_SECTION, PERMUTATION_SECTION):
        if reseal(bytearray(data), index) != data:
            print(f"store_corrupt: resealing section {SECTION_NAMES[index]} "
                  "changed a pristine file (checksum port is wrong)")
            return 1

    cases = [(name, m, None) for name, m in mutations(data)]
    cases += [(name, m, "store.bad_layout")
              for name, m in resealed_mutations(data)]
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
