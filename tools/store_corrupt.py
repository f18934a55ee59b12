#!/usr/bin/env python3
"""Corruption self-test for the binary database index (store layer).

Mutates a known-good index file — truncations at several offsets, single
bit flips in the header, section table, shard directory, residue blob,
the middle of every metadata section (located through the section
table), each 8-byte word of one 32-byte stride of the signature blob
(one per checksum lane), and final byte, plus a version-1 header — and
runs `aalign_index verify` on every mutant.
Each must be REJECTED the structured way:

  * nonzero exit code (a mutant that verifies clean is a checksum hole),
  * not killed by a signal (a crash on corrupt input is a loader bug),
  * stderr naming a `store.<code>` token (the documented error contract).

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
SEQ_BLOB_SECTION = SECTION_NAMES.index("seq_blob")
SIG_BLOB_SECTION = SECTION_NAMES.index("sig_blob")
FORMAT_VERSION_OFFSET = 12  # store::Header::format_version (u32)
# The integrity checksum runs four FNV-1a lanes over 32-byte strides: word
# k of every stride feeds lane k.
CHECKSUM_STRIDE = 32
CHECKSUM_LANES = 4


def section_range(data: bytes, index: int):
    """Reads section `index`'s (offset, bytes) out of the section table."""
    at = HEADER_BYTES + index * SECTION_ENTRY_BYTES
    _, _, offset, nbytes, _ = struct.unpack_from("<IIQQQ", data, at)
    return offset, nbytes


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
    # One flip per checksum lane: each 8-byte word of the 32-byte stride in
    # the middle of sig_blob (sections start 64-byte aligned, so the stride
    # is lane-aligned).
    off, nbytes = section_range(data, SIG_BLOB_SECTION)
    if nbytes >= CHECKSUM_STRIDE:
        stride = off + nbytes // 2 // CHECKSUM_STRIDE * CHECKSUM_STRIDE
        for lane in range(CHECKSUM_LANES):
            yield f"flip_sig_blob_lane{lane}", flip(stride + 8 * lane + 3, lane)
    yield "flip_last_byte", flip(n - 1, 6)
    m = bytearray(data)
    struct.pack_into("<I", m, FORMAT_VERSION_OFFSET, 1)
    yield "format_version_1", bytes(m)
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

    failures = []
    with tempfile.TemporaryDirectory() as td:
        for name, mutated in mutations(data):
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
            else:
                token = STORE_ERR.search(proc.stderr).group(0)
                print(f"store_corrupt: {name:24s} rejected with {token}")

    if failures:
        for f in failures:
            print(f"store_corrupt: FAIL {f}")
        return 1
    print("store_corrupt: all mutations rejected with structured errors")
    return 0


if __name__ == "__main__":
    sys.exit(main())
