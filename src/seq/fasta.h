// Minimal, robust FASTA I/O. Real databases (Swiss-Prot, nr) can be dropped
// into the benchmark harness through this reader; the synthetic generators
// write the same format so every tool in the repo speaks FASTA.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "seq/sequence.h"
#include "simd/isa.h"

namespace aalign::seq {

// Parses all records from FASTA text. Accepts multi-line records, CRLF
// line endings, old-style ';' comment lines and '*'-terminated protein
// records; skips blank lines and drops whitespace inside residue lines.
// A record's body runs from its header line to the next line that starts
// with '>' (memchr), and its residues are that body squeezed in one pass
// (the `squeeze` of simd::primitives(isa)): the whitespace and the ';'
// comment lines dropped, the rest copied. The text before the first header
// may hold only blank and ';' lines; anything else there throws
// std::runtime_error.
std::vector<Sequence> parse_fasta(
    std::string_view text, simd::IsaKind isa = simd::best_available_isa());

// parse_fasta over a whole file, read with one open, fstat and read into
// one buffer; a pipe or procfs file, which reports no size, is read on to
// its end. Throws std::runtime_error naming the path and the system error
// when the file cannot be opened or any read fails (a directory included).
std::vector<Sequence> read_fasta_file(const std::string& path);

void write_fasta(std::ostream& out, const std::vector<Sequence>& seqs,
                 int wrap = 70);
void write_fasta_file(const std::string& path,
                      const std::vector<Sequence>& seqs, int wrap = 70);

}  // namespace aalign::seq
