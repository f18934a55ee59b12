// Minimal, robust FASTA I/O. Real databases (Swiss-Prot, nr) can be dropped
// into the benchmark harness through this reader; the synthetic generators
// write the same format so every tool in the repo speaks FASTA.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "seq/sequence.h"

namespace aalign::seq {

// Parses all records from FASTA text. Accepts multi-line records, CRLF
// line endings, old-style ';' comment lines and '*'-terminated protein
// records; skips blank lines and drops whitespace inside residue lines.
// One pass over the text: lines are split with memchr, a residue line is
// appended whole unless a vectorized whitespace test finds a blank in it,
// and each record's residue string is reserved once, up to the next line
// that starts with '>'. Throws std::runtime_error on data before the first
// header.
std::vector<Sequence> parse_fasta(std::string_view text);

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
