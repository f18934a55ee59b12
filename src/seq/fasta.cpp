#include "seq/fasta.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>

namespace aalign::seq {

namespace {

// std::isspace in the "C" locale (no code here changes the locale),
// inlined: ' ' and '\t' '\n' '\v' '\f' '\r'.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

// Whether `line` holds any is_space byte: an OR reduction without an early
// exit, so the compiler vectorizes it.
bool has_space(std::string_view line) {
  unsigned char any = 0;
  for (const char ch : line) {
    const auto c = static_cast<unsigned char>(ch);
    any |= static_cast<unsigned char>(
        (c == ' ') | (static_cast<unsigned char>(c - '\t') <= '\r' - '\t'));
  }
  return any != 0;
}

// The first line at or after the line start `p` that starts with '>', or
// `end`: the bytes before it bound the current record's residues.
const char* next_header(const char* p, const char* end) {
  for (const char* s = p; s < end; ++s) {
    s = static_cast<const char*>(
        std::memchr(s, '>', static_cast<std::size_t>(end - s)));
    if (s == nullptr) return end;
    if (s == p || s[-1] == '\n') return s;
  }
  return end;
}

}  // namespace

std::vector<Sequence> parse_fasta(std::string_view text) {
  std::vector<Sequence> out;
  const char* p = text.data();
  const char* const end = p + text.size();
  while (p < end) {
    const char* nl = static_cast<const char*>(
        std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
    std::string_view line(p, static_cast<std::size_t>((nl ? nl : end) - p));
    p = nl ? nl + 1 : end;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    if (line[0] == '>') {
      out.push_back(Sequence{std::string(line.substr(1)), ""});
      out.back().residues.reserve(
          static_cast<std::size_t>(next_header(p, end) - p));
      continue;
    }
    if (line[0] == ';') continue;  // old-style comment lines
    if (out.empty()) {
      throw std::runtime_error("FASTA: sequence data before any '>' header");
    }
    std::string& residues = out.back().residues;
    if (!has_space(line)) {
      residues.append(line);
    } else {
      std::copy_if(line.begin(), line.end(), std::back_inserter(residues),
                   [](char c) { return !is_space(c); });
    }
  }
  return out;
}

std::vector<Sequence> read_fasta_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw std::runtime_error("FASTA: cannot open " + path + ": " +
                             std::strerror(errno));
  }
  const struct Closer {
    int fd;
    ~Closer() { ::close(fd); }
  } closer{fd};
  // One read of the size fstat reports, plus one byte so that the next
  // read sees the end; a pipe or procfs file reports no size and is read
  // on, the buffer doubling as it fills.
  struct stat st {};
  std::size_t cap = std::size_t{1} << 16;
  if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)) {
    cap = std::max(cap, static_cast<std::size_t>(st.st_size) + 1);
  }
  auto buf = std::make_unique_for_overwrite<char[]>(cap);
  std::size_t len = 0;
  for (;;) {
    if (len == cap) {
      auto grown = std::make_unique_for_overwrite<char[]>(cap * 2);
      std::memcpy(grown.get(), buf.get(), len);
      buf = std::move(grown);
      cap *= 2;
    }
    const ssize_t n = ::read(fd, buf.get() + len, cap - len);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("FASTA: cannot read " + path + ": " +
                               std::strerror(errno));
    }
    len += static_cast<std::size_t>(n);
  }
  return parse_fasta(std::string_view(buf.get(), len));
}

void write_fasta(std::ostream& out, const std::vector<Sequence>& seqs,
                 int wrap) {
  for (const Sequence& s : seqs) {
    out << '>' << s.id << '\n';
    if (wrap <= 0) {
      out << s.residues << '\n';
      continue;
    }
    for (std::size_t pos = 0; pos < s.residues.size();
         pos += static_cast<std::size_t>(wrap)) {
      out << s.residues.substr(pos, static_cast<std::size_t>(wrap)) << '\n';
    }
  }
}

void write_fasta_file(const std::string& path,
                      const std::vector<Sequence>& seqs, int wrap) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("FASTA: cannot open " + path);
  write_fasta(out, seqs, wrap);
}

}  // namespace aalign::seq
