#include "seq/fasta.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "simd/primitives.h"

namespace aalign::seq {

namespace {

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

// The text before the first header may hold only blank lines (a lone
// '\r' included) and ';' comments.
void check_preamble(const char* p, const char* end) {
  while (p < end) {
    const char* nl = static_cast<const char*>(
        std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
    const char* eol = nl ? nl : end;
    const bool blank = p == eol || (eol - p == 1 && *p == '\r');
    if (!blank && *p != ';') {
      throw std::runtime_error("FASTA: sequence data before any '>' header");
    }
    p = nl ? nl + 1 : end;
  }
}

}  // namespace

std::vector<Sequence> parse_fasta(std::string_view text, simd::IsaKind isa) {
  const simd::SqueezeFn squeeze = simd::primitives(isa).squeeze;
  std::vector<Sequence> out;
  const char* const end = text.data() + text.size();
  const char* h = next_header(text.data(), end);
  check_preamble(text.data(), h);
  while (h < end) {
    const char* nl = static_cast<const char*>(
        std::memchr(h, '\n', static_cast<std::size_t>(end - h)));
    const char* id_end = nl ? nl : end;
    if (id_end > h + 1 && id_end[-1] == '\r') --id_end;
    const char* body = nl ? nl + 1 : end;
    const char* next = next_header(body, end);
    Sequence& s = out.emplace_back();
    s.id.assign(h + 1, id_end);
    s.residues.resize(static_cast<std::size_t>(next - body));
    s.residues.resize(squeeze(body, s.residues.size(), s.residues.data()));
    h = next;
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
