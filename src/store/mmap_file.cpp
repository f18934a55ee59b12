#include "store/mmap_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "store/format.h"

namespace aalign::store {

std::shared_ptr<const MappedFile> MappedFile::map(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw StoreError(StoreErrc::IoError,
                     "cannot open " + path + ": " + std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    throw StoreError(StoreErrc::IoError,
                     "cannot stat " + path + ": " + std::strerror(err));
  }
  auto file = std::shared_ptr<MappedFile>(new MappedFile());
  file->path_ = path;
  file->size_ = static_cast<std::size_t>(st.st_size);
  if (file->size_ != 0) {
    void* addr = ::mmap(nullptr, file->size_, PROT_READ, MAP_SHARED, fd, 0);
    if (addr == MAP_FAILED) {
      const int err = errno;
      ::close(fd);
      throw StoreError(StoreErrc::IoError,
                       "cannot mmap " + path + ": " + std::strerror(err));
    }
    file->data_ = static_cast<std::uint8_t*>(addr);
  }
  // The mapping survives the descriptor; nothing else needs the fd.
  ::close(fd);
  return file;
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) ::munmap(data_, size_);
}

const std::uint8_t* MappedFile::range(std::uint64_t offset,
                                      std::uint64_t bytes) const {
  if (offset > size_ || bytes > size_ - offset) {
    throw StoreError(StoreErrc::Truncated,
                     path_ + ": range [" + std::to_string(offset) + ", +" +
                         std::to_string(bytes) + ") exceeds mapped size " +
                         std::to_string(size_));
  }
  return data_ + offset;
}

namespace {

std::uint64_t page_bytes() {
  return static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

std::uint64_t page_ceil(std::uint64_t n, std::uint64_t page) {
  return (n + page - 1) / page * page;
}

}  // namespace

void MappedFile::release(std::uint64_t offset, std::uint64_t bytes) const {
  range(offset, bytes);  // bounds check
  const std::uint64_t page = page_bytes();
  const std::uint64_t end = offset + bytes;
  const std::uint64_t lo = page_ceil(offset, page);
  // Past the end of the file the last page has no neighbour to spare.
  const std::uint64_t hi = end == size_ ? page_ceil(end, page)
                                        : end / page * page;
  if (hi > lo) ::madvise(data_ + lo, hi - lo, MADV_DONTNEED);
}

void MappedFile::split_at(std::uint64_t offset) const {
  range(offset, 0);  // bounds check
  const std::uint64_t page = page_bytes();
  const std::uint64_t lo = page_ceil(offset, page);
  const std::uint64_t hi = page_ceil(size_, page);
  if (hi > lo) ::madvise(data_ + lo, hi - lo, MADV_DONTDUMP);
}

}  // namespace aalign::store
