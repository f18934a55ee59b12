// Read-only memory-mapped file (the substrate of store::MappedIndex).
//
// One MappedFile is shared — via shared_ptr — by every Database and
// SignatureIndex served from it, so the mapping lives exactly as long as
// any zero-copy view into it; N processes mapping the same file share one
// page-cache-resident copy. POSIX mmap only (the project's CI targets);
// an empty file maps to a null region of size 0, which is legal.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace aalign::store {

class MappedFile {
 public:
  // Maps `path` read-only. Throws StoreError(StoreErrc::IoError) when the
  // file cannot be opened, statted, or mapped.
  static std::shared_ptr<const MappedFile> map(const std::string& path);

  ~MappedFile();
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }
  const std::string& path() const { return path_; }

  // Bounds-checked typed view: nullptr is never returned — out-of-range
  // access throws StoreError(StoreErrc::Truncated) naming the range.
  const std::uint8_t* range(std::uint64_t offset, std::uint64_t bytes) const;

  // Drops this process's resident copy of every page lying wholly inside
  // [offset, offset + bytes) (MADV_DONTNEED); a range that runs to the end
  // of the file also takes the file's last, partial page. The contents do
  // not change: the next read faults the page back in from the page
  // cache. Pages the range only partly covers stay, so a neighbouring
  // region is never touched. Advisory; a failure is ignored.
  void release(std::uint64_t offset, std::uint64_t bytes) const;

  // Makes the pages from the first page boundary at or after `offset` to
  // the end of the file a mapping (VMA) of their own, so a fault below
  // the boundary never maps a page above it: the kernel maps page-cache
  // folios of up to 2 MiB whole, but clips them at VMA bounds. A second
  // mmap of the range would merge back into its neighbour, so this marks
  // the range MADV_DONTDUMP (Linux), a VMA flag that keeps it apart and
  // changes no read. Advisory; a failure leaves the mapping whole.
  void split_at(std::uint64_t offset) const;

 private:
  MappedFile() = default;

  std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::string path_;
};

}  // namespace aalign::store
