/// \file mmap.h
/// Read-only memory-mapped files for zero-copy artifact serving.
///
/// MmapFile maps a whole file read-only and exposes it as a byte span. The
/// mapping is private (CoW) so a serving process can never write back, and
/// the kernel shares the clean pages between every process mapping the same
/// artifact — N serving processes pay for one copy of the index. On
/// platforms without mmap (`Supported()` returns false) Open fails with
/// Unimplemented and callers fall back to heap reads; nothing in the loading
/// stack hard-requires the syscall.

#ifndef MULTIEM_UTIL_MMAP_H_
#define MULTIEM_UTIL_MMAP_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "util/status.h"

namespace multiem::util {

/// RAII read-only mapping of one file. Move-only; the destructor unmaps.
class MmapFile {
 public:
  MmapFile() = default;
  ~MmapFile();

  MmapFile(MmapFile&& other) noexcept { *this = std::move(other); }
  MmapFile& operator=(MmapFile&& other) noexcept;
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  /// Whether this build/platform can map files at all.
  static bool Supported();

  /// Maps `path` read-only. Fails with NotFound when the file does not
  /// exist, InvalidArgument when `path` is not a regular file (a
  /// directory, say), Unimplemented when the platform has no mmap, and
  /// Internal for other syscall failures. An empty file maps to an empty
  /// span.
  static Result<MmapFile> Open(const std::string& path);

  /// The mapped bytes; valid until destruction.
  std::span<const uint8_t> bytes() const { return {data(), size_}; }
  const uint8_t* data() const { return static_cast<const uint8_t*>(addr_); }
  size_t size() const { return size_; }
  bool valid() const { return addr_ != nullptr || size_ == 0; }

  /// Access-pattern hints (madvise); best-effort no-ops where unsupported.
  /// Sequential suits the open-time checksum sweep, Random the serving
  /// phase's graph walks, WillNeed asks for eager read-ahead of everything.
  void AdviseSequential() const;
  void AdviseRandom() const;
  void AdviseWillNeed() const;

 private:
  void* addr_ = nullptr;
  size_t size_ = 0;
};

}  // namespace multiem::util

#endif  // MULTIEM_UTIL_MMAP_H_
