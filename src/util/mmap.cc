#include "util/mmap.h"

#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define MULTIEM_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#else
#define MULTIEM_HAS_MMAP 0
#endif

namespace multiem::util {

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this != &other) {
#if MULTIEM_HAS_MMAP
    if (addr_ != nullptr) ::munmap(addr_, size_);
#endif
    addr_ = std::exchange(other.addr_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

MmapFile::~MmapFile() {
#if MULTIEM_HAS_MMAP
  if (addr_ != nullptr) ::munmap(addr_, size_);
#endif
}

bool MmapFile::Supported() { return MULTIEM_HAS_MMAP != 0; }

Result<MmapFile> MmapFile::Open(const std::string& path) {
#if MULTIEM_HAS_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("file '" + path + "' does not exist");
    }
    return Status::Internal("cannot open '" + path +
                            "': " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Internal("cannot stat '" + path + "': " + err);
  }
  // A directory opens fine and then fails mmap with ENODEV; say what the
  // heap read says of it.
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::InvalidArgument("artifact path is not a regular file");
  }
  MmapFile file;
  file.size_ = static_cast<size_t>(st.st_size);
  if (file.size_ > 0) {
    // PROT_READ + MAP_PRIVATE: the mapping can never dirty the file, and
    // the clean pages are shared with every other process mapping it.
    void* addr = ::mmap(nullptr, file.size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (addr == MAP_FAILED) {
      const std::string err = std::strerror(errno);
      ::close(fd);
      return Status::Internal("cannot mmap '" + path + "': " + err);
    }
    file.addr_ = addr;
  }
  // The mapping survives the descriptor; holding the fd open would only
  // burn a table slot per served artifact.
  ::close(fd);
  return file;
#else
  (void)path;
  return Status::Unimplemented(
      "mmap is not available on this platform; use the heap read path");
#endif
}

void MmapFile::AdviseSequential() const {
#if MULTIEM_HAS_MMAP
  if (addr_ != nullptr) ::madvise(addr_, size_, MADV_SEQUENTIAL);
#endif
}

void MmapFile::AdviseRandom() const {
#if MULTIEM_HAS_MMAP
  if (addr_ != nullptr) ::madvise(addr_, size_, MADV_RANDOM);
#endif
}

void MmapFile::AdviseWillNeed() const {
#if MULTIEM_HAS_MMAP
  if (addr_ != nullptr) ::madvise(addr_, size_, MADV_WILLNEED);
#endif
}

}  // namespace multiem::util
