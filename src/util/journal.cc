#include "util/journal.h"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "util/io.h"
#include "util/logging.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define MULTIEM_JOURNAL_HAS_FSYNC 1
#endif

namespace multiem::util {
namespace {

constexpr uint64_t kJournalMagic = ArtifactMagic("MEMJRNL1");
constexpr size_t kHeaderBytes = 16;   // magic u64 + version u32 + reserved u32
constexpr size_t kFrameBytes = 12;    // length u32 + checksum u64
// A journal records phase/node progress, not bulk data; anything past this is
// garbage, not a record.
constexpr uint32_t kMaxRecordBytes = 1u << 28;

uint32_t LoadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

uint64_t LoadU64(const uint8_t* p) {
  uint64_t value = 0;
  for (int i = 7; i >= 0; --i) value = (value << 8) | p[i];
  return value;
}

void StoreU32(uint32_t value, uint8_t* p) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<uint8_t>(value >> (8 * i));
}

void StoreU64(uint64_t value, uint8_t* p) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(value >> (8 * i));
}

Status ReadWholeFile(const std::string& path, std::vector<uint8_t>* bytes) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open journal '" + path + "'");
  }
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  if (size < 0) {
    std::fclose(f);
    return Status::Internal("cannot size journal '" + path + "'");
  }
  std::fseek(f, 0, SEEK_SET);
  bytes->resize(static_cast<size_t>(size));
  if (size > 0 &&
      std::fread(bytes->data(), 1, bytes->size(), f) != bytes->size()) {
    std::fclose(f);
    return Status::Internal("short read of journal '" + path + "'");
  }
  std::fclose(f);
  return Status::Ok();
}

}  // namespace

Status Journal::Open(const std::string& path,
                     std::vector<std::string>* replayed) {
  if (is_open()) {
    return Status::FailedPrecondition("journal is already open");
  }
  if (replayed != nullptr) replayed->clear();

  size_t good_end = kHeaderBytes;
  std::error_code stat_ec;
  const std::filesystem::file_status status =
      std::filesystem::status(path, stat_ec);
  bool existed = std::filesystem::exists(status);
  // A directory opens fine and then "measures" 2^63-1 bytes through
  // fseek/ftell on ext4, which no buffer can hold.
  if (existed && !std::filesystem::is_regular_file(status)) {
    return Status::InvalidArgument("journal path '" + path +
                                   "' is not a regular file");
  }
  if (existed) {
    std::vector<uint8_t> bytes;
    MULTIEM_RETURN_IF_ERROR(ReadWholeFile(path, &bytes));
    if (bytes.size() < kHeaderBytes) {
      // Crash before even the header landed: start the journal over.
      existed = false;
    } else {
      if (LoadU64(bytes.data()) != kJournalMagic) {
        return Status::InvalidArgument("'" + path +
                                       "' is not a MEMJRNL journal");
      }
      uint32_t version = LoadU32(bytes.data() + 8);
      if (version == 0 || version > kVersion) {
        return Status::FailedPrecondition(
            "journal '" + path + "' has version " + std::to_string(version) +
            "; this build reads up to " + std::to_string(kVersion));
      }
      size_t pos = kHeaderBytes;
      while (pos < bytes.size()) {
        if (bytes.size() - pos < kFrameBytes) break;  // torn frame
        uint32_t len = LoadU32(bytes.data() + pos);
        uint64_t checksum = LoadU64(bytes.data() + pos + 4);
        if (len > kMaxRecordBytes) {
          return Status::InvalidArgument(
              "journal '" + path + "' record at offset " +
              std::to_string(pos) + " declares implausible length " +
              std::to_string(len));
        }
        if (bytes.size() - pos - kFrameBytes < len) break;  // torn payload
        const uint8_t* payload = bytes.data() + pos + kFrameBytes;
        if (Fnv1a64(payload, len) != checksum) {
          return Status::InvalidArgument(
              "journal '" + path + "' record at offset " +
              std::to_string(pos) + " fails its checksum");
        }
        if (replayed != nullptr) {
          replayed->emplace_back(reinterpret_cast<const char*>(payload), len);
        }
        pos += kFrameBytes + len;
        good_end = pos;
      }
      if (good_end < bytes.size()) {
        MULTIEM_LOG(kWarning)
            << "journal '" << path << "': dropping torn tail ("
            << bytes.size() - good_end << " bytes past the last complete "
            << "record)";
        std::error_code ec;
        std::filesystem::resize_file(path, good_end, ec);
        if (ec) {
          return Status::Internal("cannot truncate torn journal '" + path +
                                  "': " + ec.message());
        }
      }
    }
  }

  if (!existed) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      return Status::InvalidArgument("cannot create journal '" + path +
                                     "': " + std::strerror(errno));
    }
    uint8_t header[kHeaderBytes] = {};
    StoreU64(kJournalMagic, header);
    StoreU32(kVersion, header + 8);
    if (std::fwrite(header, 1, kHeaderBytes, f) != kHeaderBytes) {
      std::fclose(f);
      std::remove(path.c_str());
      return Status::Internal("cannot write journal header to '" + path + "'");
    }
    std::fclose(f);
  }

  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) {
    return Status::InvalidArgument("cannot open journal '" + path +
                                   "' for appending: " + std::strerror(errno));
  }
  path_ = path;
  return Status::Ok();
}

Status Journal::Append(std::string_view payload) {
  if (!is_open()) {
    return Status::FailedPrecondition("journal is not open");
  }
  if (payload.size() > kMaxRecordBytes) {
    return Status::InvalidArgument("journal record too large");
  }
  uint8_t frame[kFrameBytes];
  StoreU32(static_cast<uint32_t>(payload.size()), frame);
  StoreU64(Fnv1a64(payload.data(), payload.size()), frame + 4);
  if (std::fwrite(frame, 1, kFrameBytes, file_) != kFrameBytes ||
      (!payload.empty() &&
       std::fwrite(payload.data(), 1, payload.size(), file_) !=
           payload.size()) ||
      std::fflush(file_) != 0) {
    return Status::Internal("cannot append to journal '" + path_ + "'");
  }
#ifdef MULTIEM_JOURNAL_HAS_FSYNC
  if (fsync(fileno(file_)) != 0) {
    return Status::Internal("cannot fsync journal '" + path_ + "'");
  }
#endif
  return Status::Ok();
}

void Journal::Close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

size_t SweepOrphanTmpFiles(const std::string& dir) {
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) return 0;
  size_t removed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (ec) break;
    if (!entry.is_regular_file(ec)) continue;
    const std::filesystem::path& p = entry.path();
    if (p.extension() != ".tmp") continue;
    std::error_code rm_ec;
    if (std::filesystem::remove(p, rm_ec) && !rm_ec) {
      MULTIEM_LOG(kInfo) << "swept orphaned temp file '" << p.string() << "'";
      ++removed;
    }
  }
  return removed;
}

}  // namespace multiem::util
