#ifndef MULTIEM_UTIL_JOURNAL_H_
#define MULTIEM_UTIL_JOURNAL_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace multiem::util {

/// `MEMJRNL` — append-only, checksummed record journal (docs/FORMATS.md).
///
/// Layout: a 16-byte header (`u64` magic `MEMJRNL1`, `u32` version, `u32`
/// reserved zero), then records back to back, each
///
///   u32  payload length
///   u64  FNV-1a of the payload bytes
///   ...  payload
///
/// The journal is the crash-safe complement of the atomic artifact writer:
/// artifacts are replaced whole via tmp-and-rename, while progress records
/// are appended and fsynced one at a time. A crash mid-append leaves a *torn
/// tail* — fewer bytes than the last record's frame declares — which replay
/// detects, drops, and truncates away: the journal reopens as of the last
/// complete record. A *complete* record whose checksum mismatches is not a
/// torn write but corruption, and Open fails with InvalidArgument so the
/// caller can discard the journal rather than trust it.
class Journal {
 public:
  static constexpr uint32_t kVersion = 1;

  Journal() = default;
  ~Journal() { Close(); }

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Opens (creating if absent) the journal at `path` for appending, after
  /// replaying every complete record into `replayed` (cleared first). A torn
  /// final record is truncated off; a checksum-mismatched complete record
  /// fails with InvalidArgument and leaves the file untouched, as does a
  /// path that exists but is not a regular file.
  Status Open(const std::string& path, std::vector<std::string>* replayed);

  /// Appends one record and flushes it to disk (fflush + fsync) so it
  /// survives a crash of this process immediately after return.
  Status Append(std::string_view payload);

  /// Closes the underlying file; further Appends fail.
  void Close();

  bool is_open() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
};

/// Deletes every `*.tmp` file directly inside `dir` (non-recursive), logging
/// each removal. Crashed atomic writes (`ArtifactWriter::WriteFile`,
/// `Journal` siblings) orphan such temps; runs sweep them when (re)opening a
/// checkpoint or spill directory. Returns the number removed; a missing
/// directory sweeps zero files.
size_t SweepOrphanTmpFiles(const std::string& dir);

}  // namespace multiem::util

#endif  // MULTIEM_UTIL_JOURNAL_H_
