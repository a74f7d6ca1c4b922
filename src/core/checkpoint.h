/// \file checkpoint.h
/// Crash-safe progress log of one pipeline run.
///
/// A run given a `RunContext::checkpoint_dir` appends one MEMJRNL record
/// (util/journal.h) per durable unit of progress — a completed pipeline
/// phase, or a merge-plan node whose MEMMERGT spill landed on disk — each
/// fsynced before the pipeline moves on. A resumed run replays the journal,
/// re-validates every referenced spill artifact byte-for-byte (size + FNV-1a
/// against the journaled values), and skips exactly the work whose outputs
/// survived; anything missing, torn, or corrupt silently degrades to
/// recompute. Because every phase and every merge node is a deterministic
/// function of (inputs, config, seed), a run resumed any number of times
/// produces bitwise-identical tuples and artifacts to an uninterrupted one —
/// the crash-kill harness in tests/checkpoint_test.cpp asserts that.
///
/// The journal is keyed by a run fingerprint (config + input shape); a
/// checkpoint_dir reused with different inputs or knobs starts over instead
/// of resuming someone else's progress. See docs/API.md "Crash safety &
/// resume" for the full contract.

#ifndef MULTIEM_CORE_CHECKPOINT_H_
#define MULTIEM_CORE_CHECKPOINT_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.h"
#include "core/merge_plan.h"
#include "table/table.h"
#include "util/io.h"
#include "util/journal.h"
#include "util/status.h"

namespace multiem::core {

/// Identifies a (config, inputs) pair for checkpoint compatibility: the
/// deterministic config knobs plus every table's name, row count, and
/// schema. num_threads is excluded — results are thread-count invariant, so
/// a run may legitimately resume with a different pool size.
uint64_t ComputeRunFingerprint(const MultiEmConfig& config,
                               const std::vector<table::Table>& tables);

/// The replayed + appendable progress log under one checkpoint directory.
class CheckpointLog {
 public:
  /// One journaled merge-plan node: its executed counters plus the identity
  /// of the MEMMERGT spill holding its output.
  struct NodeEntry {
    MergeNodeStats stats;
    std::string spill_path;
    uint64_t file_bytes = 0;
    uint64_t file_checksum = 0;  ///< FNV-1a of the whole spill file
  };

  /// Opens (creating if needed) `dir` and its `checkpoint.jrnl`, sweeping
  /// orphaned `*.tmp` files first. An unreadable, corrupt, or
  /// fingerprint-mismatched journal is logged and discarded — the run
  /// starts fresh rather than failing or resuming foreign progress. Only
  /// real I/O errors (unwritable directory) surface as a Status.
  static util::Result<std::unique_ptr<CheckpointLog>> Open(
      const std::string& dir, uint64_t fingerprint);

  /// True when phase `name` completed in a journaled earlier attempt.
  bool HasPhase(std::string_view name) const;

  /// The payload recorded with phase `name`, or nullptr when absent.
  const std::string* PhasePayload(std::string_view name) const;

  /// Journals completion of phase `name` (fsynced before returning).
  util::Status RecordPhase(std::string_view name,
                           std::string_view payload = {});

  /// The journaled entry for merge-plan node `node`, or nullptr.
  const NodeEntry* LookupNode(size_t node) const;

  /// Journals one executed merge node (fsynced before returning).
  util::Status RecordNode(const NodeEntry& entry);

  /// HashFile of a spill this run wrote, for its NodeEntry; the time it
  /// takes counts toward seconds().
  util::Result<uint64_t> HashSpill(const std::string& path);

  /// True when the journaled spill still exists with the journaled size and
  /// checksum — the gate before any journaled node is trusted on resume.
  static bool ValidateSpill(const NodeEntry& entry);

  /// FNV-1a over a whole file, streamed; NotFound when absent.
  static util::Result<uint64_t> HashFile(const std::string& path);

  const std::string& dir() const { return dir_; }
  /// Wall seconds this log has spent on the run's behalf: opening and
  /// replaying the journal, every append with its fsync, and HashSpill.
  /// What checkpointing adds to a fresh run beyond the spills themselves.
  double seconds() const { return seconds_; }
  /// Nodes replayed from earlier attempts (before this run appended any).
  size_t replayed_nodes() const { return replayed_nodes_; }
  size_t replayed_phases() const { return replayed_phases_; }

 private:
  CheckpointLog() = default;

  /// Appends one record to the journal (fsynced), timed into seconds_.
  util::Status AppendRecord(const util::ByteWriter& record);

  std::string dir_;
  util::Journal journal_;
  std::map<std::string, std::string, std::less<>> phases_;
  std::map<size_t, NodeEntry> nodes_;
  size_t replayed_nodes_ = 0;
  size_t replayed_phases_ = 0;
  double seconds_ = 0.0;
};

}  // namespace multiem::core

#endif  // MULTIEM_CORE_CHECKPOINT_H_
