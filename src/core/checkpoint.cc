#include "core/checkpoint.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <span>
#include <system_error>
#include <utility>

#include "util/io.h"
#include "util/logging.h"
#include "util/timer.h"

namespace multiem::core {

namespace {

// Journal record tags. Unknown tags are skipped on replay so future
// record kinds do not invalidate older readers.
constexpr uint8_t kTagFingerprint = 0;
constexpr uint8_t kTagPhase = 1;
constexpr uint8_t kTagNode = 2;

constexpr const char* kJournalName = "checkpoint.jrnl";

void HashU64(uint64_t value, uint64_t* state) {
  uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<uint8_t>(value >> (8 * i));
  *state = util::Fnv1a64(bytes, 8, *state);
}

void HashString(std::string_view s, uint64_t* state) {
  HashU64(s.size(), state);
  *state = util::Fnv1a64(s.data(), s.size(), *state);
}

void HashDouble(double value, uint64_t* state) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  HashU64(bits, state);
}

}  // namespace

uint64_t ComputeRunFingerprint(const MultiEmConfig& config,
                               const std::vector<table::Table>& tables) {
  uint64_t state = util::kFnv1a64Offset;
  HashString("MULTIEM_RUN_V1", &state);
  // Every config knob that changes the run's outputs. num_threads is
  // deliberately absent (thread-count invariance); component *names* stand
  // in for the components themselves.
  HashU64(config.embedding_dim, &state);
  HashU64(config.max_tokens, &state);
  HashU64(config.enable_attribute_selection ? 1 : 0, &state);
  HashDouble(config.sample_ratio, &state);
  HashDouble(config.gamma, &state);
  HashU64(config.k, &state);
  HashDouble(static_cast<double>(config.m), &state);
  HashU64(0, &state);  // retired merged_repr slot (always the centroid)
  HashU64(config.hnsw_m, &state);
  HashU64(config.hnsw_ef_construction, &state);
  HashU64(config.hnsw_ef_search, &state);
  HashU64(config.enable_pruning ? 1 : 0, &state);
  HashDouble(static_cast<double>(config.eps), &state);
  HashU64(config.min_pts, &state);
  HashU64(config.seed, &state);
  HashString(config.encoder_name, &state);
  HashString(config.index_name, &state);
  HashString(config.pruner_name, &state);
  // Quantization joined the config after this fingerprint's layout was
  // fixed; hashing it only when enabled keeps every unquantized fingerprint
  // (and so every existing fp32 checkpoint directory) valid, as the
  // manifest's optional "quant" section does for artifacts.
  if (config.quantization != "none") {
    HashString(config.quantization, &state);
    HashU64(config.rerank_factor, &state);
  }
  // Input shape: table identity + dimensions + schema. Cell contents are
  // not hashed (runs over million-row corpora would pay a full scan); a
  // caller mutating rows in place between attempts is out of contract.
  HashU64(tables.size(), &state);
  for (const table::Table& t : tables) {
    HashString(t.name(), &state);
    HashU64(t.num_rows(), &state);
    HashU64(t.num_columns(), &state);
    for (const std::string& column : t.schema().names()) {
      HashString(column, &state);
    }
  }
  return state;
}

util::Result<std::unique_ptr<CheckpointLog>> CheckpointLog::Open(
    const std::string& dir, uint64_t fingerprint) {
  util::WallTimer timer;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return util::Status::InvalidArgument("cannot create checkpoint dir '" +
                                         dir + "': " + ec.message());
  }
  util::SweepOrphanTmpFiles(dir);

  const std::string path = (std::filesystem::path(dir) / kJournalName).string();
  auto log = std::unique_ptr<CheckpointLog>(new CheckpointLog());
  log->dir_ = dir;

  std::vector<std::string> records;
  util::Status opened = log->journal_.Open(path, &records);
  if (!opened.ok()) {
    // A journal that cannot be trusted is discarded, not fatal: losing the
    // checkpoint only costs recompute.
    MULTIEM_LOG(kWarning) << "discarding unusable checkpoint journal '" << path
                          << "': " << opened.ToString();
    std::filesystem::remove(path, ec);
    records.clear();
    MULTIEM_RETURN_IF_ERROR(log->journal_.Open(path, &records));
  }

  bool fingerprint_ok = false;
  for (size_t i = 0; i < records.size(); ++i) {
    const std::string& record = records[i];
    util::ByteReader reader(std::span<const uint8_t>(
        reinterpret_cast<const uint8_t*>(record.data()), record.size()));
    uint8_t tag = 0;
    if (!reader.ReadU8(&tag).ok()) continue;
    if (i == 0) {
      uint64_t recorded = 0;
      if (tag != kTagFingerprint || !reader.ReadU64(&recorded).ok() ||
          recorded != fingerprint) {
        MULTIEM_LOG(kWarning)
            << "checkpoint journal '" << path << "' belongs to a different "
            << "run (config or inputs changed); starting over";
        break;
      }
      fingerprint_ok = true;
      continue;
    }
    if (tag == kTagPhase) {
      std::string name, payload;
      if (reader.ReadString(&name).ok() && reader.ReadString(&payload).ok()) {
        log->phases_[std::move(name)] = std::move(payload);
      }
    } else if (tag == kTagNode) {
      NodeEntry entry;
      if (ReadNodeStats(reader, /*has_attempts=*/true, &entry.stats).ok() &&
          reader.ReadString(&entry.spill_path).ok() &&
          reader.ReadU64(&entry.file_bytes).ok() &&
          reader.ReadU64(&entry.file_checksum).ok()) {
        log->nodes_[entry.stats.node] = std::move(entry);
      }
    }
    // Unknown tags: skip (forward compatibility).
  }

  if (!records.empty() && !fingerprint_ok) {
    log->phases_.clear();
    log->nodes_.clear();
    log->journal_.Close();
    std::filesystem::remove(path, ec);
    std::vector<std::string> fresh;
    MULTIEM_RETURN_IF_ERROR(log->journal_.Open(path, &fresh));
    records.clear();
  }
  log->replayed_phases_ = log->phases_.size();
  log->replayed_nodes_ = log->nodes_.size();

  if (records.empty()) {
    util::ByteWriter writer;
    writer.WriteU8(kTagFingerprint);
    writer.WriteU64(fingerprint);
    MULTIEM_RETURN_IF_ERROR(log->AppendRecord(writer));
  }
  if (log->replayed_phases_ > 0 || log->replayed_nodes_ > 0) {
    MULTIEM_LOG(kInfo) << "checkpoint '" << dir << "': resuming with "
                       << log->replayed_phases_ << " phase(s) and "
                       << log->replayed_nodes_ << " merge node(s) journaled";
  }
  log->seconds_ = timer.ElapsedSeconds();
  return log;
}

bool CheckpointLog::HasPhase(std::string_view name) const {
  return phases_.find(name) != phases_.end();
}

const std::string* CheckpointLog::PhasePayload(std::string_view name) const {
  auto it = phases_.find(name);
  return it == phases_.end() ? nullptr : &it->second;
}

util::Status CheckpointLog::RecordPhase(std::string_view name,
                                        std::string_view payload) {
  util::ByteWriter writer;
  writer.WriteU8(kTagPhase);
  writer.WriteString(name);
  writer.WriteString(payload);
  MULTIEM_RETURN_IF_ERROR(AppendRecord(writer));
  phases_[std::string(name)] = std::string(payload);
  return util::Status::Ok();
}

const CheckpointLog::NodeEntry* CheckpointLog::LookupNode(size_t node) const {
  auto it = nodes_.find(node);
  return it == nodes_.end() ? nullptr : &it->second;
}

util::Status CheckpointLog::RecordNode(const NodeEntry& entry) {
  util::ByteWriter writer;
  writer.WriteU8(kTagNode);
  WriteNodeStats(writer, entry.stats);
  writer.WriteString(entry.spill_path);
  writer.WriteU64(entry.file_bytes);
  writer.WriteU64(entry.file_checksum);
  MULTIEM_RETURN_IF_ERROR(AppendRecord(writer));
  nodes_[entry.stats.node] = entry;
  return util::Status::Ok();
}

util::Status CheckpointLog::AppendRecord(const util::ByteWriter& record) {
  util::WallTimer timer;
  const util::Status appended = journal_.Append(std::string_view(
      reinterpret_cast<const char*>(record.bytes().data()), record.size()));
  seconds_ += timer.ElapsedSeconds();
  return appended;
}

util::Result<uint64_t> CheckpointLog::HashSpill(const std::string& path) {
  util::WallTimer timer;
  auto checksum = HashFile(path);
  seconds_ += timer.ElapsedSeconds();
  return checksum;
}

bool CheckpointLog::ValidateSpill(const NodeEntry& entry) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(entry.spill_path, ec);
  if (ec || size != entry.file_bytes) return false;
  auto checksum = HashFile(entry.spill_path);
  return checksum.ok() && *checksum == entry.file_checksum;
}

util::Result<uint64_t> CheckpointLog::HashFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return util::Status::NotFound("cannot open '" + path + "' for hashing");
  }
  uint64_t state = util::kFnv1a64Offset;
  std::vector<uint8_t> buffer(1 << 20);
  size_t got;
  while ((got = std::fread(buffer.data(), 1, buffer.size(), f)) > 0) {
    state = util::Fnv1a64(buffer.data(), got, state);
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) {
    return util::Status::Internal("read error while hashing '" + path + "'");
  }
  return state;
}

}  // namespace multiem::core
