#include "core/artifact.h"

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <utility>
#include <vector>

#include "ann/index_io.h"
#include "core/registry.h"
#include "embed/encoder_io.h"
#include "embed/matrix_io.h"

namespace multiem::core {

namespace {

void WriteConfig(util::ByteWriter& out, const MultiEmConfig& config) {
  out.WriteU64(config.embedding_dim);
  out.WriteU64(config.max_tokens);
  out.WriteU8(config.enable_attribute_selection ? 1 : 0);
  out.WriteF64(config.sample_ratio);
  out.WriteF64(config.gamma);
  out.WriteU64(config.k);
  out.WriteF32(config.m);
  out.WriteU8(0);  // retired merged_repr byte; see ReadConfig
  out.WriteU8(0);  // legacy exact-KNN flag; see ReadConfig
  out.WriteU64(config.hnsw_m);
  out.WriteU64(config.hnsw_ef_construction);
  out.WriteU64(config.hnsw_ef_search);
  out.WriteU8(config.enable_pruning ? 1 : 0);
  out.WriteF32(config.eps);
  out.WriteU64(config.min_pts);
  out.WriteU64(config.num_threads);
  out.WriteU64(config.seed);
  out.WriteString(config.encoder_name);
  out.WriteString(config.index_name);
  out.WriteString(config.pruner_name);
}

util::Status ReadConfig(util::ByteReader& in, MultiEmConfig* config) {
  uint64_t u64;
  uint8_t u8;
  MULTIEM_RETURN_IF_ERROR(in.ReadU64(&u64));
  config->embedding_dim = u64;
  MULTIEM_RETURN_IF_ERROR(in.ReadU64(&u64));
  config->max_tokens = u64;
  MULTIEM_RETURN_IF_ERROR(in.ReadU8(&u8));
  config->enable_attribute_selection = u8 != 0;
  MULTIEM_RETURN_IF_ERROR(in.ReadF64(&config->sample_ratio));
  MULTIEM_RETURN_IF_ERROR(in.ReadF64(&config->gamma));
  MULTIEM_RETURN_IF_ERROR(in.ReadU64(&u64));
  config->k = u64;
  MULTIEM_RETURN_IF_ERROR(in.ReadF32(&config->m));
  // Retired merged_repr byte: 0 meant the member centroid, the only
  // merged-item representation left; the removed first-member mode (1) and
  // anything else cannot be served as saved.
  MULTIEM_RETURN_IF_ERROR(in.ReadU8(&u8));
  if (u8 != 0) {
    return util::Status::InvalidArgument(
        "manifest config: unsupported merged-item representation " +
        std::to_string(u8) + " (only 0, the member centroid, is served)");
  }
  // Legacy exact-KNN flag: writers put 0; a 1 comes from a session saved
  // with the since-removed exact-KNN config flag and means index_name
  // "brute_force" (applied below, once the saved index_name is read).
  uint8_t legacy_exact = 0;
  MULTIEM_RETURN_IF_ERROR(in.ReadU8(&legacy_exact));
  MULTIEM_RETURN_IF_ERROR(in.ReadU64(&u64));
  config->hnsw_m = u64;
  MULTIEM_RETURN_IF_ERROR(in.ReadU64(&u64));
  config->hnsw_ef_construction = u64;
  MULTIEM_RETURN_IF_ERROR(in.ReadU64(&u64));
  config->hnsw_ef_search = u64;
  MULTIEM_RETURN_IF_ERROR(in.ReadU8(&u8));
  config->enable_pruning = u8 != 0;
  MULTIEM_RETURN_IF_ERROR(in.ReadF32(&config->eps));
  MULTIEM_RETURN_IF_ERROR(in.ReadU64(&u64));
  config->min_pts = u64;
  MULTIEM_RETURN_IF_ERROR(in.ReadU64(&u64));
  config->num_threads = u64;
  MULTIEM_RETURN_IF_ERROR(in.ReadU64(&config->seed));
  MULTIEM_RETURN_IF_ERROR(in.ReadString(&config->encoder_name));
  MULTIEM_RETURN_IF_ERROR(in.ReadString(&config->index_name));
  MULTIEM_RETURN_IF_ERROR(in.ReadString(&config->pruner_name));
  if (legacy_exact != 0) config->index_name = kBruteForceIndexName;
  return in.ExpectExhausted();
}

std::string PathIn(const std::string& dir, const char* file) {
  return (std::filesystem::path(dir) / file).string();
}

// What a manifest holds for Matcher::Assemble.
struct ManifestContents {
  MultiEmConfig config;
  std::vector<std::string> schema_names;
  AttributeSelection selection;
  std::vector<std::string> source_names;
  EntityEmbeddingStore store;
  MergeTable entities;
  std::vector<uint32_t> slot_to_item;
};

// Parses an opened manifest. Taking the reader by value, it frees every
// section nothing views (an older file's "centroids" rows among them) on
// return.
util::Status ReadManifest(util::ArtifactReader manifest,
                          ManifestContents* out) {
  MultiEmConfig& config = out->config;
  {
    auto section = manifest.Section("config");
    if (!section.ok()) return section.status();
    MULTIEM_RETURN_IF_ERROR(ReadConfig(*section, &config));
  }
  // Optional "quant" section (absent in every unquantized manifest): the
  // quantization knobs the AddTable rebuild factory must reproduce.
  if (manifest.HasSection("quant")) {
    auto section = manifest.Section("quant");
    if (!section.ok()) return section.status();
    uint64_t rerank_factor;
    MULTIEM_RETURN_IF_ERROR(section->ReadString(&config.quantization));
    MULTIEM_RETURN_IF_ERROR(section->ReadU64(&rerank_factor));
    MULTIEM_RETURN_IF_ERROR(section->ExpectExhausted());
    config.rerank_factor = static_cast<size_t>(rerank_factor);
  }
  MULTIEM_RETURN_IF_ERROR(config.ValidateValues());

  {
    auto section = manifest.Section("schema");
    if (!section.ok()) return section.status();
    MULTIEM_RETURN_IF_ERROR(section->ReadStringArray(&out->schema_names));
  }
  {
    auto section = manifest.Section("selection");
    if (!section.ok()) return section.status();
    MULTIEM_RETURN_IF_ERROR(ReadSelection(*section, &out->selection));
  }
  {
    auto section = manifest.Section("sources");
    if (!section.ok()) return section.status();
    MULTIEM_RETURN_IF_ERROR(section->ReadStringArray(&out->source_names));
  }

  // The base matrices stay views over their section (heap block or
  // mapping): they are the session's embeddings.
  {
    auto section = manifest.Section("base");
    if (!section.ok()) return section.status();
    uint64_t num_sources;
    MULTIEM_RETURN_IF_ERROR(section->ReadU64(&num_sources));
    for (uint64_t s = 0; s < num_sources; ++s) {
      embed::EmbeddingMatrix source;
      MULTIEM_RETURN_IF_ERROR(embed::ReadMatrix(*section, &source));
      out->store.AddSource(std::move(source));
    }
    MULTIEM_RETURN_IF_ERROR(section->ExpectExhausted());
  }

  // Tombstones are legal since format v3; older files never carry one, so
  // there a zero-member item is corruption the checksums happened to miss.
  // Files before v4 also carry a derived "centroids" row per item, which is
  // checked for count and width and never read: every item's vector derives
  // from "base" (docs/FORMATS.md).
  auto entities = MergeTable::ReadItems(
      manifest, manifest.version() < 4 ? "centroids" : "",
      out->store.dim(), /*allow_tombstones=*/manifest.version() >= 3);
  if (!entities.ok()) return entities.status();
  out->entities = std::move(*entities);

  // Optional since v2: the slot->item map of an incrementally grown serving
  // index. Absent (every v1 artifact, and identity-mapped sessions) means
  // slot i holds item i's vector; Matcher::Assemble reads an empty map so.
  if (manifest.HasSection("slots")) {
    auto section = manifest.Section("slots");
    if (!section.ok()) return section.status();
    std::vector<uint64_t> slots;
    MULTIEM_RETURN_IF_ERROR(section->ReadU64Array(&slots));
    MULTIEM_RETURN_IF_ERROR(section->ExpectExhausted());
    out->slot_to_item.reserve(slots.size());
    for (uint64_t slot : slots) {
      if (slot > UINT32_MAX) {
        return util::Status::InvalidArgument(
            "manifest slot map entry " + std::to_string(slot) +
            " does not fit 32 bits");
      }
      out->slot_to_item.push_back(static_cast<uint32_t>(slot));
    }
  }
  return util::Status::Ok();
}

}  // namespace

util::Status PipelineArtifact::Save(const Matcher& matcher,
                                    const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return util::Status::Internal("cannot create artifact directory '" + dir +
                                  "': " + ec.message());
  }

  // Serialize against AddTable (and other Saves) and pin the epoch being
  // written. Readers keep serving lock-free meanwhile; the shared_ptr keeps
  // the pinned state alive even if a later writer retires it.
  std::lock_guard<std::mutex> writer(matcher.shared_->write_mu);
  const std::shared_ptr<const Matcher::ServingState> state = matcher.state();

  util::ArtifactWriter manifest(kManifestMagic, kManifestVersion);
  WriteConfig(manifest.AddSection("config"), matcher.fixed_->config);
  manifest.AddSection("schema").WriteStringArray(matcher.fixed_->schema_names);
  WriteSelection(manifest.AddSection("selection"), matcher.fixed_->selection);
  manifest.AddSection("sources").WriteStringArray(state->source_names);

  // Format v3: an item with zero members is a tombstone — a retired entry
  // that keeps later items' ids stable across ingest epochs. It must have
  // no live slot in the "slots" section (Matcher::Assemble enforces this).
  // Format v4 writes no item vectors: each derives from "base".
  state->entities.WriteItems(manifest);

  util::ByteWriter& base = manifest.AddSection("base");
  base.WriteU64(state->store.num_sources());
  for (size_t s = 0; s < state->store.num_sources(); ++s) {
    embed::WriteMatrix(base, state->store.source(s));
  }

  // Format v2: the slot->item map of an incrementally grown index, so a
  // reloaded session filters retired slots exactly like the original. The
  // section is written only when the map is not the identity over the
  // items — identity-mapped sessions (fresh Assemble, compactions without
  // tombstones, AddTable epochs that never merged) stay byte-compatible
  // with what they would have produced before, and load back as the
  // identity.
  const std::vector<uint32_t>& slot_to_item = state->slot_to_item;
  bool identity = slot_to_item.size() == state->entities.num_items();
  for (size_t slot = 0; identity && slot < slot_to_item.size(); ++slot) {
    identity = slot_to_item[slot] == slot;
  }
  if (!identity) {
    std::vector<uint64_t> slots(slot_to_item.begin(), slot_to_item.end());
    manifest.AddSection("slots").WriteU64Array(slots);
  }

  // Optional "quant" section: present only when the pipeline ran with a
  // quantized index. The config section's layout is frozen (forward-compat
  // rule 2 in docs/FORMATS.md: new optional data goes in new sections), so
  // the quantization knobs live here; unquantized manifests stay
  // byte-identical to pre-quantization saves. Old readers are protected
  // regardless — they reject the accompanying v2 index.mem first.
  if (matcher.fixed_->config.quantization != "none") {
    util::ByteWriter& quant = manifest.AddSection("quant");
    quant.WriteString(matcher.fixed_->config.quantization);
    quant.WriteU64(matcher.fixed_->config.rerank_factor);
  }

  // Stage, then publish: all three files are written under staged names
  // first, so a failure partway (disk full, an index kind without Save)
  // cannot leave a directory that mixes this session's manifest with a
  // previous save's index — such a hybrid can pass every load-time check
  // and silently serve stale neighbors. Only after all three staged writes
  // succeed are they renamed into place. The three renames themselves are
  // not one atomic step: a reader racing a concurrent Save of the SAME
  // directory could observe a mix, but concurrent Saves of one matcher
  // serialize on the writer mutex above, and each individual file is still
  // always complete.
  const std::string staged_suffix = ".staged";
  const char* files[] = {kManifestFile, kEncoderFile, kIndexFile};
  auto remove_staged = [&] {
    for (const char* file : files) {
      std::error_code ignored;
      std::filesystem::remove(PathIn(dir, file) + staged_suffix, ignored);
    }
  };
  util::Status status =
      manifest.WriteFile(PathIn(dir, kManifestFile) + staged_suffix);
  if (status.ok()) {
    status = matcher.fixed_->encoder->Save(PathIn(dir, kEncoderFile) +
                                           staged_suffix);
  }
  if (status.ok()) {
    status = state->index->Save(PathIn(dir, kIndexFile) + staged_suffix);
  }
  if (!status.ok()) {
    remove_staged();
    return status;
  }
  for (const char* file : files) {
    std::error_code rename_ec;
    std::filesystem::rename(PathIn(dir, file) + staged_suffix,
                            PathIn(dir, file), rename_ec);
    if (rename_ec) {
      remove_staged();
      return util::Status::Internal("cannot publish staged artifact file '" +
                                    PathIn(dir, file) +
                                    "': " + rename_ec.message());
    }
  }
  return util::Status::Ok();
}

util::Result<Matcher> PipelineArtifact::Load(const std::string& dir) {
  return Load(dir, util::ArtifactOpenOptions{});
}

util::Result<Matcher> PipelineArtifact::Load(
    const std::string& dir, const util::ArtifactOpenOptions& options) {
  // One pass reads all three files, so the index is read while the
  // manifest is still being hashed. They are parsed in file order after,
  // and a damaged file reports just what opening and parsing the files one
  // at a time would: the first failure in that order.
  const util::ArtifactFile files[] = {
      {PathIn(dir, kManifestFile), kManifestMagic, kManifestVersion},
      {PathIn(dir, kEncoderFile), embed::kEncoderArtifactMagic,
       embed::kEncoderArtifactVersion},
      {PathIn(dir, kIndexFile), ann::kIndexArtifactMagic,
       ann::kIndexArtifactVersion}};
  std::vector<util::Result<util::ArtifactReader>> opened =
      util::ArtifactReader::FromFiles(files, options);

  ManifestContents manifest;
  if (!opened[0].ok()) return opened[0].status();
  MULTIEM_RETURN_IF_ERROR(ReadManifest(std::move(*opened[0]), &manifest));
  if (!opened[1].ok()) return opened[1].status();
  auto encoder = embed::LoadTextEncoder(*opened[1]);
  if (!encoder.ok()) return encoder.status();
  if (!opened[2].ok()) return opened[2].status();
  auto index = ann::LoadVectorIndex(*opened[2]);
  if (!index.ok()) return index.status();
  opened.clear();  // sections nothing views are freed before Assemble

  // The index factory backs future AddTable rebuilds; resolve it from the
  // saved config so incremental merges use the same backend the run did.
  auto factory = IndexFactories().Create(manifest.config.index_name,
                                         manifest.config);
  if (!factory.ok()) return factory.status();

  // Matcher::Assemble revalidates the cross-file invariants (index size vs
  // items/slots, slot-map bijectivity, member ids vs base matrices,
  // dimensionalities).
  return Matcher::Assemble(
      std::move(manifest.config), std::move(manifest.schema_names),
      std::move(manifest.selection), std::move(manifest.source_names),
      std::move(manifest.store), std::move(manifest.entities),
      std::shared_ptr<embed::TextEncoder>(std::move(*encoder)),
      std::shared_ptr<const ann::VectorIndexFactory>(std::move(*factory)),
      std::move(*index), /*pool=*/nullptr, std::move(manifest.slot_to_item));
}

}  // namespace multiem::core
