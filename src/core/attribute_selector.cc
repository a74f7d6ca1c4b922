#include "core/attribute_selector.h"

#include "embed/embedding.h"
#include "embed/serialize.h"

namespace multiem::core {

void WriteSelection(util::ByteWriter& out,
                    const AttributeSelection& selection) {
  const std::vector<uint64_t> columns(selection.selected_columns.begin(),
                                      selection.selected_columns.end());
  out.WriteU64Array(columns);
  out.WriteF64Array(selection.shuffle_similarity);
  out.WriteStringArray(selection.selected_names);
}

util::Status ReadSelection(util::ByteReader& in, AttributeSelection* out) {
  std::vector<uint64_t> columns;
  MULTIEM_RETURN_IF_ERROR(in.ReadU64Array(&columns));
  out->selected_columns.assign(columns.begin(), columns.end());
  MULTIEM_RETURN_IF_ERROR(in.ReadF64Array(&out->shuffle_similarity));
  MULTIEM_RETURN_IF_ERROR(in.ReadStringArray(&out->selected_names));
  return in.ExpectExhausted();
}

util::Result<AttributeSelection> AttributeSelector::Run(
    const std::vector<table::Table>& tables, util::ThreadPool* pool) const {
  // Line 1: concatenate all tables into one.
  auto concat = table::Concat(tables);
  if (!concat.ok()) return concat.status();

  // Line 2: sample rows (ratio r).
  util::Rng rng(config_.seed ^ 0xA77251ULL);
  table::Table sample = table::SampleRows(*concat, config_.sample_ratio, rng);
  if (sample.num_rows() == 0) {
    return util::Status::InvalidArgument(
        "attribute selection: no rows to sample");
  }

  // Line 3: initial embeddings of the (full-schema) serializations.
  std::vector<std::string> base_texts = embed::SerializeTable(sample);
  embed::EmbeddingMatrix base = encoder_->EncodeBatch(base_texts, pool);

  AttributeSelection out;
  size_t num_columns = sample.num_columns();
  out.shuffle_similarity.resize(num_columns, 1.0);

  // Lines 5-11: per-attribute shuffle, re-embed, score. The shuffles are
  // drawn serially up front — ShuffleColumn consumes one deterministic rng
  // stream, so reordering the draws would change the selection for a given
  // seed. Everything after the draw (serialize, re-embed, score) is
  // independent per column and fans out across the pool; scores land in
  // indexed slots and the selection is assembled in column order below, so
  // the result is invariant to the thread count (gated by
  // core_test SelectionInvariantAcrossThreadCounts).
  std::vector<table::Table> shuffled;
  shuffled.reserve(num_columns);
  for (size_t col = 0; col < num_columns; ++col) {
    shuffled.push_back(table::ShuffleColumn(sample, col, rng));
  }
  util::ParallelFor(pool, num_columns, [&](size_t col) {
    std::vector<std::string> texts = embed::SerializeTable(shuffled[col]);
    // Nested fan-out: with fewer columns than workers, each column's
    // EncodeBatch still spreads its rows over the pool (TaskGroup::Wait
    // helps, so nesting never deadlocks).
    embed::EmbeddingMatrix perturbed = encoder_->EncodeBatch(texts, pool);
    double total = 0.0;
    for (size_t r = 0; r < base.num_rows(); ++r) {
      total += embed::CosineSimilarity(base.Row(r), perturbed.Row(r));
    }
    out.shuffle_similarity[col] = total / static_cast<double>(base.num_rows());
  });
  for (size_t col = 0; col < num_columns; ++col) {
    if (out.shuffle_similarity[col] <= config_.gamma) {
      out.selected_columns.push_back(col);
    }
  }

  // Fallback: keep everything rather than represent entities with nothing.
  if (out.selected_columns.empty()) {
    for (size_t col = 0; col < num_columns; ++col) {
      out.selected_columns.push_back(col);
    }
  }
  for (size_t col : out.selected_columns) {
    out.selected_names.push_back(sample.schema().name(col));
  }
  return out;
}

}  // namespace multiem::core
