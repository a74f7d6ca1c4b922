/// \file attribute_selector.h
/// Automated attribute selection, Section III-B / Algorithm 1 of the paper.
/// On a row sample of ratio r, each column is judged by how much shuffling
/// its values displaces the entity embeddings: mean cosine similarity
/// between original and column-shuffled embeddings <= gamma means the
/// attribute carries identity signal and is kept (Example 1 of the paper).
/// Table VII reports the selections this reproduces per dataset.

#ifndef MULTIEM_CORE_ATTRIBUTE_SELECTOR_H_
#define MULTIEM_CORE_ATTRIBUTE_SELECTOR_H_

#include <string>
#include <vector>

#include "core/config.h"
#include "embed/text_encoder.h"
#include "table/table.h"
#include "util/io.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace multiem::core {

/// Outcome of automated attribute selection (Algorithm 1 of the paper).
struct AttributeSelection {
  /// Column indices selected for entity representation, in schema order.
  std::vector<size_t> selected_columns;
  /// Per-column mean cosine similarity between original and column-shuffled
  /// embeddings. A *low* value means shuffling the column displaced the
  /// embeddings a lot, i.e. the attribute carries signal (Example 1).
  std::vector<double> shuffle_similarity;
  /// Names of the selected attributes (Table VII reporting).
  std::vector<std::string> selected_names;
};

/// The one codec of an AttributeSelection: the u64 array of selected
/// columns, the f64 array of shuffle similarities, then the string array
/// of selected names. The manifest's "selection" section and the
/// checkpoint journal's selection payload are both exactly these bytes.
void WriteSelection(util::ByteWriter& out, const AttributeSelection& selection);

/// Reads what WriteSelection wrote; `in` must hold nothing else. Every
/// count is bounded by the bytes left before anything is reserved.
util::Status ReadSelection(util::ByteReader& in, AttributeSelection* out);

/// Implements Algorithm 1: for each attribute, shuffle its values across the
/// (sampled) concatenated table, re-embed, and measure how far embeddings
/// moved. Attributes whose shuffle similarity is <= gamma are selected.
///
/// Note on the threshold direction: the paper's pseudo-code appends an
/// attribute when "sim >= gamma", but its own Example 1 establishes that
/// *significant* attributes produce *lower* original-vs-shuffled similarity
/// (album: 0.79 vs id: 0.91). We follow the example (and Table VII's
/// outcome): select iff similarity <= gamma. If nothing passes the
/// threshold, all attributes are kept as a fallback so representation never
/// collapses to an empty serialization.
class AttributeSelector {
 public:
  /// `encoder` must already be prepared (FitCorpus) on the corpus. Any
  /// TextEncoder works; the concrete type is chosen by the pipeline through
  /// the encoder registry or the builder.
  AttributeSelector(const embed::TextEncoder* encoder,
                    const MultiEmConfig& config)
      : encoder_(encoder), config_(config) {}

  /// Runs selection over the concatenation of `tables` (all must share a
  /// schema). Deterministic given config_.seed.
  util::Result<AttributeSelection> Run(
      const std::vector<table::Table>& tables,
      util::ThreadPool* pool = nullptr) const;

 private:
  const embed::TextEncoder* encoder_;
  MultiEmConfig config_;
};

}  // namespace multiem::core

#endif  // MULTIEM_CORE_ATTRIBUTE_SELECTOR_H_
