#ifndef MULTIEM_EMBED_TEXT_ENCODER_H_
#define MULTIEM_EMBED_TEXT_ENCODER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "embed/embedding.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace multiem::embed {

/// Abstract sentence encoder: maps a text sequence to a fixed-length dense
/// vector (the M of the paper, Section II-B).
///
/// MultiEM treats the encoder as a frozen black box (no fine-tuning). The
/// default implementation here is HashingSentenceEncoder; a real ONNX MiniLM
/// runner can be slotted in behind this interface without touching the
/// pipeline.
class TextEncoder {
 public:
  virtual ~TextEncoder() = default;

  /// Embedding dimensionality (384 for the paper's all-MiniLM-L12-v2).
  virtual size_t dim() const = 0;

  /// Deep copy, including any corpus-dependent state fitted so far. The
  /// pipeline clones a shared (builder-injected) encoder once per Run() and
  /// calls FitCorpus on the clone, so concurrent runs never mutate a shared
  /// instance. Implementations whose state is a plain value copy can simply
  /// `return std::make_unique<Derived>(*this);`.
  virtual std::unique_ptr<TextEncoder> Clone() const = 0;

  /// Hook for corpus-dependent preparation (e.g. SIF frequency fitting).
  /// The pipeline calls this with the serialized entities before encoding
  /// them; encoders with no corpus-dependent state can ignore it. Calling it
  /// again with a new corpus replaces the previous fit.
  virtual void FitCorpus(const std::vector<std::string>& corpus) {
    (void)corpus;
  }

  /// Encodes one text into `out` (length dim()). Must be thread-safe.
  virtual void EncodeInto(std::string_view text, std::span<float> out) const = 0;

  /// Encodes one text, returning a fresh vector.
  std::vector<float> Encode(std::string_view text) const {
    std::vector<float> out(dim(), 0.0f);
    EncodeInto(text, out);
    return out;
  }

  /// Encodes a batch, optionally in parallel over `pool`.
  EmbeddingMatrix EncodeBatch(const std::vector<std::string>& texts,
                              util::ThreadPool* pool = nullptr) const;

  /// Stable artifact tag of this implementation ("hashing"); empty for
  /// encoders without a persistence story. The tag is written into saved
  /// artifacts and selects the loader in LoadTextEncoder (encoder_io.h).
  virtual std::string_view kind() const { return {}; }

  /// Persists the encoder — configuration plus any corpus-fitted state — to
  /// `path` as a MEMENCDR artifact (docs/FORMATS.md; reload with
  /// embed::LoadTextEncoder from encoder_io.h). A loaded encoder produces
  /// bit-identical embeddings without refitting, which is what lets a
  /// serving process answer queries against vectors embedded by another
  /// process. Implementations without persistence keep this default, which
  /// fails with FailedPrecondition instead of writing.
  virtual util::Status Save(const std::string& path) const {
    (void)path;
    return util::Status::FailedPrecondition(
        "this TextEncoder implementation does not support Save");
  }
};

}  // namespace multiem::embed

#endif  // MULTIEM_EMBED_TEXT_ENCODER_H_
