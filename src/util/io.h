/// \file io.h
/// The shared on-disk container behind every MultiEM artifact (saved ANN
/// indexes, fitted encoders, pipeline manifests — see docs/FORMATS.md for
/// the byte-level spec).
///
/// One artifact file is: a fixed 24-byte header (per-artifact-kind magic,
/// format version, section count, section-table offset), the section
/// payloads back to back, then a section table (name, offset, size, FNV-1a
/// checksum per section) itself protected by a trailing checksum. All
/// integers are little-endian regardless of host byte order, so an artifact
/// written on one machine loads on any other.
///
/// Writing is append-only and deterministic: the same logical content always
/// produces the same bytes, which is what lets CI gate on byte-identical
/// re-saves. Reading is fully validated up front — ArtifactReader::FromFile
/// verifies magic, version, table bounds, and every section checksum before
/// returning, so corrupt or truncated files fail with a clear util::Status
/// and never reach the typed readers. A heap open reads each section into
/// its own aligned block, so the typed readers can alias its slabs in place
/// exactly as they alias a mapping. ArtifactReader::FromFiles opens several
/// files in one pass, so the checksums of one hide under the read of the
/// next.

#ifndef MULTIEM_UTIL_IO_H_
#define MULTIEM_UTIL_IO_H_

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/memory.h"
#include "util/status.h"

namespace multiem::util {

class ThreadPool;

/// 64-bit FNV-1a over `size` bytes, continuing from `state` (pass the
/// default to start a fresh hash), so hashing A then B from A's result
/// equals hashing A‖B. Byte-order independent; used as the per-section
/// corruption check of the artifact container. Builds with AVX-512 BW +
/// VBMI and PCLMUL compute it blockwise, 512 bytes at a time, bit-identical
/// to the byte loop, which every other build runs and which also hashes
/// the last bytes of a run that fill no whole 512-byte group.
inline constexpr uint64_t kFnv1a64Offset = 0xcbf29ce484222325ULL;
uint64_t Fnv1a64(const void* data, size_t size,
                 uint64_t state = kFnv1a64Offset);

/// True when this binary computes Fnv1a64 with the blockwise AVX-512 kernel
/// rather than the byte loop alone.
bool Fnv1a64SimdEnabled();

/// Packs an 8-character ASCII tag into the little-endian u64 artifact magic
/// (the tag reads verbatim in a hexdump of the first 8 file bytes).
constexpr uint64_t ArtifactMagic(const char (&tag)[9]) {
  uint64_t magic = 0;
  for (int i = 7; i >= 0; --i) {
    magic = (magic << 8) | static_cast<uint8_t>(tag[i]);
  }
  return magic;
}

/// Every section payload starts on a 64-byte (cache-line) boundary within
/// the container, with deterministic zero padding in the gaps. Combined with
/// the typed-array encoding (a u64 count, then the raw little-endian
/// elements, so array data sits 8 bytes past any 8-byte-aligned point) this
/// makes every flat slab in an artifact directly addressable in place — the
/// alignment guarantee the mmap zero-copy load path relies on. A heap open
/// gets the same guarantee from the blocks it reads each section into,
/// which are aligned to this boundary too (to kHugeBlockBytes for a section
/// of at least that size). Pre-alignment files (any artifact
/// written before this padding existed) still load through the same
/// readers; under mmap they just may fall back to copying slabs whose mapped
/// address is misaligned for the element type.
inline constexpr size_t kSectionAlignBytes = 64;

/// A heap open reads each section of at least this many bytes (2 MiB, one
/// x86-64 huge page) into a block of its own pages aligned to this size and
/// advised MADV_HUGEPAGE before the first byte lands, so that where
/// transparent huge pages are enabled (`always` or `madvise`) the read
/// faults once per 2 MiB rather than once per 4 KiB. Where they are off, or
/// the platform has no such advice, the block is plain 4 KiB pages, as a
/// smaller section's block is. The tail past the last 2 MiB boundary of a
/// block stays in 4 KiB pages, so a block never holds more memory than its
/// section.
inline constexpr size_t kHugeBlockBytes = size_t{2} << 20;

/// How an artifact file should be opened and verified.
struct ArtifactOpenOptions {
  enum class Mapping {
    kDisable,  ///< Heap read, one aligned block per section. The default.
    kPrefer,   ///< mmap when the platform supports it, else heap.
    kRequire,  ///< mmap or fail (tests; "I need page sharing").
  };
  enum class Verify {
    /// Validate header, bounds, the section table's checksum, and every
    /// section payload checksum before returning. The default. A heap open
    /// of at least 1 MiB of payload checks each section's checksum on one
    /// helper thread while the next bytes are still being read, so the
    /// sweep costs little beyond the read; it returns exactly what reading
    /// everything first and sweeping after would (read and padding errors
    /// before any checksum mismatch, the first mismatch in file order),
    /// and the helper is joined before the open returns. Under FromFiles
    /// the helper keeps hashing while the next file is read.
    kFull,
    /// Validate header, bounds, and the table checksum only, skipping the
    /// O(file size) payload sweep. For re-opening artifacts this process
    /// (or a trusted peer) just wrote and verified: reload-to-first-query
    /// becomes O(pages actually touched). Semantic validation in the typed
    /// loaders still runs; flipped payload bytes surface there or not at all.
    kStructural,
  };

  Mapping mapping = Mapping::kDisable;
  Verify verify = Verify::kFull;
  /// When set, a mapped open (and a heap open of less than 1 MiB of
  /// payload) verifies payload checksums in parallel across sections on
  /// this pool; a larger heap open hashes behind its read instead (see
  /// kFull). The FNV-1a sweep reads every payload byte once, at 0.4–0.5 ns
  /// per byte with the AVX-512 kernel and 1.5–2.1 ns with the byte loop
  /// (4-vCPU AVX-512 Xeon VM). Loaders also use it via
  /// ArtifactReader::load_pool() for their own validation passes, such as
  /// the HNSW link checks.
  ThreadPool* verify_pool = nullptr;
  /// Mapped opens only: first-touch every page of the image right after
  /// validation (parallel on verify_pool when set), so cold-cache page
  /// faults are paid up front by many threads instead of one by one on the
  /// serving path. Pointless with Verify::kFull, whose checksum sweep
  /// already reads every byte; it pays on kStructural opens of cold files,
  /// trading a slower open for a warm first query. No-op for heap reads.
  bool warm_pages = false;
};

/// Append-only little-endian byte buffer: the assembly surface for one
/// artifact section. Fixed-width writes only; strings and arrays carry
/// explicit lengths, so the stream is self-describing given its schema.
class ByteWriter {
 public:
  void WriteU8(uint8_t v) { bytes_.push_back(v); }
  void WriteU16(uint16_t v) { AppendLe(v, 2); }
  void WriteU32(uint32_t v) { AppendLe(v, 4); }
  void WriteU64(uint64_t v) { AppendLe(v, 8); }
  void WriteI32(int32_t v) { AppendLe(static_cast<uint32_t>(v), 4); }
  /// IEEE-754 bit patterns, little-endian.
  void WriteF32(float v);
  void WriteF64(double v);
  /// u32 byte length + UTF-8 bytes (no terminator).
  void WriteString(std::string_view s);
  void WriteBytes(const void* data, size_t size);

  /// Typed bulk arrays: u64 element count + the elements.
  void WriteI8Array(std::span<const int8_t> values);
  void WriteU16Array(std::span<const uint16_t> values);
  void WriteU32Array(std::span<const uint32_t> values);
  void WriteU64Array(std::span<const uint64_t> values);
  void WriteI32Array(std::span<const int32_t> values);
  void WriteF32Array(std::span<const float> values);
  void WriteF64Array(std::span<const double> values);

  /// Makes room for `bytes` more bytes, so a writer that appends a known
  /// amount in pieces allocates once instead of growing by doubling.
  void Reserve(size_t bytes) { bytes_.reserve(bytes_.size() + bytes); }

  /// u64 element count + each element as WriteString writes it.
  void WriteStringArray(std::span<const std::string> values);

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  size_t size() const { return bytes_.size(); }

 private:
  void AppendLe(uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<uint8_t> bytes_;
};

/// Bounds-checked little-endian reader over one section's bytes. Every read
/// returns OutOfRange instead of walking past the end, so a schema mismatch
/// degrades to a Status, never UB.
///
/// `owner`, when set, keeps `data` alive. Readers from
/// ArtifactReader::Section carry their section's owner — its heap block, the
/// mapping, or the FromBytes image — so they (and any view ReadArrayCow
/// binds) stay valid after the ArtifactReader itself is gone. Without an
/// owner the caller keeps the bytes alive and ReadArrayCow always copies.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data,
                      std::shared_ptr<const void> owner = nullptr)
      : data_(data), owner_(std::move(owner)) {}

  Status ReadU8(uint8_t* out);
  Status ReadU16(uint16_t* out);
  Status ReadU32(uint32_t* out);
  Status ReadU64(uint64_t* out);
  Status ReadI32(int32_t* out);
  Status ReadF32(float* out);
  Status ReadF64(double* out);
  Status ReadString(std::string* out);

  /// Typed bulk arrays (the ByteWriter Write*Array counterparts). The
  /// element count is validated against the remaining bytes before any
  /// allocation, so a corrupted count cannot trigger an overlarge reserve.
  Status ReadU32Array(std::vector<uint32_t>* out) { return ReadArrayInto(out); }
  Status ReadU64Array(std::vector<uint64_t>* out) { return ReadArrayInto(out); }
  Status ReadI32Array(std::vector<int32_t>* out) { return ReadArrayInto(out); }
  Status ReadF32Array(std::vector<float>* out) { return ReadArrayInto(out); }
  Status ReadF64Array(std::vector<double>* out) { return ReadArrayInto(out); }

  /// Same, into any contiguous vector-like container of 1/2/4/8-byte
  /// elements (util::CacheAlignedVector included) — this is the zero-
  /// temporary path big loaders use to read a slab straight into its final
  /// member: one bounds check, then (on little-endian hosts, where the wire
  /// image is the memory image) one memcpy.
  template <typename Vec>
  Status ReadArrayInto(Vec* out) {
    using T = typename Vec::value_type;
    static_assert(sizeof(T) == 1 || sizeof(T) == 2 || sizeof(T) == 4 ||
                      sizeof(T) == 8,
                  "arrays hold 1/2/4/8-byte elements");
    uint64_t count;
    MULTIEM_RETURN_IF_ERROR(ReadU64(&count));
    // Validate before allocating: a corrupt count must not drive an
    // overlarge resize (and count * sizeof(T) below cannot overflow).
    if (count > remaining() / sizeof(T)) {
      return Status::OutOfRange(
          "binary array count " + std::to_string(count) + " exceeds the " +
          std::to_string(remaining()) + " remaining section bytes");
    }
    out->resize(static_cast<size_t>(count));
    const uint8_t* p;
    MULTIEM_RETURN_IF_ERROR(Take(static_cast<size_t>(count) * sizeof(T), &p));
    DecodeArray(p, static_cast<size_t>(count), out->data());
    return Status::Ok();
  }

  /// Zero-copy variant: binds `out` as a *view* over the array's wire bytes
  /// when that is sound — this reader has an owner (it becomes the view's
  /// keepalive), the host is little-endian (wire image == memory image), and
  /// the array's address is aligned for T — and otherwise falls back to an
  /// owned copy, bit-identical either way. This is how the flat HNSW slabs
  /// and entity-table columns serve straight from the loaded section, heap
  /// block or mapped pages alike.
  template <typename T, typename Alloc>
  Status ReadArrayCow(CowSlab<T, Alloc>* out) {
    static_assert(sizeof(T) == 1 || sizeof(T) == 2 || sizeof(T) == 4 ||
                      sizeof(T) == 8,
                  "arrays hold 1/2/4/8-byte elements");
    uint64_t count;
    MULTIEM_RETURN_IF_ERROR(ReadU64(&count));
    if (count > remaining() / sizeof(T)) {
      return Status::OutOfRange(
          "binary array count " + std::to_string(count) + " exceeds the " +
          std::to_string(remaining()) + " remaining section bytes");
    }
    const uint8_t* p;
    MULTIEM_RETURN_IF_ERROR(Take(static_cast<size_t>(count) * sizeof(T), &p));
    const bool can_view =
        owner_ != nullptr && std::endian::native == std::endian::little &&
        reinterpret_cast<uintptr_t>(p) % alignof(T) == 0;
    if (can_view) {
      out->BindView(std::span<const T>(reinterpret_cast<const T*>(p),
                                       static_cast<size_t>(count)),
                    owner_);
    } else {
      out->clear();
      out->resize(static_cast<size_t>(count));
      DecodeArray(p, static_cast<size_t>(count), out->data());
    }
    return Status::Ok();
  }

  /// The WriteStringArray counterpart. Each element costs at least its u32
  /// length, so a count larger than a quarter of the remaining bytes is
  /// InvalidArgument before anything is reserved.
  Status ReadStringArray(std::vector<std::string>* out);

  /// Bytes not yet consumed.
  size_t remaining() const { return data_.size() - pos_; }

  /// InvalidArgument when trailing bytes remain — call after the last field
  /// to reject sections longer than their schema (a symptom of reading a
  /// newer writer's layout with an older reader).
  Status ExpectExhausted() const;

 private:
  Status Take(size_t n, const uint8_t** out);

  /// Decodes `count` wire elements at `p` into `out` (one memcpy on
  /// little-endian hosts, an element loop elsewhere).
  template <typename T>
  static void DecodeArray(const uint8_t* p, size_t count, T* out) {
    // An empty vector's data() may be null, and memcpy(nullptr, p, 0) is
    // undefined behaviour.
    if (count == 0) return;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out, p, count * sizeof(T));
    } else {
      for (size_t i = 0; i < count; ++i) {
        uint64_t bits = 0;
        for (size_t b = sizeof(T); b-- > 0;) {
          bits = (bits << 8) | p[i * sizeof(T) + b];
        }
        if constexpr (sizeof(T) == 1) {
          const uint8_t narrow = static_cast<uint8_t>(bits);
          std::memcpy(&out[i], &narrow, sizeof(T));
        } else if constexpr (sizeof(T) == 2) {
          const uint16_t narrow = static_cast<uint16_t>(bits);
          std::memcpy(&out[i], &narrow, sizeof(T));
        } else if constexpr (sizeof(T) == 4) {
          const uint32_t narrow = static_cast<uint32_t>(bits);
          std::memcpy(&out[i], &narrow, sizeof(T));
        } else {
          std::memcpy(&out[i], &bits, sizeof(T));
        }
      }
    }
  }

  std::span<const uint8_t> data_;
  std::shared_ptr<const void> owner_;
  size_t pos_ = 0;
};

/// Assembles one artifact: named sections appended in call order, then
/// WriteFile/Serialize emits header + payloads + checksummed section table.
/// Section names must be unique; writers emit sections in a fixed order so
/// equal content means equal bytes. WriteFile streams the image into the
/// file piece by piece, so writing holds no copy of it beyond the section
/// payloads themselves.
class ArtifactWriter {
 public:
  /// `magic` identifies the artifact kind (use ArtifactMagic("MEMINDEX"));
  /// `version` is that kind's format version, starting at 1.
  ArtifactWriter(uint64_t magic, uint32_t version)
      : magic_(magic), version_(version) {}

  /// Starts (or aborts on a duplicate name) a new section and returns its
  /// payload buffer; valid until the next AddSection call.
  ByteWriter& AddSection(std::string name);

  /// The complete artifact image: the bytes WriteFile writes.
  std::vector<uint8_t> Serialize() const;

  /// Writes the artifact to `path` (atomically via a same-directory temp
  /// file + rename, so readers never observe a torn file).
  Status WriteFile(const std::string& path) const;

 private:
  uint64_t magic_;
  uint32_t version_;
  std::vector<std::pair<std::string, ByteWriter>> sections_;
};

/// One file for ArtifactReader::FromFiles: its path and the artifact kind
/// and version range expected there (as FromFile takes them).
struct ArtifactFile {
  std::string path;
  uint64_t magic = 0;
  uint32_t max_version = 0;
};

/// Opens and fully validates one artifact: magic, version, section-table
/// bounds and order, the table's own checksum, the zero padding, and every
/// section checksum. After FromFile/FromBytes succeeds, Section() lookups
/// cannot fail for any reason other than a missing name.
///
/// Each section's bytes have an owner that Section() hands to its
/// ByteReader: on a heap open, a block holding just that section (64-byte
/// aligned, or a huge-page block for a section of at least kHugeBlockBytes);
/// on a mapped open, the mapping; for FromBytes, the image. A heap section
/// is therefore freed as soon as neither this reader nor any view bound to
/// it is left — parse-only sections with the reader, slabs with their last
/// view.
class ArtifactReader {
 public:
  /// Reads `path` expecting artifact kind `magic` at a version in
  /// [1, max_version]. Distinguishes the failure classes callers branch on:
  ///  * NotFound          — the file does not exist;
  ///  * InvalidArgument   — not a regular file, wrong magic, truncation,
  ///    out-of-bounds, overlapping or out-of-order sections, or a checksum
  ///    mismatch;
  ///  * FailedPrecondition — a version newer than `max_version` (the file is
  ///    valid, this build is just too old to read it).
  static Result<ArtifactReader> FromFile(const std::string& path,
                                         uint64_t magic,
                                         uint32_t max_version);

  /// As above, with explicit open behavior: `options.mapping` selects the
  /// heap read (default), mmap-with-fallback, or mmap-or-fail;
  /// `options.verify`/`options.verify_pool` control the checksum sweep (see
  /// ArtifactOpenOptions). A mapped reader shares its pages with every other
  /// process serving the same artifact, and its Section() bytes point
  /// straight into the mapping.
  static Result<ArtifactReader> FromFile(const std::string& path,
                                         uint64_t magic, uint32_t max_version,
                                         const ArtifactOpenOptions& options);

  /// Opens every file of `files` with `options`, in order, and returns one
  /// Result per file: exactly the Result FromFile returns for that file
  /// alone (FromFile is FromFiles over one file). The files are read one
  /// after another on the calling thread. A heap Verify::kFull open of at
  /// least 1 MiB of payload hashes behind its read on its own helper
  /// thread, and that helper keeps hashing while the next files are read,
  /// so their reads hide its checksum sweep. Every helper is joined before
  /// FromFiles returns, and only the calling thread allocates.
  static std::vector<Result<ArtifactReader>> FromFiles(
      std::span<const ArtifactFile> files, const ArtifactOpenOptions& options);

  /// Same validation over an in-memory image (tests, transport).
  static Result<ArtifactReader> FromBytes(std::vector<uint8_t> bytes,
                                          uint64_t magic,
                                          uint32_t max_version);

  /// The artifact's format version (1-based).
  uint32_t version() const { return version_; }

  bool HasSection(std::string_view name) const;

  /// Sorted names of all sections (diagnostics, forward-compat probing).
  std::vector<std::string> SectionNames() const;

  /// A reader positioned at the start of section `name`, carrying the
  /// section's owner, or NotFound listing the sections present.
  Result<ByteReader> Section(std::string_view name) const;

  /// True when this reader serves from an mmap'd file rather than heap
  /// blocks.
  bool mapped() const { return mapped_; }

  /// The pool FromFile was opened with (options.verify_pool), or null.
  /// Loaders may use it for their own parallel validation; it must outlive
  /// the load call, not the reader's whole lifetime.
  ThreadPool* load_pool() const { return load_pool_; }

  /// False when the file was opened with Verify::kStructural — the caller
  /// vouched for the payload bytes, so typed loaders may in turn skip their
  /// O(content) semantic sweeps and keep reload latency proportional to the
  /// pages actually touched.
  bool deep_verify() const { return deep_verify_; }

 private:
  /// Container bytes in memory plus the handle keeping them alive.
  struct Extent {
    const uint8_t* data = nullptr;
    std::shared_ptr<const void> owner;
  };
  /// Called by a fetch that reads its bytes in pieces, with the count of
  /// leading bytes in place so far.
  using LandedFn = std::function<void(size_t bytes)>;
  /// Produces the `size` container bytes at file offset `offset`. A fetch
  /// that reads them sets `*out` before the first byte lands and calls
  /// `landed`, when set, after each piece.
  using FetchFn = std::function<Status(size_t offset, size_t size, Extent*,
                                       const LandedFn& landed)>;

  /// Hashes one heap open's payloads on a helper thread behind its read;
  /// defined in io.cc.
  class HashBehindRead;

  struct SectionEntry {
    std::string name;
    size_t offset;  ///< Payload offset in the file.
    size_t size;
    uint64_t checksum;
    Extent bytes;
  };

  ArtifactReader() = default;

  /// Opens `file` into this reader as FromFile does, every error naming
  /// the path. A heap open is given `helper`: when a kFull open starts it,
  /// Ok means only that the read succeeded, and the checksum verdict is
  /// ChecksumStatus of the helper's Join.
  Status Open(const ArtifactFile& file, const ArtifactOpenOptions& options,
              HashBehindRead* helper);

  /// Validates the `file_size`-byte container whose bytes `fetch` produces
  /// and fills version_ and sections_. Every fetch lies inside the file
  /// and no two overlap, so a heap open allocates at most the file's size.
  /// `helper` is given when `fetch` reads the bytes in (a heap open): a
  /// large kFull open starts it to hash them as they land, and then leaves
  /// the checksum verdict to the caller.
  Status Init(size_t file_size, const FetchFn& fetch, HashBehindRead* helper,
              uint64_t magic, uint32_t max_version,
              const ArtifactOpenOptions& options);

  /// InvalidArgument naming section `first_bad` as corrupt, or Ok when it
  /// is sections_.size().
  Status ChecksumStatus(size_t first_bad) const;

  /// The index of the first section, in file order, whose payload does not
  /// hash to its checksum, or sections_.size(). With `landed` it hashes
  /// only payload bytes already published there (a count over the
  /// sections' payloads in file order), waiting for more, and gives up
  /// (returning sections_.size()) once the read marks itself failed.
  size_t FirstChecksumMismatch(const std::atomic<size_t>* landed) const;

  bool mapped_ = false;
  bool deep_verify_ = true;
  ThreadPool* load_pool_ = nullptr;
  uint32_t version_ = 0;
  std::vector<SectionEntry> sections_;
};

}  // namespace multiem::util

#endif  // MULTIEM_UTIL_IO_H_
