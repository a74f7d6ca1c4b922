#ifndef MULTIEM_UTIL_MEMORY_H_
#define MULTIEM_UTIL_MEMORY_H_

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <iterator>
#include <memory>
#include <new>
#include <span>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace multiem::util {

/// Current resident set size of this process in bytes (VmRSS from
/// /proc/self/status). Returns 0 on platforms without procfs.
size_t CurrentRssBytes();

/// Peak resident set size of this process in bytes (VmHWM). Returns 0 on
/// platforms without procfs. Monotone over the process lifetime, which is why
/// the Table VI bench runs each method in a fresh subprocess.
size_t PeakRssBytes();

/// x86 cache-line size; the alignment target for hot flat arrays (the HNSW
/// link slabs and vector payload), so a block never straddles a line it
/// doesn't have to.
inline constexpr size_t kCacheLineBytes = 64;

/// Minimal std::allocator replacement that over-aligns every allocation to
/// `Alignment` bytes (C++17 aligned operator new). Used through
/// CacheAlignedVector below for the flat ANN slabs.
template <typename T, size_t Alignment = kCacheLineBytes>
class AlignedAllocator {
 public:
  static_assert((Alignment & (Alignment - 1)) == 0, "alignment must be 2^k");
  static_assert(Alignment >= alignof(T), "alignment below the type's own");

  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  T* allocate(size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{Alignment}));
  }
  void deallocate(T* p, size_t) noexcept {
    ::operator delete(p, std::align_val_t{Alignment});
  }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
  friend bool operator!=(const AlignedAllocator&, const AlignedAllocator&) {
    return false;
  }
};

/// std::vector whose buffer starts on a cache-line boundary.
template <typename T>
using CacheAlignedVector = std::vector<T, AlignedAllocator<T>>;

/// A flat array that either owns its storage (a std::vector) or is a
/// read-only *view* over externally owned bytes — typically a section of a
/// loaded artifact, in its own heap block or in a mapping — kept alive by a
/// shared keepalive handle. This is the storage type behind the zero-copy
/// load path: `HnswIndex::Load` and the pipeline-artifact loader bind their
/// flat slabs directly onto the loaded sections instead of copying them,
/// and the first mutation (`EnsureOwned`, or any non-const accessor)
/// materializes a private owned copy.
///
/// Materializing allocates once, at the capacity of the write that asks for
/// it: `reserve(n)` at n, `resize(n)` at n, `append` and `push_back` at the
/// grown size, `EnsureOwned` and the other accessors at the view's size. A
/// growing write on a view therefore copies each element once, never into
/// an exact-size buffer that the growth then copies again.
///
/// Copying a CowSlab is cheap while it is a view (the copy shares the view
/// and its keepalive — this is what lets consecutive serving epochs share
/// unchanged data) and a deep copy once owned. `CopyWithCapacity` is the
/// copy for a slab about to grow: owned, in one allocation at the final
/// capacity, whichever the source is. The container is deliberately
/// vector-shaped (`value_type`, `resize`, `data`) so it drops into
/// `ByteReader::ReadArrayInto` unchanged on the copying fallback path.
template <typename T, typename Alloc = std::allocator<T>>
class CowSlab {
 public:
  using value_type = T;

  CowSlab() = default;
  explicit CowSlab(std::vector<T, Alloc> v) : owned_(std::move(v)) {}

  /// Points this slab at externally owned, immutable elements. `keepalive`
  /// must keep `view`'s bytes valid for as long as any copy of this slab
  /// (or of its keepalive) lives.
  void BindView(std::span<const T> view, std::shared_ptr<const void> keepalive) {
    owned_.clear();
    owned_.shrink_to_fit();
    view_ = view;
    keepalive_ = std::move(keepalive);
  }

  bool is_view() const { return keepalive_ != nullptr; }

  /// The keepalive handle of a view (null when owned); copies of a view
  /// share it.
  const std::shared_ptr<const void>& keepalive() const { return keepalive_; }

  /// Materializes an owned private copy when this slab is a view; no-op when
  /// already owned. Every mutating member materializes a view itself, so
  /// explicit calls are only needed before raw const_cast-style writes
  /// through data().
  void EnsureOwned() {
    if (is_view()) Materialize(view_.size());
  }

  /// An owned copy of these elements with capacity for `capacity` of them
  /// (at least size()), made in one allocation whether this slab is a view
  /// or owned. The plain copy of an owned slab is sized exactly, so a copy
  /// that is about to grow uses this instead.
  CowSlab CopyWithCapacity(size_t capacity) const {
    CowSlab copy;
    copy.owned_.reserve(std::max(capacity, size()));
    copy.owned_.insert(copy.owned_.end(), begin(), end());
    return copy;
  }

  size_t size() const { return is_view() ? view_.size() : owned_.size(); }
  bool empty() const { return size() == 0; }

  const T* data() const { return is_view() ? view_.data() : owned_.data(); }
  T* data() {
    EnsureOwned();
    return owned_.data();
  }

  const T& operator[](size_t i) const { return data()[i]; }
  T& operator[](size_t i) {
    EnsureOwned();
    return owned_[i];
  }

  std::span<const T> span() const { return {data(), size()}; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size(); }

  void clear() {
    owned_.clear();
    view_ = {};
    keepalive_.reset();
  }

  void resize(size_t n) {
    if (is_view()) Materialize(n);
    owned_.resize(n);
  }
  void resize(size_t n, const T& v) {
    if (is_view()) Materialize(n);
    owned_.resize(n, v);
  }
  void reserve(size_t n) {
    if (is_view()) Materialize(std::max(n, view_.size()));
    owned_.reserve(n);
  }
  void push_back(const T& v) {
    if (is_view()) Materialize(view_.size() + 1);
    owned_.push_back(v);
  }
  template <std::forward_iterator It>
  void append(It first, It last) {
    if (is_view()) {
      Materialize(view_.size() +
                  static_cast<size_t>(std::distance(first, last)));
    }
    owned_.insert(owned_.end(), first, last);
  }

  /// Bytes held by the owned buffer (0 while a view — the bytes belong to
  /// the keepalive's owner, a loaded section shared by all its views).
  size_t OwnedBytes() const { return owned_.capacity() * sizeof(T); }

 private:
  /// Turns a view into owned storage: one allocation of `capacity`
  /// elements, holding the view's first min(capacity, size()) of them.
  void Materialize(size_t capacity) {
    std::vector<T, Alloc> owned;
    owned.reserve(capacity);
    owned.insert(owned.end(), view_.begin(),
                 view_.begin() + std::min(capacity, view_.size()));
    owned_ = std::move(owned);
    view_ = {};
    keepalive_.reset();
  }

  std::vector<T, Alloc> owned_;
  std::span<const T> view_;
  std::shared_ptr<const void> keepalive_;
};

/// Read-prefetch hint for the cache line at `p`. No-op where unsupported;
/// safe on any address (prefetch never faults). The HNSW hot loops use this
/// to pull the next neighbor's vector and link block while the current
/// distance is still being computed.
inline void PrefetchRead(const void* p) {
#if defined(__SSE2__)
  _mm_prefetch(static_cast<const char*>(p), _MM_HINT_T0);
#elif defined(__GNUC__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

}  // namespace multiem::util

#endif  // MULTIEM_UTIL_MEMORY_H_
