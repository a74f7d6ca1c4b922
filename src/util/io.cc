#include "util/io.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <new>
#include <system_error>
#include <thread>
#include <utility>

#include "util/fault.h"
#include "util/mmap.h"
#include "util/thread_pool.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define MULTIEM_IO_POSIX 1
#endif

// The blockwise checksum kernel compiles in where the build targets a CPU
// with AVX-512 BW + VBMI and PCLMUL (MULTIEM_NATIVE_ARCH=ON on such a host);
// every other build runs the byte loop.
#if defined(__AVX512BW__) && defined(__AVX512VBMI__) && defined(__PCLMUL__)
#include <immintrin.h>
#define MULTIEM_FNV1A_SIMD 1
#else
#define MULTIEM_FNV1A_SIMD 0
#endif

namespace multiem::util {

namespace {

// Header layout (24 bytes, all little-endian):
//   [0, 8)   magic
//   [8, 12)  format version
//   [12, 16) section count
//   [16, 24) section-table offset
constexpr size_t kHeaderBytes = 24;

uint64_t LoadLe(const uint8_t* p, int width) {
  uint64_t v = 0;
  for (int i = width - 1; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::string MagicToTag(uint64_t magic) {
  std::string tag;
  for (int i = 0; i < 8; ++i) {
    char c = static_cast<char>(magic >> (8 * i));
    tag.push_back((c >= 0x20 && c < 0x7f) ? c : '?');
  }
  return tag;
}

size_t AlignUp(size_t offset, size_t align) {
  return (offset + align - 1) / align * align;
}

// A heap open with Verify::kFull of at least this much payload hashes each
// section on a helper thread while the opening thread reads the next bytes.
// Below it, starting the thread costs more than the overlap saves.
constexpr size_t kVerifyWhileReadingMinBytes = size_t{1} << 20;

// A heap read lands each extent in pieces of this size, publishing each to
// the helper as it lands.
constexpr size_t kReadChunkBytes = size_t{1} << 20;

// The published byte count that tells the helper the read failed.
constexpr size_t kReadFailed = SIZE_MAX;

#if MULTIEM_IO_POSIX
// `size` bytes of fresh anonymous pages starting on a kHugeBlockBytes
// boundary, advised MADV_HUGEPAGE before anything touches them. It maps
// enough to contain such a run and unmaps the slack on either side.
std::shared_ptr<uint8_t> HugePageBlock(size_t size) {
  const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  const size_t length = AlignUp(size, page);
  const size_t mapped = length + kHugeBlockBytes - page;
  void* raw = ::mmap(nullptr, mapped, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const uintptr_t start = reinterpret_cast<uintptr_t>(raw);
  const uintptr_t aligned = AlignUp(start, kHugeBlockBytes);
  uint8_t* block = reinterpret_cast<uint8_t*>(aligned);
  if (aligned > start) ::munmap(raw, aligned - start);
  const size_t tail = start + mapped - (aligned + length);
  if (tail > 0) ::munmap(block + length, tail);
#ifdef MADV_HUGEPAGE
  // Best effort: EINVAL where the kernel has no transparent huge pages,
  // and with them set to `never` the advice changes nothing.
  ::madvise(block, length, MADV_HUGEPAGE);
#endif
  return std::shared_ptr<uint8_t>(
      block, [length](uint8_t* p) { ::munmap(p, length); });
}
#endif

// An uninitialized heap block of `size` bytes, the owner of one heap-read
// extent: kSectionAlignBytes-aligned, or a huge-page block for an extent of
// at least kHugeBlockBytes (see there). No zero fill: fread writes every
// byte, so each page is touched once.
std::shared_ptr<uint8_t> AlignedBlock(size_t size) {
#if MULTIEM_IO_POSIX
  if (size >= kHugeBlockBytes) return HugePageBlock(size);
#endif
  const std::align_val_t align{size >= kHugeBlockBytes ? kHugeBlockBytes
                                                       : kSectionAlignBytes};
  return std::shared_ptr<uint8_t>(
      static_cast<uint8_t*>(::operator new(size, align)),
      [align](uint8_t* p) { ::operator delete(p, align); });
}

// `status`, its message prefixed with the path of the file it is about.
Status InFile(const std::string& path, const Status& status) {
  return Status(status.code(), "'" + path + "': " + status.message());
}

// The byte length of the open file `f` at `path`, which must be a regular
// file: a directory opens fine and then "measures" 2^63-1 bytes through
// fseek/ftell on ext4, which no buffer can hold.
Status RegularFileSize(std::FILE* f, const std::string& path, size_t* size) {
#if MULTIEM_IO_POSIX
  (void)path;
  struct stat st;
  if (::fstat(fileno(f), &st) != 0) {
    return Status::InvalidArgument("cannot stat the artifact file");
  }
  const bool regular = S_ISREG(st.st_mode);
  *size = static_cast<size_t>(st.st_size);
#else
  (void)f;
  std::error_code ec;
  const bool regular = std::filesystem::is_regular_file(path, ec);
  *size = regular ? static_cast<size_t>(std::filesystem::file_size(path, ec))
                  : 0;
  if (ec) return Status::InvalidArgument("cannot stat the artifact file");
#endif
  if (!regular) {
    return Status::InvalidArgument("artifact path is not a regular file");
  }
  return Status::Ok();
}

constexpr uint64_t kFnv1a64Prime = 0x100000001b3ULL;  // 2^40 + 0x1b3

#if MULTIEM_FNV1A_SIMD
// Blockwise FNV-1a-64, bit-identical to the byte loop in Fnv1a64.
//
// The byte step s' = (s ^ b) * P only looks serial. Because b < 256,
// s ^ b = s + d with d = (l ^ b) - l, where l is the low byte of s, so over
// n bytes
//
//   s_n = s_0 * P^n + sum_i d_i * P^(n-i)   (mod 2^64),
//
// a sum of independent products once every l_i is known. The low bytes
// follow their own 8-bit recurrence l' = 179 * (l ^ b) mod 256 (179 = P mod
// 256). Since 179 is odd, bit j of 179 * y is bit j of y XOR a function of
// y's lower bits, so bit plane j of the l sequence is a prefix XOR of
// "flip" bits that depend only on planes below j. One 64-byte block is one
// AVX-512 vector: each plane costs a table lookup, a byte-to-bit mask, and
// a carry-less multiply by all-ones (the prefix XOR of the 64 flips). The
// only state crossing a block is one carry bit per plane, so eight blocks
// are solved side by side, plane by plane, to keep the core busy.
//
// The sum runs per 4,096-byte superblock: the weight P^(4096-i) of byte i
// is split into four signed 16-bit limbs and d held as int16, so vpmaddwd
// accumulates exact int32 partial sums (even and odd bytes apart: no lane
// adds more than 64 pair products, |sum| < 2^30), folded into s once per
// superblock. A shorter run of whole 512-byte groups takes the weights of a
// superblock's last groups; the bytes after the last whole group go through
// the byte loop.
constexpr size_t kFnvBlockBytes = 64;
constexpr size_t kFnvGroupBlocks = 8;  // blocks solved side by side
constexpr size_t kFnvGroupBytes = kFnvBlockBytes * kFnvGroupBlocks;
constexpr size_t kFnvSuperGroups = 8;  // groups per superblock
constexpr size_t kFnvSuperBlocks = kFnvGroupBlocks * kFnvSuperGroups;
constexpr size_t kFnvSuperBytes = kFnvBlockBytes * kFnvSuperBlocks;  // 4096

struct FnvTables {
  // weight[k][m][e][w]: limb m of P^(4096 - i) for superblock byte
  // i = 64k + 2w + e, so that limb m of the weight of every even (e = 0)
  // or odd (e = 1) byte of block k sits in one vector.
  alignas(64) int16_t weight[kFnvSuperBlocks][4][2][32] = {};
  // low_step[y] = 179 * y mod 256: the low-byte step for y < 64.
  alignas(64) uint8_t low_step[64] = {};
  // group_power[g] = P^(512 g), g = 1..8: the state's factor over g groups.
  uint64_t group_power[kFnvSuperGroups + 1] = {};
};

constexpr FnvTables MakeFnvTables() {
  FnvTables t;
  uint64_t power = 1;
  for (size_t n = 1; n <= kFnvSuperBytes; ++n) {
    power *= kFnv1a64Prime;
    const size_t i = kFnvSuperBytes - n;
    uint64_t rest = power;
    for (int m = 0; m < 4; ++m) {
      const int16_t limb = static_cast<int16_t>(static_cast<uint16_t>(rest));
      t.weight[i / kFnvBlockBytes][m][i % 2][i % kFnvBlockBytes / 2] = limb;
      rest = (rest - static_cast<uint64_t>(int64_t{limb})) >> 16;
    }
    if (n % kFnvGroupBytes == 0) t.group_power[n / kFnvGroupBytes] = power;
  }
  for (int y = 0; y < 64; ++y) t.low_step[y] = static_cast<uint8_t>(y * 179);
  return t;
}

constexpr FnvTables kFnvTables = MakeFnvTables();

// Bit i of the result is the XOR of bits 0..i of `bits`.
inline uint64_t PrefixXor(uint64_t bits) {
  const __m128i product = _mm_clmulepi64_si128(
      _mm_cvtsi64_si128(static_cast<long long>(bits)), _mm_set1_epi64x(-1), 0);
  return static_cast<uint64_t>(_mm_cvtsi128_si64(product));
}

// Advances `state` over the `groups` * 512 bytes at `p`, 1 <= groups <= 8.
// The bytes take the last `groups` groups' weights of a superblock, which
// are exactly their powers of P counted from the end of the run.
uint64_t Fnv1a64Groups(const uint8_t* p, size_t groups, uint64_t state) {
  const FnvTables& t = kFnvTables;
  const size_t first_block = kFnvSuperBlocks - groups * kFnvGroupBlocks;
  const __m512i low_step = _mm512_load_si512(t.low_step);
  const __m512i low_bytes = _mm512_set1_epi16(0x00ff);
  __m512i acc[4][2];
  for (auto& limb : acc) limb[0] = limb[1] = _mm512_setzero_si512();
  // carry[j]: bit j of the low byte entering the next block, as 0 or ~0.
  uint64_t carry[8];
  for (int j = 0; j < 8; ++j) carry[j] = 0 - ((state >> j) & 1);

  for (size_t g = 0; g < groups; ++g) {
    const uint8_t* group = p + g * kFnvGroupBytes;
    __m512i b[kFnvGroupBlocks], l[kFnvGroupBlocks];
    for (size_t k = 0; k < kFnvGroupBlocks; ++k) {
      b[k] = _mm512_loadu_si512(group + k * kFnvBlockBytes);
      l[k] = _mm512_setzero_si512();
    }
    for (int j = 0; j < 8; ++j) {
      const __m512i bit = _mm512_set1_epi8(static_cast<char>(1 << j));
      for (size_t k = 0; k < kFnvGroupBlocks; ++k) {
        // Bit i of flips: whether bit j changes from l_i to l_(i+1). It is
        // bit j of 179 * y for y = l_i ^ b_i taken with l's planes >= j
        // still zero, as bit j of 179 * y reads only y's bits 0..j.
        // a = 179 * (y mod 64) gives it for j < 6; y's bits 6 and 7 add
        // to bits 6 and 7.
        uint64_t flips;
        if (j == 0) {
          flips = _mm512_test_epi8_mask(b[k], bit);
        } else {
          const __m512i y = _mm512_xor_si512(l[k], b[k]);
          // The all-ones maskz form is plain vpermb; GCC 12 flags the
          // unmasked intrinsic with a spurious -Wuninitialized.
          const __m512i a =
              _mm512_maskz_permutexvar_epi8(~__mmask64{0}, y, low_step);
          if (j < 6) {
            flips = _mm512_test_epi8_mask(a, bit);
          } else if (j == 6) {
            flips = _mm512_test_epi8_mask(_mm512_xor_si512(a, b[k]), bit);
          } else {
            // 179 * 64 * y6 = 192 * y6 (mod 256), so bit 7 of 179 * y is
            // a7 ^ y7 ^ y6 ^ (a6 & y6) = a7 ^ b7 ^ (y6 & ~a6).
            const __m512i bit6 = _mm512_set1_epi8(0x40);
            flips = _mm512_movepi8_mask(_mm512_xor_si512(a, b[k])) ^
                    _mm512_mask_testn_epi8_mask(
                        _mm512_test_epi8_mask(y, bit6), a, bit6);
          }
        }
        const uint64_t inclusive = PrefixXor(flips);
        const uint64_t plane = (inclusive << 1) ^ carry[j];
        carry[j] ^= 0 - (inclusive >> 63);
        l[k] = _mm512_mask_add_epi8(l[k], plane, l[k], bit);
      }
    }
    for (size_t k = 0; k < kFnvGroupBlocks; ++k) {
      // d = (l ^ b) - l, widened to int16 as even and odd bytes.
      const __m512i x = _mm512_xor_si512(l[k], b[k]);
      const __m512i d_even =
          _mm512_sub_epi16(_mm512_and_si512(x, low_bytes),
                           _mm512_and_si512(l[k], low_bytes));
      const __m512i d_odd = _mm512_sub_epi16(_mm512_srli_epi16(x, 8),
                                             _mm512_srli_epi16(l[k], 8));
      const auto& w = t.weight[first_block + g * kFnvGroupBlocks + k];
      for (int m = 0; m < 4; ++m) {
        acc[m][0] = _mm512_add_epi32(
            acc[m][0], _mm512_madd_epi16(d_even, _mm512_load_si512(w[m][0])));
        acc[m][1] = _mm512_add_epi32(
            acc[m][1], _mm512_madd_epi16(d_odd, _mm512_load_si512(w[m][1])));
      }
    }
  }

  // Each lane of acc[m][0] + acc[m][1] still fits int32 (|lane| < 2^31);
  // the sum over lanes may not.
  uint64_t sum = 0;
  alignas(64) int32_t lanes[16];
  for (int m = 0; m < 4; ++m) {
    _mm512_store_si512(lanes, _mm512_add_epi32(acc[m][0], acc[m][1]));
    int64_t limb_sum = 0;
    for (const int32_t lane : lanes) limb_sum += lane;
    sum += static_cast<uint64_t>(limb_sum) << (16 * m);
  }
  return state * t.group_power[groups] + sum;
}
#endif  // MULTIEM_FNV1A_SIMD

}  // namespace

// The helper thread of one heap open and the count of payload bytes, in
// file order, that the opening thread has published to it. Stop, or
// destroying it, marks an unfinished read failed and joins the helper, so
// no open leaves a thread behind. The helper only hashes: it allocates
// nothing, so it never gets a malloc arena of its own.
class ArtifactReader::HashBehindRead {
 public:
  HashBehindRead() = default;
  HashBehindRead(const HashBehindRead&) = delete;
  HashBehindRead& operator=(const HashBehindRead&) = delete;
  ~HashBehindRead() { Stop(); }

  // Hashes `reader`'s payloads on the helper thread as they are published;
  // false when no thread can start. `reader` must stay in place until the
  // helper is joined.
  bool Start(const ArtifactReader* reader) {
    try {
      thread_ = std::thread([this, reader] {
        first_bad_ = reader->FirstChecksumMismatch(&landed_);
      });
    } catch (const std::system_error&) {
      return false;
    }
    return true;
  }

  bool started() const { return thread_.joinable(); }

  // The first `bytes` payload bytes are in place.
  void Publish(size_t bytes) {
    landed_.store(bytes, std::memory_order_release);
    landed_.notify_one();
  }

  // Waits for the helper after a complete read and returns the index of the
  // first section whose payload does not match its checksum, or the
  // section count.
  size_t Join() {
    thread_.join();
    return first_bad_;
  }

  // Gives up on a read that failed.
  void Stop() {
    if (!thread_.joinable()) return;
    Publish(kReadFailed);
    thread_.join();
  }

 private:
  std::atomic<size_t> landed_{0};
  size_t first_bad_ = 0;
  std::thread thread_;  // last: the thread reads the members above
};

uint64_t Fnv1a64(const void* data, size_t size, uint64_t state) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
#if MULTIEM_FNV1A_SIMD
  while (size >= kFnvGroupBytes) {
    const size_t groups = std::min(size / kFnvGroupBytes, kFnvSuperGroups);
    state = Fnv1a64Groups(p, groups, state);
    p += groups * kFnvGroupBytes;
    size -= groups * kFnvGroupBytes;
  }
#endif
  for (size_t i = 0; i < size; ++i) {
    state ^= p[i];
    state *= kFnv1a64Prime;
  }
  return state;
}

bool Fnv1a64SimdEnabled() { return MULTIEM_FNV1A_SIMD != 0; }

// ---------------------------------------------------------------------------
// ByteWriter
// ---------------------------------------------------------------------------

void ByteWriter::WriteF32(float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  WriteU32(bits);
}

void ByteWriter::WriteF64(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  WriteU64(bits);
}

void ByteWriter::WriteString(std::string_view s) {
  WriteU32(static_cast<uint32_t>(s.size()));
  WriteBytes(s.data(), s.size());
}

void ByteWriter::WriteBytes(const void* data, size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  bytes_.insert(bytes_.end(), p, p + size);
}

// On little-endian hosts a typed array's wire image is its memory image,
// so the bulk paths below collapse to one memcpy after the count word —
// this is the fast path the save/load MB/s numbers in bench_ann_micro
// measure. Big-endian hosts take the element loop.
template <typename T, typename WriteOne>
void WriteArrayImpl(ByteWriter& out, std::span<const T> values,
                    WriteOne write_one) {
  out.WriteU64(values.size());
  if constexpr (std::endian::native == std::endian::little) {
    out.WriteBytes(values.data(), values.size_bytes());
  } else {
    for (const T& v : values) write_one(v);
  }
}

void ByteWriter::WriteI8Array(std::span<const int8_t> values) {
  WriteArrayImpl(*this, values,
                 [&](int8_t v) { WriteU8(static_cast<uint8_t>(v)); });
}

void ByteWriter::WriteU16Array(std::span<const uint16_t> values) {
  WriteArrayImpl(*this, values, [&](uint16_t v) { WriteU16(v); });
}

void ByteWriter::WriteU32Array(std::span<const uint32_t> values) {
  WriteArrayImpl(*this, values, [&](uint32_t v) { WriteU32(v); });
}

void ByteWriter::WriteU64Array(std::span<const uint64_t> values) {
  WriteArrayImpl(*this, values, [&](uint64_t v) { WriteU64(v); });
}

void ByteWriter::WriteI32Array(std::span<const int32_t> values) {
  WriteArrayImpl(*this, values, [&](int32_t v) { WriteI32(v); });
}

void ByteWriter::WriteF32Array(std::span<const float> values) {
  WriteArrayImpl(*this, values, [&](float v) { WriteF32(v); });
}

void ByteWriter::WriteF64Array(std::span<const double> values) {
  WriteArrayImpl(*this, values, [&](double v) { WriteF64(v); });
}

void ByteWriter::WriteStringArray(std::span<const std::string> values) {
  WriteU64(values.size());
  for (const std::string& v : values) WriteString(v);
}

// ---------------------------------------------------------------------------
// ByteReader
// ---------------------------------------------------------------------------

Status ByteReader::Take(size_t n, const uint8_t** out) {
  if (remaining() < n) {
    return Status::OutOfRange("binary section underflow: need " +
                              std::to_string(n) + " bytes, " +
                              std::to_string(remaining()) + " remain");
  }
  *out = data_.data() + pos_;
  pos_ += n;
  return Status::Ok();
}

Status ByteReader::ReadU8(uint8_t* out) {
  const uint8_t* p;
  MULTIEM_RETURN_IF_ERROR(Take(1, &p));
  *out = *p;
  return Status::Ok();
}

Status ByteReader::ReadU16(uint16_t* out) {
  const uint8_t* p;
  MULTIEM_RETURN_IF_ERROR(Take(2, &p));
  *out = static_cast<uint16_t>(LoadLe(p, 2));
  return Status::Ok();
}

Status ByteReader::ReadU32(uint32_t* out) {
  const uint8_t* p;
  MULTIEM_RETURN_IF_ERROR(Take(4, &p));
  *out = static_cast<uint32_t>(LoadLe(p, 4));
  return Status::Ok();
}

Status ByteReader::ReadU64(uint64_t* out) {
  const uint8_t* p;
  MULTIEM_RETURN_IF_ERROR(Take(8, &p));
  *out = LoadLe(p, 8);
  return Status::Ok();
}

Status ByteReader::ReadI32(int32_t* out) {
  uint32_t bits;
  MULTIEM_RETURN_IF_ERROR(ReadU32(&bits));
  *out = static_cast<int32_t>(bits);
  return Status::Ok();
}

Status ByteReader::ReadF32(float* out) {
  uint32_t bits;
  MULTIEM_RETURN_IF_ERROR(ReadU32(&bits));
  std::memcpy(out, &bits, sizeof(*out));
  return Status::Ok();
}

Status ByteReader::ReadF64(double* out) {
  uint64_t bits;
  MULTIEM_RETURN_IF_ERROR(ReadU64(&bits));
  std::memcpy(out, &bits, sizeof(*out));
  return Status::Ok();
}

Status ByteReader::ReadString(std::string* out) {
  uint32_t size;
  MULTIEM_RETURN_IF_ERROR(ReadU32(&size));
  const uint8_t* p;
  MULTIEM_RETURN_IF_ERROR(Take(size, &p));
  out->assign(reinterpret_cast<const char*>(p), size);
  return Status::Ok();
}

Status ByteReader::ReadStringArray(std::vector<std::string>* out) {
  uint64_t count;
  MULTIEM_RETURN_IF_ERROR(ReadU64(&count));
  if (count > remaining() / 4) {
    return Status::InvalidArgument(
        "string array count " + std::to_string(count) + " exceeds the " +
        std::to_string(remaining()) + " remaining section bytes");
  }
  out->clear();
  out->resize(static_cast<size_t>(count));
  for (std::string& s : *out) MULTIEM_RETURN_IF_ERROR(ReadString(&s));
  return Status::Ok();
}

Status ByteReader::ExpectExhausted() const {
  if (remaining() != 0) {
    return Status::InvalidArgument(
        "binary section has " + std::to_string(remaining()) +
        " unexpected trailing bytes (schema mismatch?)");
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// ArtifactWriter
// ---------------------------------------------------------------------------

ByteWriter& ArtifactWriter::AddSection(std::string name) {
  for (const auto& [existing, writer] : sections_) {
    if (existing == name) std::abort();  // duplicate section: programmer error
  }
  sections_.emplace_back(std::move(name), ByteWriter());
  return sections_.back().second;
}

namespace {

using Sections = std::vector<std::pair<std::string, ByteWriter>>;

// Section-table bytes per entry besides the name: u16 name length, then u64
// offset, size and checksum.
constexpr size_t kTableEntryBytes = 2 + 3 * 8;

// The file offset of each payload, then that of the section table. Every
// payload starts on a kSectionAlignBytes boundary (deterministic zero fill
// in the gaps) so that a reader mapping the file can hand out in-place views
// of the flat slabs.
std::vector<size_t> PayloadOffsets(const Sections& sections) {
  std::vector<size_t> offsets;
  offsets.reserve(sections.size() + 1);
  size_t cursor = kHeaderBytes;
  for (const auto& [name, payload] : sections) {
    cursor = AlignUp(cursor, kSectionAlignBytes);
    offsets.push_back(cursor);
    cursor += payload.size();
  }
  offsets.push_back(cursor);
  return offsets;
}

// Passes the container image of `sections` to `sink(data, size)` piece by
// piece, in file order: the header, each payload after its zero padding,
// then the section table and the table's checksum. No piece is empty. Each
// payload is hashed chunk by chunk right before the sink takes the chunk
// (256 KiB, which fits in a core's L2 cache), so the sink reads bytes the
// hash has just brought into cache, and the image is never assembled.
// Returns false as soon as `sink` does. Checksums cover payload bytes only;
// the padding is protected by the reader's zero check.
template <typename Sink>
bool EmitContainer(uint64_t magic, uint32_t version, const Sections& sections,
                   Sink&& sink) {
  auto emit = [&](const void* data, size_t size) {
    return size == 0 || sink(static_cast<const uint8_t*>(data), size);
  };
  const std::vector<size_t> offsets = PayloadOffsets(sections);
  ByteWriter header;
  header.WriteU64(magic);
  header.WriteU32(version);
  header.WriteU32(static_cast<uint32_t>(sections.size()));
  header.WriteU64(offsets.back());
  if (!emit(header.bytes().data(), header.size())) return false;

  static constexpr uint8_t kZeros[kSectionAlignBytes] = {};
  constexpr size_t kChunkBytes = size_t{256} << 10;
  ByteWriter table;
  size_t cursor = kHeaderBytes;
  for (size_t i = 0; i < sections.size(); ++i) {
    const auto& [name, payload] = sections[i];
    if (!emit(kZeros, offsets[i] - cursor)) return false;
    const uint8_t* bytes = payload.bytes().data();
    uint64_t checksum = kFnv1a64Offset;
    for (size_t done = 0; done < payload.size(); done += kChunkBytes) {
      const size_t n = std::min(kChunkBytes, payload.size() - done);
      checksum = Fnv1a64(bytes + done, n, checksum);
      if (!emit(bytes + done, n)) return false;
    }
    cursor = offsets[i] + payload.size();
    table.WriteU16(static_cast<uint16_t>(name.size()));
    table.WriteBytes(name.data(), name.size());
    table.WriteU64(offsets[i]);
    table.WriteU64(payload.size());
    table.WriteU64(checksum);
  }
  table.WriteU64(Fnv1a64(table.bytes().data(), table.size()));
  return emit(table.bytes().data(), table.size());
}

}  // namespace

std::vector<uint8_t> ArtifactWriter::Serialize() const {
  // The table starts at the last offset; its checksum follows it.
  size_t size = PayloadOffsets(sections_).back() + 8;
  for (const auto& [name, payload] : sections_) {
    size += kTableEntryBytes + name.size();
  }
  std::vector<uint8_t> image;
  image.reserve(size);
  EmitContainer(magic_, version_, sections_,
                [&](const uint8_t* data, size_t n) {
                  image.insert(image.end(), data, data + n);
                  return true;
                });
  return image;
}

Status ArtifactWriter::WriteFile(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  // A crash between these two points leaves an orphaned `.tmp` (never a torn
  // destination file); SweepOrphanTmpFiles reclaims them on the next run.
  MULTIEM_FAULT_POINT("io.write.stage");
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::NotFound("cannot open '" + tmp + "' for writing");
  }
  const bool written =
      EmitContainer(magic_, version_, sections_,
                    [f](const uint8_t* data, size_t n) {
                      return std::fwrite(data, 1, n, f) == n;
                    });
  const bool flushed = std::fclose(f) == 0;
  if (!written || !flushed) {
    std::remove(tmp.c_str());
    return Status::Internal("short write to '" + tmp + "'");
  }
  {
    Status fault = FaultInjector::Global().Hit("io.write.commit");
    if (!fault.ok()) {
      std::remove(tmp.c_str());
      return fault;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename '" + tmp + "' to '" + path + "'");
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// ArtifactReader
// ---------------------------------------------------------------------------

Result<ArtifactReader> ArtifactReader::FromFile(const std::string& path,
                                                uint64_t magic,
                                                uint32_t max_version) {
  return FromFile(path, magic, max_version, ArtifactOpenOptions{});
}

Result<ArtifactReader> ArtifactReader::FromFile(
    const std::string& path, uint64_t magic, uint32_t max_version,
    const ArtifactOpenOptions& options) {
  const ArtifactFile file{path, magic, max_version};
  return std::move(FromFiles({&file, 1}, options).front());
}

std::vector<Result<ArtifactReader>> ArtifactReader::FromFiles(
    std::span<const ArtifactFile> files, const ArtifactOpenOptions& options) {
  // One slot per file, fixed in place: a helper reads its slot's reader.
  struct Opening {
    ArtifactReader reader;
    Status status;
    HashBehindRead helper;  // last, so it is joined before the reader dies
  };
  std::vector<Opening> opening(files.size());
  for (size_t i = 0; i < files.size(); ++i) {
    Opening& o = opening[i];
    o.status = o.reader.Open(files[i], options, &o.helper);
    if (!o.status.ok()) o.helper.Stop();
  }
  // The reads are all done; collect each helper's checksum verdict.
  std::vector<Result<ArtifactReader>> readers;
  readers.reserve(files.size());
  for (size_t i = 0; i < files.size(); ++i) {
    Opening& o = opening[i];
    if (o.helper.started()) {
      const Status checksums = o.reader.ChecksumStatus(o.helper.Join());
      if (!checksums.ok()) o.status = InFile(files[i].path, checksums);
    }
    if (o.status.ok()) {
      readers.emplace_back(std::move(o.reader));
    } else {
      readers.emplace_back(std::move(o.status));
    }
  }
  return readers;
}

Status ArtifactReader::Open(const ArtifactFile& file,
                            const ArtifactOpenOptions& options,
                            HashBehindRead* helper) {
  const std::string& path = file.path;
  load_pool_ = options.verify_pool;

  std::shared_ptr<const MmapFile> mapping;
  if (options.mapping != ArtifactOpenOptions::Mapping::kDisable) {
    auto mapped = MmapFile::Open(path);
    if (mapped.ok()) {
      // The open-time validation streams the whole file once; the serving
      // phase after it is random access over the graph.
      mapped->AdviseSequential();
      mapping = std::make_shared<const MmapFile>(std::move(*mapped));
      mapped_ = true;
    } else if (options.mapping == ArtifactOpenOptions::Mapping::kRequire ||
               mapped.status().code() == StatusCode::kNotFound) {
      return InFile(path, mapped.status());
    }
    // kPrefer falls through to the heap read on any other mmap failure.
  }

  Status status;
  if (mapping != nullptr) {
    status = Init(
        mapping->size(),
        [&](size_t offset, size_t, Extent* out, const LandedFn&) {
          *out = {mapping->data() + offset, mapping};
          return Status::Ok();
        },
        /*helper=*/nullptr, file.magic, file.max_version, options);
  } else {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
      return Status::NotFound("artifact file '" + path + "' does not exist");
    }
    size_t file_size = 0;
    status = RegularFileSize(f, path, &file_size);
    // Each fetch reads its extent into a fresh aligned block that becomes
    // the extent's owner, kReadChunkBytes at a time.
    if (status.ok()) {
      status = Init(
          file_size,
          [&](size_t offset, size_t size, Extent* out,
              const LandedFn& landed) {
            *out = {};
            if (size == 0) return Status::Ok();
            std::shared_ptr<uint8_t> block = AlignedBlock(size);
            uint8_t* bytes = block.get();
            *out = {bytes, std::move(block)};
            bool read = std::fseek(f, static_cast<long>(offset), SEEK_SET) == 0;
            for (size_t done = 0; read && done < size;) {
              const size_t n = std::min(kReadChunkBytes, size - done);
              read = std::fread(bytes + done, 1, n, f) == n;
              done += n;
              if (read && landed) landed(done);
            }
            if (!read) {
              return Status::InvalidArgument(
                  "cannot read " + std::to_string(size) +
                  " bytes at offset " + std::to_string(offset) +
                  " (file shrank while opening?)");
            }
            return Status::Ok();
          },
          helper, file.magic, file.max_version, options);
    }
    std::fclose(f);
  }
  if (!status.ok()) return InFile(path, status);
  if (mapping == nullptr) return Status::Ok();

  // Init bounds every section extent against the *mapped* length, but the
  // file on disk can have been truncated since the fstat inside mmap —
  // touching a page past the new EOF would then SIGBUS instead of failing
  // cleanly. Re-stat before handing out spans that alias the mapping.
  std::error_code ec;
  const auto on_disk = std::filesystem::file_size(path, ec);
  if (ec || on_disk < mapping->size()) {
    return Status::InvalidArgument(
        "'" + path + "': file shrank to " +
        (ec ? std::string("<unreadable>") : std::to_string(on_disk)) +
        " bytes while opening (mapped " + std::to_string(mapping->size()) +
        "); refusing to bind sections over a truncated mapping");
  }
  if (options.warm_pages) {
    // Parallel first-touch page pass: fault the whole image in now, across
    // the pool's threads, instead of one page at a time on the first
    // queries. Reading one byte per page suffices — the kernel fills the
    // page either way — and the running sum (published through a volatile
    // sink) keeps the loop from being optimized away.
    mapping->AdviseWillNeed();
    constexpr size_t kPageBytes = 4096;
    const std::span<const uint8_t> bytes = mapping->bytes();
    const size_t pages = (bytes.size() + kPageBytes - 1) / kPageBytes;
    std::atomic<uint64_t> sink{0};
    ParallelFor(
        options.verify_pool, pages,
        [&](size_t page) {
          sink.fetch_add(bytes[page * kPageBytes], std::memory_order_relaxed);
        },
        /*min_block_size=*/256);
    static volatile uint64_t warm_sink;
    warm_sink = sink.load(std::memory_order_relaxed);
    (void)warm_sink;
  }
  mapping->AdviseRandom();
  return Status::Ok();
}

Result<ArtifactReader> ArtifactReader::FromBytes(std::vector<uint8_t> bytes,
                                                 uint64_t magic,
                                                 uint32_t max_version) {
  ArtifactReader reader;
  auto image = std::make_shared<const std::vector<uint8_t>>(std::move(bytes));
  MULTIEM_RETURN_IF_ERROR(reader.Init(
      image->size(),
      [&](size_t offset, size_t, Extent* out, const LandedFn&) {
        *out = {image->data() + offset, image};
        return Status::Ok();
      },
      /*helper=*/nullptr, magic, max_version, {}));
  return reader;
}

Status ArtifactReader::Init(size_t file_size, const FetchFn& fetch,
                            HashBehindRead* helper, uint64_t magic,
                            uint32_t max_version,
                            const ArtifactOpenOptions& options) {
  deep_verify_ = options.verify == ArtifactOpenOptions::Verify::kFull;
  if (file_size < kHeaderBytes + 8) {
    return Status::InvalidArgument(
        "artifact truncated: " + std::to_string(file_size) +
        " bytes is smaller than the minimal container");
  }
  Extent header;
  MULTIEM_RETURN_IF_ERROR(fetch(0, kHeaderBytes, &header, {}));
  const uint64_t file_magic = LoadLe(header.data, 8);
  if (file_magic != magic) {
    return Status::InvalidArgument("artifact magic mismatch: expected '" +
                                   MagicToTag(magic) + "', found '" +
                                   MagicToTag(file_magic) + "'");
  }
  const uint32_t version = static_cast<uint32_t>(LoadLe(header.data + 8, 4));
  if (version == 0 || version > max_version) {
    return Status::FailedPrecondition(
        "artifact format version " + std::to_string(version) +
        " is outside this build's supported range [1, " +
        std::to_string(max_version) + "]; rebuild the artifact or upgrade");
  }
  const uint32_t section_count =
      static_cast<uint32_t>(LoadLe(header.data + 12, 4));
  const uint64_t table_offset = LoadLe(header.data + 16, 8);
  // Subtraction form, not `table_offset + 8 > size`: a crafted offset near
  // 2^64 must not wrap past the check and reach Fnv1a64 (file_size >=
  // kHeaderBytes + 8 was established above, so the subtraction is safe).
  if (table_offset < kHeaderBytes || table_offset > file_size - 8) {
    return Status::InvalidArgument(
        "artifact truncated: section table offset " +
        std::to_string(table_offset) + " is outside the " +
        std::to_string(file_size) + "-byte file");
  }

  // The table's own trailing checksum first: it guards everything the
  // per-section checks rely on.
  const size_t table_size = file_size - 8 - table_offset;
  Extent table_bytes;
  MULTIEM_RETURN_IF_ERROR(
      fetch(table_offset, table_size + 8, &table_bytes, {}));
  if (Fnv1a64(table_bytes.data, table_size) !=
      LoadLe(table_bytes.data + table_size, 8)) {
    return Status::InvalidArgument(
        "artifact section table checksum mismatch (corrupt or truncated "
        "file)");
  }

  version_ = version;
  ByteReader table(std::span<const uint8_t>(table_bytes.data, table_size));
  // Extents must come in ascending, non-overlapping order (the order every
  // writer emits). That caps what a heap open allocates at the file size,
  // however the table is crafted.
  size_t payload_end = kHeaderBytes;
  for (uint32_t i = 0; i < section_count; ++i) {
    uint16_t name_len;
    MULTIEM_RETURN_IF_ERROR(table.ReadU16(&name_len));
    if (table.remaining() < name_len) {
      return Status::InvalidArgument("artifact section table truncated");
    }
    SectionEntry entry;
    entry.name.resize(name_len);
    for (uint16_t c = 0; c < name_len; ++c) {
      uint8_t byte;
      MULTIEM_RETURN_IF_ERROR(table.ReadU8(&byte));
      entry.name[c] = static_cast<char>(byte);
    }
    uint64_t offset, size;
    MULTIEM_RETURN_IF_ERROR(table.ReadU64(&offset));
    MULTIEM_RETURN_IF_ERROR(table.ReadU64(&size));
    MULTIEM_RETURN_IF_ERROR(table.ReadU64(&entry.checksum));
    // Overflow-safe extent check (`offset + size` could wrap): the offset
    // must land in [header, table) and the size fit in what remains.
    if (offset < kHeaderBytes || offset > table_offset ||
        size > table_offset - offset) {
      return Status::InvalidArgument("artifact section '" + entry.name +
                                     "' lies outside the payload area");
    }
    if (offset < payload_end) {
      return Status::InvalidArgument(
          "artifact section '" + entry.name + "' at offset " +
          std::to_string(offset) +
          " overlaps or precedes the previous extent, which ends at " +
          std::to_string(payload_end) +
          " (sections must be in ascending, non-overlapping order)");
    }
    entry.offset = static_cast<size_t>(offset);
    entry.size = static_cast<size_t>(size);
    payload_end = entry.offset + entry.size;
    sections_.push_back(std::move(entry));
  }
  MULTIEM_RETURN_IF_ERROR(table.ExpectExhausted());

  // Alignment padding is deterministic zero fill and no checksum covers it,
  // so enforce the zeros here — every byte of a valid container is then
  // either validated content or provably-zero padding, keeping the
  // "any single-byte flip is rejected" guarantee intact. Payloads are
  // fetched between the gaps, in file order.
  auto check_padding = [&](size_t begin, size_t end) -> Status {
    Extent gap;
    MULTIEM_RETURN_IF_ERROR(fetch(begin, end - begin, &gap, {}));
    for (size_t b = 0; b < end - begin; ++b) {
      if (gap.data[b] != 0) {
        return Status::InvalidArgument(
            "artifact padding byte at offset " + std::to_string(begin + b) +
            " is non-zero (corrupt file)");
      }
    }
    return Status::Ok();
  };

  // A large heap open hashes each section on a helper thread while this
  // thread reads the next bytes (Verify::kFull). Every read and padding
  // error below still wins over a checksum mismatch: the helper's answer is
  // looked at only once every byte is in, by the caller.
  const bool full = options.verify == ArtifactOpenOptions::Verify::kFull;
  size_t payload_bytes = 0;
  for (const SectionEntry& s : sections_) payload_bytes += s.size;
  // Without a helper, the sweep below hashes the payloads once they are in.
  const bool publish = full && helper != nullptr &&
                       payload_bytes >= kVerifyWhileReadingMinBytes &&
                       helper->Start(this);

  size_t cursor = kHeaderBytes;
  size_t before = 0;  // payload bytes of the sections already read
  for (SectionEntry& s : sections_) {
    MULTIEM_RETURN_IF_ERROR(check_padding(cursor, s.offset));
    LandedFn on_landed;
    if (publish) {
      on_landed = [helper, before](size_t bytes) {
        helper->Publish(before + bytes);
      };
    }
    MULTIEM_RETURN_IF_ERROR(fetch(s.offset, s.size, &s.bytes, on_landed));
    cursor = s.offset + s.size;
    before += s.size;
  }
  MULTIEM_RETURN_IF_ERROR(check_padding(cursor, table_offset));
  if (!full || publish) return Status::Ok();

  // Payload checksums last: the O(file size) part, skippable (kStructural).
  // Without a helper they are hashed here, across sections on the pool when
  // one is given — one section's FNV-1a sweep runs on one thread, but
  // sections are independent.
  const size_t n = sections_.size();
  size_t first_bad = n;
  if (options.verify_pool != nullptr && n > 1) {
    std::atomic<size_t> bad{n};
    ParallelFor(
        options.verify_pool, n,
        [&](size_t i) {
          if (Fnv1a64(sections_[i].bytes.data, sections_[i].size) !=
              sections_[i].checksum) {
            size_t cur = bad.load(std::memory_order_relaxed);
            while (i < cur && !bad.compare_exchange_weak(
                                  cur, i, std::memory_order_relaxed)) {
            }
          }
        },
        /*min_block_size=*/1);
    first_bad = bad.load(std::memory_order_relaxed);
  } else {
    first_bad = FirstChecksumMismatch(nullptr);
  }
  return ChecksumStatus(first_bad);
}

Status ArtifactReader::ChecksumStatus(size_t first_bad) const {
  if (first_bad == sections_.size()) return Status::Ok();
  return Status::InvalidArgument("artifact section '" +
                                 sections_[first_bad].name +
                                 "' checksum mismatch (corrupt file)");
}

size_t ArtifactReader::FirstChecksumMismatch(
    const std::atomic<size_t>* landed) const {
  size_t before = 0;  // payload bytes of the sections before `i`
  for (size_t i = 0; i < sections_.size(); ++i) {
    const SectionEntry& s = sections_[i];
    uint64_t state = kFnv1a64Offset;
    for (size_t done = 0; done < s.size;) {
      size_t end = s.size;
      if (landed != nullptr) {
        // Wait for bytes past `done`; every byte below the published count
        // is in place, and so is the extent of its section.
        size_t seen = landed->load(std::memory_order_acquire);
        while (seen != kReadFailed && seen <= before + done) {
          landed->wait(seen, std::memory_order_acquire);
          seen = landed->load(std::memory_order_acquire);
        }
        if (seen == kReadFailed) return sections_.size();
        end = std::min(seen - before, s.size);
      }
      state = Fnv1a64(s.bytes.data + done, end - done, state);
      done = end;
    }
    if (state != s.checksum) return i;
    before += s.size;
  }
  return sections_.size();
}

bool ArtifactReader::HasSection(std::string_view name) const {
  for (const SectionEntry& s : sections_) {
    if (s.name == name) return true;
  }
  return false;
}

std::vector<std::string> ArtifactReader::SectionNames() const {
  std::vector<std::string> names;
  names.reserve(sections_.size());
  for (const SectionEntry& s : sections_) names.push_back(s.name);
  std::sort(names.begin(), names.end());
  return names;
}

Result<ByteReader> ArtifactReader::Section(std::string_view name) const {
  for (const SectionEntry& s : sections_) {
    if (s.name == name) {
      return ByteReader(std::span<const uint8_t>(s.bytes.data, s.size),
                        s.bytes.owner);
    }
  }
  std::string present;
  for (const std::string& n : SectionNames()) {
    if (!present.empty()) present += ", ";
    present += n;
  }
  return Status::NotFound("artifact has no section '" + std::string(name) +
                          "' (present: " + present + ")");
}

}  // namespace multiem::util
