// Persistence tests: the util/io artifact container (round trips, magic /
// version / checksum rejection), VectorIndex and TextEncoder save/load
// (search and embedding equality pre/post reload, serial and parallel
// builds, byte-stable golden files, corruption rejection), and the full
// PipelineArtifact directory (MatchRecords identical after a reload in a
// "fresh process", incremental AddTable, byte-identical re-save).

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "ann/brute_force.h"
#include "ann/hnsw.h"
#include "ann/index_io.h"
#include "core/artifact.h"
#include "core/matcher.h"
#include "core/pipeline.h"
#include "core/registry.h"
#include "embed/encoder_io.h"
#include "embed/hashing_encoder.h"
#include "embed/serialize.h"
#include "table/schema.h"
#include "table/table.h"
#include "util/io.h"
#include "util/mmap.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace multiem {
namespace {

using core::Matcher;
using core::MultiEmConfig;
using core::MultiEmPipeline;
using core::PipelineArtifact;
using core::PipelineBuilder;
using core::PipelineResult;
using core::RunContext;
using table::Schema;
using table::Table;

// Per-test scratch path under the gtest temp dir; removed up front so
// reruns start clean.
std::string TempPath(const std::string& name) {
  std::string path = ::testing::TempDir() + "multiem_persist_" + name;
  std::filesystem::remove_all(path);
  return path;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

embed::EmbeddingMatrix RandomVectors(size_t n, size_t dim, uint64_t seed) {
  util::Rng rng(seed);
  embed::EmbeddingMatrix m(n, dim);
  for (size_t i = 0; i < n; ++i) {
    auto row = m.Row(i);
    for (auto& x : row) x = static_cast<float>(rng.Normal());
    embed::L2NormalizeInPlace(row);
  }
  return m;
}

// ------------------------------------------------------------------- io --

constexpr uint64_t kTestMagic = util::ArtifactMagic("MEMTEST1");

TEST(IoTest, PrimitivesRoundTrip) {
  util::ByteWriter w;
  w.WriteU8(7);
  w.WriteU16(65535);
  w.WriteU32(0xDEADBEEFu);
  w.WriteU64(0x0123456789ABCDEFull);
  w.WriteI32(-42);
  w.WriteF32(1.5f);
  w.WriteF64(-2.25);
  w.WriteString("hello");
  w.WriteF32Array(std::vector<float>{1.0f, -1.0f});

  util::ByteReader r(w.bytes());
  uint8_t u8;
  uint16_t u16;
  uint32_t u32;
  uint64_t u64;
  int32_t i32;
  float f32;
  double f64;
  std::string s;
  std::vector<float> floats;
  ASSERT_TRUE(r.ReadU8(&u8).ok());
  ASSERT_TRUE(r.ReadU16(&u16).ok());
  ASSERT_TRUE(r.ReadU32(&u32).ok());
  ASSERT_TRUE(r.ReadU64(&u64).ok());
  ASSERT_TRUE(r.ReadI32(&i32).ok());
  ASSERT_TRUE(r.ReadF32(&f32).ok());
  ASSERT_TRUE(r.ReadF64(&f64).ok());
  ASSERT_TRUE(r.ReadString(&s).ok());
  ASSERT_TRUE(r.ReadF32Array(&floats).ok());
  ASSERT_TRUE(r.ExpectExhausted().ok());
  EXPECT_EQ(u8, 7u);
  EXPECT_EQ(u16, 65535u);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i32, -42);
  EXPECT_EQ(f32, 1.5f);
  EXPECT_EQ(f64, -2.25);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(floats, (std::vector<float>{1.0f, -1.0f}));

  // Reading past the end is an error, not UB.
  EXPECT_EQ(r.ReadU64(&u64).code(), util::StatusCode::kOutOfRange);
}

TEST(IoTest, ArtifactSectionsRoundTrip) {
  util::ArtifactWriter writer(kTestMagic, 1);
  writer.AddSection("alpha").WriteU32(123);
  writer.AddSection("beta").WriteString("payload");

  auto reader =
      util::ArtifactReader::FromBytes(writer.Serialize(), kTestMagic, 1);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->version(), 1u);
  EXPECT_TRUE(reader->HasSection("alpha"));
  EXPECT_FALSE(reader->HasSection("gamma"));
  EXPECT_EQ(reader->SectionNames(),
            (std::vector<std::string>{"alpha", "beta"}));

  auto alpha = reader->Section("alpha");
  ASSERT_TRUE(alpha.ok());
  uint32_t v;
  ASSERT_TRUE(alpha->ReadU32(&v).ok());
  EXPECT_EQ(v, 123u);
  ASSERT_TRUE(alpha->ExpectExhausted().ok());

  EXPECT_EQ(reader->Section("gamma").status().code(),
            util::StatusCode::kNotFound);
}

TEST(IoTest, RejectsWrongMagic) {
  util::ArtifactWriter writer(kTestMagic, 1);
  writer.AddSection("s").WriteU32(1);
  auto reader = util::ArtifactReader::FromBytes(
      writer.Serialize(), util::ArtifactMagic("MEMOTHER"), 1);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(IoTest, RejectsNewerVersion) {
  util::ArtifactWriter writer(kTestMagic, 7);
  writer.AddSection("s").WriteU32(1);
  auto reader =
      util::ArtifactReader::FromBytes(writer.Serialize(), kTestMagic, 1);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), util::StatusCode::kFailedPrecondition);
}

// The status of every way to open a container image: FromBytes, then from a
// file through the heap read and, where the platform maps files, through a
// mapping — each labelled for failure messages.
std::vector<std::pair<std::string, util::Status>> OpenEveryWay(
    const std::vector<uint8_t>& image) {
  const std::string path = TempPath("open_every_way.mem");
  WriteFileBytes(path, image);
  std::vector<std::pair<std::string, util::Status>> opens;
  opens.emplace_back("FromBytes",
                     util::ArtifactReader::FromBytes(image, kTestMagic, 1)
                         .status());
  opens.emplace_back(
      "heap open", util::ArtifactReader::FromFile(path, kTestMagic, 1).status());
  if (util::MmapFile::Supported()) {
    util::ArtifactOpenOptions options;
    options.mapping = util::ArtifactOpenOptions::Mapping::kRequire;
    opens.emplace_back(
        "mapped open",
        util::ArtifactReader::FromFile(path, kTestMagic, 1, options).status());
  }
  return opens;
}

TEST(IoTest, RejectsEveryTruncation) {
  util::ArtifactWriter writer(kTestMagic, 1);
  writer.AddSection("s").WriteU64(0x1122334455667788ull);
  const std::vector<uint8_t> image = writer.Serialize();
  for (size_t len = 0; len < image.size(); ++len) {
    const std::vector<uint8_t> prefix(image.begin(), image.begin() + len);
    for (const auto& [how, status] : OpenEveryWay(prefix)) {
      EXPECT_FALSE(status.ok())
          << how << ": prefix of " << len << " bytes accepted";
    }
  }
}

TEST(IoTest, RejectsEverySingleByteFlip) {
  util::ArtifactWriter writer(kTestMagic, 1);
  writer.AddSection("s").WriteU64(0xA5A5A5A5A5A5A5A5ull);
  writer.AddSection("t").WriteString("guarded");
  const std::vector<uint8_t> image = writer.Serialize();
  for (const auto& [how, status] : OpenEveryWay(image)) {
    EXPECT_TRUE(status.ok()) << how << ": " << status;
  }
  for (size_t pos = 0; pos < image.size(); ++pos) {
    std::vector<uint8_t> corrupt = image;
    corrupt[pos] ^= 0x01;
    for (const auto& [how, status] : OpenEveryWay(corrupt)) {
      EXPECT_FALSE(status.ok()) << how << ": flip at byte " << pos
                                << " accepted";
    }
  }
}

TEST(IoTest, RejectsOverflowingTableOffset) {
  // A header table offset near 2^64 must fail the bounds check, not wrap
  // past it and drive the checksum off the end of the buffer.
  util::ArtifactWriter writer(kTestMagic, 1);
  writer.AddSection("s").WriteU32(1);
  std::vector<uint8_t> image = writer.Serialize();
  for (int b = 0; b < 8; ++b) image[16 + b] = 0xFF;
  image[16] = 0xF8;  // table_offset = 0xFFFFFFFFFFFFFFF8
  auto reader =
      util::ArtifactReader::FromBytes(std::move(image), kTestMagic, 1);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(IoTest, MissingFileIsNotFound) {
  auto reader = util::ArtifactReader::FromFile(
      TempPath("no_such_file.mem"), kTestMagic, 1);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), util::StatusCode::kNotFound);
}

// One section of a hand-assembled container: `payload` lands at `offset`.
struct RawSection {
  std::string name;
  size_t offset;
  std::vector<uint8_t> payload;
};

// A container with its section table at `table_offset` that no writer would
// produce: sections go exactly where they say (later ones overwrite earlier
// ones where they overlap), everything else is zero, and every checksum is
// taken over the final bytes — so only the extents themselves are wrong.
std::vector<uint8_t> RawContainer(const std::vector<RawSection>& sections,
                                  size_t table_offset) {
  std::vector<uint8_t> image(table_offset, 0);
  util::ByteWriter header;
  header.WriteU64(kTestMagic);
  header.WriteU32(1);
  header.WriteU32(static_cast<uint32_t>(sections.size()));
  header.WriteU64(table_offset);
  std::copy(header.bytes().begin(), header.bytes().end(), image.begin());
  for (const RawSection& s : sections) {
    std::copy(s.payload.begin(), s.payload.end(), image.begin() + s.offset);
  }
  util::ByteWriter table;
  for (const RawSection& s : sections) {
    table.WriteU16(static_cast<uint16_t>(s.name.size()));
    table.WriteBytes(s.name.data(), s.name.size());
    table.WriteU64(s.offset);
    table.WriteU64(s.payload.size());
    table.WriteU64(util::Fnv1a64(image.data() + s.offset, s.payload.size()));
  }
  table.WriteU64(util::Fnv1a64(table.bytes().data(), table.size()));
  image.insert(image.end(), table.bytes().begin(), table.bytes().end());
  return image;
}

// Section extents must be ascending and disjoint — the rule that caps a heap
// open's section blocks at the file size. Checked through every open.
TEST(IoTest, RejectsOverlappingOrDescendingSections) {
  const std::vector<uint8_t> ones(16, 0x11);
  const std::vector<uint8_t> twos(16, 0x22);
  const std::vector<uint8_t> zeros(8, 0);
  const std::vector<std::vector<uint8_t>> images = {
      // "b" starts inside "a"; both checksums hold over the shared bytes.
      RawContainer({{"a", 64, ones}, {"b", 72, twos}}, 128),
      // Disjoint but out of order, over zero payloads whose zero padding
      // and checksums both pass.
      RawContainer({{"a", 128, zeros}, {"b", 64, zeros}}, 192),
  };
  for (size_t i = 0; i < images.size(); ++i) {
    for (const auto& [how, status] : OpenEveryWay(images[i])) {
      EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument)
          << how << ", container " << i << ": " << status;
      EXPECT_NE(status.message().find("ascending"), std::string::npos)
          << how << ", container " << i << ": " << status;
    }
  }
}

// Every payload byte of section `name`, or an empty vector after a failed
// assertion.
std::vector<uint8_t> SectionBytes(const util::ArtifactReader& reader,
                                  const std::string& name) {
  auto section = reader.Section(name);
  EXPECT_TRUE(section.ok()) << section.status();
  if (!section.ok()) return {};
  std::vector<uint8_t> bytes(section->remaining());
  for (uint8_t& byte : bytes) EXPECT_TRUE(section->ReadU8(&byte).ok());
  return bytes;
}

// WriteFile streams the image it writes piece by piece; Serialize assembles
// the same pieces in memory. The byte-identical re-save gates rest on the
// two agreeing for every padding case: no section at all, empty payloads,
// and payload sizes of 0, 1 and 63 mod 64, one of them spanning several
// streamed chunks.
TEST(IoTest, WriteFileWritesSerializeBytes) {
  const std::vector<std::vector<size_t>> layouts = {
      {}, {0, 0}, {64, 1, 63}, {0, 130, (size_t{1} << 20) + 1, 127}};
  const std::string path = TempPath("streamed.mem");
  for (const std::vector<size_t>& sizes : layouts) {
    SCOPED_TRACE("payload sizes: " + ::testing::PrintToString(sizes));
    util::ArtifactWriter writer(kTestMagic, 1);
    std::vector<std::vector<uint8_t>> payloads;
    std::vector<std::string> names;
    for (size_t s = 0; s < sizes.size(); ++s) {
      std::vector<uint8_t> payload(sizes[s]);
      for (size_t b = 0; b < payload.size(); ++b) {
        payload[b] = static_cast<uint8_t>(b * 131 + s);
      }
      names.push_back("section" + std::to_string(s));
      writer.AddSection(names.back()).WriteBytes(payload.data(),
                                                 payload.size());
      payloads.push_back(std::move(payload));
    }
    ASSERT_TRUE(writer.WriteFile(path).ok());
    EXPECT_EQ(ReadFileBytes(path), writer.Serialize());
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

    std::vector<util::ArtifactOpenOptions::Mapping> mappings = {
        util::ArtifactOpenOptions::Mapping::kDisable};
    if (util::MmapFile::Supported()) {
      mappings.push_back(util::ArtifactOpenOptions::Mapping::kRequire);
    }
    for (const auto mapping : mappings) {
      util::ArtifactOpenOptions options;
      options.mapping = mapping;
      auto reader =
          util::ArtifactReader::FromFile(path, kTestMagic, 1, options);
      ASSERT_TRUE(reader.ok()) << reader.status();
      EXPECT_EQ(reader->SectionNames(), names);
      for (size_t s = 0; s < names.size(); ++s) {
        EXPECT_EQ(SectionBytes(*reader, names[s]), payloads[s])
            << names[s] << (reader->mapped() ? " mapped" : " heap");
      }
    }
  }
}

// The FNV-1a-64 byte loop that defines the container checksum: the
// reference util::Fnv1a64 must match whichever way it computes the hash.
uint64_t Fnv1a64ByteLoop(const uint8_t* p, size_t size, uint64_t state) {
  for (size_t i = 0; i < size; ++i) {
    state ^= p[i];
    state *= 0x100000001b3ULL;
  }
  return state;
}

TEST(IoTest, Fnv1a64MatchesByteLoop) {
  std::printf("[ checksum ] Fnv1a64 path: %s\n",
              util::Fnv1a64SimdEnabled() ? "AVX-512 blockwise kernel"
                                         : "byte loop");
  // Published FNV-1a-64 test vectors.
  EXPECT_EQ(util::Fnv1a64("", 0), 0xcbf29ce484222325ULL);
  EXPECT_EQ(util::Fnv1a64("a", 1), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(util::Fnv1a64("foobar", 6), 0x85944171f73967e8ULL);

  // Every length up to two groups, each length around the block (64 B),
  // group (512 B) and superblock (4 KiB) edges up to 16 KiB, then random
  // lengths up to 20,000 bytes.
  constexpr size_t kMaxLength = 20000;
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 1024; ++n) lengths.push_back(n);
  for (size_t edge = 1024; edge <= 16384; edge += 64) {
    for (size_t n = edge - 2; n <= edge + 2; ++n) lengths.push_back(n);
  }
  util::Rng rng(17);
  for (int i = 0; i < 400; ++i) {
    lengths.push_back(static_cast<size_t>(rng.NextBounded(kMaxLength + 1)));
  }

  // Random, all-zero, all-0xFF and low-entropy (mostly zero) content, at a
  // random start offset within a cache line.
  std::vector<uint8_t> buffer(kMaxLength + 64);
  for (size_t c = 0; c < lengths.size(); ++c) {
    const size_t n = lengths[c];
    const int kind = static_cast<int>(c % 4);
    for (uint8_t& byte : buffer) {
      switch (kind) {
        case 0: byte = static_cast<uint8_t>(rng.Next()); break;
        case 1: byte = 0x00; break;
        case 2: byte = 0xFF; break;
        default:
          byte = rng.NextBounded(16) == 0
                     ? static_cast<uint8_t>(rng.NextBounded(4))
                     : 0;
      }
    }
    const size_t offset = static_cast<size_t>(rng.NextBounded(64));
    const uint8_t* p = buffer.data() + offset;
    const uint64_t state = c % 3 == 0 ? util::kFnv1a64Offset : rng.Next();
    SCOPED_TRACE("length " + std::to_string(n) + ", kind " +
                 std::to_string(kind) + ", offset " + std::to_string(offset));
    const uint64_t expected = Fnv1a64ByteLoop(p, n, state);
    ASSERT_EQ(util::Fnv1a64(p, n, state), expected);

    // Continuing from hash(A) over B equals hashing A‖B, for a random split
    // and a split on a block edge (how chunked writers and readers call it).
    const size_t splits[] = {static_cast<size_t>(rng.NextBounded(n + 1)),
                             n / 64 / 2 * 64};
    for (const size_t split : splits) {
      EXPECT_EQ(util::Fnv1a64(p + split, n - split,
                              util::Fnv1a64(p, split, state)),
                expected)
          << "split at " << split;
    }
  }
}

// A multi-megabyte section is hashed over many whole superblocks (the v1
// goldens, all under 5 KB, are not). Its stored checksum is the byte loop's,
// it loads heap and mapped, and one byte flipped in the middle of a
// superblock still fails the checksum.
TEST(IoTest, MultiMegabyteSectionChecksum) {
  std::vector<uint8_t> payload((size_t{3} << 20) + 777);
  util::Rng rng(23);
  for (uint8_t& byte : payload) byte = static_cast<uint8_t>(rng.Next());
  util::ArtifactWriter writer(kTestMagic, 1);
  writer.AddSection("big").WriteBytes(payload.data(), payload.size());
  const std::string path = TempPath("multi_mb.mem");
  ASSERT_TRUE(writer.WriteFile(path).ok());

  // The only table entry ends with the section's checksum, followed by the
  // table's own checksum.
  std::vector<uint8_t> image = ReadFileBytes(path);
  const uint8_t* entry_checksum = image.data() + image.size() - 16;
  uint64_t stored = 0;
  for (int b = 7; b >= 0; --b) stored = (stored << 8) | entry_checksum[b];
  EXPECT_EQ(stored, Fnv1a64ByteLoop(payload.data(), payload.size(),
                                    util::kFnv1a64Offset));

  std::vector<util::ArtifactOpenOptions::Mapping> mappings = {
      util::ArtifactOpenOptions::Mapping::kDisable};
  if (util::MmapFile::Supported()) {
    mappings.push_back(util::ArtifactOpenOptions::Mapping::kRequire);
  }
  util::ArtifactOpenOptions options;
  for (const auto mapping : mappings) {
    options.mapping = mapping;
    auto reader = util::ArtifactReader::FromFile(path, kTestMagic, 1, options);
    ASSERT_TRUE(reader.ok()) << reader.status();
    EXPECT_EQ(SectionBytes(*reader, "big"), payload);
  }

  // The payload starts at the first 64-byte boundary past the 24-byte
  // header; flip byte 2,000 of its 300th superblock.
  image[64 + 300 * 4096 + 2000] ^= 0x10;
  WriteFileBytes(path, image);
  for (const auto mapping : mappings) {
    options.mapping = mapping;
    auto reader = util::ArtifactReader::FromFile(path, kTestMagic, 1, options);
    ASSERT_FALSE(reader.ok());
    EXPECT_EQ(reader.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(reader.status().message().find("checksum mismatch"),
              std::string::npos)
        << reader.status();
  }
}

// A heap open of at least 1 MiB of payload hashes each section on a helper
// thread while it reads the next bytes. Whatever the input, it must return
// exactly the Status (code and message, after FromFile's path prefix) that
// FromBytes returns for the same image, as must a mapped open and both opens
// given a verify pool. The 3 MiB container holds sections of one chunk
// (1 MiB) and of more than two, one that crosses its chunk boundary by a
// byte, small ones and an empty one; each input flips bytes of it or
// truncates it.
TEST(IoTest, LargeOpensRejectExactlyLikeFromBytes) {
  const std::vector<std::pair<std::string, size_t>> layout = {
      {"small", 8},       {"empty", 0},
      {"big", (size_t{2} << 20) + 333}, {"mid", 100},
      {"edge", (size_t{1} << 20) + 1},  {"chunk", size_t{1} << 20},
      {"tail", 63}};
  util::Rng rng(29);
  util::ArtifactWriter writer(kTestMagic, 1);
  std::vector<size_t> offsets;  // of each payload, then of the table
  size_t cursor = 24;           // the header
  for (const auto& [name, size] : layout) {
    std::vector<uint8_t> payload(size);
    for (uint8_t& byte : payload) byte = static_cast<uint8_t>(rng.Next());
    writer.AddSection(name).WriteBytes(payload.data(), payload.size());
    cursor = (cursor + 63) / 64 * 64;
    offsets.push_back(cursor);
    cursor += size;
  }
  offsets.push_back(cursor);
  const std::vector<uint8_t> image = writer.Serialize();
  ASSERT_GE(image.size(), size_t{3} << 20);

  // Inputs: the image, then each damaged copy, labelled.
  std::vector<std::pair<std::string, std::vector<uint8_t>>> inputs;
  inputs.emplace_back("intact", image);
  auto flipped = [&](std::initializer_list<size_t> positions) {
    std::vector<uint8_t> copy = image;
    for (size_t pos : positions) copy[pos] ^= 0x04;
    return copy;
  };
  for (size_t s = 0; s < layout.size(); ++s) {
    const size_t size = layout[s].second;
    if (size == 0) continue;
    const size_t at = offsets[s];
    for (size_t pos : {at, at + size / 2, at + size - 1}) {
      inputs.emplace_back(layout[s].first + " byte " + std::to_string(pos),
                          flipped({pos}));
    }
  }
  std::vector<size_t> padding;  // the first padding byte of every gap
  for (size_t s = 0; s < layout.size(); ++s) {
    const size_t end = offsets[s] + layout[s].second;
    const size_t next = s + 1 < layout.size() ? offsets[s + 1] : end;
    if (end < next) padding.push_back(end);
  }
  ASSERT_GE(padding.size(), 3u);
  for (size_t pos : padding) {
    inputs.emplace_back("padding byte " + std::to_string(pos), flipped({pos}));
  }
  const size_t table = offsets.back();
  for (size_t pos : {table, table + 30, image.size() - 9, image.size() - 1}) {
    inputs.emplace_back("table byte " + std::to_string(pos), flipped({pos}));
  }
  // Several faults: a later padding error wins over an earlier checksum
  // mismatch, and of two mismatches the first in file order is named.
  inputs.emplace_back("small checksum + last padding",
                      flipped({offsets[0] + 3, padding.back()}));
  inputs.emplace_back("big checksum + edge padding",
                      flipped({offsets[2] + 5, offsets[4] + layout[4].second}));
  inputs.emplace_back("big and edge checksums",
                      flipped({offsets[2] + (size_t{3} << 19), offsets[4]}));
  inputs.emplace_back("chunk and tail checksums",
                      flipped({offsets[5] + 7, offsets[6] + 62}));
  {
    // No writer leaves a gap between the last payload and the table; a
    // crafted container can, and its zero fill is checked like any other.
    const std::vector<uint8_t> payload(layout[2].second, 0x5A);
    std::vector<uint8_t> crafted =
        RawContainer({{"big", 64, payload}}, 64 + payload.size() + 40);
    crafted[64 + 9] ^= 0x01;                   // the payload's checksum
    crafted[64 + payload.size() + 20] = 0x01;  // the gap before the table
    inputs.emplace_back("crafted: big checksum + padding before the table",
                        std::move(crafted));
  }
  for (size_t len : {size_t{0}, size_t{23}, size_t{24}, size_t{100},
                     offsets[2] + 1, offsets[3] - 1, offsets[4] + (1u << 20),
                     table, table + 1, image.size() - 8, image.size() - 1}) {
    inputs.emplace_back("truncated to " + std::to_string(len),
                        std::vector<uint8_t>(image.begin(), image.begin() + len));
  }

  util::ThreadPool pool(2);
  const std::string path = TempPath("large_open.mem");
  for (const auto& [what, bytes] : inputs) {
    SCOPED_TRACE(what);
    WriteFileBytes(path, bytes);
    const util::Status want =
        util::ArtifactReader::FromBytes(bytes, kTestMagic, 1).status();
    std::vector<std::pair<std::string, util::ArtifactOpenOptions>> opens;
    opens.emplace_back("heap", util::ArtifactOpenOptions{});
    opens.emplace_back("heap with pool",
                       util::ArtifactOpenOptions{.verify_pool = &pool});
    if (util::MmapFile::Supported()) {
      const auto mapped = util::ArtifactOpenOptions::Mapping::kRequire;
      opens.emplace_back("mapped",
                         util::ArtifactOpenOptions{.mapping = mapped});
      opens.emplace_back("mapped with pool",
                         util::ArtifactOpenOptions{.mapping = mapped,
                                                   .verify_pool = &pool});
    }
    for (const auto& [how, options] : opens) {
      auto reader = util::ArtifactReader::FromFile(path, kTestMagic, 1, options);
      if (want.ok()) {
        ASSERT_TRUE(reader.ok()) << how << ": " << reader.status();
        for (size_t s = 0; s < layout.size(); ++s) {
          const std::vector<uint8_t> got = SectionBytes(*reader, layout[s].first);
          ASSERT_TRUE(std::equal(got.begin(), got.end(),
                                 bytes.begin() + offsets[s],
                                 bytes.begin() + offsets[s] + got.size()) &&
                      got.size() == layout[s].second)
              << how << ": section " << layout[s].first;
        }
        continue;
      }
      ASSERT_FALSE(reader.ok()) << how;
      EXPECT_EQ(reader.status().code(), want.code()) << how;
      EXPECT_EQ(reader.status().message(),
                "'" + path + "': " + want.message())
          << how;
    }
  }
}

// A heap open reads each section of at least kHugeBlockBytes into a block
// aligned to it (advised for huge pages), and every other section into a
// 64-byte-aligned block. A typed array sits 8 bytes into its section, and
// ReadArrayCow views it in place, so the view's address shows the block's.
TEST(IoTest, HeapOpenAlignsHugeSectionsToHugeBlocks) {
  const size_t huge = util::kHugeBlockBytes;
  const std::vector<std::pair<std::string, size_t>> layout = {
      {"tiny", 8},           {"under", huge - 1}, {"exact", huge},
      {"over", huge + 333},  {"mid", 100},        {"double", 2 * huge + 64}};
  util::Rng rng(31);
  util::ArtifactWriter writer(kTestMagic, 1);
  for (const auto& [name, size] : layout) {
    std::vector<int8_t> elements(size - 8);  // after the u64 count
    for (int8_t& e : elements) e = static_cast<int8_t>(rng.Next());
    writer.AddSection(name).WriteI8Array(elements);
  }
  const std::string path = TempPath("huge_blocks.mem");
  ASSERT_TRUE(writer.WriteFile(path).ok());
  util::ThreadPool pool(2);
  util::ThreadPool* const pools[] = {nullptr, &pool};
  for (const auto verify : {util::ArtifactOpenOptions::Verify::kFull,
                            util::ArtifactOpenOptions::Verify::kStructural}) {
    for (util::ThreadPool* verify_pool : pools) {
      auto reader = util::ArtifactReader::FromFile(
          path, kTestMagic, 1,
          util::ArtifactOpenOptions{.verify = verify,
                                    .verify_pool = verify_pool});
      ASSERT_TRUE(reader.ok()) << reader.status();
      for (const auto& [name, size] : layout) {
        auto section = reader->Section(name);
        ASSERT_TRUE(section.ok()) << section.status();
        util::CowSlab<int8_t> slab;
        ASSERT_TRUE(section->ReadArrayCow(&slab).ok()) << name;
        ASSERT_TRUE(slab.is_view()) << name;
        const uintptr_t block =
            reinterpret_cast<uintptr_t>(std::as_const(slab).data()) - 8;
        const size_t align = size >= huge ? huge : util::kSectionAlignBytes;
        EXPECT_EQ(block % align, 0u) << name << " (" << size << " bytes)";
      }
    }
  }
}

// FromFiles gives each file what FromFile gives it alone, whatever the
// files around it hold: damaged large files whose helpers still hash while
// the next files are read, good files after them, a truncated file, a
// missing one, a directory and a wrong magic; heap and mapped.
TEST(IoTest, FromFilesGivesEachFileItsFromFileResult) {
  util::Rng rng(37);
  auto container = [&](size_t bytes) {
    util::ArtifactWriter writer(kTestMagic, 1);
    std::vector<uint8_t> payload(bytes);
    for (uint8_t& byte : payload) byte = static_cast<uint8_t>(rng.Next());
    writer.AddSection("head").WriteBytes(payload.data(), 100);
    writer.AddSection("body").WriteBytes(payload.data(), payload.size());
    return writer.Serialize();
  };
  std::vector<uint8_t> big_bad = container(util::kHugeBlockBytes + 5);
  big_bad[big_bad.size() / 2] ^= 0x08;
  std::vector<uint8_t> mid_bad = container((size_t{3} << 19) + 7);
  mid_bad[200] ^= 0x01;
  const std::string dir = TempPath("from_files");
  std::filesystem::create_directories(dir + "/directory.mem");
  const std::vector<std::pair<std::string, std::vector<uint8_t>>> contents = {
      {"big_bad.mem", big_bad},
      {"good.mem", container(util::kHugeBlockBytes + 99)},
      {"small.mem", container(4000)},
      {"mid_bad.mem", mid_bad},
      {"truncated.mem", std::vector<uint8_t>(big_bad.begin(),
                                             big_bad.end() - 9)}};
  std::vector<util::ArtifactFile> files;
  for (const auto& [name, bytes] : contents) {
    WriteFileBytes(dir + "/" + name, bytes);
    files.push_back({dir + "/" + name, kTestMagic, 1});
  }
  files.push_back({dir + "/missing.mem", kTestMagic, 1});
  files.push_back({dir + "/directory.mem", kTestMagic, 1});
  files.push_back({dir + "/good.mem", util::ArtifactMagic("MEMOTHER"), 1});

  std::vector<std::pair<std::string, util::ArtifactOpenOptions>> opens;
  opens.emplace_back("heap", util::ArtifactOpenOptions{});
  if (util::MmapFile::Supported()) {
    opens.emplace_back(
        "mapped", util::ArtifactOpenOptions{
                      .mapping = util::ArtifactOpenOptions::Mapping::kRequire});
  }
  for (const auto& [how, options] : opens) {
    const std::vector<util::Result<util::ArtifactReader>> opened =
        util::ArtifactReader::FromFiles(files, options);
    ASSERT_EQ(opened.size(), files.size()) << how;
    for (size_t i = 0; i < files.size(); ++i) {
      SCOPED_TRACE(how + " " + files[i].path);
      const auto alone = util::ArtifactReader::FromFile(
          files[i].path, files[i].magic, files[i].max_version, options);
      ASSERT_EQ(opened[i].ok(), alone.ok()) << opened[i].status();
      if (!alone.ok()) {
        EXPECT_EQ(opened[i].status().code(), alone.status().code());
        EXPECT_EQ(opened[i].status().message(), alone.status().message());
        continue;
      }
      for (const char* name : {"head", "body"}) {
        EXPECT_EQ(SectionBytes(*opened[i], name), SectionBytes(*alone, name));
      }
    }
    for (size_t i = 0; i < files.size(); ++i) {
      EXPECT_EQ(opened[i].ok(), i == 1 || i == 2) << how << " " << i;
    }
  }
}

#if defined(__unix__) || defined(__APPLE__)
// Writes `writer` to `path` with the process's file-size limit at 64 KiB
// and SIGXFSZ ignored, so the kernel refuses the write partway through any
// larger image (EFBIG). Prints the status and exits 0 when the write failed
// and left neither `path` nor its staged `.tmp`. For a death-test child.
[[noreturn]] void WriteUnderFileSizeLimit(const util::ArtifactWriter& writer,
                                          const std::string& path) {
  std::signal(SIGXFSZ, SIG_IGN);
  constexpr rlim_t kMaxBytes = 64 << 10;
  const struct rlimit limit = {kMaxBytes, kMaxBytes};
  if (setrlimit(RLIMIT_FSIZE, &limit) != 0) std::_Exit(2);
  const util::Status status = writer.WriteFile(path);
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  const bool left_nothing = !std::filesystem::exists(path) &&
                            !std::filesystem::exists(path + ".tmp");
  std::_Exit(!status.ok() && left_nothing ? 0 : 1);
}

// A write that fails in the middle of a payload returns an error and leaves
// neither the file nor its staged `.tmp`. Only the child process takes the
// file-size limit; the 1 MiB payload crosses it.
TEST(IoTest, FailedWriteMidPayloadLeavesNoFile) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  util::ArtifactWriter writer(kTestMagic, 1);
  const std::vector<uint8_t> payload(size_t{1} << 20, 0x5A);
  writer.AddSection("big").WriteBytes(payload.data(), payload.size());
  const std::string path = TempPath("fsize_limited.mem");
  EXPECT_EXIT(WriteUnderFileSizeLimit(writer, path),
              ::testing::ExitedWithCode(0), "short write");
}
#endif

// ----------------------------------------------------------------- hnsw --

void ExpectIdenticalSearches(const ann::VectorIndex& a,
                             const ann::VectorIndex& b,
                             const embed::EmbeddingMatrix& queries,
                             size_t k) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t q = 0; q < queries.num_rows(); ++q) {
    EXPECT_EQ(a.Search(queries.Row(q), k), b.Search(queries.Row(q), k))
        << "query " << q;
  }
}

TEST(HnswPersistTest, SearchIdenticalAfterReload) {
  const size_t dim = 24;
  embed::EmbeddingMatrix corpus = RandomVectors(600, dim, 1);
  embed::EmbeddingMatrix queries = RandomVectors(40, dim, 2);

  ann::HnswIndex index(dim, ann::Metric::kCosine);
  index.AddBatch(corpus);

  const std::string path = TempPath("hnsw_roundtrip.mem");
  ASSERT_TRUE(index.Save(path).ok());
  auto loaded = ann::LoadVectorIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  EXPECT_EQ((*loaded)->kind(), "hnsw");
  EXPECT_EQ((*loaded)->metric(), ann::Metric::kCosine);
  EXPECT_EQ((*loaded)->size(), index.size());
  EXPECT_EQ((*loaded)->SizeBytes(), index.SizeBytes());
  auto* loaded_hnsw = dynamic_cast<ann::HnswIndex*>(loaded->get());
  ASSERT_NE(loaded_hnsw, nullptr);
  EXPECT_EQ(loaded_hnsw->max_level(), index.max_level());
  ExpectIdenticalSearches(index, **loaded, queries, 10);
}

TEST(HnswPersistTest, ParallelBuildRoundTrips) {
  const size_t dim = 16;
  // Past 1,024 nodes, so AddBatch inserts in pooled multi-row rounds; the
  // saved graph must still reload verbatim.
  embed::EmbeddingMatrix corpus = RandomVectors(1500, dim, 3);
  embed::EmbeddingMatrix queries = RandomVectors(25, dim, 4);

  util::ThreadPool pool(4);
  ann::HnswIndex index(dim, ann::Metric::kCosine);
  index.AddBatch(corpus, &pool);

  const std::string path = TempPath("hnsw_parallel.mem");
  ASSERT_TRUE(index.Save(path).ok());
  auto loaded = ann::LoadVectorIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectIdenticalSearches(index, **loaded, queries, 10);
}

TEST(HnswPersistTest, EuclideanRoundTrips) {
  const size_t dim = 8;
  embed::EmbeddingMatrix corpus = RandomVectors(200, dim, 5);
  embed::EmbeddingMatrix queries = RandomVectors(10, dim, 6);
  ann::HnswIndex index(dim, ann::Metric::kEuclidean);
  index.AddBatch(corpus);
  const std::string path = TempPath("hnsw_euclidean.mem");
  ASSERT_TRUE(index.Save(path).ok());
  auto loaded = ann::LoadVectorIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ((*loaded)->metric(), ann::Metric::kEuclidean);
  ExpectIdenticalSearches(index, **loaded, queries, 5);
}

TEST(HnswPersistTest, SaveBytesStableAcrossRebuildsAndReload) {
  const size_t dim = 12;
  embed::EmbeddingMatrix corpus = RandomVectors(300, dim, 7);

  // Two independent serial builds of the same corpus are deterministic, so
  // their artifacts are the golden file.
  ann::HnswIndex first(dim, ann::Metric::kCosine);
  first.AddBatch(corpus);
  ann::HnswIndex second(dim, ann::Metric::kCosine);
  second.AddBatch(corpus);
  const std::string path_a = TempPath("hnsw_golden_a.mem");
  const std::string path_b = TempPath("hnsw_golden_b.mem");
  ASSERT_TRUE(first.Save(path_a).ok());
  ASSERT_TRUE(second.Save(path_b).ok());
  EXPECT_EQ(ReadFileBytes(path_a), ReadFileBytes(path_b));

  // Load -> save must also be byte-identical (nothing rewritten, reordered,
  // or refitted on the way through).
  auto loaded = ann::LoadVectorIndex(path_a);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const std::string path_c = TempPath("hnsw_golden_c.mem");
  ASSERT_TRUE((*loaded)->Save(path_c).ok());
  EXPECT_EQ(ReadFileBytes(path_a), ReadFileBytes(path_c));
}

TEST(HnswPersistTest, ContinuesAddingIdenticallyAfterReload) {
  const size_t dim = 12;
  embed::EmbeddingMatrix corpus = RandomVectors(250, dim, 8);
  embed::EmbeddingMatrix extra = RandomVectors(80, dim, 9);
  embed::EmbeddingMatrix queries = RandomVectors(20, dim, 10);

  ann::HnswIndex original(dim, ann::Metric::kCosine);
  original.AddBatch(corpus);
  const std::string path = TempPath("hnsw_continue.mem");
  ASSERT_TRUE(original.Save(path).ok());
  auto loaded = ann::LoadVectorIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  // The level-RNG state round-trips, so post-reload inserts draw the same
  // levels and build the same graph the original would have.
  original.AddBatch(extra);
  (*loaded)->AddBatch(extra);
  ExpectIdenticalSearches(original, **loaded, queries, 10);
}

TEST(HnswPersistTest, RejectsCorruptedFile) {
  const size_t dim = 8;
  embed::EmbeddingMatrix corpus = RandomVectors(64, dim, 11);
  ann::HnswIndex index(dim, ann::Metric::kCosine);
  index.AddBatch(corpus);
  const std::string path = TempPath("hnsw_corrupt.mem");
  ASSERT_TRUE(index.Save(path).ok());

  std::vector<uint8_t> image = ReadFileBytes(path);
  // Truncation.
  WriteFileBytes(path, std::vector<uint8_t>(image.begin(),
                                            image.begin() + image.size() / 2));
  EXPECT_FALSE(ann::LoadVectorIndex(path).ok());
  // Payload bit flip.
  std::vector<uint8_t> flipped = image;
  flipped[flipped.size() / 2] ^= 0x40;
  WriteFileBytes(path, flipped);
  EXPECT_FALSE(ann::LoadVectorIndex(path).ok());
}

TEST(HnswPersistTest, RejectsOverflowingCounts) {
  // Checksum-valid artifacts whose 64-bit counts are crafted to wrap the
  // size arithmetic: the division-form checks must reject them.
  {
    // dim near 2^63 with an empty vector payload (2 * 2^63 wraps to 0).
    util::ArtifactWriter writer(ann::kIndexArtifactMagic,
                                ann::kIndexArtifactVersionFp32);
    util::ByteWriter& meta = writer.AddSection(ann::kIndexMetaSection);
    meta.WriteString("hnsw");
    meta.WriteU64(uint64_t{1} << 63);  // dim
    meta.WriteU8(0);                   // cosine
    meta.WriteU64(2);                  // num_nodes
    meta.WriteU64((uint64_t{1} << 32) | 0);  // entry: level 0, node 0
    util::ByteWriter& config = writer.AddSection("config");
    for (uint64_t v : {uint64_t{16}, uint64_t{32}, uint64_t{200},
                       uint64_t{64}, uint64_t{1}, uint64_t{1024}}) {
      config.WriteU64(v);
    }
    writer.AddSection("rng").WriteU64Array(
        std::vector<uint64_t>{1, 2, 3, 4});
    writer.AddSection("vectors").WriteF32Array(std::vector<float>{});
    const std::string path = TempPath("hnsw_wrap_dim.mem");
    ASSERT_TRUE(writer.WriteFile(path).ok());
    auto loaded = ann::LoadVectorIndex(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
  }
  {
    // Absurd link degrees would wrap the slab-size expectations.
    util::ArtifactWriter writer(ann::kIndexArtifactMagic,
                                ann::kIndexArtifactVersionFp32);
    util::ByteWriter& meta = writer.AddSection(ann::kIndexMetaSection);
    meta.WriteString("hnsw");
    meta.WriteU64(4);  // dim
    meta.WriteU8(0);
    meta.WriteU64(0);  // empty index
    meta.WriteU64(0);
    util::ByteWriter& config = writer.AddSection("config");
    for (uint64_t v : {uint64_t{1} << 40, uint64_t{1} << 41, uint64_t{200},
                       uint64_t{64}, uint64_t{1}, uint64_t{1024}}) {
      config.WriteU64(v);
    }
    const std::string path = TempPath("hnsw_wrap_degree.mem");
    ASSERT_TRUE(writer.WriteFile(path).ok());
    auto loaded = ann::LoadVectorIndex(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
  }
  {
    // brute_force: num_vectors * dim wrapping to 0 over empty payloads.
    util::ArtifactWriter writer(ann::kIndexArtifactMagic,
                                ann::kIndexArtifactVersionFp32);
    util::ByteWriter& meta = writer.AddSection(ann::kIndexMetaSection);
    meta.WriteString("brute_force");
    meta.WriteU64(uint64_t{1} << 32);  // dim
    meta.WriteU8(1);                   // euclidean (no norm cache)
    meta.WriteU64(uint64_t{1} << 32);  // num_vectors; product wraps to 0
    writer.AddSection("vectors").WriteF32Array(std::vector<float>{});
    writer.AddSection("sq_norms").WriteF32Array(std::vector<float>{});
    const std::string path = TempPath("bf_wrap.mem");
    ASSERT_TRUE(writer.WriteFile(path).ok());
    auto loaded = ann::LoadVectorIndex(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
  }
}

TEST(HnswPersistTest, RejectsUpperLinkToNodeBelowThatLevel) {
  // A checksum-valid artifact whose level-1 block links to a node that only
  // exists at level 0: following that edge at level 1 would read past the
  // target's (absent) upper slab, so Load must reject it.
  util::ArtifactWriter writer(ann::kIndexArtifactMagic,
                              ann::kIndexArtifactVersionFp32);
  util::ByteWriter& meta = writer.AddSection(ann::kIndexMetaSection);
  meta.WriteString("hnsw");
  meta.WriteU64(4);                        // dim
  meta.WriteU8(0);                         // cosine
  meta.WriteU64(2);                        // num_nodes
  meta.WriteU64(uint64_t{2} << 32);        // entry: level 1, node 0
  util::ByteWriter& config = writer.AddSection("config");
  for (uint64_t v : {uint64_t{2}, uint64_t{4}, uint64_t{8}, uint64_t{8},
                     uint64_t{1}, uint64_t{1024}}) {  // m=2 m0=4 -> strides 5/3
    config.WriteU64(v);
  }
  writer.AddSection("rng").WriteU64Array(std::vector<uint64_t>{1, 2, 3, 4});
  writer.AddSection("vectors").WriteF32Array(
      std::vector<float>{1, 0, 0, 0, 0, 1, 0, 0});
  writer.AddSection("levels").WriteI32Array(std::vector<int32_t>{1, 0});
  writer.AddSection("links0").WriteU32Array(
      std::vector<uint32_t>{1, 1, 0, 0, 0,    // node 0 -> node 1
                            1, 0, 0, 0, 0});  // node 1 -> node 0
  writer.AddSection("upper_offsets").WriteU64Array(
      std::vector<uint64_t>{0, 3});
  writer.AddSection("upper_links").WriteU32Array(
      std::vector<uint32_t>{1, 1, 0});  // node 0, level 1 -> node 1 (invalid)
  const std::string path = TempPath("hnsw_bad_upper_link.mem");
  ASSERT_TRUE(writer.WriteFile(path).ok());
  auto loaded = ann::LoadVectorIndex(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(HnswPersistTest, RejectsUnknownKind) {
  // A checksum-valid MEMINDEX artifact whose kind tag has no loader.
  util::ArtifactWriter writer(ann::kIndexArtifactMagic,
                              ann::kIndexArtifactVersionFp32);
  writer.AddSection(ann::kIndexMetaSection).WriteString("martian");
  const std::string path = TempPath("unknown_kind.mem");
  ASSERT_TRUE(writer.WriteFile(path).ok());
  auto loaded = ann::LoadVectorIndex(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("martian"), std::string::npos);
}

// ---------------------------------------------------------- brute force --

TEST(BruteForcePersistTest, RoundTripsBothMetrics) {
  for (ann::Metric metric :
       {ann::Metric::kCosine, ann::Metric::kEuclidean}) {
    const size_t dim = 10;
    embed::EmbeddingMatrix corpus = RandomVectors(120, dim, 12);
    embed::EmbeddingMatrix queries = RandomVectors(15, dim, 13);
    ann::BruteForceIndex index(dim, metric);
    index.AddBatch(corpus);
    const std::string path = TempPath("bf_roundtrip.mem");
    ASSERT_TRUE(index.Save(path).ok());
    auto loaded = ann::LoadVectorIndex(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_EQ((*loaded)->kind(), "brute_force");
    EXPECT_EQ((*loaded)->metric(), metric);
    EXPECT_EQ((*loaded)->SizeBytes(), index.SizeBytes());
    ExpectIdenticalSearches(index, **loaded, queries, 7);
  }
}

// -------------------------------------------------------------- encoder --

TEST(EncoderPersistTest, EmbeddingsIdenticalAfterReload) {
  const std::vector<std::string> corpus = {
      "apple iphone 8 plus 64gb silver", "samsung galaxy s9 dual sim",
      "google pixel 3 xl 128gb white",   "apple iphone 8 plus unlocked",
  };
  embed::HashingEncoderConfig config;
  config.dim = 128;
  embed::HashingSentenceEncoder encoder(config);
  encoder.FitFrequencies(corpus);

  const std::string path = TempPath("encoder.mem");
  ASSERT_TRUE(encoder.Save(path).ok());
  auto loaded = embed::LoadTextEncoder(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ((*loaded)->kind(), "hashing");
  EXPECT_EQ((*loaded)->dim(), encoder.dim());

  for (const std::string& text : corpus) {
    EXPECT_EQ(encoder.Encode(text), (*loaded)->Encode(text)) << text;
  }
  EXPECT_EQ(encoder.Encode("iphone 8 64gb"), (*loaded)->Encode("iphone 8 64gb"));

  auto* hashing =
      dynamic_cast<embed::HashingSentenceEncoder*>(loaded->get());
  ASSERT_NE(hashing, nullptr);
  EXPECT_TRUE(hashing->fitted());
  EXPECT_EQ(hashing->TokenWeight("iphone"), encoder.TokenWeight("iphone"));
  EXPECT_EQ(hashing->TokenWeight("nonsense"), encoder.TokenWeight("nonsense"));

  // Re-save of the loaded encoder is byte-identical (sorted vocab).
  const std::string resaved = TempPath("encoder_resave.mem");
  ASSERT_TRUE((*loaded)->Save(resaved).ok());
  EXPECT_EQ(ReadFileBytes(path), ReadFileBytes(resaved));
}

TEST(EncoderPersistTest, UnfittedEncoderRoundTrips) {
  embed::HashingSentenceEncoder encoder;
  const std::string path = TempPath("encoder_unfitted.mem");
  ASSERT_TRUE(encoder.Save(path).ok());
  auto loaded = embed::LoadTextEncoder(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(encoder.Encode("hello world"), (*loaded)->Encode("hello world"));
}

TEST(EncoderPersistTest, RejectsIndexArtifact) {
  // Feeding an index artifact to the encoder loader trips the magic check.
  const size_t dim = 8;
  ann::BruteForceIndex index(dim, ann::Metric::kCosine);
  index.AddBatch(RandomVectors(4, dim, 14));
  const std::string path = TempPath("not_an_encoder.mem");
  ASSERT_TRUE(index.Save(path).ok());
  auto loaded = embed::LoadTextEncoder(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(EncoderPersistTest, RejectsUnknownKind) {
  // A checksum-valid MEMENCDR artifact whose kind tag has no loader.
  util::ArtifactWriter writer(embed::kEncoderArtifactMagic,
                              embed::kEncoderArtifactVersion);
  writer.AddSection(embed::kEncoderMetaSection).WriteString("martian");
  const std::string path = TempPath("unknown_encoder_kind.mem");
  ASSERT_TRUE(writer.WriteFile(path).ok());
  auto loaded = embed::LoadTextEncoder(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("martian"), std::string::npos);
}

// ----------------------------------------------------- pipeline artifact --

std::vector<Table> ProductTables() {
  Schema schema({"title", "color"});
  std::vector<Table> tables;
  {
    Table t("shop_a", schema);
    t.AppendRow({"apple iphone 8 plus 64gb", "silver"}).CheckOk();
    t.AppendRow({"samsung galaxy s9 dual sim 64gb", "black"}).CheckOk();
    t.AppendRow({"google pixel 3 xl 128gb", "white"}).CheckOk();
    t.AppendRow({"sony wh-1000xm3 wireless headphones", "black"}).CheckOk();
    tables.push_back(std::move(t));
  }
  {
    Table t("shop_b", schema);
    t.AppendRow({"apple iphone 8 plus 5.5 64gb unlocked", "silver"}).CheckOk();
    t.AppendRow({"galaxy s9 duos 64 gb by samsung", "midnight black"})
        .CheckOk();
    t.AppendRow({"nintendo switch neon console", "neon"}).CheckOk();
    tables.push_back(std::move(t));
  }
  {
    Table t("shop_c", schema);
    t.AppendRow({"apple iphone 8 plus 14 cm 64 gb ios 11", "silver"}).CheckOk();
    t.AppendRow({"pixel 3 xl google smartphone 128 gb", "clearly white"})
        .CheckOk();
    tables.push_back(std::move(t));
  }
  return tables;
}

MultiEmConfig ServingConfig() {
  MultiEmConfig config;
  config.sample_ratio = 1.0;
  config.m = 0.72f;
  config.eps = 1.2f;
  return config;
}

Table QueryTable() {
  Table q("queries", Schema({"title", "color"}));
  q.AppendRow({"apple iphone 8 plus 64 gb", "silver"}).CheckOk();
  q.AppendRow({"google pixel 3 xl", "white"}).CheckOk();
  q.AppendRow({"espresso machine deluxe", "red"}).CheckOk();
  return q;
}

util::Result<PipelineResult> RunWithMatcher(const MultiEmConfig& config,
                                            const std::vector<Table>& tables) {
  auto pipeline = PipelineBuilder(config).Build();
  if (!pipeline.ok()) return pipeline.status();
  RunContext ctx;
  ctx.build_matcher = true;
  PipelineResult result;
  util::Status status = pipeline->Run(tables, ctx, &result);
  if (!status.ok()) return status;
  return result;
}

TEST(PipelineArtifactTest, MatchRecordsIdenticalAfterReload) {
  auto result = RunWithMatcher(ServingConfig(), ProductTables());
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_NE(result->matcher, nullptr);
  const Matcher& original = *result->matcher;

  const Table queries = QueryTable();
  auto before = original.MatchRecords(queries, 2);
  ASSERT_TRUE(before.ok()) << before.status();
  ASSERT_EQ(before->size(), queries.num_rows());

  const std::string dir = TempPath("artifact_roundtrip");
  ASSERT_TRUE(original.Save(dir).ok());

  auto restored = MultiEmPipeline::LoadArtifact(dir);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->num_items(), original.num_items());
  EXPECT_EQ(restored->source_names(), original.source_names());
  EXPECT_EQ(restored->schema_names(), original.schema_names());
  EXPECT_EQ(restored->selection().selected_columns,
            original.selection().selected_columns);
  EXPECT_EQ(restored->Tuples().tuples(), original.Tuples().tuples());

  // The acceptance bar: queries against the reloaded artifact return
  // exactly what the original in-memory session returned.
  auto after = restored->MatchRecords(queries, 2);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(*before, *after);

  // The iPhone query's best hit is the three-way iPhone group, within the
  // run's matching threshold.
  ASSERT_FALSE((*after)[0].empty());
  const core::RecordMatch& top = (*after)[0][0];
  EXPECT_LE(top.distance, restored->config().m);
  EXPECT_EQ(restored->item_members(top.item).size(), 3u);
}

TEST(PipelineArtifactTest, ResaveIsByteIdentical) {
  auto result = RunWithMatcher(ServingConfig(), ProductTables());
  ASSERT_TRUE(result.ok()) << result.status();
  const std::string dir_a = TempPath("artifact_resave_a");
  ASSERT_TRUE(result->matcher->Save(dir_a).ok());

  auto restored = MultiEmPipeline::LoadArtifact(dir_a);
  ASSERT_TRUE(restored.ok()) << restored.status();
  const std::string dir_b = TempPath("artifact_resave_b");
  ASSERT_TRUE(restored->Save(dir_b).ok());

  for (const char* file :
       {PipelineArtifact::kManifestFile, PipelineArtifact::kEncoderFile,
        PipelineArtifact::kIndexFile}) {
    EXPECT_EQ(ReadFileBytes(dir_a + "/" + file),
              ReadFileBytes(dir_b + "/" + file))
        << file;
  }
}

// The sections of a manifest, as (name, payload) pairs in file order.
using ManifestSections =
    std::vector<std::pair<std::string, std::vector<uint8_t>>>;

// Rewrites the manifest.mem of the artifact in `dir` section by section:
// `edit` receives every section and may rewrite, add or drop any; the list
// it leaves is written back in order.
void EditManifest(const std::string& dir,
                  const std::function<void(ManifestSections&)>& edit) {
  const std::string manifest = dir + "/" + PipelineArtifact::kManifestFile;
  auto reader = util::ArtifactReader::FromFile(
      manifest, PipelineArtifact::kManifestMagic,
      PipelineArtifact::kManifestVersion);
  ASSERT_TRUE(reader.ok()) << reader.status();
  ManifestSections sections;
  for (const std::string& name : reader->SectionNames()) {
    sections.emplace_back(name, SectionBytes(*reader, name));
  }
  edit(sections);
  util::ArtifactWriter writer(PipelineArtifact::kManifestMagic,
                              reader->version());
  for (const auto& [name, bytes] : sections) {
    writer.AddSection(name).WriteBytes(bytes.data(), bytes.size());
  }
  ASSERT_TRUE(writer.WriteFile(manifest).ok());
}

// EditManifest on the config section alone.
void EditManifestConfig(
    const std::string& dir,
    const std::function<void(std::vector<uint8_t>&)>& edit) {
  EditManifest(dir, [&](ManifestSections& sections) {
    for (auto& [name, bytes] : sections) {
      if (name == "config") edit(bytes);
    }
  });
}

// Sessions saved while the config had an exact-KNN flag carry it in the
// manifest config's legacy byte: the u8 right after the retired merged_repr
// byte, at offset 46. Writers now put 0 there; a 1 must still load, as
// index_name "brute_force".
TEST(PipelineArtifactTest, LegacyExactFlagLoadsAsBruteForce) {
  auto result = RunWithMatcher(ServingConfig(), ProductTables());
  ASSERT_TRUE(result.ok()) << result.status();
  const std::string dir = TempPath("artifact_legacy_exact");
  ASSERT_TRUE(result->matcher->Save(dir).ok());

  constexpr size_t kLegacyExactOffset = 46;
  ASSERT_NO_FATAL_FAILURE(
      EditManifestConfig(dir, [&](std::vector<uint8_t>& bytes) {
        ASSERT_GT(bytes.size(), kLegacyExactOffset);
        EXPECT_EQ(0, bytes[kLegacyExactOffset]);
        bytes[kLegacyExactOffset] = 1;
      }));

  auto loaded = MultiEmPipeline::LoadArtifact(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(std::string(core::kBruteForceIndexName),
            loaded->config().index_name);
  // Only the index name moved: the neighbouring fields read back as saved.
  EXPECT_EQ(ServingConfig().hnsw_m, loaded->config().hnsw_m);
  EXPECT_EQ(ServingConfig().m, loaded->config().m);
}

// The manifest config keeps the retired merged_repr byte at offset 45, and
// writers put 0 (the member centroid) there. The first-member
// representation, once stored as 1, is gone: a session saved with it, or
// with any other nonzero value, is refused rather than served with merged
// vectors it was not built with.
TEST(PipelineArtifactTest, RejectsRemovedFirstMemberRepr) {
  auto result = RunWithMatcher(ServingConfig(), ProductTables());
  ASSERT_TRUE(result.ok()) << result.status();
  const std::string dir = TempPath("artifact_first_member");
  ASSERT_TRUE(result->matcher->Save(dir).ok());

  constexpr size_t kMergedReprOffset = 45;
  uint8_t previous = 0;
  for (uint8_t stored : {1, 2}) {
    ASSERT_NO_FATAL_FAILURE(
        EditManifestConfig(dir, [&](std::vector<uint8_t>& bytes) {
          ASSERT_GT(bytes.size(), kMergedReprOffset);
          EXPECT_EQ(previous, bytes[kMergedReprOffset]);
          bytes[kMergedReprOffset] = stored;
        }));
    previous = stored;

    auto loaded = MultiEmPipeline::LoadArtifact(dir);
    ASSERT_FALSE(loaded.ok()) << "stored byte " << int{stored};
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument)
        << loaded.status();
  }
}

// LoadArtifact range-checks the config it reads from disk like one built in
// memory: a NaN m, which would turn off Eq. 1's distance cap, is refused.
// m is the little-endian f32 at offset 41 of the manifest config.
TEST(PipelineArtifactTest, RejectsNanConfigValue) {
  auto result = RunWithMatcher(ServingConfig(), ProductTables());
  ASSERT_TRUE(result.ok()) << result.status();
  const std::string dir = TempPath("artifact_nan_m");
  ASSERT_TRUE(result->matcher->Save(dir).ok());

  constexpr size_t kMOffset = 41;
  ASSERT_NO_FATAL_FAILURE(
      EditManifestConfig(dir, [&](std::vector<uint8_t>& bytes) {
        ASSERT_GE(bytes.size(), kMOffset + sizeof(float));
        util::ByteReader saved(
            std::span<const uint8_t>(bytes).subspan(kMOffset));
        float m = 0.0f;
        ASSERT_TRUE(saved.ReadF32(&m).ok());
        EXPECT_EQ(ServingConfig().m, m);
        util::ByteWriter nan;
        nan.WriteF32(std::numeric_limits<float>::quiet_NaN());
        std::copy(nan.bytes().begin(), nan.bytes().end(),
                  bytes.begin() + kMOffset);
      }));

  auto loaded = MultiEmPipeline::LoadArtifact(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("m must be"), std::string::npos)
      << loaded.status();
}

TEST(PipelineArtifactTest, AddTableMergesNewSourceIncrementally) {
  auto result = RunWithMatcher(ServingConfig(), ProductTables());
  ASSERT_TRUE(result.ok()) << result.status();
  const std::string dir = TempPath("artifact_addtable");
  ASSERT_TRUE(result->matcher->Save(dir).ok());
  auto matcher = MultiEmPipeline::LoadArtifact(dir);
  ASSERT_TRUE(matcher.ok()) << matcher.status();
  const size_t items_before = matcher->num_items();

  Table t("shop_d", Schema({"title", "color"}));
  t.AppendRow({"apple iphone 8 plus 64 gb", "silver"}).CheckOk();
  t.AppendRow({"dyson v11 cordless vacuum", "purple"}).CheckOk();
  ASSERT_TRUE(matcher->AddTable(t).ok());

  // One row merges into the iPhone group, the novel row becomes its own
  // item: net +1.
  EXPECT_EQ(matcher->num_items(), items_before + 1);
  ASSERT_EQ(matcher->source_names().size(), 4u);
  EXPECT_EQ(matcher->source_names().back(), "shop_d");

  Table q("queries", Schema({"title", "color"}));
  q.AppendRow({"apple iphone 8 plus 64 gb", "silver"}).CheckOk();
  q.AppendRow({"dyson v11 vacuum cordless", "purple"}).CheckOk();
  auto matches = matcher->MatchRecords(q, 1);
  ASSERT_TRUE(matches.ok()) << matches.status();
  // The iPhone group now spans four sources, including the new one.
  const auto& iphone_members = matcher->item_members((*matches)[0][0].item);
  EXPECT_EQ(iphone_members.size(), 4u);
  EXPECT_EQ(iphone_members.back().source(), 3u);
  // The new vacuum record is findable.
  const auto& vacuum_members = matcher->item_members((*matches)[1][0].item);
  ASSERT_EQ(vacuum_members.size(), 1u);
  EXPECT_EQ(vacuum_members[0], table::EntityId(3, 1));

  // Ingesting the same source name twice, or a wrong schema, is rejected.
  EXPECT_EQ(matcher->AddTable(t).code(),
            util::StatusCode::kInvalidArgument);
  Table wrong("shop_e", Schema({"name"}));
  wrong.AppendRow({"thing"}).CheckOk();
  EXPECT_EQ(matcher->AddTable(wrong).code(),
            util::StatusCode::kInvalidArgument);
}

// Ingest sequence used by the incremental-vs-rebuild equivalence tests:
// every table plants one duplicate of an existing record (forcing a merge,
// which retires a slot on the incremental index path) plus one novel row.
std::vector<Table> IngestSequence() {
  Schema schema({"title", "color"});
  std::vector<Table> tables;
  {
    Table t("shop_d", schema);
    t.AppendRow({"apple iphone 8 plus 64 gb", "silver"}).CheckOk();
    t.AppendRow({"dyson v11 cordless vacuum", "purple"}).CheckOk();
    tables.push_back(std::move(t));
  }
  {
    Table t("shop_e", schema);
    t.AppendRow({"google pixel 3 xl 128 gb", "white"}).CheckOk();
    t.AppendRow({"breville espresso machine", "steel"}).CheckOk();
    tables.push_back(std::move(t));
  }
  {
    Table t("shop_f", schema);
    t.AppendRow({"sony wh-1000xm3 headphones wireless", "black"}).CheckOk();
    t.AppendRow({"kindle paperwhite 8gb ereader", "black"}).CheckOk();
    tables.push_back(std::move(t));
  }
  return tables;
}

TEST(PipelineArtifactTest, IncrementalAddTableMatchesRebuildPath) {
  auto result = RunWithMatcher(ServingConfig(), ProductTables());
  ASSERT_TRUE(result.ok()) << result.status();
  const std::string dir = TempPath("artifact_inc_vs_rebuild");
  ASSERT_TRUE(result->matcher->Save(dir).ok());

  // Two copies of the same session ingest the same sequence, one via
  // clone-and-insert, one via the reference full-rebuild path.
  auto incremental = MultiEmPipeline::LoadArtifact(dir);
  ASSERT_TRUE(incremental.ok()) << incremental.status();
  auto rebuild = MultiEmPipeline::LoadArtifact(dir);
  ASSERT_TRUE(rebuild.ok()) << rebuild.status();
  for (const Table& t : IngestSequence()) {
    core::AddTableOptions inc;
    ASSERT_TRUE(incremental->AddTable(t, inc).ok());
    core::AddTableOptions reb;
    reb.rebuild_index = true;
    ASSERT_TRUE(rebuild->AddTable(t, reb).ok());
  }

  // The merge output is identical: the incremental centroid updates must
  // reproduce the rebuild path's entity table exactly.
  EXPECT_EQ(incremental->num_items(), rebuild->num_items());
  EXPECT_EQ(incremental->source_names(), rebuild->source_names());
  EXPECT_EQ(incremental->Tuples().tuples(), rebuild->Tuples().tuples());

  // Planted-duplicate recall: each planted duplicate's query resolves to
  // the same (grown) entity group on both paths, within the threshold.
  Table q("queries", Schema({"title", "color"}));
  q.AppendRow({"apple iphone 8 plus 64 gb", "silver"}).CheckOk();
  q.AppendRow({"google pixel 3 xl 128 gb", "white"}).CheckOk();
  q.AppendRow({"sony wh-1000xm3 headphones", "black"}).CheckOk();
  auto inc_matches = incremental->MatchRecords(q, 1);
  ASSERT_TRUE(inc_matches.ok()) << inc_matches.status();
  auto reb_matches = rebuild->MatchRecords(q, 1);
  ASSERT_TRUE(reb_matches.ok()) << reb_matches.status();
  const core::Matcher::Snapshot inc_snap = incremental->snapshot();
  const core::Matcher::Snapshot reb_snap = rebuild->snapshot();
  for (size_t row = 0; row < q.num_rows(); ++row) {
    ASSERT_FALSE((*inc_matches)[row].empty());
    ASSERT_FALSE((*reb_matches)[row].empty());
    const core::RecordMatch& inc_hit = (*inc_matches)[row][0];
    const core::RecordMatch& reb_hit = (*reb_matches)[row][0];
    EXPECT_LE(inc_hit.distance, incremental->config().m) << "row " << row;
    EXPECT_EQ(inc_snap.item_members(inc_hit.item),
              reb_snap.item_members(reb_hit.item))
        << "row " << row;
    EXPECT_EQ(inc_hit.distance, reb_hit.distance) << "row " << row;
  }
}

TEST(PipelineArtifactTest, ReloadedIncrementallyGrownSessionServesIdentically) {
  auto result = RunWithMatcher(ServingConfig(), ProductTables());
  ASSERT_TRUE(result.ok()) << result.status();
  const std::string base_dir = TempPath("artifact_grown_base");
  ASSERT_TRUE(result->matcher->Save(base_dir).ok());

  auto grown = MultiEmPipeline::LoadArtifact(base_dir);
  ASSERT_TRUE(grown.ok()) << grown.status();
  for (const Table& t : IngestSequence()) {
    ASSERT_TRUE(grown->AddTable(t).ok());
  }
  // The merging ingests retired slots, so the saved manifest carries a
  // non-trivial slot map (format v2).
  ASSERT_GT(grown->snapshot().dead_slots(), 0u);

  const std::string dir = TempPath("artifact_grown");
  ASSERT_TRUE(grown->Save(dir).ok());
  auto reloaded = MultiEmPipeline::LoadArtifact(dir);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  EXPECT_EQ(reloaded->epoch(), 0u);  // epochs are session-local
  EXPECT_EQ(reloaded->num_items(), grown->num_items());
  EXPECT_EQ(reloaded->snapshot().dead_slots(),
            grown->snapshot().dead_slots());
  EXPECT_EQ(reloaded->Tuples().tuples(), grown->Tuples().tuples());

  // Bit-equal serving: the reloaded session (index + slot map verbatim)
  // answers exactly like the in-memory grown session.
  Table q("queries", Schema({"title", "color"}));
  q.AppendRow({"apple iphone 8 plus 64 gb", "silver"}).CheckOk();
  q.AppendRow({"dyson v11 vacuum", "purple"}).CheckOk();
  q.AppendRow({"kindle paperwhite ereader", "black"}).CheckOk();
  auto before = grown->MatchRecords(q, 3);
  ASSERT_TRUE(before.ok()) << before.status();
  auto after = reloaded->MatchRecords(q, 3);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(*before, *after);

  // Resave of the reloaded artifact is byte-identical, slot map included.
  const std::string resaved = TempPath("artifact_grown_resave");
  ASSERT_TRUE(reloaded->Save(resaved).ok());
  for (const char* file :
       {PipelineArtifact::kManifestFile, PipelineArtifact::kEncoderFile,
        PipelineArtifact::kIndexFile}) {
    EXPECT_EQ(ReadFileBytes(dir + "/" + file),
              ReadFileBytes(resaved + "/" + file))
        << file;
  }

  // And the reloaded session keeps growing identically: one more ingest on
  // both sessions yields the same answers again.
  Table extra("shop_g", Schema({"title", "color"}));
  extra.AppendRow({"dyson v11 vacuum cordless", "purple"}).CheckOk();
  extra.AppendRow({"lego millennium falcon 75192", "grey"}).CheckOk();
  ASSERT_TRUE(grown->AddTable(extra).ok());
  ASSERT_TRUE(reloaded->AddTable(extra).ok());
  auto grown_more = grown->MatchRecords(q, 3);
  ASSERT_TRUE(grown_more.ok());
  auto reloaded_more = reloaded->MatchRecords(q, 3);
  ASSERT_TRUE(reloaded_more.ok());
  EXPECT_EQ(*grown_more, *reloaded_more);
}

TEST(PipelineArtifactTest, AddTableCentroidsMatchFullRecompute) {
  auto result = RunWithMatcher(ServingConfig(), ProductTables());
  ASSERT_TRUE(result.ok()) << result.status();
  const std::string dir = TempPath("artifact_centroids");
  ASSERT_TRUE(result->matcher->Save(dir).ok());
  auto matcher = MultiEmPipeline::LoadArtifact(dir);
  ASSERT_TRUE(matcher.ok()) << matcher.status();
  for (const Table& t : IngestSequence()) {
    ASSERT_TRUE(matcher->AddTable(t).ok());
  }

  // Regression pin for the incremental centroid update: AddTable only
  // recomputes representations of items the new source touched; this
  // oracle recomputes EVERY item from scratch — re-encode each source row
  // with the session's fitted encoder and selection, then apply the
  // TwoTableMerger::Merge arithmetic (sum over sorted members, scale by
  // 1/n, L2-normalize) — and the incrementally maintained centroids must
  // match float-exactly, carried and merged items alike.
  std::vector<Table> sources = ProductTables();
  for (const Table& t : IngestSequence()) sources.push_back(t);
  std::vector<embed::EmbeddingMatrix> base;
  base.reserve(sources.size());
  for (const Table& t : sources) {
    base.push_back(matcher->encoder().EncodeBatch(
        embed::SerializeTable(t, matcher->selection().selected_columns)));
  }

  const core::Matcher::Snapshot snap = matcher->snapshot();
  ASSERT_EQ(snap.source_names().size(), sources.size());
  const embed::EmbeddingMatrix& centroids = snap.centroids();
  const size_t dim = centroids.dim();
  size_t multi_member_items = 0;
  for (size_t i = 0; i < snap.num_items(); ++i) {
    const std::vector<table::EntityId>& members = snap.item_members(i);
    ASSERT_TRUE(std::is_sorted(members.begin(), members.end()));
    std::vector<float> expect(dim, 0.0f);
    for (table::EntityId member : members) {
      std::span<const float> row = base[member.source()].Row(member.row());
      for (size_t d = 0; d < dim; ++d) expect[d] += row[d];
    }
    if (members.size() >= 2) {
      ++multi_member_items;
      const float inv = 1.0f / static_cast<float>(members.size());
      for (float& x : expect) x *= inv;
      embed::L2NormalizeInPlace(expect);
    }
    const std::span<const float> got = centroids.Row(i);
    for (size_t d = 0; d < dim; ++d) {
      ASSERT_EQ(got[d], expect[d]) << "item " << i << " dim " << d;
    }
  }
  ASSERT_GT(multi_member_items, 0u);
}

// A serving session over ten records with disjoint vocabularies, so no
// two merge at build time; brute_force keeps every answer exact, and k = 2
// lets one ingested row bridge two items (an old-old merge that leaves a
// tombstone).
Matcher DisjointSession() {
  Schema schema({"title"});
  std::vector<Table> sources;
  {
    Table t("src_a", schema);
    for (const char* row : {"silver laptop computer", "red apple fruit",
                            "green forest tree", "loud concert music",
                            "ancient stone castle"}) {
      t.AppendRow({row}).CheckOk();
    }
    sources.push_back(std::move(t));
  }
  {
    Table t("src_b", schema);
    for (const char* row : {"fast notebook machine", "blue ocean wave",
                            "warm desert sand", "quiet library book",
                            "frozen winter lake"}) {
      t.AppendRow({row}).CheckOk();
    }
    sources.push_back(std::move(t));
  }
  MultiEmConfig config;
  config.sample_ratio = 1.0;
  config.enable_attribute_selection = false;
  config.enable_pruning = false;
  config.index_name = "brute_force";
  config.k = 2;
  config.m = 0.72f;
  auto result = RunWithMatcher(config, sources);
  result.status().CheckOk();
  Matcher matcher = std::move(*result->matcher);
  EXPECT_EQ(matcher.num_items(), 10u);
  return matcher;
}

// Ingests `rows` into `matcher` as one new source named `name`.
void Ingest(Matcher& matcher, const std::string& name,
            const std::vector<std::string>& rows) {
  Table t(name, Schema({"title"}));
  for (const std::string& row : rows) t.AppendRow({row}).CheckOk();
  ASSERT_TRUE(matcher.AddTable(t).ok()) << name;
}

Table DisjointQueries() {
  Table q("queries", Schema({"title"}));
  for (const char* row :
       {"silver laptop computer", "fast notebook machine", "red apple fruit",
        "purple mountain sunrise", "frozen lake"}) {
    q.AppendRow({row}).CheckOk();
  }
  return q;
}

// Whether the manifest of the artifact in `dir` carries a "slots" section.
bool HasSlotsSection(const std::string& dir) {
  auto reader = util::ArtifactReader::FromFile(
      dir + "/" + PipelineArtifact::kManifestFile,
      PipelineArtifact::kManifestMagic, PipelineArtifact::kManifestVersion);
  EXPECT_TRUE(reader.ok()) << reader.status();
  return reader.ok() && reader->HasSection("slots");
}

// A manifest writes "slots" only for a slot map that is not the identity
// over the items, across every shape an epoch can take; each saved epoch
// reloads to the same answers and re-saves to the same bytes.
TEST(PipelineArtifactTest, SlotsSectionFollowsEpochShape) {
  Matcher matcher = DisjointSession();
  const Table queries = DisjointQueries();
  std::vector<bool> has_slots;
  auto save_and_check = [&](const std::string& name) {
    const std::string dir = TempPath("slots_shape_" + name);
    ASSERT_TRUE(matcher.Save(dir).ok()) << name;
    has_slots.push_back(HasSlotsSection(dir));
    auto reloaded = MultiEmPipeline::LoadArtifact(dir);
    ASSERT_TRUE(reloaded.ok()) << name << ": " << reloaded.status();
    auto want = matcher.MatchRecords(queries, 3);
    ASSERT_TRUE(want.ok()) << want.status();
    auto got = reloaded->MatchRecords(queries, 3);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, *want) << name;
    EXPECT_EQ(reloaded->snapshot().dead_slots(),
              matcher.snapshot().dead_slots())
        << name;
    const std::string resaved = TempPath("slots_shape_" + name + "_resave");
    ASSERT_TRUE(reloaded->Save(resaved).ok()) << name;
    for (const char* file :
         {PipelineArtifact::kManifestFile, PipelineArtifact::kEncoderFile,
          PipelineArtifact::kIndexFile}) {
      EXPECT_EQ(ReadFileBytes(dir + "/" + file),
                ReadFileBytes(resaved + "/" + file))
          << name << " " << file;
    }
  };

  ASSERT_NO_FATAL_FAILURE(save_and_check("fresh"));
  // A novel row appends an item and retires nothing.
  ASSERT_NO_FATAL_FAILURE(
      Ingest(matcher, "append", {"purple mountain sunrise"}));
  ASSERT_EQ(matcher.snapshot().dead_slots(), 0u);
  ASSERT_NO_FATAL_FAILURE(save_and_check("append"));
  // A duplicate merges into its item and retires that item's slot.
  ASSERT_NO_FATAL_FAILURE(Ingest(matcher, "merge", {"red apple fruit"}));
  ASSERT_EQ(matcher.snapshot().dead_slots(), 1u);
  ASSERT_NO_FATAL_FAILURE(save_and_check("merge"));
  // Three more duplicates put 4 of 15 slots out of service, past the 25%
  // that compacts the index; without tombstones the map is the identity.
  ASSERT_NO_FATAL_FAILURE(Ingest(
      matcher, "compact",
      {"green forest tree", "loud concert music", "warm desert sand"}));
  ASSERT_EQ(matcher.snapshot().dead_slots(), 0u);
  ASSERT_EQ(matcher.snapshot().num_tombstones(), 0u);
  ASSERT_NO_FATAL_FAILURE(save_and_check("compact"));
  // The bridge row joins items 0 and 5, tombstoning item 5; two more
  // duplicates then compact the index over the live items only.
  ASSERT_NO_FATAL_FAILURE(Ingest(
      matcher, "bridge", {"silver laptop computer fast notebook machine"}));
  ASSERT_EQ(matcher.snapshot().num_tombstones(), 1u);
  ASSERT_GT(matcher.snapshot().dead_slots(), 0u);
  ASSERT_NO_FATAL_FAILURE(Ingest(
      matcher, "bridge_compact", {"ancient stone castle", "blue ocean wave"}));
  ASSERT_EQ(matcher.snapshot().dead_slots(), 0u);
  ASSERT_EQ(matcher.snapshot().num_tombstones(), 1u);
  ASSERT_NO_FATAL_FAILURE(save_and_check("bridge_compact"));

  EXPECT_EQ(has_slots, std::vector<bool>({false, false, true, false, true}));
}

// Item `i`'s row of `matrix`, as a vector (bitwise comparisons).
std::vector<float> RowOf(const embed::EmbeddingMatrix& matrix, size_t i) {
  const std::span<const float> row = matrix.Row(i);
  return std::vector<float>(row.begin(), row.end());
}

// A tombstone keeps its id, an empty member list and no live slot. The
// bridging ingest of the k = 2 session retires item 5 and two index slots;
// all of that survives Save, a heap or a mapped Load, and a second Save byte
// for byte. A tombstone has no vector to keep: its centroids() row is zeros.
TEST(PipelineArtifactTest, TombstoneRowRoundTripsByteIdentically) {
  Matcher matcher = DisjointSession();
  ASSERT_NO_FATAL_FAILURE(Ingest(
      matcher, "bridge", {"silver laptop computer fast notebook machine"}));
  ASSERT_EQ(matcher.snapshot().num_tombstones(), 1u);
  ASSERT_TRUE(matcher.item_members(5).empty());
  const size_t dead_slots = matcher.snapshot().dead_slots();
  ASSERT_EQ(dead_slots, 2u);
  const embed::EmbeddingMatrix centroids = matcher.snapshot().centroids();
  const std::vector<float> zeros(centroids.dim(), 0.0f);
  EXPECT_EQ(RowOf(centroids, 5), zeros);
  auto want = matcher.MatchRecords(DisjointQueries(), 3);
  ASSERT_TRUE(want.ok()) << want.status();

  const std::string dir = TempPath("tombstone_row");
  ASSERT_TRUE(matcher.Save(dir).ok());
  util::ArtifactOpenOptions mapped;
  mapped.mapping = util::ArtifactOpenOptions::Mapping::kPrefer;
  for (const util::ArtifactOpenOptions& options :
       {util::ArtifactOpenOptions{}, mapped}) {
    const bool heap = options.mapping ==
                      util::ArtifactOpenOptions::Mapping::kDisable;
    auto reloaded = MultiEmPipeline::LoadArtifact(dir, options);
    ASSERT_TRUE(reloaded.ok()) << reloaded.status();
    const Matcher::Snapshot snap = reloaded->snapshot();
    ASSERT_EQ(snap.num_items(), matcher.num_items());
    ASSERT_EQ(snap.num_tombstones(), 1u);
    EXPECT_TRUE(snap.item_members(5).empty()) << heap;
    EXPECT_EQ(snap.dead_slots(), dead_slots) << heap;
    EXPECT_EQ(RowOf(snap.centroids(), 5), zeros) << heap;
    auto got = reloaded->MatchRecords(DisjointQueries(), 3);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, *want) << heap;
    const std::string resaved =
        TempPath(heap ? "tombstone_row_heap" : "tombstone_row_mapped");
    ASSERT_TRUE(reloaded->Save(resaved).ok());
    for (const char* file :
         {PipelineArtifact::kManifestFile, PipelineArtifact::kEncoderFile,
          PipelineArtifact::kIndexFile}) {
      EXPECT_EQ(ReadFileBytes(dir + "/" + file),
                ReadFileBytes(resaved + "/" + file))
          << (heap ? "heap " : "mapped ") << file;
    }
  }
}

#ifndef MULTIEM_GOLDEN_DIR
#error "MULTIEM_GOLDEN_DIR must point at tests/golden (set by CMake)"
#endif

// The checked-in MEMMANIF v3 session (tests/golden/README.md): the k = 2
// session at 64 dimensions after the bridging ingest, so it holds one
// tombstone and a "slots" section, and a "centroids" row per item.
const std::string kGoldenSession =
    std::string(MULTIEM_GOLDEN_DIR) + "/session_v3";

// Every payload byte of manifest section `name` in the artifact at `dir`
// (empty when the section is absent), and the manifest's version.
std::vector<uint8_t> ManifestSection(const std::string& dir,
                                     const std::string& name,
                                     uint32_t* version = nullptr) {
  auto reader = util::ArtifactReader::FromFile(
      dir + "/" + PipelineArtifact::kManifestFile,
      PipelineArtifact::kManifestMagic, PipelineArtifact::kManifestVersion);
  EXPECT_TRUE(reader.ok()) << reader.status();
  if (!reader.ok()) return {};
  if (version != nullptr) *version = reader->version();
  if (!reader->HasSection(name)) return {};
  return SectionBytes(*reader, name);
}

// A v1–v3 manifest's "centroids" rows are redundant copies that readers
// derive from "base" (docs/FORMATS.md): the checked-in v3 session with two
// live rows edited, checksums and all, loads and serves like the untouched
// file, and re-saves the same v4 manifest, which holds no rows at all.
TEST(PipelineArtifactTest, LiveCentroidRowsAreDerivedNotRead) {
  const std::string dir = TempPath("derived_centroids");
  std::filesystem::copy(kGoldenSession, dir,
                        std::filesystem::copy_options::recursive);
  auto untouched = MultiEmPipeline::LoadArtifact(kGoldenSession);
  ASSERT_TRUE(untouched.ok()) << untouched.status();
  const size_t n = untouched->num_items();
  ASSERT_GE(n, 2u);
  ASSERT_FALSE(untouched->item_members(0).empty());
  ASSERT_FALSE(untouched->item_members(n - 1).empty());
  EditManifest(dir, [&](ManifestSections& sections) {
    bool edited = false;
    for (auto& [name, bytes] : sections) {
      if (name != "centroids") continue;
      // u64 rows, u64 dim, u64 float count, then the rows.
      const size_t dim = untouched->snapshot().centroids().dim();
      ASSERT_EQ(bytes.size(), 24 + n * dim * sizeof(float));
      const float planted = 12345.0f;
      for (size_t item : {size_t{0}, n - 1}) {
        std::memcpy(&bytes[24 + item * dim * sizeof(float)], &planted,
                    sizeof(planted));
      }
      edited = true;
    }
    ASSERT_TRUE(edited) << "a v3 manifest carries \"centroids\"";
  });
  ASSERT_NE(ReadFileBytes(dir + "/" + PipelineArtifact::kManifestFile),
            ReadFileBytes(kGoldenSession + "/" +
                          PipelineArtifact::kManifestFile));

  auto reloaded = MultiEmPipeline::LoadArtifact(dir);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  const embed::EmbeddingMatrix want = untouched->snapshot().centroids();
  const embed::EmbeddingMatrix got = reloaded->snapshot().centroids();
  EXPECT_EQ(RowOf(got, 0), RowOf(want, 0));
  EXPECT_EQ(RowOf(got, n - 1), RowOf(want, n - 1));
  auto want_hits = untouched->MatchRecords(DisjointQueries(), 3);
  auto got_hits = reloaded->MatchRecords(DisjointQueries(), 3);
  ASSERT_TRUE(want_hits.ok() && got_hits.ok());
  EXPECT_EQ(*got_hits, *want_hits);

  const std::string resaved = TempPath("derived_centroids_resave");
  const std::string resaved_untouched =
      TempPath("derived_centroids_resave_untouched");
  ASSERT_TRUE(reloaded->Save(resaved).ok());
  ASSERT_TRUE(untouched->Save(resaved_untouched).ok());
  uint32_t version = 0;
  EXPECT_TRUE(ManifestSection(resaved, "centroids", &version).empty());
  EXPECT_EQ(version, 4u);
  EXPECT_EQ(
      ReadFileBytes(resaved + "/" + PipelineArtifact::kManifestFile),
      ReadFileBytes(resaved_untouched + "/" + PipelineArtifact::kManifestFile));
}

// The checked-in v3 session loads, heap or mapped, with the member lists
// and slot map recorded when it was written. A re-save writes v4: the same
// sections but "centroids", each byte for byte, the same encoder and index
// files, and a session that answers MatchRecords as the v3 load does.
TEST(PipelineArtifactTest, CheckedInV3SessionLoadsAndResavesAsV4) {
  using table::EntityId;
  const std::vector<std::vector<EntityId>> members = {
      {EntityId(0, 0), EntityId(1, 0), EntityId(2, 0)},
      {EntityId(0, 1)}, {EntityId(0, 2)}, {EntityId(0, 3)}, {EntityId(0, 4)},
      {},  // the tombstone
      {EntityId(1, 1)}, {EntityId(1, 2)}, {EntityId(1, 3)}, {EntityId(1, 4)}};
  constexpr uint64_t kDead = Matcher::kDeadSlot;
  const std::vector<uint64_t> slots = {kDead, 1, 2, 3, 4, kDead,
                                       6,     7, 8, 9, 0};
  uint32_t version = 0;
  {
    const std::vector<uint8_t> bytes =
        ManifestSection(kGoldenSession, "slots", &version);
    util::ByteReader in(bytes);
    std::vector<uint64_t> map;
    ASSERT_TRUE(in.ReadU64Array(&map).ok());
    EXPECT_EQ(map, slots);
  }
  ASSERT_EQ(version, 3u);
  ASSERT_FALSE(ManifestSection(kGoldenSession, "centroids").empty());

  util::ArtifactOpenOptions mapped;
  mapped.mapping = util::ArtifactOpenOptions::Mapping::kPrefer;
  for (const util::ArtifactOpenOptions& options :
       {util::ArtifactOpenOptions{}, mapped}) {
    const bool heap = options.mapping ==
                      util::ArtifactOpenOptions::Mapping::kDisable;
    SCOPED_TRACE(heap ? "heap" : "mapped");
    auto loaded = MultiEmPipeline::LoadArtifact(kGoldenSession, options);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    ASSERT_EQ(loaded->num_items(), members.size());
    for (size_t i = 0; i < members.size(); ++i) {
      EXPECT_EQ(loaded->item_members(i), members[i]) << "item " << i;
    }
    EXPECT_EQ(loaded->snapshot().num_tombstones(), 1u);
    EXPECT_EQ(loaded->snapshot().dead_slots(), 2u);
    EXPECT_EQ(loaded->index().size(), slots.size());
    auto want = loaded->MatchRecords(DisjointQueries(), 3);
    ASSERT_TRUE(want.ok()) << want.status();

    const std::string resaved =
        TempPath(heap ? "golden_v3_heap" : "golden_v3_mapped");
    ASSERT_TRUE(loaded->Save(resaved).ok());
    for (const char* section : {"config", "schema", "selection", "sources",
                                "items", "base", "slots"}) {
      EXPECT_EQ(ManifestSection(resaved, section, &version),
                ManifestSection(kGoldenSession, section))
          << section;
    }
    EXPECT_EQ(version, 4u);
    EXPECT_TRUE(ManifestSection(resaved, "centroids").empty());
    for (const char* file :
         {PipelineArtifact::kEncoderFile, PipelineArtifact::kIndexFile}) {
      EXPECT_EQ(ReadFileBytes(resaved + "/" + file),
                ReadFileBytes(kGoldenSession + "/" + file))
          << file;
    }
    auto reloaded = MultiEmPipeline::LoadArtifact(resaved, options);
    ASSERT_TRUE(reloaded.ok()) << reloaded.status();
    auto got = reloaded->MatchRecords(DisjointQueries(), 3);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, *want);
  }
}

// Saves `matcher` to a fresh directory, passes its manifest's slot map
// through `edit` (an artifact without a "slots" section arrives empty) and
// returns what LoadArtifact makes of the result. `drop` removes the section
// instead.
util::Status LoadWithEditedSlots(
    const Matcher& matcher, const std::string& name,
    const std::function<void(std::vector<uint64_t>&)>& edit,
    bool drop = false) {
  const std::string dir = TempPath("slots_edit_" + name);
  EXPECT_TRUE(matcher.Save(dir).ok());
  EditManifest(dir, [&](ManifestSections& sections) {
    auto slots = std::find_if(sections.begin(), sections.end(),
                              [](const auto& s) { return s.first == "slots"; });
    if (drop) {
      ASSERT_NE(slots, sections.end());
      sections.erase(slots);
      return;
    }
    ASSERT_NE(slots, sections.end());
    util::ByteReader in(slots->second);
    std::vector<uint64_t> map;
    ASSERT_TRUE(in.ReadU64Array(&map).ok());
    edit(map);
    util::ByteWriter out;
    out.WriteU64Array(map);
    slots->second = out.bytes();
  });
  auto loaded = MultiEmPipeline::LoadArtifact(dir);
  return loaded.status();
}

// Every slot map that is not a bijection between live slots and live items
// is refused at load time, as is a table whose index or tombstones no map
// accounts for.
TEST(PipelineArtifactTest, RejectsInconsistentSlotMaps) {
  static constexpr uint64_t kDead = Matcher::kDeadSlot;
  // 11 items, 12 slots, slot 1 retired: the duplicate moved item 1.
  Matcher grown = DisjointSession();
  ASSERT_NO_FATAL_FAILURE(Ingest(grown, "append", {"purple mountain sunrise"}));
  ASSERT_NO_FATAL_FAILURE(Ingest(grown, "merge", {"red apple fruit"}));
  ASSERT_EQ(grown.num_items(), 11u);
  ASSERT_EQ(grown.snapshot().index().size(), 12u);
  ASSERT_TRUE(LoadWithEditedSlots(grown, "unchanged", [](auto&) {}).ok());

  struct Case {
    const char* name;
    std::function<void(std::vector<uint64_t>&)> edit;
  };
  const std::vector<Case> cases = {
      {"longer", [](auto& map) { map.push_back(kDead); }},
      {"shorter", [](auto& map) { map.pop_back(); }},
      {"item_out_of_range", [](auto& map) { map[0] = 11; }},
      {"item_twice",
       [](auto& map) {
         ASSERT_EQ(map[1], kDead);
         map[1] = map[0];
       }},
      {"live_item_without_slot", [](auto& map) { map[0] = kDead; }},
  };
  for (const Case& c : cases) {
    util::Status status = LoadWithEditedSlots(grown, c.name, c.edit);
    EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument)
        << c.name << ": " << status;
  }
  // No "slots" section means the identity, which needs one slot per item.
  util::Status no_map =
      LoadWithEditedSlots(grown, "dropped", nullptr, /*drop=*/true);
  EXPECT_EQ(no_map.code(), util::StatusCode::kInvalidArgument) << no_map;

  // Bridge items 0 and 5 (item 5 becomes a tombstone), compact over the
  // nine live items, then merge one duplicate: 10 items and 10 slots, so an
  // identity map would fit the index and only the tombstone rules it out.
  Matcher bridged = DisjointSession();
  ASSERT_NO_FATAL_FAILURE(Ingest(
      bridged, "bridge", {"silver laptop computer fast notebook machine"}));
  core::AddTableOptions compact;
  compact.rebuild_index = true;
  Table duplicate("duplicate", Schema({"title"}));
  duplicate.AppendRow({"green forest tree"}).CheckOk();
  ASSERT_TRUE(bridged.AddTable(duplicate, compact).ok());
  ASSERT_NO_FATAL_FAILURE(Ingest(bridged, "merge", {"red apple fruit"}));
  const Matcher::Snapshot snap = bridged.snapshot();
  ASSERT_EQ(snap.num_tombstones(), 1u);
  ASSERT_TRUE(snap.item_members(5).empty());
  ASSERT_EQ(snap.num_items(), 10u);
  ASSERT_EQ(snap.index().size(), 10u);
  ASSERT_TRUE(LoadWithEditedSlots(bridged, "bridged", [](auto&) {}).ok());

  util::Status tombstone_slot = LoadWithEditedSlots(
      bridged, "tombstone_slot", [](std::vector<uint64_t>& map) {
        auto dead = std::find(map.begin(), map.end(), kDead);
        ASSERT_NE(dead, map.end());
        *dead = 5;
      });
  EXPECT_EQ(tombstone_slot.code(), util::StatusCode::kInvalidArgument)
      << tombstone_slot;
  util::Status tombstones_unmapped =
      LoadWithEditedSlots(bridged, "tombstones_unmapped", nullptr,
                          /*drop=*/true);
  EXPECT_EQ(tombstones_unmapped.code(), util::StatusCode::kInvalidArgument)
      << tombstones_unmapped;
}

TEST(PipelineArtifactTest, MatcherValidatesQueries) {
  auto result = RunWithMatcher(ServingConfig(), ProductTables());
  ASSERT_TRUE(result.ok()) << result.status();
  const Matcher& matcher = *result->matcher;

  Table wrong("queries", Schema({"only_title"}));
  wrong.AppendRow({"iphone"}).CheckOk();
  EXPECT_EQ(matcher.MatchRecords(wrong, 1).status().code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(matcher.MatchRecords(QueryTable(), 0).status().code(),
            util::StatusCode::kInvalidArgument);
}

TEST(PipelineArtifactTest, RejectsDamagedArtifacts) {
  auto result = RunWithMatcher(ServingConfig(), ProductTables());
  ASSERT_TRUE(result.ok()) << result.status();
  const std::string dir = TempPath("artifact_damage");
  ASSERT_TRUE(result->matcher->Save(dir).ok());

  // Corrupt manifest: flipped payload byte.
  const std::string manifest =
      dir + "/" + PipelineArtifact::kManifestFile;
  std::vector<uint8_t> image = ReadFileBytes(manifest);
  std::vector<uint8_t> flipped = image;
  flipped[flipped.size() / 2] ^= 0x10;
  WriteFileBytes(manifest, flipped);
  EXPECT_FALSE(MultiEmPipeline::LoadArtifact(dir).ok());
  WriteFileBytes(manifest, image);
  ASSERT_TRUE(MultiEmPipeline::LoadArtifact(dir).ok());

  // Swap the index for one of the wrong size: the cross-file invariant
  // (one vector per entity item) must fail, not crash.
  ann::BruteForceIndex tiny(result->matcher->encoder().dim(),
                            ann::Metric::kCosine);
  tiny.AddBatch(RandomVectors(2, result->matcher->encoder().dim(), 15));
  ASSERT_TRUE(tiny.Save(dir + "/" + PipelineArtifact::kIndexFile).ok());
  auto mismatched = MultiEmPipeline::LoadArtifact(dir);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), util::StatusCode::kInvalidArgument);

  // Remove the encoder file entirely.
  ASSERT_TRUE(result->matcher->Save(dir).ok());
  std::filesystem::remove(dir + "/" + PipelineArtifact::kEncoderFile);
  auto missing = MultiEmPipeline::LoadArtifact(dir);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), util::StatusCode::kNotFound);
}

// A directory where an artifact file belongs must fail the load with a
// Status: fseek/ftell "measures" an ext4 directory at 2^63-1 bytes, which a
// heap read sized that way tries to allocate. A mapped open must say the
// same, though open(2) takes the directory and mmap then fails with ENODEV.
void ExpectDirectoryAtArtifactPathRejected(const std::string& file) {
  auto result = RunWithMatcher(ServingConfig(), ProductTables());
  ASSERT_TRUE(result.ok()) << result.status();
  const std::string dir = TempPath("artifact_directory_at_" + file);
  ASSERT_TRUE(result->matcher->Save(dir).ok());
  const std::string path = dir + "/" + file;
  ASSERT_TRUE(std::filesystem::remove(path));
  ASSERT_TRUE(std::filesystem::create_directory(path));
  auto loaded = MultiEmPipeline::LoadArtifact(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument)
      << loaded.status();
  if (!util::MmapFile::Supported()) return;
  auto mapped = MultiEmPipeline::LoadArtifact(
      dir, util::ArtifactOpenOptions{
               .mapping = util::ArtifactOpenOptions::Mapping::kRequire});
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), util::StatusCode::kInvalidArgument)
      << mapped.status();
  EXPECT_EQ(mapped.status().message(), loaded.status().message());
}

TEST(PipelineArtifactTest, RejectsDirectoryAtManifestPath) {
  ExpectDirectoryAtArtifactPathRejected(PipelineArtifact::kManifestFile);
}

TEST(PipelineArtifactTest, RejectsDirectoryAtEncoderPath) {
  ExpectDirectoryAtArtifactPathRejected(PipelineArtifact::kEncoderFile);
}

TEST(PipelineArtifactTest, RejectsDirectoryAtIndexPath) {
  ExpectDirectoryAtArtifactPathRejected(PipelineArtifact::kIndexFile);
}

// A session large enough for every path of a load: its manifest and its
// index each hold well over 1 MiB of payload, so each heap kFull open hashes
// on a helper thread, and each has a section over 2 MiB (the 1024-d base
// rows, the index's vectors), which lands in a huge-page block. Random
// words keep almost every row its own item.
Matcher LargeSession() {
  util::Rng rng(41);
  std::vector<Table> sources;
  for (const char* name : {"src_a", "src_b"}) {
    Table t(name, Schema({"title"}));
    for (int r = 0; r < 280; ++r) {
      std::string row;
      for (int w = 0; w < 4; ++w) {
        row += " w" + std::to_string(rng.Next() % 100000);
      }
      t.AppendRow({row}).CheckOk();
    }
    sources.push_back(std::move(t));
  }
  MultiEmConfig config;
  config.embedding_dim = 1024;
  config.sample_ratio = 1.0;
  config.enable_attribute_selection = false;
  config.enable_pruning = false;
  auto result = RunWithMatcher(config, sources);
  result.status().CheckOk();
  return std::move(*result->matcher);
}

// (name, payload offset, payload size) of every section of a container
// image, in file order, from its section table.
struct SectionExtent {
  std::string name;
  size_t offset;
  size_t size;
};

std::vector<SectionExtent> SectionExtents(const std::vector<uint8_t>& image) {
  util::ByteReader header(std::span<const uint8_t>(image).first(24));
  uint64_t magic = 0, table = 0;
  uint32_t version = 0, count = 0;
  EXPECT_TRUE(header.ReadU64(&magic).ok());
  EXPECT_TRUE(header.ReadU32(&version).ok());
  EXPECT_TRUE(header.ReadU32(&count).ok());
  EXPECT_TRUE(header.ReadU64(&table).ok());
  util::ByteReader entries(std::span<const uint8_t>(image).subspan(table));
  std::vector<SectionExtent> extents(count);
  for (SectionExtent& e : extents) {
    uint16_t name_len = 0;
    uint64_t offset = 0, size = 0, checksum = 0;
    EXPECT_TRUE(entries.ReadU16(&name_len).ok());
    for (uint16_t c = 0; c < name_len; ++c) {
      uint8_t byte = 0;
      EXPECT_TRUE(entries.ReadU8(&byte).ok());
      e.name.push_back(static_cast<char>(byte));
    }
    EXPECT_TRUE(entries.ReadU64(&offset).ok());
    EXPECT_TRUE(entries.ReadU64(&size).ok());
    EXPECT_TRUE(entries.ReadU64(&checksum).ok());
    e.offset = offset;
    e.size = size;
  }
  return extents;
}

// What a load of `dir` returned before the three files were read in one
// pass: open each with FromFile and parse it before opening the next, and
// report the first failure. Every damaged file below fails its kFull open,
// so a manifest that opens holds what Save wrote and parses.
util::Status OneFileAtATime(const std::string& dir,
                            const util::ArtifactOpenOptions& options) {
  auto path = [&](const char* file) {
    return (std::filesystem::path(dir) / file).string();
  };
  auto manifest = util::ArtifactReader::FromFile(
      path(PipelineArtifact::kManifestFile), PipelineArtifact::kManifestMagic,
      PipelineArtifact::kManifestVersion, options);
  if (!manifest.ok()) return manifest.status();
  auto encoder = util::ArtifactReader::FromFile(
      path(PipelineArtifact::kEncoderFile), embed::kEncoderArtifactMagic,
      embed::kEncoderArtifactVersion, options);
  if (!encoder.ok()) return encoder.status();
  MULTIEM_RETURN_IF_ERROR(embed::LoadTextEncoder(*encoder).status());
  auto index = util::ArtifactReader::FromFile(
      path(PipelineArtifact::kIndexFile), ann::kIndexArtifactMagic,
      ann::kIndexArtifactVersion, options);
  if (!index.ok()) return index.status();
  return ann::LoadVectorIndex(*index).status();
}

// One pass over the three files reports, for every damaged directory, the
// very Status that opening and parsing them one at a time did: byte flips
// at the start, middle and end of every section, truncations, a missing
// file, a directory, and a wrong magic, in each file alone and in pairs of
// files, through heap and mapped opens.
TEST(PipelineArtifactTest, LoadReportsWhatOneFileAtATimeReported) {
  const std::string dir = TempPath("load_parity");
  ASSERT_TRUE(LargeSession().Save(dir).ok());
  const char* const names[] = {PipelineArtifact::kManifestFile,
                               PipelineArtifact::kEncoderFile,
                               PipelineArtifact::kIndexFile};
  std::vector<std::vector<uint8_t>> intact;
  for (const char* name : names) {
    intact.push_back(ReadFileBytes(dir + "/" + name));
  }
  for (size_t f : {size_t{0}, size_t{2}}) {
    size_t payload = 0, largest = 0;
    for (const SectionExtent& e : SectionExtents(intact[f])) {
      payload += e.size;
      largest = std::max(largest, e.size);
    }
    ASSERT_GE(payload, size_t{1} << 20) << names[f];
    ASSERT_GE(largest, util::kHugeBlockBytes) << names[f];
  }

  // A damage writes file `f` of the directory from its intact bytes.
  struct Damage {
    std::string what;
    std::function<void(const std::string& path,
                       std::vector<uint8_t> bytes)> apply;
  };
  auto flip = [](size_t pos) {
    return [pos](const std::string& path, std::vector<uint8_t> bytes) {
      bytes[pos] ^= 0x40;
      WriteFileBytes(path, bytes);
    };
  };
  auto truncate = [](size_t len) {
    return [len](const std::string& path, std::vector<uint8_t> bytes) {
      bytes.resize(len);
      WriteFileBytes(path, bytes);
    };
  };
  auto missing = [](const std::string& path, std::vector<uint8_t>) {
    std::filesystem::remove(path);
  };
  auto directory = [](const std::string& path, std::vector<uint8_t>) {
    std::filesystem::remove(path);
    std::filesystem::create_directory(path);
  };
  auto wrong_magic = flip(0);
  std::vector<std::vector<Damage>> damages(3);  // per file
  for (size_t f = 0; f < 3; ++f) {
    for (const SectionExtent& e : SectionExtents(intact[f])) {
      if (e.size == 0) continue;
      for (size_t pos : {e.offset, e.offset + e.size / 2,
                         e.offset + e.size - 1}) {
        damages[f].push_back(
            {e.name + " byte " + std::to_string(pos), flip(pos)});
      }
    }
    damages[f].push_back(
        {"truncated to half", truncate(intact[f].size() / 2)});
    damages[f].push_back({"one byte short", truncate(intact[f].size() - 1)});
    damages[f].push_back({"missing", missing});
    damages[f].push_back({"a directory", directory});
    damages[f].push_back({"wrong magic", wrong_magic});
  }
  // Each case damages one or two files (file index, damage).
  std::vector<std::vector<std::pair<size_t, const Damage*>>> cases = {{}};
  for (size_t f = 0; f < 3; ++f) {
    for (const Damage& d : damages[f]) cases.push_back({{f, &d}});
  }
  // The k-th damage of file f counted from the end of its list: 0 wrong
  // magic, 1 a directory, 2 missing, 3 one byte short, 4 truncated to half.
  auto from_end = [&](size_t f, size_t k) {
    return &damages[f][damages[f].size() - 1 - k];
  };
  for (size_t a = 0; a < 3; ++a) {
    for (size_t b = a + 1; b < 3; ++b) {
      const Damage* middle_flip_a = &damages[a][damages[a].size() / 2];
      const Damage* middle_flip_b = &damages[b][damages[b].size() / 2];
      cases.push_back({{a, middle_flip_a}, {b, from_end(b, 0)}});
      cases.push_back({{a, from_end(a, 4)}, {b, middle_flip_b}});
      cases.push_back({{a, from_end(a, 2)}, {b, from_end(b, 1)}});
      cases.push_back({{a, from_end(a, 1)}, {b, from_end(b, 2)}});
      cases.push_back({{a, &damages[a][0]}, {b, from_end(b, 3)}});
    }
  }

  std::vector<std::pair<std::string, util::ArtifactOpenOptions>> opens;
  opens.emplace_back("heap", util::ArtifactOpenOptions{});
  if (util::MmapFile::Supported()) {
    opens.emplace_back(
        "mapped", util::ArtifactOpenOptions{
                      .mapping = util::ArtifactOpenOptions::Mapping::kRequire});
  }
  for (const auto& damage : cases) {
    std::string what = damage.empty() ? "intact" : "";
    for (const auto& [f, d] : damage) {
      what += std::string(what.empty() ? "" : " + ") + names[f] + " " + d->what;
      d->apply(dir + "/" + names[f], intact[f]);
    }
    SCOPED_TRACE(what);
    for (const auto& [how, options] : opens) {
      const util::Status want = OneFileAtATime(dir, options);
      ASSERT_EQ(want.ok(), damage.empty()) << how << ": " << want;
      auto loaded = MultiEmPipeline::LoadArtifact(dir, options);
      ASSERT_EQ(loaded.ok(), want.ok()) << how << ": " << loaded.status();
      EXPECT_EQ(loaded.status().code(), want.code()) << how;
      EXPECT_EQ(loaded.status().message(), want.message()) << how;
    }
    for (const auto& [f, d] : damage) {
      const std::string path = dir + "/" + names[f];
      std::filesystem::remove_all(path);
      WriteFileBytes(path, intact[f]);
    }
  }
}

// Why LoadArtifact stays a heap read by default: a heap session holds every
// byte it serves, so truncating the files under it in place changes
// nothing, where a mapped session would take SIGBUS on its next page fault.
TEST(PipelineArtifactTest, HeapSessionOutlivesTruncatedFiles) {
  auto result = RunWithMatcher(ServingConfig(), ProductTables());
  ASSERT_TRUE(result.ok()) << result.status();
  const std::string dir = TempPath("artifact_truncated_under_session");
  ASSERT_TRUE(result->matcher->Save(dir).ok());
  auto session = MultiEmPipeline::LoadArtifact(dir);
  ASSERT_TRUE(session.ok()) << session.status();
  const Table queries = QueryTable();
  auto before = session->MatchRecords(queries, 2);
  ASSERT_TRUE(before.ok()) << before.status();

  for (const char* file :
       {PipelineArtifact::kManifestFile, PipelineArtifact::kEncoderFile,
        PipelineArtifact::kIndexFile}) {
    std::filesystem::resize_file(dir + "/" + file, 0);
  }
  auto after = session->MatchRecords(queries, 2);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(*before, *after);

  Table t("shop_d", Schema({"title", "color"}));
  t.AppendRow({"apple iphone 8 plus 64 gb", "silver"}).CheckOk();
  t.AppendRow({"dyson v11 cordless vacuum", "purple"}).CheckOk();
  ASSERT_TRUE(session->AddTable(t).ok());
  const std::string resaved = TempPath("artifact_truncated_resave");
  ASSERT_TRUE(session->Save(resaved).ok());
  auto reloaded = MultiEmPipeline::LoadArtifact(resaved);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  EXPECT_EQ(reloaded->num_items(), session->num_items());
}

// Brute-force wrapper WITHOUT a Save override, to force a failure at the
// last step of PipelineArtifact::Save (the index write).
class NoSaveIndex : public ann::VectorIndex {
 public:
  NoSaveIndex(size_t dim, ann::Metric metric) : inner_(dim, metric) {}
  void Add(std::span<const float> vec) override { inner_.Add(vec); }
  std::vector<ann::Neighbor> Search(std::span<const float> query,
                                    size_t k) const override {
    return inner_.Search(query, k);
  }
  size_t size() const override { return inner_.size(); }
  size_t dim() const override { return inner_.dim(); }
  size_t SizeBytes() const override { return inner_.SizeBytes(); }
  ann::Metric metric() const override { return inner_.metric(); }

 private:
  ann::BruteForceIndex inner_;
};

class NoSaveIndexFactory : public ann::VectorIndexFactory {
 public:
  std::unique_ptr<ann::VectorIndex> Create(
      size_t dim, ann::Metric metric) const override {
    return std::make_unique<NoSaveIndex>(dim, metric);
  }
};

TEST(PipelineArtifactTest, FailedSaveNeverMixesWithPreviousArtifact) {
  // A valid artifact already on disk ...
  auto good = RunWithMatcher(ServingConfig(), ProductTables());
  ASSERT_TRUE(good.ok()) << good.status();
  const std::string dir = TempPath("artifact_partial_save");
  ASSERT_TRUE(good->matcher->Save(dir).ok());
  const std::vector<uint8_t> manifest_before =
      ReadFileBytes(dir + "/" + PipelineArtifact::kManifestFile);

  // ... then a session whose index cannot be saved tries to overwrite it:
  // the manifest and encoder writes succeed, the index write fails last.
  auto pipeline = PipelineBuilder(ServingConfig())
                      .WithIndexFactory(std::make_unique<NoSaveIndexFactory>())
                      .Build();
  ASSERT_TRUE(pipeline.ok());
  RunContext ctx;
  ctx.build_matcher = true;
  PipelineResult result;
  ASSERT_TRUE(pipeline->Run(ProductTables(), ctx, &result).ok());
  util::Status failed = result.matcher->Save(dir);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), util::StatusCode::kFailedPrecondition);

  // The published files are untouched (no new manifest over an old index),
  // no staged leftovers remain, and the directory still loads as the
  // original session.
  EXPECT_EQ(ReadFileBytes(dir + "/" + PipelineArtifact::kManifestFile),
            manifest_before);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().extension(), ".mem") << entry.path();
  }
  auto reloaded = MultiEmPipeline::LoadArtifact(dir);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  EXPECT_EQ(reloaded->num_items(), good->matcher->num_items());
}

TEST(PipelineArtifactTest, RunWithoutFlagBuildsNoMatcher) {
  auto pipeline = PipelineBuilder(ServingConfig()).Build();
  ASSERT_TRUE(pipeline.ok());
  PipelineResult result;
  ASSERT_TRUE(pipeline->Run(ProductTables(), RunContext{}, &result).ok());
  EXPECT_EQ(result.matcher, nullptr);
}

}  // namespace
}  // namespace multiem
