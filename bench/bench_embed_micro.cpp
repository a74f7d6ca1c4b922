// Microbenchmark: sentence-encoder throughput (the representation phase's
// unit cost), serial vs thread-pool batch encoding, and tokenizer speed.
//
// Three measurements on serialized Music rows: Tokenizer::Tokenize and a
// single EncodeInto (1,024 distinct rows, cycled), and EncodeBatch of 2,000
// rows on 1, 2 and 4 threads. Each repeats its unit of work until at least
// 0.5 s has elapsed and prints the mean time per unit and the throughput.
// Takes no flags; the printed checksum keeps the compiler from dropping the
// measured work.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "datagen/music.h"
#include "embed/hashing_encoder.h"
#include "embed/serialize.h"
#include "embed/tokenizer.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace multiem::bench {
namespace {

constexpr double kMinSeconds = 0.5;

std::vector<std::string> MusicTexts(size_t n) {
  datagen::MusicConfig config;
  config.num_entities = n / 4 + 1;
  config.presence_prob = 1.0;
  config.num_sources = 4;
  datagen::MultiSourceBenchmark bench = datagen::GenerateMusic(config);
  std::vector<std::string> texts;
  for (const auto& t : bench.tables) {
    auto serialized = embed::SerializeTable(t);
    texts.insert(texts.end(), serialized.begin(), serialized.end());
    if (texts.size() >= n) break;
  }
  texts.resize(n);
  return texts;
}

// Runs `unit` until kMinSeconds have elapsed and prints one result line.
// `unit` returns a value folded into `checksum`; `items` is the number of
// items one call processes.
template <typename Unit>
void Measure(const char* name, size_t items, double* checksum, Unit unit) {
  size_t calls = 0;
  util::WallTimer timer;
  do {
    *checksum += unit();
    ++calls;
  } while (timer.ElapsedSeconds() < kMinSeconds);
  const double seconds = timer.ElapsedSeconds();
  std::printf("%-22s %12.3f us/call %14.0f items/s\n", name,
              1e6 * seconds / static_cast<double>(calls),
              static_cast<double>(calls * items) / seconds);
}

int Main() {
  double checksum = 0.0;

  const std::vector<std::string> texts = MusicTexts(1024);
  embed::Tokenizer tokenizer;
  size_t i = 0;
  Measure("tokenize", 1, &checksum, [&] {
    return static_cast<double>(
        tokenizer.Tokenize(texts[i++ % texts.size()]).size());
  });

  embed::HashingSentenceEncoder encoder;
  encoder.FitFrequencies(texts);
  std::vector<float> out(encoder.dim());
  i = 0;
  Measure("encode_single", 1, &checksum, [&] {
    encoder.EncodeInto(texts[i++ % texts.size()], out);
    return static_cast<double>(out[0]);
  });

  const std::vector<std::string> batch = MusicTexts(2000);
  embed::HashingSentenceEncoder batch_encoder;
  batch_encoder.FitFrequencies(batch);
  for (size_t threads : {1, 2, 4}) {
    std::unique_ptr<util::ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<util::ThreadPool>(threads);
    const std::string name =
        "encode_batch/2000/t" + std::to_string(threads);
    Measure(name.c_str(), batch.size(), &checksum, [&] {
      return static_cast<double>(
          batch_encoder.EncodeBatch(batch, pool.get()).Row(0)[0]);
    });
  }

  std::printf("checksum %.6g\n", checksum);
  return 0;
}

}  // namespace
}  // namespace multiem::bench

int main() { return multiem::bench::Main(); }
