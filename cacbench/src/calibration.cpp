#include "calibration.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory_resource>
#include <stdexcept>

#include "tracing.h"

namespace cacbench {

namespace {
constexpr std::size_t kWalkWords = std::size_t{1} << 22;  // 32 MiB
constexpr std::size_t kWalkReads = std::size_t{1} << 16;
constexpr std::size_t kArenaBytes = std::size_t{16} << 20;
constexpr std::size_t kKeys = 4096;
constexpr int kInserts = 60000;
constexpr std::size_t kSortAt = 9;

template <typename T>
std::uint64_t sweep(const std::vector<T>& buffer) {
  std::uint64_t sum = 0;
  const std::size_t stride = 64 / sizeof(T);
  for (std::size_t i = 0; i < buffer.size(); i += stride) {
    sum += static_cast<std::uint64_t>(buffer[i]);
  }
  return sum;
}

/// Dependent random walk: each load's address comes from the previous
/// value, so the walk waits on memory latency (and TLB misses).
std::uint64_t walk(const std::vector<std::uint64_t>& words) {
  std::uint64_t index = 0;
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < kWalkReads; ++i) {
    const std::uint64_t value = words[index];
    sum += value;
    index = (value ^ i) & (kWalkWords - 1);
  }
  return sum;
}

/// An ordered map of small vectors, sorted as they fill: pointer chasing,
/// allocation and branchy comparisons.  Everything it allocates comes from
/// `arena`, so its memory layout is the same in every pass and every run,
/// whatever state the program left its own heap in.
std::uint64_t buckets(std::vector<std::byte>& arena) {
  std::pmr::monotonic_buffer_resource upstream(
      arena.data(), arena.size(), std::pmr::null_memory_resource());
  std::pmr::unsynchronized_pool_resource pool(&upstream);
  std::pmr::map<std::uint64_t, std::pmr::vector<double>> map(&pool);
  std::uint64_t sum = 0;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < kInserts; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    std::pmr::vector<double>& bucket = map[(x >> 33) % kKeys];
    bucket.push_back(static_cast<double>(x & 1023));
    if (bucket.size() == kSortAt) {
      std::pmr::vector<double> sorted(bucket.begin(), bucket.end(), &pool);
      std::sort(sorted.begin(), sorted.end());
      sum += static_cast<std::uint64_t>(sorted[kSortAt / 2]);
      bucket.clear();
    }
  }
  return sum;
}
}  // namespace

Calibration::Calibration() : words_(kWalkWords), arena_(kArenaBytes) {
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (auto& word : words_) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    word = x;
  }
  sink_ += sweep(words_) + sweep(arena_);
}

void Calibration::pass() {
  // Re-warm both buffers: the program ran since the last pass.
  sink_ += sweep(words_) + sweep(arena_);
  const std::int64_t start = now_ns();
  sink_ += walk(words_);
  const std::int64_t middle = now_ns();
  sink_ += buckets(arena_);
  const std::int64_t end = now_ns();
  times_ns_.push_back(std::sqrt(static_cast<double>(middle - start) *
                                static_cast<double>(end - middle)));
}

double Calibration::median_ns() const {
  if (times_ns_.empty()) throw std::logic_error("calibration: no passes");
  std::vector<double> sorted = times_ns_;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  return n % 2 == 1 ? sorted[n / 2] : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

}  // namespace cacbench
