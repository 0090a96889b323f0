#include "calibrate.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "trace.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kTable = 16384;
constexpr int kChunks = 48;        // work items shared by all lanes
constexpr int kChunkRounds = 50;   // about 2 ms each on the reference VM

/// One chunk of integer and L1/L2 work on a lane's own table; returns a
/// checksum so the compiler cannot drop it.
std::uint64_t chunk(std::vector<std::uint32_t>& table, std::uint64_t& x) {
  std::uint64_t acc = 0;
  for (int round = 0; round < kChunkRounds; ++round)
    for (std::size_t i = 0; i < kTable; ++i) {
      x ^= x << 13, x ^= x >> 7, x ^= x << 17;
      const std::size_t j = static_cast<std::size_t>(x) & (kTable - 1);
      acc += table[j] ^ table[i];
      table[i] = static_cast<std::uint32_t>(acc);
    }
  return acc;
}

/// One burst: the lanes pull the chunks from a shared counter, like the
/// program's work-stealing pool, so one slow lane does fewer chunks
/// instead of stretching the burst on its own.
double burst(int lanes) {
  std::atomic<int> next{0};
  std::vector<std::uint64_t> sums(static_cast<std::size_t>(lanes));
  const double t0 = now_s();
  std::vector<std::thread> threads;
  for (int l = 0; l < lanes; ++l)
    threads.emplace_back([&next, &sums, l] {
      std::vector<std::uint32_t> table(kTable);
      std::uint64_t x = static_cast<std::uint64_t>(l) * 2654435761u + 1;
      for (auto& t : table) {
        x ^= x << 13, x ^= x >> 7, x ^= x << 17;
        t = static_cast<std::uint32_t>(x);
      }
      std::uint64_t sum = 0;
      while (next.fetch_add(1) < kChunks) sum += chunk(table, x);
      sums[static_cast<std::size_t>(l)] = sum;
    });
  for (auto& t : threads) t.join();
  const double seconds = now_s() - t0;
  static volatile std::uint64_t sink = 0;
  for (std::uint64_t v : sums) sink = sink + v;
  return seconds;
}

}  // namespace

double calibrate(int lanes) {
  std::vector<double> bursts;
  for (int b = 0; b < 5; ++b) bursts.push_back(burst(lanes));
  std::sort(bursts.begin(), bursts.end());
  return bursts[2];
}

void warm_up(int lanes) {
  const double until = now_s() + 1.0;
  while (now_s() < until) calibrate(lanes);
}

}  // namespace perfbench
