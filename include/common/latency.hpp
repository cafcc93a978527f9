// Closed-loop latency recording, shared by the bench driver and the KV
// server front end (include/server/). Lives under common/ so a server
// binary can record p50/p99 without pulling in the bench run loop.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace dlht {

/// Per-thread latency record: exact running sum plus a fixed-size uniform
/// reservoir (Vitter's algorithm R) so a multi-second closed loop keeps its
/// percentile estimate unbiased without unbounded memory. Cache-line
/// aligned: add() writes counters on every timed op, and adjacent threads'
/// records must not false-share into the latencies being measured.
class alignas(128) LatencyReservoir {
 public:
  static constexpr std::size_t kCap = std::size_t{1} << 15;

  explicit LatencyReservoir(std::uint64_t seed) : rng_(splitmix64(~seed)) {
    samples_.reserve(kCap);
  }

  void add(std::uint64_t ns) {
    total_ns_ += ns;
    if (samples_.size() < kCap) {
      samples_.push_back(ns);
    } else {
      const std::uint64_t j = rng_.next_below(calls_ + 1);
      if (j < kCap) samples_[static_cast<std::size_t>(j)] = ns;
    }
    ++calls_;
  }

  std::uint64_t calls() const { return calls_; }
  std::uint64_t total_ns() const { return total_ns_; }
  const std::vector<std::uint64_t>& samples() const { return samples_; }

 private:
  Xoshiro256 rng_;
  std::vector<std::uint64_t> samples_;
  std::uint64_t calls_ = 0;
  std::uint64_t total_ns_ = 0;
};

/// Weighted percentile over several reservoirs. Each reservoir holds at
/// most kCap samples regardless of how many calls it saw, so merging by
/// concatenation would weight a slow, low-rate thread the same as a fast
/// one and bias the percentiles upward; weight each sample by the calls it
/// stands for instead. Returns {calls, total_ns, p(q1), p(q2)} so callers
/// get avg + two percentiles in one call.
struct MergedLatency {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t q1_ns = 0;
  std::uint64_t q2_ns = 0;

  double avg_ns() const {
    return calls != 0 ? static_cast<double>(total_ns) /
                            static_cast<double>(calls)
                      : 0.0;
  }
};

/// p(q) is the smallest sample value v whose weight at or below v,
/// sum over reservoirs of count(samples <= v) * calls / samples, reaches
/// q * calls (the largest sample when none does). It is found by bisecting
/// on v with one counting pass per step, so the merge allocates nothing:
/// a sort-based merge needs 16 bytes per pooled sample, tens of MiB for a
/// multi-second run. Every weight is 1 (an unfilled reservoir saw exactly
/// as many calls as it holds) or calls / kCap with kCap a power of two, so
/// the sums are exact in a double and the result equals that of sorting
/// all (ns, weight) pairs and accumulating weights in order.
template <class Range>
MergedLatency merge_latency(const Range& reservoirs, double q1 = 0.50,
                            double q2 = 0.99) {
  MergedLatency m;
  std::uint64_t lo = UINT64_MAX;
  std::uint64_t hi = 0;
  for (const LatencyReservoir& rec : reservoirs) {
    m.calls += rec.calls();
    m.total_ns += rec.total_ns();
    for (const std::uint64_t ns : rec.samples()) {
      lo = std::min(lo, ns);
      hi = std::max(hi, ns);
    }
  }
  if (lo > hi) return m;  // no samples at all
  const auto weight_upto = [&reservoirs](std::uint64_t v) {
    double acc = 0;
    for (const LatencyReservoir& rec : reservoirs) {
      std::size_t n = 0;
      for (const std::uint64_t ns : rec.samples()) n += ns <= v ? 1 : 0;
      if (n != 0) {
        acc += static_cast<double>(n) * static_cast<double>(rec.calls()) /
               static_cast<double>(rec.samples().size());
      }
    }
    return acc;
  };
  const auto weighted_pct = [&](double q) {
    const double target = q * static_cast<double>(m.calls);
    if (weight_upto(hi) < target) return hi;
    std::uint64_t a = lo;
    std::uint64_t b = hi;  // weight_upto(b) >= target throughout
    while (a < b) {
      const std::uint64_t mid = a + (b - a) / 2;
      if (weight_upto(mid) >= target) {
        b = mid;
      } else {
        a = mid + 1;
      }
    }
    return a;
  };
  m.q1_ns = weighted_pct(q1);
  m.q2_ns = weighted_pct(q2);
  return m;
}

}  // namespace dlht
