// merge_latency (common/latency.hpp) against the sort-based merge it
// replaced, which is kept here as the reference: concatenate every sample
// as a (ns, weight) pair, sort, and accumulate weights until the target.
// The allocation-free bisection must return exactly the same calls, sum
// and percentiles on every input shape the reservoirs can produce.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <utility>
#include <vector>

#include "common/latency.hpp"
#include "common/rng.hpp"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                         \
  do {                                                                      \
    if (!(cond)) {                                                          \
      std::fprintf(stderr, "FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);  \
      ++g_failures;                                                         \
    }                                                                       \
  } while (0)

using namespace dlht;

MergedLatency reference_merge(const std::vector<LatencyReservoir>& rs,
                              double q1, double q2) {
  MergedLatency m;
  std::vector<std::pair<std::uint64_t, double>> merged;  // (ns, weight)
  for (const LatencyReservoir& rec : rs) {
    m.calls += rec.calls();
    m.total_ns += rec.total_ns();
    if (rec.samples().empty()) continue;
    const double w = static_cast<double>(rec.calls()) /
                     static_cast<double>(rec.samples().size());
    for (const std::uint64_t ns : rec.samples()) merged.push_back({ns, w});
  }
  if (merged.empty()) return m;
  std::sort(merged.begin(), merged.end());
  const auto weighted_pct = [&merged, &m](double q) {
    const double target = q * static_cast<double>(m.calls);
    double acc = 0;
    for (const auto& [ns, w] : merged) {
      acc += w;
      if (acc >= target) return ns;
    }
    return merged.back().first;
  };
  m.q1_ns = weighted_pct(q1);
  m.q2_ns = weighted_pct(q2);
  return m;
}

bool same(const MergedLatency& a, const MergedLatency& b) {
  return a.calls == b.calls && a.total_ns == b.total_ns &&
         a.q1_ns == b.q1_ns && a.q2_ns == b.q2_ns;
}

constexpr std::pair<double, double> kQuantiles[] = {
    {0.0, 1.0}, {0.5, 0.99}, {0.9, 0.999}, {0.25, 0.75}, {0.01, 1.5}};

void compare(const std::vector<LatencyReservoir>& rs, const char* what) {
  for (const auto& [q1, q2] : kQuantiles) {
    const MergedLatency want = reference_merge(rs, q1, q2);
    const MergedLatency got = merge_latency(rs, q1, q2);
    if (!same(want, got)) {
      std::fprintf(stderr,
                   "  %s q=(%g,%g): want {%llu %llu %llu %llu} got "
                   "{%llu %llu %llu %llu}\n",
                   what, q1, q2, static_cast<unsigned long long>(want.calls),
                   static_cast<unsigned long long>(want.total_ns),
                   static_cast<unsigned long long>(want.q1_ns),
                   static_cast<unsigned long long>(want.q2_ns),
                   static_cast<unsigned long long>(got.calls),
                   static_cast<unsigned long long>(got.total_ns),
                   static_cast<unsigned long long>(got.q1_ns),
                   static_cast<unsigned long long>(got.q2_ns));
    }
    CHECK(same(want, got));
  }
}

void test_edge_shapes() {
  std::puts("test_edge_shapes");
  std::vector<LatencyReservoir> rs;
  compare(rs, "no reservoirs");
  rs.emplace_back(1);
  rs.emplace_back(2);
  compare(rs, "all empty");
  rs[1].add(777);
  compare(rs, "single sample");
  CHECK(merge_latency(rs).q1_ns == 777);
  rs[0].add(777);
  rs[0].add(777);
  compare(rs, "all ties");
}

/// Range adaptor the server and perfbench use: reservoirs by reference.
void test_reference_range() {
  std::puts("test_reference_range");
  std::vector<LatencyReservoir> rs;
  for (std::uint64_t s = 0; s < 3; ++s) {
    rs.emplace_back(s);
    for (std::uint64_t i = 0; i < 1000 * (s + 1); ++i) rs.back().add(i % 97);
  }
  std::vector<std::reference_wrapper<const LatencyReservoir>> refs(
      rs.begin(), rs.end());
  CHECK(same(merge_latency(refs), merge_latency(rs)));
}

/// Randomized reservoirs: a mix of unfilled and capped ones (capped ones
/// weigh calls / kCap per sample), narrow value ranges that force ties
/// across reservoirs, wide ones, and empty members.
void test_randomized() {
  std::puts("test_randomized");
  Xoshiro256 rng(0x5eed);
  constexpr std::size_t kCap = LatencyReservoir::kCap;
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<LatencyReservoir> rs;
    const std::size_t n = 1 + rng.next_below(6);
    const std::uint64_t range =
        trial % 3 == 0 ? 8 : (trial % 3 == 1 ? 5000 : (1ull << 40));
    for (std::size_t r = 0; r < n; ++r) {
      rs.emplace_back(rng());
      std::uint64_t calls = 0;
      switch (rng.next_below(4)) {
        case 0: calls = 0; break;
        case 1: calls = 1 + rng.next_below(50); break;
        case 2: calls = 1 + rng.next_below(kCap); break;
        default: calls = kCap + rng.next_below(3 * kCap); break;
      }
      const std::uint64_t base = rng.next_below(range);
      for (std::uint64_t i = 0; i < calls; ++i) {
        rs.back().add(base / 2 + rng.next_below(range));
      }
    }
    compare(rs, "randomized");
  }
}

}  // namespace

int main() {
  test_edge_shapes();
  test_reference_range();
  test_randomized();
  if (g_failures != 0) {
    std::fprintf(stderr, "latency_test: %d failure(s)\n", g_failures);
    return 1;
  }
  std::puts("latency_test OK");
  return 0;
}
