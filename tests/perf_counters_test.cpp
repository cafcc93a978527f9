// Perf-counter harness tests. The CI fleet spans hosts with full PMUs,
// software-events-only VMs, and perf_event_open-forbidden sandboxes, so
// every assertion is conditioned on what actually opened — the invariant
// under test is "opens or degrades cleanly, and the JSON never lies about
// which happened".
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "common/perf_counters.hpp"
#include "common/topology.hpp"

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

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void test_open_or_degrade() {
  std::puts("test_open_or_degrade");
  PerfCounters pc;
  pc.start();
  // Burn at least 2ms of this thread's cpu so any opened counter has
  // something to count. A fixed iteration count is not enough: on a shared
  // host the same loop took anywhere from under 1ms to ~6ms of cpu.
  volatile std::uint64_t sink = 0;
  const std::uint64_t cpu0 = thread_cpu_ns();
  while (thread_cpu_ns() - cpu0 < 2'000'000) {
    for (std::uint64_t i = 0; i < 10'000; ++i) sink = sink + i;
  }
  pc.stop();
  const CounterTotals t = pc.read();
  std::printf("  counters %savailable: %s\n",
              t.any_available() ? "" : "NOT ", t.to_json().c_str());
  if (!pc.any_available()) {
    // Forbidden host: the degradation contract, not a failure.
    CHECK(!t.any_available());
    for (unsigned i = 0; i < kNumCounters; ++i) CHECK(t.v[i] == 0);
    return;
  }
  CHECK(t.any_available());
  if (t.is_available(kCtrTaskClock)) {
    // The spin ran on-cpu for at least ~1ms of the task clock.
    CHECK(t.v[kCtrTaskClock] > 1'000'000);
  }
  if (t.is_available(kCtrInstructions)) {
    CHECK(t.v[kCtrInstructions] > 1'000'000);
  }
}

void test_stopped_region_counts_nothing() {
  std::puts("test_stopped_region_counts_nothing");
  PerfCounters pc;
  if (!pc.any_available()) {
    std::puts("  skip (perf_event_open unavailable)");
    return;
  }
  // start/stop around an empty region, then heavy work *outside* it: the
  // read must reflect only the (empty) enabled window.
  pc.start();
  pc.stop();
  volatile std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < 4'000'000; ++i) sink = sink + i;
  const CounterTotals t = pc.read();
  if (t.is_available(kCtrTaskClock)) {
    CHECK(t.v[kCtrTaskClock] < 1'000'000);  // well under the spin's cost
  }
}

/// The ISSUE's cache-hostility check: a dependent pointer chase over a
/// 64 MiB ring must miss the LLC far more than the same chase over 16 KiB.
/// Only assertable where the LLC-miss event actually opened.
std::uint64_t chase_misses(std::size_t bytes, bool* llc_ok) {
  const std::size_t n = bytes / sizeof(std::uint64_t);
  std::vector<std::uint64_t> ring(n);
  // Stride 4099 slots (odd, so coprime with any power-of-two n: the walk
  // is a full cycle) — far enough that hardware prefetchers cannot help.
  std::uint64_t idx = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t next = (idx + 4099) % n;
    ring[idx] = next;
    idx = next;
  }
  PerfCounters pc;
  pc.start();
  std::uint64_t cur = 0;
  for (std::uint64_t i = 0; i < 1'000'000; ++i) cur = ring[cur];
  pc.stop();
  volatile std::uint64_t sink = cur;
  (void)sink;
  const CounterTotals t = pc.read();
  *llc_ok = t.is_available(kCtrLlcMisses);
  return t.v[kCtrLlcMisses];
}

void test_cache_hostile_vs_resident() {
  std::puts("test_cache_hostile_vs_resident");
  bool ok_big = false;
  bool ok_small = false;
  const std::uint64_t big = chase_misses(64u << 20, &ok_big);
  const std::uint64_t small = chase_misses(16u << 10, &ok_small);
  if (!ok_big || !ok_small) {
    std::puts("  skip (LLC-miss event unavailable on this host)");
    return;
  }
  std::printf("  llc misses: 64MiB chase %llu, 16KiB chase %llu\n",
              static_cast<unsigned long long>(big),
              static_cast<unsigned long long>(small));
  CHECK(big > small);
}

void test_json_schema() {
  std::puts("test_json_schema");
  CounterTotals t;  // nothing available
  const std::string j = t.to_json();
  for (unsigned i = 0; i < kNumCounters; ++i) {
    const std::string key = std::string("\"") + counter_name(i) + "\"";
    CHECK(j.find(key) != std::string::npos);
  }
  CHECK(j.find("\"unavailable\": true") != std::string::npos);
  t.available = 1u << kCtrTaskClock;
  t.v[kCtrTaskClock] = 42;
  const std::string j2 = t.to_json();
  CHECK(j2.find("\"unavailable\": false") != std::string::npos);
  CHECK(j2.find("\"task_clock_ns\": 42") != std::string::npos);
}

void test_merge_semantics() {
  std::puts("test_merge_semantics");
  CounterTotals a;
  a.v[kCtrCycles] = 100;
  a.v[kCtrTaskClock] = 10;
  a.available = (1u << kCtrCycles) | (1u << kCtrTaskClock);
  CounterTotals b;
  b.v[kCtrCycles] = 50;
  b.v[kCtrTaskClock] = 5;
  b.available = 1u << kCtrTaskClock;  // this thread lost its cycles fd
  std::vector<CounterTotals> both{a, b};
  const CounterTotals m = merge_counters(both);
  CHECK(m.v[kCtrCycles] == 150);      // values still sum...
  CHECK(!m.is_available(kCtrCycles));  // ...but a partial sum is not "available"
  CHECK(m.is_available(kCtrTaskClock));
  CHECK(m.v[kCtrTaskClock] == 15);
  // Merging an empty vector is a valid all-unavailable zero.
  const std::vector<CounterTotals> none;
  CHECK(!merge_counters(none).any_available());
}

/// Negative test (ISSUE satellite): a bogus DLHT_PIN spec must be a typed
/// exit-2 refusal, not a silent float. Forked so the exit() stays out of
/// this process.
void test_bogus_pin_spec_dies_typed() {
  std::puts("test_bogus_pin_spec_dies_typed");
  std::fflush(stdout);  // the child's exit() must not replay our buffer
  int fds[2];
  if (::pipe(fds) != 0) {
    std::puts("  skip (pipe failed)");
    return;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::puts("  skip (fork failed)");
    ::close(fds[0]);
    ::close(fds[1]);
    return;
  }
  if (pid == 0) {
    ::dup2(fds[1], 2);  // capture the child's stderr
    ::close(fds[0]);
    ::close(fds[1]);
    ::setenv("DLHT_PIN", "definitely-not-a-policy", 1);
    (void)pin_plan_from_env_or_die();  // must exit(2) before returning
    ::_exit(0);                        // reaching here is the failure
  }
  ::close(fds[1]);
  std::string err;
  char buf[512];
  ssize_t n;
  while ((n = ::read(fds[0], buf, sizeof buf)) > 0) {
    err.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  CHECK(WIFEXITED(status));
  CHECK(WEXITSTATUS(status) == 2);
  CHECK(err.find("DLHT_PIN") != std::string::npos);
  CHECK(err.find("definitely-not-a-policy") != std::string::npos);
}

}  // namespace

int main() {
  test_open_or_degrade();
  test_stopped_region_counts_nothing();
  test_cache_hostile_vs_resident();
  test_json_schema();
  test_merge_semantics();
  test_bogus_pin_spec_dies_typed();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) FAILED\n", g_failures);
    return 1;
  }
  std::puts("all tests passed");
  return 0;
}
