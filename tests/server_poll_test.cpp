// Responsiveness of the poll-then-block served path (server/poll.hpp).
// Shards spin on a zero-timeout epoll_wait and clients on a non-blocking
// recv before either blocks; nothing that used to wake a blocked waiter
// may be missed or delayed by the spin, and an idle node must not burn
// CPU:
//   - stop() returns promptly while shards poll with open idle conns;
//   - a conn dealt to shard 1 through the accept inbox + wake fd is served
//     while shard 1 spins on another busy conn;
//   - an idle node (open conns, no traffic) uses under 5% of one CPU and
//     its spins expire instead of running on;
//   - a client waiting on a reply gets kIOError when the server stops.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "server/client.hpp"
#include "server/server.hpp"

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
using namespace dlht::server;

constexpr double kPromptMs = 250;

std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double ms_since(std::uint64_t t0) {
  return static_cast<double>(mono_ns() - t0) / 1e6;
}

std::uint64_t process_cpu_ns() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto ns = [](const timeval& tv) {
    return static_cast<std::uint64_t>(tv.tv_sec) * 1'000'000'000u +
           static_cast<std::uint64_t>(tv.tv_usec) * 1000u;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

std::string listen_spec(const char* tag) {
  return "unix:/tmp/dlht_poll_test_" + std::to_string(::getpid()) + "_" +
         tag + ".sock";
}

std::unique_ptr<KvServer> start_server(const std::string& spec, int shards) {
  ServerOptions o;
  o.listen = spec;
  o.shards = shards;
  o.pin = false;
  o.table.initial_bins = 1 << 12;
  auto s = std::make_unique<KvServer>(o);
  if (!s->start()) {
    std::fprintf(stderr, "FAIL: server.start(%s)\n", spec.c_str());
    ++g_failures;
    return nullptr;
  }
  return s;
}

std::unique_ptr<KvClient> connect(const std::string& spec) {
  auto c = std::make_unique<KvClient>();
  CHECK(c->connect(spec));
  return c;
}

/// A few round trips, so the waits on both sides end in caught spins and
/// the budgets are at their full value.
void warm(KvClient& c, std::uint64_t key) {
  for (std::uint64_t i = 0; i < 200; ++i) {
    CHECK(c.put(key + i, i + 1));
    CHECK(c.get(key + i) == std::optional<std::uint64_t>(i + 1));
  }
}

void test_stop_is_prompt() {
  std::puts("test_stop_is_prompt");
  const std::string spec = listen_spec("stop");
  auto srv = start_server(spec, 2);
  if (!srv) return;
  auto a = connect(spec);
  auto b = connect(spec);
  warm(*a, 1);
  warm(*b, 1000);
  CHECK(srv->spin_stats().caught > 0);
  const std::uint64_t t0 = mono_ns();
  srv->stop();
  const double ms = ms_since(t0);
  std::printf("  stop() with 2 open idle conns: %.2f ms\n", ms);
  CHECK(ms < kPromptMs);
}

void test_handoff_while_spinning() {
  std::puts("test_handoff_while_spinning");
  const std::string spec = listen_spec("handoff");
  auto srv = start_server(spec, 2);
  if (!srv) return;
  // Accepts are dealt round-robin in accept order: a -> shard 0,
  // busy -> shard 1, c -> shard 0, d -> shard 1 (through the inbox).
  auto a = connect(spec);
  auto busy = connect(spec);
  warm(*a, 1);
  std::atomic<bool> done{false};
  std::thread hammer([&] {
    std::uint64_t i = 0;
    while (!done.load(std::memory_order_relaxed)) {
      busy->put(5000 + i % 64, i + 1);
      ++i;
    }
  });
  // Wait until shard 1 is polling: its spins are catching the busy conn.
  const std::uint64_t w0 = mono_ns();
  while (srv->spin_stats(1).caught < 100 && ms_since(w0) < 5000) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  CHECK(srv->spin_stats(1).caught >= 100);
  auto c = connect(spec);
  auto d = connect(spec);
  const std::uint64_t t0 = mono_ns();
  CHECK(d->put(77, 7070));
  CHECK(d->get(77) == std::optional<std::uint64_t>(7070));
  const double ms = ms_since(t0);
  std::printf("  conn handed to a spinning shard served in %.2f ms\n", ms);
  CHECK(ms < kPromptMs);
  CHECK(c->get(77) == std::optional<std::uint64_t>(7070));
  done.store(true, std::memory_order_relaxed);
  hammer.join();
  srv->stop();
}

void test_idle_cpu() {
  std::puts("test_idle_cpu");
  const std::string spec = listen_spec("idle");
  auto srv = start_server(spec, 2);
  if (!srv) return;
  auto a = connect(spec);
  auto b = connect(spec);
  warm(*a, 1);
  warm(*b, 1000);
  // Both shards end their last turn with a full budget and open conns.
  const SpinStats s0 = srv->spin_stats();
  const std::uint64_t cpu0 = process_cpu_ns();
  const std::uint64_t t0 = mono_ns();
  std::this_thread::sleep_for(std::chrono::seconds(1));
  const double cpu_ms = static_cast<double>(process_cpu_ns() - cpu0) / 1e6;
  const double wall_ms = ms_since(t0);
  const SpinStats s1 = srv->spin_stats();
  const double spin_ms = static_cast<double>(s1.spin_ns - s0.spin_ns) / 1e6;
  std::printf("  1 s idle: cpu %.2f ms over %.0f ms wall; spins caught +%llu "
              "expired +%llu, %.3f ms spinning\n",
              cpu_ms, wall_ms,
              static_cast<unsigned long long>(s1.caught - s0.caught),
              static_cast<unsigned long long>(s1.expired - s0.expired),
              spin_ms);
  CHECK(cpu_ms < 0.05 * wall_ms);
  CHECK(s1.expired > s0.expired);
  CHECK(spin_ms < 0.05 * wall_ms);
  // Still served after idling: the budget came back with the traffic.
  warm(*a, 2000);
  srv->stop();
}

void test_client_fails_when_server_stops() {
  std::puts("test_client_fails_when_server_stops");
  const std::string spec = listen_spec("clientfail");
  auto srv = start_server(spec, 1);
  if (!srv) return;
  auto c = connect(spec);
  warm(*c, 1);
  std::atomic<bool> failed{false};
  std::atomic<std::uint64_t> failed_at{0};
  std::thread loop([&] {
    KvClient::Reply rp[4];
    const std::uint64_t keys[4] = {1, 2, 3, 4};
    for (;;) {
      c->get_batch(keys, rp, 4);
      if (rp[0].status == Status::kIOError) break;
    }
    failed_at.store(mono_ns(), std::memory_order_relaxed);
    failed.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const std::uint64_t t0 = mono_ns();
  srv->stop();
  while (!failed.load(std::memory_order_acquire) && ms_since(t0) < 2000) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!failed.load(std::memory_order_acquire)) {
    std::fprintf(stderr, "FAIL: client still waiting 2 s after stop()\n");
    std::_Exit(1);  // the client thread is hung; it cannot be joined
  }
  loop.join();
  const double ms =
      static_cast<double>(failed_at.load(std::memory_order_relaxed) - t0) /
      1e6;
  std::printf("  client saw kIOError %.2f ms after stop() began\n", ms);
  CHECK(ms < kPromptMs);
  CHECK(c->spin_stats().caught > 0);
  CHECK(!c->ok());
}

}  // namespace

int main() {
  test_stop_is_prompt();
  test_handoff_while_spinning();
  test_idle_cpu();
  test_client_fails_when_server_stops();
  if (g_failures != 0) {
    std::fprintf(stderr, "server_poll_test: %d failure(s)\n", g_failures);
    return 1;
  }
  std::puts("server_poll_test OK");
  return 0;
}
