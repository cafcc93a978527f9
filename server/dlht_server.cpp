// dlht_server — the network-facing KV node over DLHT (include/server/).
//
//   dlht_server --listen unix:/tmp/dlht.sock --threads 2 --batch 24
//   dlht_server --listen 127.0.0.1:11311 --durable /tmp/dlht_wal
//
// Flags (env knob in parens; the flag wins):
//   --listen SPEC        unix:PATH or host:port      (default 127.0.0.1:11311)
//   --threads N          worker shards               (DLHT_SERVER_THREADS)
//   --batch N            batch-former threshold;
//                        <=1 = unbatched baseline    (DLHT_SERVER_BATCH)
//   --keys N             table sized for N keys      (DLHT_BENCH_KEYS)
//   --durable DIR        serve over DurableDLHT (WAL + snapshots) in DIR
//   --checkpoint-ms M    durable mode: periodic checkpoint interval
//   --no-pin             don't pin shard threads
//
// Prints a single "ready" line once the listener is live (harness scripts
// wait for it), serves until SIGTERM/SIGINT, then prints shutdown stats:
// ops, flushes, ops/flush, merged per-flush p50/p99, and the shards'
// poll-then-block counters (spins that caught an event, spins that
// expired, time spent spinning).
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench_common.hpp"
#include "server/server.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  const auto n = std::strtoull(v, &end, 10);
  return end != v ? static_cast<std::size_t>(n) : fallback;
}

}  // namespace

int main(int argc, char** argv) {
  using dlht::server::KvServer;
  using dlht::server::ServerOptions;

  ServerOptions o;
  o.shards = static_cast<int>(env_size("DLHT_SERVER_THREADS", 2));
  o.batch = env_size("DLHT_SERVER_BATCH", 24);
  std::uint64_t keys = env_size("DLHT_BENCH_KEYS", 1u << 20);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--listen") {
      o.listen = next();
    } else if (arg == "--threads") {
      o.shards = std::atoi(next());
    } else if (arg == "--batch") {
      o.batch = static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--keys") {
      keys = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--durable") {
      o.durable_dir = next();
    } else if (arg == "--checkpoint-ms") {
      o.checkpoint_ms = static_cast<unsigned>(std::atoi(next()));
    } else if (arg == "--no-pin") {
      o.pin = false;
    } else {
      std::fprintf(stderr, "dlht_server: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  // Same geometry + env-knob overlay every bench table gets, so a server
  // run is comparable with the in-process figures at equal --keys.
  o.table = dlht::bench::dlht_options(keys);

  KvServer server(o);
  if (!server.start()) return 1;

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::printf("# dlht_server ready listen=%s shards=%d batch=%zu durable=%s\n",
              o.listen.c_str(), o.shards, o.batch,
              o.durable_dir.empty() ? "no" : o.durable_dir.c_str());
  std::fflush(stdout);

  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.stop();

  const auto lat = server.flush_latency();
  const std::uint64_t ops = server.total_ops();
  const std::uint64_t flushes = server.total_flushes();
  const dlht::server::SpinStats spin = server.spin_stats();
  std::printf("# dlht_server stats: ops=%llu flushes=%llu ops/flush=%.2f "
              "conns=%llu flush_p50=%llu ns flush_p99=%llu ns size=%lld "
              "spins_caught=%llu spins_expired=%llu spin_ms=%.1f\n",
              static_cast<unsigned long long>(ops),
              static_cast<unsigned long long>(flushes),
              flushes != 0 ? static_cast<double>(ops) /
                                 static_cast<double>(flushes)
                           : 0.0,
              static_cast<unsigned long long>(server.conns_accepted()),
              static_cast<unsigned long long>(lat.q1_ns),
              static_cast<unsigned long long>(lat.q2_ns),
              static_cast<long long>(server.table_size()),
              static_cast<unsigned long long>(spin.caught),
              static_cast<unsigned long long>(spin.expired),
              static_cast<double>(spin.spin_ns) / 1e6);
  return 0;
}
