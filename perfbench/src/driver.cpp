// perfbench driver: one process per run, one named workload per run.
//
//   perfbench_driver --workload kv_mem|kv_durable|table_dram --seed N
//                    --seconds S --trace 0|1 [--out DIR] [--fault erase-key]
//
// Untraced (--trace 0) runs print the end-to-end metrics; traced runs
// (--trace 1) print the per-layer ledger and write every span to
// DIR/trace-<workload>-s<seed>.tsv. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the exit code is nonzero
// when any operation failed or an audit found a violation. Why each
// workload exists, and which layer metric should move which end-to-end
// metric on which workload, is in perfbench/README.md.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/rng.hpp"
#include "dlht/dlht.hpp"
#include "dlht/durability.hpp"
#include "harness.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "workload/mixes.hpp"

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace {

namespace pb = perfbench;
namespace fs = std::filesystem;
using dlht::DLHT;
using dlht::OpType;
using dlht::Options;
using dlht::Status;
using dlht::server::KvClient;
using dlht::server::KvServer;

constexpr std::size_t kBatch = 32;
constexpr std::uint64_t kKvKeys = std::uint64_t{1} << 20;
constexpr std::uint64_t kDramKeys = std::uint64_t{1} << 24;
constexpr std::uint64_t kWindow = dlht::workload::kInsDelWindow;
/// Set-up is repeated and its median reported, so one slow load (page
/// faults racing a neighbour) does not decide setup_s.
constexpr int kSetupReps = 3;
constexpr int kRecoveryReps = 3;
constexpr std::uint64_t kTail = std::uint64_t{1} << 20;
constexpr std::size_t kPreloadBatch = 256;
constexpr std::size_t kSpanCap = std::size_t{1} << 16;
constexpr std::size_t kReplayBatches = 8192;  // per client stream
constexpr int kStealRetries = 2;

// Every stored value carries its key in the high bits, so a read that
// returns another key's value (a torn read, a misrouted reply) is caught.
std::uint64_t val(std::uint64_t key, std::uint64_t tag) {
  return (key << 24) | (tag & 0xFFFFFFu);
}
bool val_ok(std::uint64_t key, std::uint64_t v) { return (v >> 24) == key; }

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".bench_build/perfbench";
  std::string fault;
};

/// Everything one run shares: arguments, the failure ledger, spans,
/// metrics and the facts recorded next to them.
struct Run {
  explicit Run(Args a) : args(std::move(a)), trace(args.trace) {}
  Args args;
  pb::Ledger ledger;
  pb::Trace trace;
  pb::Trace::Buffer* main = nullptr;
  pb::Metrics e2e;
  pb::Metrics layer;
  std::vector<int> cpus;
  std::string dir;  // per-run scratch: socket, durable directory
  std::vector<std::pair<std::string, std::string>> info;  // key -> JSON

  void note(const std::string& k, const std::string& json) {
    info.emplace_back(k, json);
  }
  void note(const std::string& k, double v) { note(k, pb::json_num(v)); }
};

/// One closed-loop worker's tallies; only its own thread writes them.
/// Cache-line aligned so workers' per-batch counter updates do not
/// false-share into the rates being measured.
struct alignas(64) WorkerStats {
  WorkerStats(std::uint64_t seed, double seconds)
      : lat(seed << 16, pb::slice_count(seconds)) {}
  pb::SlicedLatency lat;
  std::uint64_t gets = 0, hits = 0, writes = 0, inserts = 0, inserts_ok = 0;
  std::uint64_t failed = 0;
  pb::Trace::Buffer* spans = nullptr;
};

/// Checks one batch's replies against what a correct table must answer
/// (every Get targets a live key, window inserts find the key absent, window
/// deletes find it present) and tallies them.
void tally(const DLHT::Request* rq, const DLHT::Reply* rp, std::size_t n,
           WorkerStats& w, pb::Progress& p) {
  std::uint64_t g = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Status s = rp[i].status;
    switch (rq[i].op) {
      case OpType::kGet:
        ++g;
        if (s == Status::kOk && val_ok(rq[i].key, rp[i].value)) {
          ++w.hits;
        } else {
          ++w.failed;
        }
        break;
      case OpType::kPut:
        if (s != Status::kOk && s != Status::kExists) ++w.failed;
        break;
      case OpType::kInsert:
        ++w.inserts;
        if (s == Status::kOk) {
          ++w.inserts_ok;
        } else {
          ++w.failed;
        }
        break;
      case OpType::kDelete:
        if (s != Status::kOk) ++w.failed;
        break;
    }
  }
  w.gets += g;
  w.writes += n - g;
  p.add(g, n - g);
}

/// The request stream one client (or the table_dram writer) sends, batch by
/// batch. Deterministic in (seed, stream id), so the traced replay can
/// regenerate exactly the batches a client sent.
class BatchStream {
 public:
  enum class Kind {
    /// YCSB-B: 95% Get / 5% Put over scrambled Zipf(0.99) keys.
    kReadMostly,
    /// 75% writes: 16 PutHeavy ops (50/50 Get/Put, uniform keys) and 8
    /// InsDel pairs (insert then delete, over a private window above the
    /// loaded keys) in every batch. The op totals equal alternating whole
    /// PutHeavy and InsDel batches, but every batch costs about the same,
    /// so batch latency has one mode and its median does not flip between
    /// two.
    kWriteMix,
  };

  BatchStream(Kind kind, std::uint64_t keys, std::uint64_t seed,
              std::uint64_t id)
      : kind_(kind),
        uni_(keys, dlht::splitmix64(seed ^ (0x51ull + id * 0x9E37ull))),
        coin_(dlht::splitmix64(seed ^ (0xC0ull + id * 0x7F4Aull))),
        base_(keys + 1 + id * kWindow) {
    if (kind == Kind::kReadMostly) {
      zipf_ = std::make_unique<dlht::ScrambledZipf>(
          keys, 0.99, dlht::splitmix64(seed ^ (0x21ull + id * 0x3C6Eull)));
    }
  }

  void next(DLHT::Request* r) {
    if (kind_ == Kind::kReadMostly) {
      for (std::size_t i = 0; i < kBatch; ++i) {
        const std::uint64_t k = zipf_->next() + 1;
        const std::uint64_t c = coin_();
        r[i] = (c % 20 == 0) ? DLHT::Request{OpType::kPut, k, val(k, c >> 8), i}
                             : DLHT::Request{OpType::kGet, k, 0, i};
      }
      return;
    }
    for (std::size_t i = 0; i < kBatch / 2; ++i) {
      const std::uint64_t k = uni_.next() + 1;
      const std::uint64_t c = coin_();
      r[i] = (c & 1) ? DLHT::Request{OpType::kGet, k, 0, i}
                     : DLHT::Request{OpType::kPut, k, val(k, c >> 8), i};
    }
    for (std::size_t i = kBatch / 2; i < kBatch; i += 2) {
      const std::uint64_t k = base_ + (slot_++ & (kWindow - 1));
      r[i] = {OpType::kInsert, k, val(k, slot_), i};
      r[i + 1] = {OpType::kDelete, k, 0, i + 1};
    }
  }

 private:
  Kind kind_;
  std::unique_ptr<dlht::ScrambledZipf> zipf_;
  dlht::UniformGenerator uni_;
  dlht::Xoshiro256 coin_;
  std::uint64_t base_;
  std::uint64_t slot_ = 0;
};

/// Runs `fn(i)` on `cpus.size()` threads, thread i pinned to cpus[i], and
/// joins them all.
template <class Fn>
void parallel(const std::vector<int>& cpus, Fn&& fn) {
  const dlht::PinPlan plan = pb::plan_for(cpus);
  std::vector<std::thread> ts;
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    ts.emplace_back([&, i] {
      plan.pin(i);
      fn(i);
    });
  }
  for (auto& t : ts) t.join();
}

std::string json_list(const std::vector<double>& v) {
  std::string o = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    o += (i ? ", " : "") + pb::json_num(v[i]);
  }
  return o + "]";
}

/// Stream seeds differ per timed phase, so a traced run's second phase does
/// not replay the first phase's keys.
std::uint64_t phase_seed(std::uint64_t seed, int phase) {
  return dlht::splitmix64(seed + 0x1000u * static_cast<std::uint64_t>(phase));
}

/// The untraced timed phase, run again (at most kStealRetries times) while
/// the hypervisor stole from more than half of its slices: such a phase
/// measured the host, not the program. The attempts are recorded.
template <class TimedFn>
auto untraced_phase(Run& R, TimedFn&& timed) {
  auto ph = timed(0, false);
  int attempts = 1;
  while (attempts <= kStealRetries &&
         2 * ph.res.stolen() > ph.res.slices()) {
    ph = timed(0, false);
    ++attempts;
  }
  R.note("timed_attempts", attempts);
  return ph;
}

// ------------------------------------------------------------ traced replay

struct ReplayResult {
  double codec_ns_per_op = 0;
  double wire_bytes_per_op = 0;
  double table_ns_per_op = 0;
  double get_ns_per_key = 0;
  double write_ns_per_op = 0;
  double links_per_bin = 0;
  double resizes = 0;
  double epoch_advances_per_s = 0;
};

/// Passes the batches the kv clients sent in the traced phase through the
/// protocol codec (encode_request -> decode_request -> encode_reply ->
/// decode_reply) and through an in-process table of the server's geometry,
/// timing each layer's public calls separately.
ReplayResult replay_kv(Run& R, const Options& opts, BatchStream::Kind kind,
                       std::uint64_t stream_seed) {
  namespace proto = dlht::server;
  pb::Trace::Scope scope(R.main, "replay");
  DLHT table(opts);
  for (std::uint64_t k = 1; k <= kKvKeys; ++k) table.insert(k, val(k, 0));
  const std::uint64_t e0 = table.epoch().global_epoch();
  const std::uint64_t t_start = pb::now_ns();
  std::vector<DLHT::Request> rq(kBatch);
  std::vector<DLHT::Reply> rp(kBatch);
  std::vector<std::uint8_t> wire((proto::kHeaderBytes + 16) * kBatch);
  std::vector<proto::Frame> frames(kBatch);
  std::uint64_t codec_ns = 0, table_ns = 0, bytes = 0, ops = 0;
  std::uint64_t get_ns = 0, gets = 0, write_ns = 0, writes = 0;
  std::uint64_t bad = 0;
  std::vector<std::uint64_t> keys(kBatch);
  std::vector<DLHT::Request> wr(kBatch);
  for (std::uint64_t id = 0; id < 2; ++id) {
    BatchStream s(kind, kKvKeys, stream_seed, id);
    for (std::size_t b = 0; b < kReplayBatches; ++b) {
      s.next(rq.data());
      const std::uint64_t req = (id << 40) | b;
      // Request path: client encode, server decode.
      std::uint64_t t0 = pb::now_ns();
      std::size_t len = 0;
      for (std::size_t i = 0; i < kBatch; ++i) {
        len += proto::encode_request(wire.data() + len,
                                     static_cast<proto::WireOp>(rq[i].op),
                                     rq[i].key, rq[i].value, i);
      }
      std::size_t off = 0;
      for (std::size_t i = 0; i < kBatch; ++i) {
        std::size_t used = 0;
        if (proto::decode_request(wire.data() + off, len - off, &frames[i],
                                  &used) != proto::Decode::kFrame) {
          ++bad;
          break;
        }
        off += used;
      }
      std::uint64_t t1 = pb::now_ns();
      codec_ns += t1 - t0;
      bytes += len;
      if (R.main != nullptr) R.main->add("protocol.request_codec", t0, t1, req);
      // Table: one mixed batch, as the in-memory server's flush issues it.
      t0 = pb::now_ns();
      table.execute_batch(rq.data(), rp.data(), kBatch);
      t1 = pb::now_ns();
      table_ns += t1 - t0;
      if (R.main != nullptr) R.main->add("dlht.execute_batch", t0, t1, req);
      // Reply path: server encode, client decode.
      t0 = pb::now_ns();
      len = 0;
      for (std::size_t i = 0; i < kBatch; ++i) {
        const bool hit =
            rq[i].op == OpType::kGet && rp[i].status == Status::kOk;
        len += proto::encode_reply(wire.data() + len,
                                   proto::to_wire(rp[i].status), rp[i].value,
                                   hit, frames[i].opaque);
      }
      off = 0;
      for (std::size_t i = 0; i < kBatch; ++i) {
        std::size_t used = 0;
        if (proto::decode_reply(wire.data() + off, len - off, &frames[i],
                                &used) != proto::Decode::kFrame) {
          ++bad;
          break;
        }
        off += used;
      }
      t1 = pb::now_ns();
      codec_ns += t1 - t0;
      bytes += len;
      if (R.main != nullptr) R.main->add("protocol.reply_codec", t0, t1, req);
      ops += kBatch;
      // Split pass: the batch's Gets alone through get_batch and its writes
      // alone through execute_batch, so read and write cost separate.
      std::size_t ng = 0, nw = 0;
      for (std::size_t i = 0; i < kBatch; ++i) {
        if (rq[i].op == OpType::kGet) {
          keys[ng++] = rq[i].key;
        } else {
          wr[nw++] = rq[i];
        }
      }
      if (ng > 0) {
        t0 = pb::now_ns();
        table.get_batch(keys.data(), rp.data(), ng);
        t1 = pb::now_ns();
        get_ns += t1 - t0;
        gets += ng;
        if (R.main != nullptr) R.main->add("dlht.get_batch", t0, t1, req);
      }
      if (nw > 0) {
        t0 = pb::now_ns();
        table.execute_batch(wr.data(), rp.data(), nw);
        t1 = pb::now_ns();
        write_ns += t1 - t0;
        writes += nw;
        if (R.main != nullptr) R.main->add("dlht.write_batch", t0, t1, req);
      }
    }
  }
  R.ledger.check(bad == 0, "replay: codec round trip failed", bad);
  R.ledger.check(table.approx_size() == static_cast<std::int64_t>(kKvKeys),
                 "replay: table size drifted");
  ReplayResult r;
  const double dops = static_cast<double>(ops);
  r.codec_ns_per_op = static_cast<double>(codec_ns) / dops;
  r.wire_bytes_per_op = static_cast<double>(bytes) / dops;
  r.table_ns_per_op = static_cast<double>(table_ns) / dops;
  r.get_ns_per_key = gets != 0 ? static_cast<double>(get_ns) / gets : 0;
  r.write_ns_per_op = writes != 0 ? static_cast<double>(write_ns) / writes : 0;
  const DLHT::Stats st = table.stats();
  r.links_per_bin =
      static_cast<double>(st.links_used) / static_cast<double>(st.bins);
  r.resizes = static_cast<double>(table.resizes());
  r.epoch_advances_per_s =
      static_cast<double>(table.epoch().global_epoch() - e0) /
      pb::seconds_since(t_start);
  return r;
}

// ------------------------------------------------------------ kv workloads

Options kv_options() {
  Options o;
  // Presized for the preload: 2^20 bins of 3 slots hold 2^20 keys at a
  // third of capacity, so the served table never resizes (~64 MiB).
  o.initial_bins = std::size_t{1} << 20;
  return o;
}

/// Audit over the wire, traffic quiescent: every preloaded key present with
/// a value that names it, every InsDel window empty, server count exact.
void audit_kv(Run& R, KvClient& c, const char* when) {
  const std::string w = when;
  std::vector<std::uint64_t> keys(kPreloadBatch);
  std::vector<DLHT::Reply> rp(kPreloadBatch);
  std::uint64_t lost = 0, leftovers = 0;
  for (std::uint64_t k = 1; k <= kKvKeys; k += kPreloadBatch) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(kPreloadBatch, kKvKeys - k + 1));
    for (std::size_t i = 0; i < n; ++i) keys[i] = k + i;
    c.get_batch(keys.data(), rp.data(), n);
    R.ledger.attempt(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (rp[i].status != Status::kOk || !val_ok(keys[i], rp[i].value)) ++lost;
    }
  }
  for (std::uint64_t id = 0; id < 2; ++id) {
    const std::uint64_t base = kKvKeys + 1 + id * kWindow;
    for (std::uint64_t k = base; k < base + kWindow; k += kPreloadBatch) {
      for (std::size_t i = 0; i < kPreloadBatch; ++i) keys[i] = k + i;
      c.get_batch(keys.data(), rp.data(), kPreloadBatch);
      R.ledger.attempt(kPreloadBatch);
      for (std::size_t i = 0; i < kPreloadBatch; ++i) {
        if (rp[i].status != Status::kNotFound) ++leftovers;
      }
    }
  }
  const std::int64_t count = c.count();
  R.ledger.attempt(1);
  R.ledger.check(lost == 0, w + " audit: preloaded keys lost or wrong", lost);
  R.ledger.check(leftovers == 0, w + " audit: InsDel window not empty",
                 leftovers);
  R.ledger.check(count == static_cast<std::int64_t>(kKvKeys),
                 w + " audit: server count " + std::to_string(count) +
                     " != " + std::to_string(kKvKeys));
}

struct KvNode {
  std::unique_ptr<KvServer> server;
  std::vector<std::unique_ptr<KvClient>> clients;

  void shut(Run& R) {
    clients.clear();
    if (server) {
      pb::Trace::Scope s(R.main, "server.stop");
      server->stop();
    }
  }
};

void kv_workload(Run& R, bool durable) {
  const Options opts = kv_options();
  const std::vector<int> client_cpus{R.cpus[0], R.cpus[1]};
  const std::vector<int> server_cpus{R.cpus[2], R.cpus[3]};
  const dlht::PinPlan client_plan = pb::plan_for(client_cpus);
  // The server pins its shards (and the durable tier its group committer)
  // by DLHT_PIN; point it at the cpus the clients do not use.
  const std::string server_pin =
      std::to_string(server_cpus[0]) + "," + std::to_string(server_cpus[1]);
  ::setenv("DLHT_PIN", server_pin.c_str(), 1);
  const std::string sock = "unix:" + R.dir + "/kv.sock";
  const std::string dur_dir = R.dir + "/durable";
  R.note("server_cpus", "\"" + server_pin + "\"");
  R.note("client_cpus", "\"" + std::to_string(client_cpus[0]) + "," +
                            std::to_string(client_cpus[1]) + "\"");
  if (durable) R.note("durable_fs", pb::json_str(pb::fs_type(R.dir)));

  KvNode node;
  std::vector<double> setup_s, preload_s;
  std::uint64_t preload_inserts = 0, preload_ok = 0;
  std::uint64_t server_t0 = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    node.shut(R);
    node.server.reset();
    if (durable) fs::remove_all(dur_dir);
    pb::Trace::Scope s(R.main, "setup", static_cast<std::uint64_t>(rep));
    const std::uint64_t t0 = pb::now_ns();
    dlht::server::ServerOptions so;
    so.listen = sock;
    so.shards = 2;
    so.pin = true;
    so.table = opts;
    if (durable) so.durable_dir = dur_dir;
    node.server = std::make_unique<KvServer>(so);
    {
      pb::Trace::Scope st(R.main, "server.start");
      if (!node.server->start()) {
        R.ledger.fail(1, "server.start failed");
        return;
      }
    }
    server_t0 = pb::now_ns();
    for (int i = 0; i < 2; ++i) {
      auto c = std::make_unique<KvClient>();
      if (!c->connect(sock)) {
        R.ledger.fail(1, "client connect failed");
        return;
      }
      node.clients.push_back(std::move(c));
    }
    const std::uint64_t p0 = pb::now_ns();
    std::vector<std::uint64_t> bad(2, 0);
    {
      pb::Trace::Scope sp(R.main, "client.preload");
      parallel(client_cpus, [&](std::size_t i) {
        KvClient& c = *node.clients[i];
        std::vector<DLHT::Request> rq(kPreloadBatch);
        std::vector<DLHT::Reply> rp(kPreloadBatch);
        const std::uint64_t half = kKvKeys / 2;
        const std::uint64_t lo = 1 + i * half, hi = lo + half;
        for (std::uint64_t k = lo; k < hi; k += kPreloadBatch) {
          const std::size_t n = static_cast<std::size_t>(
              std::min<std::uint64_t>(kPreloadBatch, hi - k));
          for (std::size_t j = 0; j < n; ++j) {
            rq[j] = {OpType::kInsert, k + j, val(k + j, 0), j};
          }
          c.execute_batch(rq.data(), rp.data(), n);
          for (std::size_t j = 0; j < n; ++j) {
            if (rp[j].status != Status::kOk) ++bad[i];
          }
        }
      });
    }
    preload_s.push_back(pb::seconds_since(p0));
    R.ledger.attempt(kKvKeys);
    R.ledger.fail(bad[0] + bad[1], "preload insert not kOk");
    preload_inserts += kKvKeys;
    preload_ok += kKvKeys - bad[0] - bad[1];
    const std::int64_t n = node.clients[0]->count();
    R.ledger.attempt(1);
    R.ledger.check(n == static_cast<std::int64_t>(kKvKeys),
                   "preload count " + std::to_string(n));
    setup_s.push_back(pb::seconds_since(t0));
  }
  R.note("setup_reps_s", json_list(setup_s));

  dlht::DurableDLHT* dur = durable ? node.server->durable_tier() : nullptr;
  const BatchStream::Kind kind =
      durable ? BatchStream::Kind::kWriteMix : BatchStream::Kind::kReadMostly;

  struct Phase {
    pb::PhaseResult res;
    std::vector<WorkerStats> ws;
    std::uint64_t ops0 = 0, ops1 = 0, flushes0 = 0, flushes1 = 0;
    dlht::DurableDLHT::Stats d0, d1;
    std::uint64_t e0 = 0, e1 = 0, resizes = 0;
  };
  const auto timed = [&](int phase, bool traced) {
    Phase ph;
    for (int i = 0; i < 2; ++i) {
      ph.ws.emplace_back(static_cast<std::uint64_t>(i), R.args.seconds);
    }
    pb::Trace::Scope sc(traced ? R.main : nullptr, "timed");
    if (traced) {
      for (int i = 0; i < 2; ++i) {
        ph.ws[static_cast<std::size_t>(i)].spans = R.trace.buffer(
            "client" + std::to_string(i), kSpanCap, R.main->current());
      }
    }
    ph.ops0 = node.server->total_ops();
    ph.flushes0 = node.server->total_flushes();
    if (dur != nullptr) {
      ph.d0 = dur->stats();
      ph.e0 = dur->core().epoch().global_epoch();
    }
    const std::uint64_t sseed = phase_seed(R.args.seed, phase);
    ph.res = pb::run_phase(client_plan, 2, R.args.seconds, [&](int i) {
      const std::size_t idx = static_cast<std::size_t>(i);
      return [&c = *node.clients[idx], &w = ph.ws[idx],
              s = BatchStream(kind, kKvKeys, sseed, idx),
              rq = std::vector<DLHT::Request>(kBatch),
              rp = std::vector<DLHT::Reply>(kBatch),
              req = static_cast<std::uint64_t>(idx) << 40](
                 pb::Progress& p, std::size_t slice) mutable {
        s.next(rq.data());
        const std::uint64_t t0 = pb::now_ns();
        c.execute_batch(rq.data(), rp.data(), kBatch);
        const std::uint64_t t1 = pb::now_ns();
        w.lat.add(slice, t1 - t0);
        if (w.spans != nullptr) {
          w.spans->add("client.execute_batch", t0, t1, req);
        }
        ++req;
        tally(rq.data(), rp.data(), kBatch, w, p);
      };
    });
    ph.ops1 = node.server->total_ops();
    ph.flushes1 = node.server->total_flushes();
    if (dur != nullptr) {
      ph.d1 = dur->stats();
      ph.e1 = dur->core().epoch().global_epoch();
      ph.resizes = dur->core().resizes();
    }
    for (const WorkerStats& w : ph.ws) {
      R.ledger.attempt(w.gets + w.writes);
      R.ledger.fail(w.failed, "timed phase: unexpected reply status or value");
    }
    return ph;
  };

  const Phase untraced = untraced_phase(R, timed);
  Phase traced;
  if (R.args.trace) traced = timed(1, true);

  if (R.args.fault == "erase-key") {
    const std::uint64_t victim = 1 + dlht::splitmix64(R.args.seed) % kKvKeys;
    node.clients[0]->erase(victim);
  }
  {
    pb::Trace::Scope s(R.main, "audit");
    audit_kv(R, *node.clients[0], "served");
  }
  node.shut(R);
  const double server_life_s = pb::seconds_since(server_t0);

  // ---- end-to-end metrics (untraced phase only)
  const pb::BatchLatency bl = pb::batch_latency(untraced.ws, untraced.res);
  R.e2e.set("throughput_mops", untraced.res.total_mops(), "Mop/s");
  R.e2e.set("get_mops", untraced.res.get_mops(), "Mop/s");
  R.e2e.set("write_mops", untraced.res.write_mops(), "Mop/s");
  R.e2e.set("batch_p50_us", bl.p50_us, "us");
  R.e2e.set("batch_p99_us", bl.p99_us, "us");
  R.e2e.set("setup_s", pb::median(setup_s), "s");
  R.note("batch_samples", static_cast<double>(bl.samples));
  R.note("batch_pooled_p90_us", bl.pooled_p90_us);
  R.note("batch_pooled_p99_us", bl.pooled_p99_us);
  R.note("timed_gets", static_cast<double>(untraced.res.gets));
  R.note("slice_mops", json_list(untraced.res.slice_total_mops));
  R.note("slice_write_mops", json_list(untraced.res.slice_write_mops));
  R.note("steal_pct", untraced.res.steal_pct);
  R.note("slices_stolen", static_cast<double>(untraced.res.stolen()));
  R.note("timed_writes", static_cast<double>(untraced.res.writes));

  // ---- server layer (whole server life: preload, timed phases, audit)
  const dlht::MergedLatency fl = node.server->flush_latency();
  const Phase& lp = R.args.trace ? traced : untraced;
  R.layer.set("server.ops_per_flush",
              lp.flushes1 > lp.flushes0
                  ? static_cast<double>(lp.ops1 - lp.ops0) /
                        static_cast<double>(lp.flushes1 - lp.flushes0)
                  : 0,
              "ops");
  R.layer.set("server.flush_p50_us", static_cast<double>(fl.q1_ns) / 1e3, "us");
  R.layer.set("server.flush_p99_us", static_cast<double>(fl.q2_ns) / 1e3, "us");
  R.layer.set("server.flush_share",
              static_cast<double>(fl.total_ns) / 1e9 / (2.0 * server_life_s),
              "ratio");

  // ---- durable tail, checkpoint, recovery
  double recovery_s = 0, snapshot_bytes = 0, replayed = 0, io_errors = 0;
  if (dur != nullptr) {
    {
      pb::Trace::Scope s(R.main, "durability.checkpoint");
      R.ledger.attempt(1);
      R.ledger.check(dur->checkpoint() == Status::kOk, "checkpoint failed");
    }
    snapshot_bytes = static_cast<double>(dur->stats().snapshot_bytes);
    const std::uint64_t tag = dlht::splitmix64(R.args.seed ^ 0x7A11u);
    {
      // A fixed tail of known values after the snapshot: recovery must
      // replay exactly these records, however much the timed phase wrote.
      pb::Trace::Scope s(R.main, "durability.tail");
      std::vector<std::uint64_t> bad(R.cpus.size(), 0);
      parallel(R.cpus, [&](std::size_t i) {
        for (std::uint64_t k = 1 + i; k <= kTail; k += R.cpus.size()) {
          const Status st = dur->put(k, val(k, tag ^ k));
          if (st != Status::kOk && st != Status::kExists) ++bad[i];
        }
      });
      R.ledger.attempt(kTail);
      for (const std::uint64_t b : bad) R.ledger.fail(b, "tail put failed");
    }
    io_errors = static_cast<double>(dur->stats().io_errors);
    node.server.reset();  // destroys the tier: final WAL sync, files closed
    dur = nullptr;
    std::vector<double> rec_s;
    for (int rep = 0; rep < kRecoveryReps; ++rep) {
      pb::Trace::Scope s(R.main, "durability.open",
                         static_cast<std::uint64_t>(rep));
      dlht::DurableDLHT d(opts, dlht::DurabilityOptions{dur_dir});
      const std::uint64_t t0 = pb::now_ns();
      const Status st = d.open();
      rec_s.push_back(pb::seconds_since(t0));
      const dlht::DurableDLHT::Stats ds = d.stats();
      R.ledger.attempt(1);
      R.ledger.check(st == Status::kOk, "recovery open failed");
      R.ledger.check(ds.replayed_records == kTail,
                     "recovery replayed " +
                         std::to_string(ds.replayed_records) +
                         " records, expected the tail " +
                         std::to_string(kTail));
      R.ledger.check(d.approx_size() == static_cast<std::int64_t>(kKvKeys),
                     "recovered count " + std::to_string(d.approx_size()));
      replayed = static_cast<double>(ds.replayed_records);
      io_errors += static_cast<double>(ds.io_errors);
      if (rep + 1 == kRecoveryReps) {
        std::vector<std::uint64_t> keys(kPreloadBatch);
        std::vector<DLHT::Reply> rp(kPreloadBatch);
        std::uint64_t wrong = 0;
        for (std::uint64_t k = 1; k <= kTail; k += kPreloadBatch) {
          for (std::size_t i = 0; i < kPreloadBatch; ++i) keys[i] = k + i;
          d.get_batch(keys.data(), rp.data(), kPreloadBatch);
          for (std::size_t i = 0; i < kPreloadBatch; ++i) {
            if (rp[i].status != Status::kOk ||
                rp[i].value != val(keys[i], tag ^ keys[i])) {
              ++wrong;
            }
          }
        }
        R.ledger.attempt(kTail);
        R.ledger.fail(wrong, "recovered tail value wrong or missing");
      }
    }
    R.ledger.check(io_errors == 0, "durable tier reported io_errors",
                   static_cast<std::uint64_t>(io_errors));
    recovery_s = pb::median(rec_s);
  }

  // ---- per-layer ledger
  R.e2e.set("rss_peak_mib", pb::rss_peak_mib(), "MiB");
  if (R.args.trace) {
    R.layer.set("trace.overhead_pct",
                100.0 * (untraced.res.total_mops() - traced.res.total_mops()) /
                    untraced.res.total_mops(),
                "%");
    const ReplayResult rr =
        replay_kv(R, opts, kind, phase_seed(R.args.seed, 1));
    R.layer.set("protocol.codec_ns_per_op", rr.codec_ns_per_op, "ns");
    R.layer.set("protocol.wire_bytes_per_op", rr.wire_bytes_per_op, "B");
    R.layer.set("dlht.table_ns_per_op", rr.table_ns_per_op, "ns");
    R.layer.set("dlht.get_ns_per_key", rr.get_ns_per_key, "ns");
    R.layer.set("dlht.write_ns_per_op", rr.write_ns_per_op, "ns");
    std::uint64_t gets = 0, hits = 0;
    std::uint64_t ins = preload_inserts, ins_ok = preload_ok;
    for (const WorkerStats& w : traced.ws) {
      gets += w.gets;
      hits += w.hits;
      ins += w.inserts;
      ins_ok += w.inserts_ok;
    }
    R.layer.set("dlht.get_hit_ratio",
                gets != 0 ? static_cast<double>(hits) / gets : 0, "ratio");
    R.layer.set("dlht.insert_ok_ratio",
                ins != 0 ? static_cast<double>(ins_ok) / ins : 0, "ratio");
    R.layer.set("dlht.populate_mops",
                static_cast<double>(kKvKeys) / pb::median(preload_s) / 1e6,
                "Mop/s");
    if (durable) {
      const dlht::DurableDLHT::Stats& a = traced.d0;
      const dlht::DurableDLHT::Stats& b = traced.d1;
      const double recs =
          static_cast<double>(b.records_logged - a.records_logged);
      const double secs = traced.res.seconds;
      R.layer.set("dlht.links_per_bin",
                  static_cast<double>(b.core.links_used) /
                      static_cast<double>(b.core.bins),
                  "ratio");
      R.layer.set("dlht.resizes", static_cast<double>(traced.resizes),
                  "count");
      R.layer.set("epoch.advances_per_s",
                  static_cast<double>(traced.e1 - traced.e0) / secs, "1/s");
      const auto per_record = [recs](std::uint64_t n) {
        return recs > 0 ? static_cast<double>(n) / recs : 0.0;
      };
      R.layer.set("durability.fsyncs_per_kop",
                  1e3 * per_record(b.syncs - a.syncs), "1/kop");
      R.layer.set("durability.wal_bytes_per_write",
                  per_record(b.wal_bytes - a.wal_bytes), "B");
      R.layer.set("durability.records_per_s", recs / secs, "1/s");
    } else {
      R.layer.set("dlht.links_per_bin", rr.links_per_bin, "ratio");
      R.layer.set("dlht.resizes", rr.resizes, "count");
      R.layer.set("epoch.advances_per_s", rr.epoch_advances_per_s, "1/s");
      R.layer.set("durability.fsyncs_per_kop", 0, "1/kop");
      R.layer.set("durability.wal_bytes_per_write", 0, "B");
      R.layer.set("durability.records_per_s", 0, "1/s");
    }
    R.layer.set("durability.snapshot_bytes", snapshot_bytes, "B");
    R.layer.set("durability.replayed_records", replayed, "count");
    R.layer.set("durability.io_errors", io_errors, "count");
    R.layer.set("recovery_s", recovery_s, "s");
  }
}

// --------------------------------------------------------------- table_dram

void table_workload(Run& R) {
  Options opts;  // defaults: 65536 initial bins, so the load crosses 7 grows
  const dlht::PinPlan plan = pb::plan_for(R.cpus);
  std::unique_ptr<DLHT> table;
  std::vector<double> setup_s;
  std::uint64_t load_bad = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    table.reset();
    pb::Trace::Scope s(R.main, "setup", static_cast<std::uint64_t>(rep));
    const std::uint64_t t0 = pb::now_ns();
    table = std::make_unique<DLHT>(opts);
    std::vector<std::uint64_t> bad(4, 0);
    parallel(R.cpus, [&](std::size_t i) {
      const std::uint64_t per = kDramKeys / 4;
      const std::uint64_t lo = 1 + i * per;
      for (std::uint64_t k = lo; k < lo + per; ++k) {
        if (!table->insert(k, val(k, 0))) ++bad[i];
      }
    });
    setup_s.push_back(pb::seconds_since(t0));
    R.ledger.attempt(kDramKeys);
    load_bad += bad[0] + bad[1] + bad[2] + bad[3];
  }
  R.ledger.fail(load_bad, "load insert failed");
  R.ledger.check(table->approx_size() == static_cast<std::int64_t>(kDramKeys),
                 "loaded count " + std::to_string(table->approx_size()));
  const double resizes = static_cast<double>(table->resizes());
  R.note("bins", static_cast<double>(table->bins()));
  R.note("anon_huge_mib", pb::anon_huge_mib());

  struct Phase {
    pb::PhaseResult res;
    std::vector<WorkerStats> ws;
    std::uint64_t e0 = 0, e1 = 0;
  };
  const auto timed = [&](int phase, bool traced) {
    Phase ph;
    for (int i = 0; i < 4; ++i) {
      ph.ws.emplace_back(static_cast<std::uint64_t>(i), R.args.seconds);
    }
    pb::Trace::Scope sc(traced ? R.main : nullptr, "timed");
    if (traced) {
      for (int i = 0; i < 4; ++i) {
        ph.ws[static_cast<std::size_t>(i)].spans = R.trace.buffer(
            (i < 3 ? "reader" : "writer") + std::to_string(i), kSpanCap,
            R.main->current());
      }
    }
    const std::uint64_t sseed = phase_seed(R.args.seed, phase);
    ph.e0 = table->epoch().global_epoch();
    ph.res = pb::run_phase(plan, 4, R.args.seconds, [&](int i) {
      const std::size_t idx = static_cast<std::size_t>(i);
      // Slots 0-2 read, slot 3 writes; the writer's InsDel window starts
      // right above the loaded keys.
      return [&t = *table, &w = ph.ws[idx], reader = idx < 3,
              uni = dlht::UniformGenerator(
                  kDramKeys, dlht::splitmix64(sseed ^ (0xD0ull + idx))),
              s = BatchStream(BatchStream::Kind::kWriteMix, kDramKeys, sseed,
                              0),
              rq = std::vector<DLHT::Request>(kBatch),
              keys = std::vector<std::uint64_t>(kBatch),
              rp = std::vector<DLHT::Reply>(kBatch),
              req = static_cast<std::uint64_t>(idx) << 40](
                 pb::Progress& p, std::size_t slice) mutable {
        if (reader) {
          for (std::size_t j = 0; j < kBatch; ++j) {
            keys[j] = uni.next() + 1;
            rq[j] = {OpType::kGet, keys[j], 0, j};
          }
          const std::uint64_t t0 = pb::now_ns();
          t.get_batch(keys.data(), rp.data(), kBatch);
          const std::uint64_t t1 = pb::now_ns();
          w.lat.add(slice, t1 - t0);
          if (w.spans != nullptr) w.spans->add("dlht.get_batch", t0, t1, req);
        } else {
          s.next(rq.data());
          const std::uint64_t t0 = pb::now_ns();
          t.execute_batch(rq.data(), rp.data(), kBatch);
          const std::uint64_t t1 = pb::now_ns();
          w.lat.add(slice, t1 - t0);
          if (w.spans != nullptr) {
            w.spans->add("dlht.execute_batch", t0, t1, req);
          }
        }
        ++req;
        tally(rq.data(), rp.data(), kBatch, w, p);
      };
    });
    ph.e1 = table->epoch().global_epoch();
    for (const WorkerStats& w : ph.ws) {
      R.ledger.attempt(w.gets + w.writes);
      R.ledger.fail(w.failed, "timed phase: unexpected status or value");
    }
    return ph;
  };

  const Phase untraced = untraced_phase(R, timed);
  R.note("anon_huge_mib_after", pb::anon_huge_mib());
  Phase traced;
  if (R.args.trace) traced = timed(1, true);

  if (R.args.fault == "erase-key") {
    table->erase(1 + dlht::splitmix64(R.args.seed) % kDramKeys);
  }
  {
    // Audit, writers quiescent: exact count, every key found with its own
    // value, the writer's InsDel window empty.
    pb::Trace::Scope s(R.main, "audit");
    std::vector<std::uint64_t> lost(4, 0);
    parallel(R.cpus, [&](std::size_t i) {
      std::vector<std::uint64_t> keys(kPreloadBatch);
      std::vector<DLHT::Reply> rp(kPreloadBatch);
      const std::uint64_t per = kDramKeys / 4;
      for (std::uint64_t k = 1 + i * per; k < 1 + (i + 1) * per;
           k += kPreloadBatch) {
        for (std::size_t j = 0; j < kPreloadBatch; ++j) keys[j] = k + j;
        table->get_batch(keys.data(), rp.data(), kPreloadBatch);
        for (std::size_t j = 0; j < kPreloadBatch; ++j) {
          if (rp[j].status != Status::kOk || !val_ok(keys[j], rp[j].value)) {
            ++lost[i];
          }
        }
      }
    });
    std::uint64_t leftovers = 0;
    for (std::uint64_t k = kDramKeys + 1; k <= kDramKeys + kWindow; ++k) {
      if (table->get(k).has_value()) ++leftovers;
    }
    R.ledger.attempt(kDramKeys + kWindow);
    R.ledger.fail(lost[0] + lost[1] + lost[2] + lost[3],
                  "audit: loaded keys lost or wrong");
    R.ledger.fail(leftovers, "audit: InsDel window not empty");
    R.ledger.check(table->approx_size() == static_cast<std::int64_t>(kDramKeys),
                   "audit: count " + std::to_string(table->approx_size()));
  }

  const pb::BatchLatency bl = pb::batch_latency(untraced.ws, untraced.res);
  R.e2e.set("throughput_mops", untraced.res.total_mops(), "Mop/s");
  R.e2e.set("get_mops", untraced.res.get_mops(), "Mop/s");
  R.e2e.set("write_mops", untraced.res.write_mops(), "Mop/s");
  R.e2e.set("batch_p50_us", bl.p50_us, "us");
  R.e2e.set("batch_p99_us", bl.p99_us, "us");
  R.e2e.set("setup_s", pb::median(setup_s), "s");
  R.e2e.set("rss_peak_mib", pb::rss_peak_mib(), "MiB");
  R.note("batch_samples", static_cast<double>(bl.samples));
  R.note("batch_pooled_p90_us", bl.pooled_p90_us);
  R.note("batch_pooled_p99_us", bl.pooled_p99_us);
  R.note("timed_gets", static_cast<double>(untraced.res.gets));
  R.note("slice_mops", json_list(untraced.res.slice_total_mops));
  R.note("slice_write_mops", json_list(untraced.res.slice_write_mops));
  R.note("steal_pct", untraced.res.steal_pct);
  R.note("slices_stolen", static_cast<double>(untraced.res.stolen()));
  R.note("timed_writes", static_cast<double>(untraced.res.writes));

  if (R.args.trace) {
    R.layer.set("trace.overhead_pct",
                100.0 * (untraced.res.total_mops() - traced.res.total_mops()) /
                    untraced.res.total_mops(),
                "%");
    // No server or wire on this workload's path: predicted no change.
    R.layer.set("server.ops_per_flush", 0, "ops");
    R.layer.set("server.flush_p50_us", 0, "us");
    R.layer.set("server.flush_p99_us", 0, "us");
    R.layer.set("server.flush_share", 0, "ratio");
    R.layer.set("protocol.codec_ns_per_op", 0, "ns");
    R.layer.set("protocol.wire_bytes_per_op", 0, "B");
    std::uint64_t rd_ns = 0, rd_batches = 0, wr_ns = 0, wr_batches = 0;
    std::uint64_t gets = 0, hits = 0, ins = kDramKeys * kSetupReps,
                  ins_ok = ins - load_bad;
    for (std::size_t i = 0; i < traced.ws.size(); ++i) {
      const WorkerStats& w = traced.ws[i];
      (i < 3 ? rd_ns : wr_ns) += w.lat.total_ns();
      (i < 3 ? rd_batches : wr_batches) += w.lat.calls();
      gets += w.gets;
      hits += w.hits;
      ins += w.inserts;
      ins_ok += w.inserts_ok;
    }
    const double rd_ops = static_cast<double>(rd_batches * kBatch);
    const double wr_ops = static_cast<double>(wr_batches * kBatch);
    R.layer.set("dlht.table_ns_per_op",
                static_cast<double>(rd_ns + wr_ns) / (rd_ops + wr_ops), "ns");
    R.layer.set("dlht.get_ns_per_key", static_cast<double>(rd_ns) / rd_ops,
                "ns");
    R.layer.set("dlht.write_ns_per_op", static_cast<double>(wr_ns) / wr_ops,
                "ns");
    const DLHT::Stats st = table->stats();
    R.layer.set("dlht.links_per_bin",
                static_cast<double>(st.links_used) /
                    static_cast<double>(st.bins),
                "ratio");
    R.layer.set("dlht.get_hit_ratio",
                gets != 0 ? static_cast<double>(hits) / gets : 0, "ratio");
    R.layer.set("dlht.insert_ok_ratio",
                ins != 0 ? static_cast<double>(ins_ok) / ins : 0, "ratio");
    R.layer.set("dlht.resizes", resizes, "count");
    R.layer.set("dlht.populate_mops",
                static_cast<double>(kDramKeys) / pb::median(setup_s) / 1e6,
                "Mop/s");
    R.layer.set("epoch.advances_per_s",
                static_cast<double>(traced.e1 - traced.e0) / traced.res.seconds,
                "1/s");
    // No durable tier on this workload's path: predicted no change.
    R.layer.set("durability.fsyncs_per_kop", 0, "1/kop");
    R.layer.set("durability.wal_bytes_per_write", 0, "B");
    R.layer.set("durability.records_per_s", 0, "1/s");
    R.layer.set("durability.snapshot_bytes", 0, "B");
    R.layer.set("durability.replayed_records", 0, "count");
    R.layer.set("durability.io_errors", 0, "count");
    R.layer.set("recovery_s", 0, "s");
  }
}

// ---------------------------------------------------------------- main

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench_driver --workload "
               "kv_mem|kv_durable|table_dram --seed N --seconds S --trace 0|1 "
               "[--out DIR] [--fault erase-key]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') usage("bad --seed");
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(a.seconds > 0) ||
          a.seconds > 120) {
        usage("bad --seconds (want 0 < S <= 120)");
      }
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("bad --trace (want 0 or 1)");
      a.trace = v == "1";
    } else if (k == "--out") {
      a.out = v;
    } else if (k == "--fault") {
      if (v != "erase-key") usage("bad --fault (want erase-key)");
      a.fault = v;
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (a.workload != "kv_mem" && a.workload != "kv_durable" &&
      a.workload != "table_dram") {
    usage("unknown --workload");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Run R(parse(argc, argv));
  const std::vector<std::string> scrubbed = pb::scrub_dlht_env();

  // Refuse hosts that cannot give the layout the figures assume: four
  // allowed cpus (two clients beside two server shards, or three readers
  // beside one writer) and room for the table.
  const std::vector<int>& allowed = dlht::allowed_cpus();
  if (allowed.size() < 4) {
    std::fprintf(stderr,
                 "perfbench: refused: need 4 allowed cpus, this process may "
                 "use %zu\n",
                 allowed.size());
    return 3;
  }
  R.cpus.assign(allowed.begin(), allowed.begin() + 4);
  const std::uint64_t need_mib = R.args.workload == "table_dram" ? 3072 : 1024;
  const std::uint64_t avail = pb::mem_available_mib();
  if (avail < need_mib) {
    std::fprintf(stderr,
                 "perfbench: refused: %s needs %" PRIu64
                 " MiB MemAvailable, host has %" PRIu64 " MiB\n",
                 R.args.workload.c_str(), need_mib, avail);
    return 3;
  }

  std::error_code ec;
  fs::create_directories(R.args.out, ec);
  R.dir = R.args.out + "/run-" + std::to_string(::getpid());
  fs::remove_all(R.dir, ec);
  if (!fs::create_directories(R.dir, ec)) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", R.dir.c_str());
    return 2;
  }
  R.main = R.trace.buffer("main", std::size_t{1} << 20);

  const Options defaults;
  std::string scrubbed_json = "[";
  for (std::size_t i = 0; i < scrubbed.size(); ++i) {
    scrubbed_json += (i ? ", " : "") + pb::json_str(scrubbed[i]);
  }
  R.note("workload", pb::json_str(R.args.workload));
  R.note("seed", static_cast<double>(R.args.seed));
  R.note("seconds", R.args.seconds);
  R.note("trace", R.args.trace ? 1.0 : 0.0);
  R.note("nproc", static_cast<double>(allowed.size()));
  R.note("l3", pb::json_str(pb::l3_size()));
  R.note("probe",
         pb::json_str(dlht::probe::name(DLHT::resolved_probe(defaults))));
  R.note("compiler", pb::json_str(std::string(__VERSION__)));
  R.note("cxx_flags", pb::json_str(PERFBENCH_CXX_FLAGS));
  R.note("scrubbed_env", scrubbed_json + "]");

  const std::uint64_t t0 = pb::now_ns();
  if (R.args.workload == "table_dram") {
    table_workload(R);
  } else {
    kv_workload(R, R.args.workload == "kv_durable");
  }
  R.note("wall_s", pb::seconds_since(t0));
  fs::remove_all(R.dir, ec);

  if (R.args.trace) {
    const std::string path = R.args.out + "/trace-" + R.args.workload + "-s" +
                             std::to_string(R.args.seed) + ".tsv";
    std::uint64_t dropped = 0;
    const auto totals = R.trace.write(path, &dropped);
    std::string o = "{";
    for (std::size_t i = 0; i < totals.size(); ++i) {
      const auto& [name, t] = totals[i];
      o += (i ? ", " : "") + pb::json_str(name) + ": {\"count\": " +
           std::to_string(t.count) + ", \"total_ns\": " +
           std::to_string(t.total_ns) + ", \"self_ns\": " +
           std::to_string(t.self_ns) + "}";
    }
    R.note("spans_file", pb::json_str(path));
    R.note("spans_not_stored", static_cast<double>(dropped));
    R.note("span_totals", o + "}");
  }

  std::string detail = "{";
  for (std::size_t i = 0; i < R.info.size(); ++i) {
    detail += (i ? ", " : "") + pb::json_str(R.info[i].first) + ": " +
              R.info[i].second;
  }
  std::printf("# perfbench %s}\n", detail.c_str());
  const pb::Metrics& m = R.args.trace ? R.layer : R.e2e;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              R.ledger.correct() ? "true" : "false", R.ledger.attempted(),
              R.ledger.failed(), m.json().c_str());
  std::fflush(stdout);
  return R.ledger.correct() ? 0 : 1;
}
