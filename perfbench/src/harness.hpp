// Benchmark plumbing shared by every perfbench workload: host facts, the
// failure ledger, the timed closed-loop phase, in-memory spans, and the
// metric printer. Nothing here reaches inside the library: the workloads
// time their own calls into its public functions and read its public stats.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <sys/vfs.h>
#include <unistd.h>

#include "common/latency.hpp"
#include "common/topology.hpp"

extern char** environ;

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 != 0 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// ------------------------------------------------------------- host facts

/// Removes every DLHT_* variable from the environment so an operator's
/// knob (DLHT_PIN, DLHT_SYSFS_ROOT, ...) cannot change what is measured.
/// Returns the names removed, for the record.
inline std::vector<std::string> scrub_dlht_env() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "DLHT_", 5) != 0) continue;
    const char* eq = std::strchr(*e, '=');
    names.emplace_back(*e, eq != nullptr ? static_cast<std::size_t>(eq - *e)
                                         : std::strlen(*e));
  }
  for (const std::string& n : names) ::unsetenv(n.c_str());
  return names;
}

/// MemAvailable from /proc/meminfo in MiB (0 when unreadable).
inline std::uint64_t mem_available_mib() {
  std::ifstream f("/proc/meminfo");
  std::string key;
  std::uint64_t kib = 0;
  std::string unit;
  while (f >> key >> kib >> unit) {
    if (key == "MemAvailable:") return kib / 1024;
  }
  return 0;
}

/// Peak resident set (VmHWM) of this process in MiB.
inline double rss_peak_mib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::strtoull(line.c_str() + 6, nullptr, 10)) /
             1024.0;
    }
  }
  return 0;
}

/// Anonymous memory of this process backed by transparent huge pages, in
/// MiB. The table madvises its bucket arrays; how many huge pages the
/// kernel can hand out depends on fragmentation, which moves DRAM-bound
/// probe rates, so the figure is recorded beside them.
inline double anon_huge_mib() {
  std::ifstream f("/proc/self/smaps_rollup");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("AnonHugePages:", 0) == 0) {
      return static_cast<double>(
                 std::strtoull(line.c_str() + 14, nullptr, 10)) /
             1024.0;
    }
  }
  return 0;
}

/// Cumulative {steal, total} jiffies of all cpus from /proc/stat. Steal is
/// time the hypervisor ran someone else while this guest wanted the cpu.
inline std::pair<std::uint64_t, std::uint64_t> cpu_jiffies() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  std::uint64_t v[8] = {};
  if (!(f >> cpu) || cpu != "cpu") return {0, 0};
  std::uint64_t total = 0;
  for (std::uint64_t& x : v) {
    if (!(f >> x)) break;
    total += x;
  }
  return {v[7], total};
}

inline std::string l3_size() {
  std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string s;
  return (f >> s) ? s : "unknown";
}

inline std::string fs_type(const std::string& path) {
  struct statfs sf {};
  if (::statfs(path.c_str(), &sf) != 0) return "unknown";
  switch (static_cast<unsigned long>(sf.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(sf.f_type));
      return buf;
    }
  }
}

inline std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    o += c;
  }
  return o + "\"";
}

inline std::string json_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ----------------------------------------------------------------- ledger

/// Attempted vs failed operations. A failure is an error status, a dropped
/// connection, an unexpected status or an audit violation; any failure
/// makes the run incorrect and the command exit nonzero.
class Ledger {
 public:
  void attempt(std::uint64_t n) {
    attempted_.fetch_add(n, std::memory_order_relaxed);
  }
  void fail(std::uint64_t n, const std::string& why) {
    if (n == 0) return;
    failed_.fetch_add(n, std::memory_order_relaxed);
    std::fprintf(stderr, "perfbench: FAIL %" PRIu64 " x %s\n", n, why.c_str());
  }
  /// A check that is either met or counts `n` failures.
  void check(bool ok, const std::string& what, std::uint64_t n = 1) {
    if (!ok) fail(n, what);
  }
  std::uint64_t attempted() const { return attempted_.load(); }
  std::uint64_t failed() const { return failed_.load(); }
  bool correct() const { return failed() == 0 && attempted() > 0; }

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
};

// ------------------------------------------------------------------ spans

/// In-memory spans (name, start, end, parent, request id), one buffer per
/// recording thread so recording takes no lock. Written out once, at exit,
/// with each span's self time: its duration minus what its children cover.
/// A disabled Trace hands out null buffers and every record call is a
/// no-op, so untraced runs pay nothing beyond a pointer test.
class Trace {
 public:
  static constexpr std::uint64_t kNoParent = ~std::uint64_t{0};

  struct Span {
    const char* name;
    std::uint64_t start;
    std::uint64_t end;
    std::uint64_t req;
    std::uint64_t parent;
  };

  class Buffer {
   public:
    Buffer(std::uint64_t no, std::string label, std::size_t cap,
           std::uint64_t parent)
        : no_(no), label_(std::move(label)), cap_(cap), parent_(parent) {
      spans_.reserve(std::min<std::size_t>(cap, 4096));
    }

    /// A closed span with caller-taken timestamps (the batch timers already
    /// read the clock, so tracing them costs one push).
    void add(const char* name, std::uint64_t s, std::uint64_t e,
             std::uint64_t req) {
      if (spans_.size() >= cap_) {
        ++dropped_;
        return;
      }
      spans_.push_back({name, s, e, req,
                        open_.empty() ? parent_ : id(open_.back())});
    }

    /// Open a span that nests under the innermost open one.
    std::uint64_t open(const char* name, std::uint64_t req) {
      const std::size_t idx = spans_.size();
      spans_.push_back(
          {name, now_ns(), 0, req, open_.empty() ? parent_ : id(open_.back())});
      open_.push_back(idx);
      return id(idx);
    }
    void close() {
      spans_[open_.back()].end = now_ns();
      open_.pop_back();
    }
    std::uint64_t id(std::size_t idx) const { return (no_ << 32) | idx; }
    std::uint64_t current() const {
      return open_.empty() ? parent_ : id(open_.back());
    }

   private:
    friend class Trace;
    std::uint64_t no_;
    std::string label_;
    std::size_t cap_;
    std::uint64_t parent_;
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
    std::uint64_t dropped_ = 0;
  };

  /// RAII span on a (possibly null) buffer.
  class Scope {
   public:
    Scope(Buffer* b, const char* name, std::uint64_t req = 0) : b_(b) {
      if (b_ != nullptr) b_->open(name, req);
    }
    ~Scope() {
      if (b_ != nullptr) b_->close();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Buffer* b_;
  };

  explicit Trace(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// A new per-thread buffer whose top-level spans hang under `parent`.
  /// Null when tracing is off.
  Buffer* buffer(const std::string& label, std::size_t cap,
                 std::uint64_t parent = kNoParent) {
    if (!enabled_) return nullptr;
    std::lock_guard<std::mutex> g(mu_);
    bufs_.push_back(std::make_unique<Buffer>(bufs_.size(), label, cap, parent));
    return bufs_.back().get();
  }

  struct NameTotal {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };

  /// Write every span as TSV (with self time) and return per-name totals.
  /// Call after every recording thread has joined.
  std::vector<std::pair<std::string, NameTotal>> write(
      const std::string& path, std::uint64_t* dropped) const {
    std::unordered_map<std::uint64_t, std::uint64_t> child_ns;
    *dropped = 0;
    for (const auto& b : bufs_) {
      *dropped += b->dropped_;
      for (const Span& s : b->spans_) {
        if (s.parent != kNoParent) child_ns[s.parent] += s.end - s.start;
      }
    }
    std::vector<std::pair<std::string, NameTotal>> totals;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f,
                   "buffer\tid\tparent\tname\treq\tstart_ns\tend_ns\t"
                   "self_ns\n");
    }
    const std::uint64_t t0 = first_start();
    for (const auto& b : bufs_) {
      for (std::size_t i = 0; i < b->spans_.size(); ++i) {
        const Span& s = b->spans_[i];
        const std::uint64_t dur = s.end - s.start;
        const auto it = child_ns.find(b->id(i));
        const std::uint64_t kids = it != child_ns.end() ? it->second : 0;
        const std::uint64_t self = kids < dur ? dur - kids : 0;
        auto t = std::find_if(
            totals.begin(), totals.end(),
            [&s](const auto& p) { return p.first == s.name; });
        if (t == totals.end()) {
          totals.emplace_back(s.name, NameTotal{});
          t = totals.end() - 1;
        }
        t->second.count += 1;
        t->second.total_ns += dur;
        t->second.self_ns += self;
        if (f != nullptr) {
          std::fprintf(f,
                       "%s\t%" PRIu64 "\t%" PRId64 "\t%s\t%" PRIu64 "\t%" PRIu64
                       "\t%" PRIu64 "\t%" PRIu64 "\n",
                       b->label_.c_str(), b->id(i),
                       s.parent == kNoParent
                           ? std::int64_t{-1}
                           : static_cast<std::int64_t>(s.parent),
                       s.name, s.req, s.start - t0, s.end - t0, self);
        }
      }
    }
    if (f != nullptr) std::fclose(f);
    return totals;
  }

 private:
  std::uint64_t first_start() const {
    std::uint64_t t0 = ~std::uint64_t{0};
    for (const auto& b : bufs_) {
      for (const Span& s : b->spans_) t0 = std::min(t0, s.start);
    }
    return t0 == ~std::uint64_t{0} ? 0 : t0;
  }

  bool enabled_;
  std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> bufs_;
};

// ------------------------------------------------------------ timed phase

/// Operations completed so far by one worker, read by the slicing clock
/// while the worker runs. Single writer, so plain relaxed stores suffice.
struct alignas(64) Progress {
  std::atomic<std::uint64_t> gets{0};
  std::atomic<std::uint64_t> writes{0};
  void add(std::uint64_t g, std::uint64_t w) {
    gets.store(gets.load(std::memory_order_relaxed) + g,
               std::memory_order_relaxed);
    writes.store(writes.load(std::memory_order_relaxed) + w,
                 std::memory_order_relaxed);
  }
};

inline constexpr double kSliceSeconds = 0.5;
/// A slice in which the hypervisor stole more than this share of the
/// guest's cpu time measured the host, not the program: it is left out of
/// the medians. A few percent of steal already costs a socket ping-pong a
/// quarter of its rate on the reference host.
inline constexpr double kMaxSliceSteal = 0.02;

/// Per-slice rates of one timed phase. Throughputs are reported as the
/// median over the slices the host did not steal from, so one stalled
/// slice (a neighbour's burst on a shared host) moves the figure far less
/// than a whole-run mean would. When every slice was stolen from, all
/// count: the run then reports what it saw.
struct PhaseResult {
  double seconds = 0;
  std::uint64_t gets = 0;
  std::uint64_t writes = 0;
  std::vector<double> slice_total_mops;
  std::vector<double> slice_get_mops;
  std::vector<double> slice_write_mops;
  std::vector<double> slice_steal;  // share of cpu time stolen, per slice
  double steal_pct = 0;             // over the whole phase, all cpus

  bool counted(std::size_t slice) const {
    return slice_steal[slice] <= kMaxSliceSteal || stolen() == slices();
  }
  std::size_t slices() const { return slice_steal.size(); }
  std::size_t stolen() const {
    return static_cast<std::size_t>(
        std::count_if(slice_steal.begin(), slice_steal.end(),
                      [](double x) { return x > kMaxSliceSteal; }));
  }
  double total_mops() const { return counted_median(slice_total_mops); }
  double get_mops() const { return counted_median(slice_get_mops); }
  double write_mops() const { return counted_median(slice_write_mops); }

 private:
  double counted_median(const std::vector<double>& v) const {
    std::vector<double> keep;
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (counted(i)) keep.push_back(v[i]);
    }
    return median(keep);
  }
};

inline std::size_t slice_count(double seconds) {
  const long n = std::lround(seconds / kSliceSeconds);
  return n > 1 ? static_cast<std::size_t>(n) : 1;
}

/// Closed loop: worker i is pinned by `plan` slot i, builds its body with
/// make_body(i), and calls body(progress, slice) until the phase ends,
/// where slice is the index of the current kSliceSeconds slice (the last
/// index can run one past the final slice while workers stop). Workers
/// start together; the phase lasts `seconds`. Every thread is joined
/// before this returns.
template <class MakeBody>
PhaseResult run_phase(const dlht::PinPlan& plan, int workers, double seconds,
                      MakeBody&& make_body) {
  const std::size_t n = static_cast<std::size_t>(workers);
  std::unique_ptr<Progress[]> prog(new Progress[n]);
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> slice_now{0};
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      plan.pin(i);
      auto body = make_body(static_cast<int>(i));
      ready.fetch_add(1, std::memory_order_release);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      while (!stop.load(std::memory_order_relaxed)) {
        body(prog[i], slice_now.load(std::memory_order_relaxed));
      }
    });
  }
  while (ready.load(std::memory_order_acquire) < n) std::this_thread::yield();
  const auto sum = [&](std::uint64_t* g, std::uint64_t* w) {
    *g = *w = 0;
    for (std::size_t i = 0; i < n; ++i) {
      *g += prog[i].gets.load(std::memory_order_relaxed);
      *w += prog[i].writes.load(std::memory_order_relaxed);
    }
  };
  PhaseResult r;
  const auto j0 = cpu_jiffies();
  const std::size_t slices = slice_count(seconds);
  const double slice = seconds / static_cast<double>(slices);
  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  std::uint64_t pg = 0, pw = 0;
  auto prev = t0;
  auto jprev = j0;
  for (std::size_t s = 1; s <= slices; ++s) {
    const std::chrono::duration<double> at(slice * static_cast<double>(s));
    std::this_thread::sleep_until(
        t0 +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(at));
    std::uint64_t g = 0, w = 0;
    sum(&g, &w);
    slice_now.store(s, std::memory_order_relaxed);
    const auto t = std::chrono::steady_clock::now();
    const double dt = std::chrono::duration<double>(t - prev).count();
    r.slice_get_mops.push_back(static_cast<double>(g - pg) / dt / 1e6);
    r.slice_write_mops.push_back(static_cast<double>(w - pw) / dt / 1e6);
    r.slice_total_mops.push_back(
        static_cast<double>((g - pg) + (w - pw)) / dt / 1e6);
    const auto j = cpu_jiffies();
    r.slice_steal.push_back(
        j.second > jprev.second
            ? static_cast<double>(j.first - jprev.first) /
                  static_cast<double>(j.second - jprev.second)
            : 0.0);
    jprev = j;
    pg = g;
    pw = w;
    prev = t;
  }
  stop.store(true, std::memory_order_relaxed);
  r.seconds = std::chrono::duration<double>(prev - t0).count();
  const auto j1 = cpu_jiffies();
  if (j1.second > j0.second) {
    r.steal_pct = 100.0 * static_cast<double>(j1.first - j0.first) /
                  static_cast<double>(j1.second - j0.second);
  }
  for (auto& t : threads) t.join();
  sum(&r.gets, &r.writes);
  return r;
}

/// A plan over an explicit cpu list: the placement is the benchmark's, not
/// the process-wide DLHT_PIN default (which puts everything on cpus 0-1).
inline dlht::PinPlan plan_for(const std::vector<int>& cpus) {
  std::string spec;
  for (const int c : cpus) {
    if (!spec.empty()) spec += ',';
    spec += std::to_string(c);
  }
  std::string err;
  dlht::PinPlan p =
      dlht::build_pin_plan(dlht::Topology::from_sysfs(), spec, nullptr, &err);
  if (!err.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", err.c_str());
    std::exit(3);
  }
  return p;
}

// ---------------------------------------------------------------- metrics

/// Named metrics in print order. The result line carries exactly the set
/// the run mode asks for: end-to-end untraced, per-layer traced.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : items_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    items_.push_back({name, value, unit});
  }

  std::string json() const {
    std::string o = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (i != 0) o += ", ";
      o += json_str(items_[i].name) + ": {\"value\": " +
           json_num(items_[i].value) + ", \"unit\": " +
           json_str(items_[i].unit) + "}";
    }
    return o + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

/// One worker's batch latencies, one reservoir per timed slice.
class SlicedLatency {
 public:
  SlicedLatency(std::uint64_t seed, std::size_t slices) {
    for (std::size_t i = 0; i < slices; ++i) per_slice_.emplace_back(seed + i);
  }
  void add(std::size_t slice, std::uint64_t ns) {
    per_slice_[std::min(slice, per_slice_.size() - 1)].add(ns);
  }
  std::uint64_t calls() const {
    std::uint64_t n = 0;
    for (const auto& r : per_slice_) n += r.calls();
    return n;
  }
  std::uint64_t total_ns() const {
    std::uint64_t n = 0;
    for (const auto& r : per_slice_) n += r.total_ns();
    return n;
  }
  const std::vector<dlht::LatencyReservoir>& slices() const {
    return per_slice_;
  }

 private:
  std::vector<dlht::LatencyReservoir> per_slice_;
};

/// Batch latency of a phase, in µs. p50/p99 are medians over the phase's
/// counted slices of each slice's percentile (all workers merged), the way
/// throughput is a median of slice rates: a neighbour's burst that stalls
/// one slice moves them little, while a tail present throughout the phase
/// moves them fully. The pooled percentiles over every slice are kept for
/// the record.
struct BatchLatency {
  double p50_us = 0;
  double p99_us = 0;
  double pooled_p90_us = 0;
  double pooled_p99_us = 0;
  std::uint64_t samples = 0;
};

template <class Workers>
BatchLatency batch_latency(const Workers& ws, const PhaseResult& phase) {
  using Ref = std::reference_wrapper<const dlht::LatencyReservoir>;
  BatchLatency b;
  std::vector<double> p50, p99;
  std::vector<Ref> all;
  const std::size_t n = ws.front().lat.slices().size();
  for (std::size_t s = 0; s < n; ++s) {
    std::vector<Ref> one;
    for (const auto& w : ws) {
      one.emplace_back(w.lat.slices()[s]);
      all.emplace_back(w.lat.slices()[s]);
    }
    const dlht::MergedLatency m = dlht::merge_latency(one, 0.50, 0.99);
    if (m.calls == 0 || (s < phase.slices() && !phase.counted(s))) continue;
    p50.push_back(static_cast<double>(m.q1_ns) / 1e3);
    p99.push_back(static_cast<double>(m.q2_ns) / 1e3);
    b.samples += m.calls;
  }
  b.p50_us = median(p50);
  b.p99_us = median(p99);
  const dlht::MergedLatency m = dlht::merge_latency(all, 0.90, 0.99);
  b.pooled_p90_us = static_cast<double>(m.q1_ns) / 1e3;
  b.pooled_p99_us = static_cast<double>(m.q2_ns) / 1e3;
  return b;
}

}  // namespace perfbench
