// Poll-then-block waiting for the served path (server shards and KvClient).
//
// A blocking wait (epoll_wait, recv) costs a sleep and a wakeup on every
// batch: on a loopback round trip that is most of the request. So each
// wait first spins on the non-blocking form of the same call for a bounded
// budget and blocks only when the budget runs out. The budget adapts from
// what the spins observe:
//
//   - a spin that catches an event restores the full budget;
//   - a spin that expires halves it, down to zero (plain blocking), and
//     every kProbeEvery-th wait at zero spins once with the full budget
//     to find out whether traffic came back.
//
// So a busy pipelined connection polls, while an idle connection or a
// reply that waits on a slow fsync converges back to blocking.
//
// The spin yields the CPU between polls. With a server shard and a client
// pinned to one CPU, the peer can only run while the spinner is off the
// CPU: a fixed 50 us spin cut that pair from 2.3-3.3 to 0.29 Mreq/s, and
// the adaptive budget alone still read 1.6-1.8 Mreq/s, because a spinner
// preempted by its peer then sees its spin catch the peer's message and
// keeps spinning. Yielding hands the CPU to a runnable peer at once, which
// keeps that placement at 2.6-3.3 Mreq/s; with no runnable peer the yield
// returns immediately.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include <sched.h>

namespace dlht::server {

/// Spin counters of one waiter. Readable from any thread while it runs.
struct SpinStats {
  std::uint64_t caught = 0;   // spins that saw an event within budget
  std::uint64_t expired = 0;  // spins that ran out and fell back to blocking
  std::uint64_t spin_ns = 0;  // wall time spent spinning

  SpinStats& operator+=(const SpinStats& o) {
    caught += o.caught;
    expired += o.expired;
    spin_ns += o.spin_ns;
    return *this;
  }
};

/// One thread's adaptive spin budget. Single writer: spin() runs on the
/// owning thread only; stats() may be called from anywhere.
class PollBudget {
 public:
  static constexpr std::uint64_t kFullNs = 50'000;
  /// Below this a halved budget drops to zero: a spin shorter than a few
  /// non-blocking syscalls cannot catch anything the blocking call misses.
  static constexpr std::uint64_t kMinNs = 1'000;
  static constexpr unsigned kProbeEvery = 64;

  /// Calls `ready()` until it returns true or the budget runs out. True
  /// when an event was caught; false means the caller should block.
  template <class Ready>
  bool spin(Ready&& ready) {
    std::uint64_t budget = budget_ns_;
    if (budget == 0) {
      if (++idle_waits_ < kProbeEvery) return false;
      idle_waits_ = 0;
      budget = kFullNs;
    }
    const std::uint64_t t0 = now_ns();
    std::uint64_t t = t0;
    bool hit = false;
    do {
      if (ready()) {
        hit = true;
        t = now_ns();
        break;
      }
      ::sched_yield();
      t = now_ns();
    } while (t - t0 < budget);
    if (hit) {
      budget_ns_ = kFullNs;
      bump(caught_);
    } else {
      budget_ns_ = budget / 2 >= kMinNs ? budget / 2 : 0;
      bump(expired_);
    }
    spin_ns_.store(spin_ns_.load(std::memory_order_relaxed) + (t - t0),
                   std::memory_order_relaxed);
    return hit;
  }

  SpinStats stats() const {
    return {caught_.load(std::memory_order_relaxed),
            expired_.load(std::memory_order_relaxed),
            spin_ns_.load(std::memory_order_relaxed)};
  }

 private:
  static std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
  static void bump(std::atomic<std::uint64_t>& c) {
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }

  std::uint64_t budget_ns_ = kFullNs;
  unsigned idle_waits_ = 0;
  std::atomic<std::uint64_t> caught_{0};
  std::atomic<std::uint64_t> expired_{0};
  std::atomic<std::uint64_t> spin_ns_{0};
};

}  // namespace dlht::server
