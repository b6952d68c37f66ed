// The stack's one fan-out/join primitive: a lock-free mailbox and the
// fork-join pool built on it. Every fan-out in the stack (a session's
// replay ranges, a tree's leaves, a cluster pass's shards) posts its
// helpers to one pool, the process-wide datapath_pool() — see README
// "Execution model".
//
// ShardMailbox is a Vyukov-style bounded sequence-ticket queue:
//  * each cell carries an atomic sequence number; a producer claims a cell
//    with one fetch_add on the tail ticket, writes the payload, and
//    publishes it by storing seq = pos + 1 (release);
//  * the single consumer knows exactly which cell is next, so when the ring
//    is empty it parks on THAT cell's sequence word via C++20
//    std::atomic::wait — a futex on Linux — and the publishing producer
//    notifies that word.
//
// Single-consumer by construction (the pool worker that owns it).
// Producers are the callers posting tasks — usually one, but any number
// are safe: the ticket fetch_add linearizes them. Capacity bounds the
// tasks in flight per worker; a full ring makes the producer spin-yield
// until the consumer frees a cell (consumers never block on producers, so
// this always drains).
//
// A lost wakeup to keep out: a `seq` narrowed to 32 bits (so the futex
// waits on it directly, with no proxy word) and published with a release
// store hung a 10,000-reduce tree loop with every thread parked in
// futex_do_wait, three runs out of three; a seq_cst store ran 34,000
// reduces clean. Under GCC 12 the likely cause is libstdc++'s notify fast
// path, which reads its waiter count first and skips the futex call when
// it is zero: a release store may be reordered after that read, so the
// producer sees no waiter while the consumer parks on the old value. The
// protocol stays as it is (64-bit seq, release store) until the schedule
// explorer (ROADMAP) can check a change to it.
//
// Wakeup accounting: `wakeups` counts every return from the wait,
// `spurious_wakeups` the returns that found the awaited cell still empty;
// a regression test pins the latter at zero. They see only what
// std::atomic::wait returns: libstdc++ parks a 64-bit word on a proxy
// futex shared by every address hashing to it (every 64-byte-aligned
// cell shares one), so each notify wakes all parked consumers and the
// ones whose cell did not change re-park inside the wait, uncounted.
//
// ForkJoinPool: N threads, each parked on its own mailbox. A caller posts
// tasks to the workers it picks, each task counted on a Join that lives on
// the caller's stack, and waits on that Join. The worker that retires a
// Join's last task rings the pool's one doorbell (an epoch word every
// waiter parks on, re-checking its own count), so the final wake never
// touches a caller's dying frame. Any number of callers may post to, and
// wait on, one pool at once. FanOut is the stack's one claim loop: the
// caller and the helpers it posts claim a fan-out's items (a session's
// 16-slot ranges, a tree's leaves, a cluster pass's shards) from one
// counter, and it sizes each caller's fan-outs to what the last ones cost.
//
// datapath_pool(): the pool every AggregationSession,
// HierarchicalAggregator and AggregationService reduce shares its datapath
// with, usable CPUs - 1 workers (none on a one-CPU host) built on first
// call. It is never destroyed, so no reduce, however late, posts to a dead
// pool; its threads end with the process. Its tasks never post or wait
// themselves, so a caller's join always drains. A task may block on a
// cluster shard mutex, but no holder of that mutex ever posts to or waits
// on the pool: a shard task runs the wave engine with no team, and the
// service's scrubs and stats readers never post. So every holder finishes
// its hold, and the blocked task goes on.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/cpus.h"

namespace fpisa::cluster {

/// Snapshot of one mailbox's counters (see file comment).
struct MailboxStats {
  std::uint64_t enqueued = 0;          ///< tickets ever posted
  std::uint64_t wakeups = 0;           ///< consumer returns from futex wait
  std::uint64_t spurious_wakeups = 0;  ///< wakeups that found no ticket
};

template <typename T>
class ShardMailbox {
  static_assert(std::is_trivially_copyable_v<T>,
                "mailbox payloads are raw tickets");

 public:
  /// `capacity` must be a power of two >= 2 (so `pos & mask_` is the ring
  /// index); anything else throws std::invalid_argument.
  explicit ShardMailbox(std::size_t capacity)
      : mask_(capacity - 1), cells_(checked(capacity)) {
    for (std::size_t i = 0; i <= mask_; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  /// Producer side (any thread): claims a cell, publishes the ticket, and
  /// wakes the consumer if it is parked on that cell. Spin-yields while the
  /// ring is full.
  void push(const T& value) {
    const std::uint64_t pos =
        enqueue_pos_.fetch_add(1, std::memory_order_relaxed);
    Cell& cell = cells_[pos & mask_];
    while (cell.seq.load(std::memory_order_acquire) != pos) {
      std::this_thread::yield();  // ring full: wait for the consumer
    }
    cell.value = value;
    cell.seq.store(pos + 1, std::memory_order_release);
    cell.seq.notify_one();
    enqueued_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Consumer side (the single owner): blocking pop. Parks on the NEXT
  /// cell's sequence word while the ring is empty, and returns once a
  /// producer has published into that cell.
  T pop_wait() {
    Cell& cell = cells_[dequeue_pos_ & mask_];
    const std::uint64_t ready = dequeue_pos_ + 1;
    std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
    while (seq != ready) {
      cell.seq.wait(seq, std::memory_order_acquire);
      seq = cell.seq.load(std::memory_order_acquire);
      wakeups_.fetch_add(1, std::memory_order_relaxed);
      if (seq != ready) {
        spurious_wakeups_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    T out = cell.value;
    // Free the cell for the producer one lap ahead.
    cell.seq.store(dequeue_pos_ + mask_ + 1, std::memory_order_release);
    ++dequeue_pos_;
    return out;
  }

  MailboxStats stats() const {
    MailboxStats s;
    s.enqueued = enqueued_.load(std::memory_order_relaxed);
    s.wakeups = wakeups_.load(std::memory_order_relaxed);
    s.spurious_wakeups = spurious_wakeups_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> seq{0};
    T value{};
  };

  static std::unique_ptr<Cell[]> checked(std::size_t capacity) {
    if (capacity < 2 || (capacity & (capacity - 1)) != 0) {
      throw std::invalid_argument(
          "mailbox: capacity must be a power of two >= 2");
    }
    return std::unique_ptr<Cell[]>(new Cell[capacity]);
  }

  std::size_t mask_;
  std::unique_ptr<Cell[]> cells_;
  /// Producer ticket — its own cache line so fan-out stores never bounce
  /// the consumer's dequeue cursor.
  alignas(64) std::atomic<std::uint64_t> enqueue_pos_{0};
  alignas(64) std::uint64_t dequeue_pos_ = 0;  ///< consumer-private
  std::atomic<std::uint64_t> enqueued_{0};
  std::atomic<std::uint64_t> wakeups_{0};
  std::atomic<std::uint64_t> spurious_wakeups_{0};
};

class ForkJoinPool {
 public:
  /// A task: `fn(ctx, arg)`, run once on the worker it was posted to.
  using Fn = void (*)(void* ctx, int arg) noexcept;

  /// One caller's fan-out: the count of its posted tasks still to run,
  /// plus one for the caller until it waits. Lives on the caller's stack.
  class Join {
    friend class ForkJoinPool;
    std::atomic<int> pending_{1};
  };

  /// Starts `threads` workers, each parked on a mailbox of
  /// `mailbox_capacity` cells. If a thread fails to start, the workers
  /// already started are stopped and joined before the error propagates.
  ForkJoinPool(int threads, std::size_t mailbox_capacity) {
    for (int i = 0; i < threads; ++i) {
      workers_.push_back(std::make_unique<Worker>(mailbox_capacity));
    }
    try {
      for (auto& w : workers_) {
        Worker& worker = *w;
        worker.thread = std::thread([this, &worker] { loop(worker); });
      }
    } catch (...) {
      stop();  // the destructor does not run for a failed constructor
      throw;
    }
  }
  /// Stops and joins every worker; tasks already posted run first.
  ~ForkJoinPool() { stop(); }
  ForkJoinPool(const ForkJoinPool&) = delete;
  ForkJoinPool& operator=(const ForkJoinPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Posts `fn(ctx, arg)` to worker `worker`, counted on `join`.
  void post(int worker, Join& join, Fn fn, void* ctx, int arg) {
    join.pending_.fetch_add(1, std::memory_order_relaxed);
    workers_[static_cast<std::size_t>(worker)]->mailbox.push(
        Task{fn, ctx, arg, &join.pending_});
  }

  /// Returns once every task posted on `join` has run; their writes are
  /// visible to the caller. Call once per Join, after its last post.
  void wait(Join& join) {
    if (join.pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) return;
    for (;;) {
      const std::uint32_t e = doorbell_.load(std::memory_order_acquire);
      if (join.pending_.load(std::memory_order_acquire) == 0) return;
      doorbell_.wait(e, std::memory_order_acquire);
    }
  }

  MailboxStats stats(int worker) const {
    return workers_[static_cast<std::size_t>(worker)]->mailbox.stats();
  }

 private:
  /// A mailbox ticket; a null `fn` tells the worker to exit.
  struct Task {
    Fn fn = nullptr;
    void* ctx = nullptr;
    int arg = 0;
    std::atomic<int>* pending = nullptr;
  };
  /// Aligned so two workers' ring cursors never share a line.
  struct alignas(64) Worker {
    explicit Worker(std::size_t capacity) : mailbox(capacity) {}
    ShardMailbox<Task> mailbox;
    std::thread thread;
  };

  void loop(Worker& worker) {
    for (;;) {
      const Task t = worker.mailbox.pop_wait();
      if (t.fn == nullptr) return;
      t.fn(t.ctx, t.arg);
      // The task that retires its Join rings the doorbell, and touches
      // nothing of the Join after its decrement: the caller may return.
      if (t.pending->fetch_sub(1, std::memory_order_acq_rel) == 1) {
        doorbell_.fetch_add(1, std::memory_order_release);
        doorbell_.notify_all();
      }
    }
  }

  /// Posts a stop ticket to every started worker and joins it.
  void stop() {
    for (auto& w : workers_) {
      if (w->thread.joinable()) w->mailbox.push(Task{});
    }
    for (auto& w : workers_) {
      if (w->thread.joinable()) w->thread.join();
    }
  }

  /// 32 bits: the width the futex waits on directly. libstdc++ parks a
  /// wider atomic on a proxy word shared by every address that hashes to
  /// it, and a notify_all there wakes all of their waiters.
  std::atomic<std::uint32_t> doorbell_{0};
  std::vector<std::unique_ptr<Worker>> workers_;  ///< last: threads use all
};

/// One caller's repeated fan-outs over a pool it may share with others:
/// how many helpers each one posts, and the loop in which they claim the
/// items. A fan-out whose join kept the caller waiting longer than its own
/// share took had a helper that was not running (the host's CPUs are busy,
/// or the worker was running another caller's task), and waiting for it
/// cost more than doing its work: the next one posts a helper fewer. kCalm
/// fan-outs without such a wait add one back. The members claim their
/// items rather than being assigned them, so any number of them does all;
/// a helper that starts after the last item is gone returns at once.
class FanOut {
 public:
  using Item = void (*)(void* ctx, int member, std::size_t item) noexcept;

  /// Runs fn(ctx, member, i) once for each i in [0, n): the caller (member
  /// 0) and the helpers run() posts (members 1..), at most `most`, claim
  /// the items from one counter. A null pool runs every item on the
  /// caller. Returns once every item has run.
  void for_each(ForkJoinPool* pool, std::size_t n, int most, Item fn,
                void* ctx) {
    // On the caller's stack: run() returns only after every helper has.
    struct Items {
      Item fn;
      void* ctx;
      std::size_t n;
      std::atomic<std::size_t> next{0};
    } items{fn, ctx, n};
    const ForkJoinPool::Fn claim = [](void* p, int member) noexcept {
      Items& it = *static_cast<Items*>(p);
      for (;;) {
        const std::size_t i = it.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= it.n) return;
        it.fn(it.ctx, member, i);
      }
    };
    if (pool == nullptr) {
      claim(&items, 0);
    } else {
      run(*pool, most, claim, &items);
    }
  }

  /// Runs fn(ctx, 0) on the calling thread and fn(ctx, m) on worker m - 1
  /// for m = 1..h, h at most `most` and the pool's size; returns once
  /// every one has run.
  void run(ForkJoinPool& pool, int most, ForkJoinPool::Fn fn, void* ctx) {
    most = std::min(most, pool.size());
    if (most <= 0) {
      fn(ctx, 0);
      return;
    }
    const int helpers = std::min(most, helpers_);
    ForkJoinPool::Join join;
    for (int m = 1; m <= helpers; ++m) pool.post(m - 1, join, fn, ctx, m);
    using Clock = std::chrono::steady_clock;
    const Clock::time_point t0 = Clock::now();
    fn(ctx, 0);
    const Clock::time_point t1 = Clock::now();
    pool.wait(join);
    if (helpers > 0 && Clock::now() - t1 > t1 - t0) {
      helpers_ = helpers - 1;
      calm_ = 0;
    } else if (++calm_ >= kCalm) {
      helpers_ = std::min(most, helpers + 1);
      calm_ = 0;
    }
  }

 private:
  static constexpr int kCalm = 8;
  int helpers_ = std::numeric_limits<int>::max();
  int calm_ = 0;  ///< fan-outs since one last kept the caller waiting
};

/// The process's one datapath pool (see file comment). A caller posts at
/// most one task per worker before it waits, so a ring needs a cell per
/// concurrent caller: posts spin only past 64 callers at once.
inline ForkJoinPool& datapath_pool() {
  static ForkJoinPool* const pool =
      new ForkJoinPool(util::usable_cpus() - 1, 64);
  return *pool;
}

}  // namespace fpisa::cluster
