#pragma once

// Rank-ordered mutex: the dynamic backstop for the lock-order invariants
// that thread_annotations.h states statically.
//
// Every service-layer mutex belongs to a named LockFamily with a numeric
// rank. Locks may only be acquired in strictly increasing rank order on any
// one thread; acquiring a lock whose rank is <= the highest rank already
// held aborts immediately, printing both lock names. Two families that
// share a rank therefore "never nest" in either direction — that is how
// the cluster service's job_mu_/stats_mu_ mutual-exclusion rule is encoded.
//
// In Release (NDEBUG) builds the checker compiles out entirely:
// OrderedMutex is layout-identical to std::mutex (static_assert below) and
// every member call is a direct forward, so the Release datapath pays
// nothing (pinned by the bench overhead row and tests/test_ordered_mutex).
//
// The full rank table lives in lock_rank below and is mirrored in the
// README's "Static analysis & concurrency invariants" section.

#include <mutex>

#include "util/thread_annotations.h"

#if !defined(NDEBUG)
#define FPISA_LOCK_RANK_CHECKS 1
#else
#define FPISA_LOCK_RANK_CHECKS 0
#endif

#if FPISA_LOCK_RANK_CHECKS
#include <cstdio>
#include <cstdlib>
#endif

namespace fpisa::util {

// A mutex family: a stable name (printed on violation) and its rank in the
// global acquisition order. Families with equal ranks must never nest.
struct LockFamily {
  const char* name;
  int rank;
};

// The global lock-order table, ascending. Acquire top-to-bottom only.
//
//   rank | family               | protects
//   -----+----------------------+------------------------------------------
//     10 | collective.run_mu    | Communicator::run serialization
//     20 | collective.slo_mu    | per-tenant SLO books
//     40 | cluster.alloc_mu     | slot-range allocator + alloc_cv_
//     45 | cluster.fault_mu     | kill-fault schedule table
//     50 | cluster.health_mu    | ShardHealth alive/death bookkeeping
//     60 | cluster.job_mu       | admission queues + job scheduler state
//     60 | cluster.stats_mu     | tenant/fabric stats (== job rank: never nest)
//     70 | cluster.shard_mu     | per-shard switch state (nests under stats)
//     85 | pisa.program_memo    | shared FPISA programs by shape (leaf)
//     90 | telemetry.registry_mu| metrics registry map (leaf)
//     90 | telemetry.trace_mu   | trace span buffer (leaf)
namespace lock_rank {
inline constexpr LockFamily kCommRun{"collective.run_mu", 10};
inline constexpr LockFamily kCommSlo{"collective.slo_mu", 20};
inline constexpr LockFamily kAlloc{"cluster.alloc_mu", 40};
inline constexpr LockFamily kFaultTable{"cluster.fault_mu", 45};
inline constexpr LockFamily kHealth{"cluster.health_mu", 50};
inline constexpr LockFamily kJobQueue{"cluster.job_mu", 60};
inline constexpr LockFamily kStats{"cluster.stats_mu", 60};
inline constexpr LockFamily kShard{"cluster.shard_mu", 70};
inline constexpr LockFamily kProgramMemo{"pisa.program_memo", 85};
inline constexpr LockFamily kTelemetry{"telemetry.registry_mu", 90};
inline constexpr LockFamily kTrace{"telemetry.trace_mu", 90};
}  // namespace lock_rank

#if FPISA_LOCK_RANK_CHECKS
namespace lock_rank_detail {

// Per-thread stack of held families. Fixed depth: the deepest legal chain
// in the table above is 3 (stats -> shard is the longest real nesting);
// 16 leaves generous headroom for tests.
inline constexpr int kMaxHeld = 16;

struct HeldStack {
  const LockFamily* held[kMaxHeld];
  int depth = 0;
};

inline HeldStack& held_stack() {
  thread_local HeldStack stack;
  return stack;
}

[[noreturn]] inline void die(const char* what, const LockFamily& incoming,
                             const LockFamily* held) {
  if (held != nullptr) {
    std::fprintf(stderr,
                 "fpisa lock-rank %s: acquiring '%s' (rank %d) while holding "
                 "'%s' (rank %d)\n",
                 what, incoming.name, incoming.rank, held->name, held->rank);
  } else {
    std::fprintf(stderr, "fpisa lock-rank %s: acquiring '%s' (rank %d)\n",
                 what, incoming.name, incoming.rank);
  }
  std::abort();
}

inline void note_acquire(const LockFamily& family) {
  HeldStack& s = held_stack();
  for (int i = 0; i < s.depth; ++i) {
    // >= : equal ranks never nest (job_mu_/stats_mu_ rule), higher-held
    // ranks mean the global order is inverted.
    if (s.held[i]->rank >= family.rank) {
      die("inversion", family, s.held[i]);
    }
  }
  if (s.depth >= kMaxHeld) {
    die("stack overflow", family, nullptr);
  }
  s.held[s.depth++] = &family;
}

inline void note_release(const LockFamily& family) {
  HeldStack& s = held_stack();
  // Locks release out of acquisition order across cv waits, so search from
  // the top rather than requiring LIFO.
  for (int i = s.depth - 1; i >= 0; --i) {
    if (s.held[i] == &family) {
      for (int j = i; j + 1 < s.depth; ++j) s.held[j] = s.held[j + 1];
      --s.depth;
      return;
    }
  }
  die("release of unheld lock", family, nullptr);
}

}  // namespace lock_rank_detail
#endif  // FPISA_LOCK_RANK_CHECKS

// Drop-in std::mutex replacement carrying a LockFamily. Satisfies
// BasicLockable/Lockable, so std::condition_variable_any waits on it and
// the rank bookkeeping rides the cv's unlock/relock automatically.
class FPISA_CAPABILITY("mutex") OrderedMutex {
 public:
  explicit OrderedMutex(const LockFamily& family) noexcept
#if FPISA_LOCK_RANK_CHECKS
      : family_(&family)
#endif
  {
    (void)family;
  }

  OrderedMutex(const OrderedMutex&) = delete;
  OrderedMutex& operator=(const OrderedMutex&) = delete;

  void lock() FPISA_ACQUIRE() {
#if FPISA_LOCK_RANK_CHECKS
    // Check before blocking: a would-be deadlock aborts with both names
    // instead of hanging.
    lock_rank_detail::note_acquire(*family_);
#endif
    mu_.lock();
  }

  void unlock() FPISA_RELEASE() {
    mu_.unlock();
#if FPISA_LOCK_RANK_CHECKS
    lock_rank_detail::note_release(*family_);
#endif
  }

  bool try_lock() FPISA_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
#if FPISA_LOCK_RANK_CHECKS
    // A try_lock that succeeds out of rank order is the same discipline
    // violation — it just happened not to deadlock this time.
    lock_rank_detail::note_acquire(*family_);
#endif
    return true;
  }

 private:
  std::mutex mu_;
#if FPISA_LOCK_RANK_CHECKS
  const LockFamily* family_;
#endif
};

#if !FPISA_LOCK_RANK_CHECKS
static_assert(sizeof(OrderedMutex) == sizeof(std::mutex),
              "Release OrderedMutex must be layout-identical to std::mutex");
static_assert(alignof(OrderedMutex) == alignof(std::mutex),
              "Release OrderedMutex must be layout-identical to std::mutex");
#endif

// Annotated replacement for std::lock_guard<std::mutex> (libstdc++'s guard
// types carry no capability attributes, so clang cannot see through them).
class FPISA_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(OrderedMutex& mu) FPISA_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~LockGuard() FPISA_RELEASE() { mu_.unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  OrderedMutex& mu_;
};

struct DeferLockT {
  explicit DeferLockT() = default;
};
inline constexpr DeferLockT kDeferLock{};

// Annotated replacement for std::unique_lock<std::mutex>: movable-free,
// defer-lock capable, BasicLockable (condition_variable_any waits on it).
class FPISA_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(OrderedMutex& mu) FPISA_ACQUIRE(mu)
      : mu_(&mu), owned_(true) {
    mu_->lock();
  }
  UniqueLock(OrderedMutex& mu, DeferLockT) FPISA_EXCLUDES(mu)
      : mu_(&mu), owned_(false) {}
  ~UniqueLock() FPISA_RELEASE() {
    if (owned_) mu_->unlock();
  }

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() FPISA_ACQUIRE() {
    mu_->lock();
    owned_ = true;
  }
  void unlock() FPISA_RELEASE() {
    owned_ = false;
    mu_->unlock();
  }
  bool owns_lock() const noexcept { return owned_; }

 private:
  OrderedMutex* mu_;
  bool owned_;
};

}  // namespace fpisa::util
