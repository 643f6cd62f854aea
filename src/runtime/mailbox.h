#ifndef DCV_RUNTIME_MAILBOX_H_
#define DCV_RUNTIME_MAILBOX_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iterator>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace dcv {

/// Outcome of a non-blocking push attempt.
enum class MailboxPush {
  kOk,      ///< Enqueued.
  kFull,    ///< At capacity; try again or fall back to blocking Push.
  kClosed,  ///< Mailbox closed; the message will never be accepted.
};

/// The one wake-up signal of a LanedMailbox, shared by its lanes. Producers
/// call Notify after publishing; it costs a fence and a load unless a
/// consumer is registered. A consumer first spins, unregistered, polling
/// every lane for up to kSpinWindow; only then does it register, re-check
/// every lane, and sleep. The seq_cst fence on each side, between its
/// publish (a lane's size hint, a registration) and its check of the other
/// side's, is what rules out a lost wake-up: at least one side sees the
/// other. The spin adds no case to that argument: a push that lands while
/// the consumer spins unregistered is seen by its re-check after
/// registering, if not sooner.
class MailboxWaker {
 public:
  using Clock = std::chrono::steady_clock;

  /// How long a consumer polls before it registers and parks (DESIGN §8;
  /// the sweep behind the value is in §14).
  /// A hand-off that lands inside the window costs its producer a fence
  /// and a load instead of a lock and a futex wake, and spares the
  /// consumer a sleep; bounded by the clock, not by a count of pauses, so
  /// its CPU cost per park does not depend on the machine.
  static constexpr std::chrono::microseconds kSpinWindow{10};

  /// Producer side, after a publish: wakes the registered consumers, if any.
  void Notify() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (waiters_.load(std::memory_order_relaxed) > 0) {
      NotifyAll();
    }
  }

  /// Wakes every waiting consumer unconditionally (shutdown).
  void NotifyAll() {
    // A consumer holds the lock from its registration until it sleeps, so
    // taking the lock once waits out that gap: the signal cannot fall into
    // it. Signalling after the release spares the woken consumer a second
    // wait, for the lock.
    { std::lock_guard<std::mutex> lock(mu_); }
    cv_.notify_all();
  }

  /// Consumer side: polls `ready()` for up to kSpinWindow (never past
  /// `deadline`), then registers and sleeps unless `ready()` — evaluated
  /// again after registering — holds, until a Notify or `deadline`
  /// (nullptr: none). Returns false iff the deadline expired. Spurious
  /// returns are allowed; callers loop.
  template <typename Ready>
  bool Wait(Ready ready, const Clock::time_point* deadline) {
    Clock::time_point spin_end = Clock::now() + kSpinWindow;
    if (deadline != nullptr && *deadline < spin_end) {
      spin_end = *deadline;
    }
    do {
      if (ready()) {
        return true;
      }
      CpuRelax();
    } while (Clock::now() < spin_end);

    std::unique_lock<std::mutex> lock(mu_);
    waiters_.fetch_add(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    bool expired = false;
    if (!ready()) {
      if (deadline == nullptr) {
        cv_.wait(lock);
      } else {
        expired = cv_.wait_until(lock, *deadline) == std::cv_status::timeout;
      }
    }
    waiters_.fetch_sub(1, std::memory_order_relaxed);
    return !expired;
  }

 private:
  /// A spin-wait hint: lets a sibling hyperthread run and saves power.
  static void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  std::atomic<int> waiters_{0};
  std::mutex mu_;
  std::condition_variable cv_;
};

/// Bounded multi-producer queue — the runtime's only cross-thread channel.
/// Producers block in Push when the box is full (backpressure: a slow
/// consumer throttles its senders instead of growing an unbounded queue).
/// Close() wakes every blocked producer and consumer; after it, pushes are
/// rejected but Pop keeps draining whatever was already enqueued, so a
/// graceful shutdown never loses accepted messages.
///
/// Ordering guarantee: messages from one producer are delivered in that
/// producer's push order (single lock, single FIFO). Messages from
/// different producers interleave arbitrarily.
///
/// The intended topology is MPSC — many actors feeding one owner's inbox —
/// but nothing breaks with several consumers (each message is delivered
/// exactly once).
template <typename T>
class Mailbox {
 public:
  explicit Mailbox(size_t capacity) : Mailbox(capacity, nullptr) {}

  /// A lane of a LanedMailbox: every push Notifies `waker` instead of this
  /// box's own consumers, so drain it with TryPop/TryPopAll.
  Mailbox(size_t capacity, MailboxWaker* waker)
      : capacity_(capacity == 0 ? 1 : capacity), waker_(waker) {}

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Blocks while full; returns false iff the mailbox was closed before the
  /// message could be enqueued.
  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [this] { return closed_ || queue_.size() < capacity_; });
    if (closed_) {
      return false;
    }
    queue_.push_back(std::move(item));
    UpdateHint();
    lock.unlock();
    Signal(1);
    return true;
  }

  /// Blocking batched push — the send-side mirror of PopAll. Enqueues the
  /// whole vector, paying one mutex round trip per burst of free capacity
  /// instead of one per message: each wakeup moves as many items as fit,
  /// then waits for the consumer to make room. Per-producer FIFO order is
  /// preserved (items land front-to-back). Returns false iff the mailbox
  /// was closed before every item was enqueued; a prefix may already have
  /// been accepted and stays poppable (drain-on-shutdown), same as a
  /// sequence of single Pushes interrupted by Close.
  bool PushAll(std::vector<T>&& items) {
    size_t next = 0;
    while (next < items.size()) {
      size_t moved = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        not_full_.wait(
            lock, [this] { return closed_ || queue_.size() < capacity_; });
        if (closed_) {
          return false;
        }
        while (next < items.size() && queue_.size() < capacity_) {
          queue_.push_back(std::move(items[next]));
          ++next;
          ++moved;
        }
        UpdateHint();
      }
      Signal(moved);
    }
    return true;
  }

  /// Non-blocking batched push: enqueues the longest prefix of
  /// items[begin..] that fits right now and returns its length (0 when the
  /// box is full or closed; `*closed` distinguishes the two so callers can
  /// stop retrying a dead box). Moved-from slots are left behind in
  /// `items`; the caller advances its own cursor by the return value.
  size_t TryPushAll(std::vector<T>* items, size_t begin, bool* closed) {
    const size_t first = std::min(begin, items->size());
    return TryPushRun(std::make_move_iterator(items->begin() + first),
                      items->size() - first, closed);
  }

  /// TryPushAll over items[begin, end) (begin <= end <= size), copying:
  /// the run form a batched sender uses to push one destination's stretch
  /// of a larger batch.
  size_t TryPushAll(const std::vector<T>& items, size_t begin, size_t end,
                    bool* closed) {
    return TryPushRun(items.begin() + begin, end - begin, closed);
  }

  MailboxPush TryPush(T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) {
        return MailboxPush::kClosed;
      }
      if (queue_.size() >= capacity_) {
        return MailboxPush::kFull;
      }
      queue_.push_back(std::move(item));
      UpdateHint();
    }
    Signal(1);
    return MailboxPush::kOk;
  }

  /// Blocks while empty; returns false iff the mailbox is closed and fully
  /// drained (the consumer's signal to exit its loop).
  bool Pop(T* out) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return closed_ || !queue_.empty(); });
    if (queue_.empty()) {
      return false;  // Closed and drained.
    }
    *out = std::move(queue_.front());
    queue_.pop_front();
    UpdateHint();
    lock.unlock();
    not_full_.notify_one();
    return true;
  }

  /// Blocking batch drain: waits until at least one message is available
  /// (or the box is closed and drained), then moves the *entire* queue into
  /// `out` under one lock acquisition — the shard/root hot paths pay one
  /// mutex round trip and one producer wake-up per burst instead of one per
  /// message. Appends to `out`; returns the number of messages moved (0 =
  /// closed and drained, the consumer's exit signal). FIFO order and the
  /// per-producer ordering guarantee are preserved: the batch is exactly
  /// the queue's front-to-back contents.
  size_t PopAll(std::vector<T>* out) {
    size_t moved = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_empty_.wait(lock, [this] { return closed_ || !queue_.empty(); });
      moved = DrainLocked(out);
    }
    if (moved > 0) {
      // Every producer blocked on capacity can now make progress.
      not_full_.notify_all();
    }
    return moved;
  }

  /// Non-blocking batch drain; 0 when nothing is immediately available
  /// (which, unlike PopAll, says nothing about the box being closed). An
  /// empty box costs one atomic load: the size hint reads 0 and no lock is
  /// taken. A push that happens-before this call is always seen.
  size_t TryPopAll(std::vector<T>* out) {
    if (size_hint() == 0) {
      return 0;
    }
    size_t moved = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      moved = DrainLocked(out);
    }
    if (moved > 0) {
      not_full_.notify_all();
    }
    return moved;
  }

  /// Non-blocking Pop; false when nothing is immediately available. Like
  /// TryPopAll, an empty box costs a load, not a lock.
  bool TryPop(T* out) {
    if (size_hint() == 0) {
      return false;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (queue_.empty()) {
        return false;
      }
      *out = std::move(queue_.front());
      queue_.pop_front();
      UpdateHint();
    }
    not_full_.notify_one();
    return true;
  }

  /// Rejects future pushes and wakes every blocked thread. Idempotent.
  /// Already-enqueued messages stay poppable (drain-on-shutdown).
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
  }

  size_t capacity() const { return capacity_; }

  /// The queue length as of its last change, read without the lock. Exact
  /// for anything that happens-before the read; otherwise a hint.
  size_t size_hint() const {
    return size_hint_.load(std::memory_order_acquire);
  }

 private:
  /// Moves the whole queue into `out`; caller holds mu_.
  size_t DrainLocked(std::vector<T>* out) {
    const size_t moved = queue_.size();
    while (!queue_.empty()) {
      out->push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    UpdateHint();
    return moved;
  }

  /// Publishes queue_.size() to lock-free readers; caller holds mu_.
  void UpdateHint() {
    size_hint_.store(queue_.size(), std::memory_order_release);
  }

  /// Wakes consumers after `moved` items landed (outside the lock).
  void Signal(size_t moved) {
    if (moved == 0) {
      return;
    }
    if (waker_ != nullptr) {
      waker_->Notify();
    } else if (moved == 1) {
      not_empty_.notify_one();
    } else {
      not_empty_.notify_all();
    }
  }

  /// The non-blocking push both TryPushAll forms share: enqueues the
  /// longest prefix of the `count` items at `first` that fits right now.
  template <typename It>
  size_t TryPushRun(It first, size_t count, bool* closed) {
    size_t moved = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed != nullptr) {
        *closed = closed_;
      }
      if (closed_) {
        return 0;
      }
      while (moved < count && queue_.size() < capacity_) {
        queue_.push_back(*first);
        ++first;
        ++moved;
      }
      UpdateHint();
    }
    Signal(moved);
    return moved;
  }

  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> queue_;
  std::atomic<size_t> size_hint_{0};
  bool closed_ = false;
  MailboxWaker* const waker_;
};

/// This thread's producer index: assigned on its first laned push, stable
/// for the thread's lifetime, distinct from every earlier thread's.
inline size_t ProducerIndex() {
  static std::atomic<size_t> next{0};
  constexpr size_t kUnassigned = ~size_t{0};
  thread_local size_t index = kUnassigned;
  if (index == kUnassigned) {
    index = next.fetch_add(1, std::memory_order_relaxed);
  }
  return index;
}

/// A multi-producer inbox built from `num_lanes` bounded Mailbox lanes, so
/// producing threads stop contending for one lock: a thread always pushes
/// into lane ProducerIndex() % num_lanes (through lane()), and consumers
/// drain every lane. Two threads that share a lane cost contention, never
/// order.
///
/// Ordering guarantee: messages from one producer thread are delivered in
/// that thread's push order (one lane, one FIFO). Messages from different
/// threads interleave arbitrarily — even when one push happens-before the
/// other, they may sit in different lanes.
///
/// Consumers never wait on a lane: they share one MailboxWaker, which lane
/// pushes Notify. A consumer that finds every lane empty spins for
/// MailboxWaker::kSpinWindow before it registers and parks, so a push that
/// lands inside the window costs its producer no wake-up. Any number of
/// consumers may drain concurrently; each message is delivered exactly
/// once. Each lane is bounded on its own, so a blocking push waits only
/// for room in its own lane. Close closes every lane and wakes everyone;
/// queued messages stay poppable.
template <typename T>
class LanedMailbox {
 public:
  /// `num_lanes` 0 is clamped to 1.
  LanedMailbox(size_t num_lanes, size_t lane_capacity) {
    for (size_t i = 0; i < std::max<size_t>(num_lanes, 1); ++i) {
      lanes_.push_back(std::make_unique<Mailbox<T>>(lane_capacity, &waker_));
    }
  }

  LanedMailbox(const LanedMailbox&) = delete;
  LanedMailbox& operator=(const LanedMailbox&) = delete;

  /// The calling thread's lane: every push goes through it.
  Mailbox<T>& lane() { return *lanes_[ProducerIndex() % lanes_.size()]; }

  /// Blocks until some lane holds a message (or the box is closed and
  /// drained), then drains every non-empty lane once. Appends to `out`;
  /// 0 = closed and drained.
  size_t PopAll(std::vector<T>* out) {
    return Await([&] { return Drain(out); }, nullptr, nullptr);
  }

  /// PopAll with a deadline. 0 with `*timed_out = true`: the deadline
  /// expired with the box open and empty; 0 with `*timed_out = false`:
  /// closed and drained.
  size_t PopAllFor(std::vector<T>* out, int64_t timeout_ms, bool* timed_out) {
    const MailboxWaker::Clock::time_point deadline =
        MailboxWaker::Clock::now() + std::chrono::milliseconds(timeout_ms);
    return Await([&] { return Drain(out); }, &deadline, timed_out);
  }

  /// Blocks for one message; false = closed and drained.
  bool Pop(T* out) {
    return Await([&] { return TryPop(out) ? size_t{1} : size_t{0}; },
                 nullptr, nullptr) > 0;
  }

  /// Non-blocking Pop; false when nothing is immediately available.
  bool TryPop(T* out) {
    const size_t first = rotor_.fetch_add(1, std::memory_order_relaxed);
    for (size_t i = 0; i < lanes_.size(); ++i) {
      if (lanes_[(first + i) % lanes_.size()]->TryPop(out)) {
        return true;
      }
    }
    return false;
  }

  /// Rejects future pushes and wakes every blocked producer and consumer.
  /// Idempotent; queued messages stay poppable.
  void Close() {
    for (auto& lane : lanes_) {
      lane->Close();
    }
    closed_.store(true, std::memory_order_release);
    waker_.NotifyAll();
  }

  /// Capacity of each lane.
  size_t lane_capacity() const { return lanes_[0]->capacity(); }

 private:
  /// Drains every non-empty lane once, starting one lane later on each
  /// call so no lane is always served last.
  size_t Drain(std::vector<T>* out) {
    const size_t first = rotor_.fetch_add(1, std::memory_order_relaxed);
    size_t moved = 0;
    for (size_t i = 0; i < lanes_.size(); ++i) {
      moved += lanes_[(first + i) % lanes_.size()]->TryPopAll(out);
    }
    return moved;
  }

  /// The consumer's wake condition, checked after registering as a waiter.
  bool Ready() const {
    if (closed_.load(std::memory_order_acquire)) {
      return true;
    }
    for (const auto& lane : lanes_) {
      if (lane->size_hint() > 0) {
        return true;
      }
    }
    return false;
  }

  /// Runs `take` until it yields something, the box is closed and drained
  /// (0), or `deadline` expires (0 and `*timed_out`).
  template <typename Take>
  size_t Await(Take take, const MailboxWaker::Clock::time_point* deadline,
               bool* timed_out) {
    if (timed_out != nullptr) {
      *timed_out = false;
    }
    for (;;) {
      // Read closed before taking: every lane closed before the flag was
      // set, so a take after seeing it finds everything ever accepted.
      bool closed = closed_.load(std::memory_order_acquire);
      if (const size_t got = take(); got > 0 || closed) {
        return got;
      }
      if (!waker_.Wait([this] { return Ready(); }, deadline)) {
        closed = closed_.load(std::memory_order_acquire);
        const size_t got = take();
        if (timed_out != nullptr) {
          *timed_out = got == 0 && !closed;
        }
        return got;
      }
    }
  }

  MailboxWaker waker_;
  std::vector<std::unique_ptr<Mailbox<T>>> lanes_;
  std::atomic<bool> closed_{false};
  std::atomic<size_t> rotor_{0};
};

}  // namespace dcv

#endif  // DCV_RUNTIME_MAILBOX_H_
