#pragma once
// Pooled event queue for the discrete-event kernel.
//
// Events fire in (time, insertion sequence) order, so events scheduled for
// the same instant fire in FIFO order and every simulation run is fully
// deterministic. The queue is built from three value types and does no
// per-event heap allocation in steady state:
//  - a slab of event records, allocated in fixed-size chunks (a record never
//    moves) and recycled through a free list. A record holds a Callback and
//    the sequence number of the push that filled it, or 0 once that event
//    has fired or been cancelled;
//  - a 4-ary min-heap of {time, seq, slot} values. A heap value whose seq no
//    longer matches its record's is stale (its event was cancelled) and is
//    dropped when it reaches the top;
//  - Callback, a move-only callable with a 64-byte inline buffer.
// An EventHandle is (queue, slot, seq). Sequence numbers are never reused, so
// a stale handle can neither cancel nor see the next event in its slot.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace resex::sim {

/// Move-only `void()` callable. A callable of at most kInlineBytes, aligned
/// no stricter than a pointer and nothrow-movable, is stored inline; any
/// other lives on the heap. Every callable on the kernel's hot paths
/// (coroutine resume, CQ wake, doorbell pickup, the channel's
/// serialization-complete and delivery events) is stored inline.
class Callback {
 public:
  static constexpr std::size_t kInlineBytes = 64;

  template <class F>
  static constexpr bool fits_inline =
      sizeof(F) <= kInlineBytes && alignof(F) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<F>;

  Callback() noexcept = default;
  Callback(Callback&& other) noexcept { take(other); }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  /// Store `f`. Precondition: empty. If constructing `f` throws, the
  /// Callback stays empty.
  template <class F>
  void emplace(F&& f) {
    using D = std::decay_t<F>;
    assert(ops_ == nullptr);
    if constexpr (fits_inline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  void operator()() { ops_->call(buf_); }

  /// Destroy the stored callable, if any.
  void reset() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

 private:
  struct Ops {
    void (*call)(void*);
    /// Move-construct into the second buffer and destroy the first; null
    /// when copying the bytes does the same.
    void (*relocate)(void*, void*) noexcept;
    /// Null when there is nothing to destroy.
    void (*destroy)(void*) noexcept;
  };

  template <class D>
  static D& as(void* p) noexcept {
    return *std::launder(static_cast<D*>(p));
  }

  template <class D>
  static constexpr Ops kInlineOps{
      [](void* p) { as<D>(p)(); },
      std::is_trivially_copyable_v<D>
          ? nullptr
          : +[](void* from, void* to) noexcept {
              ::new (to) D(std::move(as<D>(from)));
              as<D>(from).~D();
            },
      std::is_trivially_destructible_v<D>
          ? nullptr
          : +[](void* p) noexcept { as<D>(p).~D(); }};

  template <class D>
  static constexpr Ops kHeapOps{[](void* p) { (*as<D*>(p))(); }, nullptr,
                                [](void* p) noexcept { delete as<D*>(p); }};

  void take(Callback& other) noexcept {
    ops_ = std::exchange(other.ops_, nullptr);
    if (ops_ == nullptr) return;
    if (ops_->relocate != nullptr) {
      ops_->relocate(other.buf_, buf_);
    } else {
      std::memcpy(buf_, other.buf_, kInlineBytes);
    }
  }

  alignas(void*) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

class EventQueue;

/// Cancellation handle for a scheduled event. Default-constructed handles are
/// inert; cancelling an event that already fired or was cancelled is a no-op,
/// and a handle reads not-pending from the moment its event starts to run.
/// A handle must not be used after its queue (its Simulation) is destroyed.
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevent the event from firing and destroy its callback. Safe to call
  /// multiple times.
  void cancel() noexcept;

  /// True if the event is still pending (scheduled and not cancelled).
  [[nodiscard]] bool pending() const noexcept;

 private:
  friend class EventQueue;
  EventHandle(EventQueue* queue, std::uint32_t slot, std::uint64_t seq)
      : queue_(queue), seq_(seq), slot_(slot) {}
  EventQueue* queue_ = nullptr;
  std::uint64_t seq_ = 0;
  std::uint32_t slot_ = 0;
};

/// Min-heap of timed callbacks over a pooled slab of event records. Not
/// thread-safe by design: the kernel is single-threaded and deterministic,
/// and each Simulation owns its own queue.
class EventQueue {
 public:
  /// An event taken out of the queue by pop(): its time and its callback.
  /// `q.pop()->fn()` runs it.
  struct Event {
    SimTime time = 0;
    Callback fn;
    Event* operator->() noexcept { return this; }
    const Event* operator->() const noexcept { return this; }
  };

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;  // handles point at the queue
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule `fn` to run at absolute simulated time `t`.
  template <class F>
  EventHandle push(SimTime t, F&& fn) {
    if (free_.empty()) grow();
    const std::uint32_t slot = free_.back();
    Record& r = record(slot);
    r.fn.emplace(std::forward<F>(fn));  // if it throws, the slot stays free
    free_.pop_back();
    r.seq = next_seq_++;
    heap_push({t, r.seq, slot});
    return EventHandle{this, slot, r.seq};
  }

  /// True if no non-cancelled events remain. Prunes cancelled heads.
  [[nodiscard]] bool empty() {
    prune();
    return heap_.empty();
  }

  /// Time of the earliest pending event. Precondition: !empty().
  [[nodiscard]] SimTime next_time() {
    prune();
    return heap_.front().time;
  }

  /// Remove and return the earliest pending event. Precondition: !empty().
  [[nodiscard]] Event pop() {
    prune();
    const Entry top = heap_.front();
    remove_top();
    Record& r = record(top.slot);
    Event ev{top.time, std::move(r.fn)};
    release(top.slot);
    return ev;
  }

  /// Fire the earliest pending event if its time is <= `limit`: set `now`
  /// to its time, run its callback in place and recycle its record (also
  /// when the callback throws). Returns false, changing nothing but pruning
  /// cancelled heads, when no pending event is due by `limit`.
  bool fire_next(SimTime limit, SimTime& now) {
    prune();
    if (heap_.empty() || heap_.front().time > limit) return false;
    const Entry top = heap_.front();
    remove_top();
    assert(top.time >= now);
    now = top.time;
    Record& r = record(top.slot);
    r.seq = 0;  // its handle reads not-pending while the callback runs
    struct Recycle {
      EventQueue& q;
      std::uint32_t slot;
      ~Recycle() { q.release(slot); }
    } recycle{*this, top.slot};
    r.fn();
    return true;
  }

  /// Number of events pushed and not yet popped (including cancelled ones
  /// still sitting in the heap).
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

 private:
  friend class EventHandle;

  struct Record {
    Callback fn;
    std::uint64_t seq = 0;  // seq of the pending event here; 0 if none
  };
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static constexpr std::uint32_t kChunkBits = 9;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;
  static constexpr std::size_t kArity = 4;

  // (time, seq) as one 128-bit compare: branch-free, so the heap's child
  // picks compile to conditional moves instead of unpredictable branches.
  __extension__ typedef unsigned __int128 Key;
  static bool before(const Entry& a, const Entry& b) noexcept {
    return (Key{a.time} << 64 | a.seq) < (Key{b.time} << 64 | b.seq);
  }

  Record& record(std::uint32_t slot) const noexcept {
    return chunks_[slot >> kChunkBits][slot & (kChunkSize - 1)];
  }

  void grow() {
    const auto base = static_cast<std::uint32_t>(chunks_.size() * kChunkSize);
    chunks_.push_back(std::make_unique<Record[]>(kChunkSize));
    // Room for every slot, so release() never allocates.
    free_.reserve(chunks_.size() * kChunkSize);
    for (std::uint32_t i = kChunkSize; i-- > 0;) free_.push_back(base + i);
  }

  /// Retire the record's event (if still pending), destroy its callback and
  /// return the slot to the free list.
  void release(std::uint32_t slot) noexcept {
    Record& r = record(slot);
    r.seq = 0;
    r.fn.reset();
    free_.push_back(slot);
  }

  void cancel(std::uint32_t slot, std::uint64_t seq) noexcept {
    if (record(slot).seq == seq) release(slot);
  }

  void heap_push(const Entry& e) {
    heap_.push_back(e);
    sift_up(heap_.size() - 1, e);
  }

  /// Place `e` at the hole `i` or above it.
  void sift_up(std::size_t i, const Entry& e) noexcept {
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!before(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  /// Index of the earliest of the children [first, min(first + kArity, n)).
  /// A full node's pick is unrolled: with a trip count that never varies,
  /// simbench's paper_2vm ran about 4% faster end to end than with the loop
  /// alone (4-core Xeon, GCC 12.2, RelWithDebInfo).
  std::size_t earliest_child(std::size_t first, std::size_t n) const noexcept {
    static_assert(kArity == 4);
    if (first + kArity <= n) {
      const std::size_t a =
          before(heap_[first + 1], heap_[first]) ? first + 1 : first;
      const std::size_t b =
          before(heap_[first + 3], heap_[first + 2]) ? first + 3 : first + 2;
      return before(heap_[b], heap_[a]) ? b : a;
    }
    std::size_t best = first;
    for (std::size_t c = first + 1; c < n; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    return best;
  }

  /// Remove the root: walk the hole down to a leaf along the earliest
  /// children, then sift the last value up from there (it came from the
  /// bottom, so it rarely climbs far).
  void remove_top() noexcept {
    const Entry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) return;
    std::size_t i = 0;
    for (std::size_t first = 1; first < n; first = i * kArity + 1) {
      const std::size_t best = earliest_child(first, n);
      heap_[i] = heap_[best];
      i = best;
    }
    sift_up(i, last);
  }

  /// Drop stale heap values (cancelled events) from the top.
  void prune() noexcept {
    while (!heap_.empty() &&
           record(heap_.front().slot).seq != heap_.front().seq) {
      remove_top();
    }
  }

  std::vector<std::unique_ptr<Record[]>> chunks_;
  std::vector<std::uint32_t> free_;
  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 1;
};

inline void EventHandle::cancel() noexcept {
  if (queue_ != nullptr) queue_->cancel(slot_, seq_);
}

inline bool EventHandle::pending() const noexcept {
  return queue_ != nullptr && queue_->record(slot_).seq == seq_;
}

}  // namespace resex::sim
