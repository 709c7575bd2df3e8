#pragma once
// Indexed 4-ary min-heap of same-instant event chains: the storage engine
// under the Simulator.
//
// The engine it replaced was a std::priority_queue with lazy deletion: a
// cancelled event's heap entry (and its std::function closure) stayed queued
// until its deadline bubbled to the top. Under the reliable-paging protocol
// — which cancels and re-arms a silence timer on *every* page arrival — that
// strands one dead entry per page, so the heap held O(timeout/page-gap)
// garbage per in-flight request and every pop paid to skip it.
//
// This queue keeps a side index from event handle to heap position, so
// cancel() is an in-place removal that destroys the callback immediately,
// and the queue never holds a dead event: size() is exactly the number of
// live events. The 4-ary layout halves the tree depth of a binary heap and
// keeps sift-downs inside one or two cache lines of children.
//
// Same-instant chains: one heap entry stands for a FIFO chain of events at
// one instant. A push at the same time as the previous push, while that push
// is still queued, links behind it through per-slot next/prev links and
// never enters the heap; a pop hands the root entry to its chained
// successor in place (same key, no sift), and an entry leaves the heap only
// when its chain ends. Cluster bursts land this way: jobs sharing a node
// share one CPU dilation, so their quantised bursts end together and most
// pushes hit the instant of the push just before them (DESIGN.md §12).
//
// Determinism: events fire in (time, push order). A chain's members are
// consecutive pushes, so no other event at its instant has a push order
// inside the chain's span; keying each entry by (time, push order of the
// chain's first member) and draining chains front to back therefore fires
// same-instant events in FIFO push order, exactly as one entry per event
// would. Cancellation never perturbs the relative order of surviving events.
//
// Handles: push() returns an opaque non-zero handle encoding the slot the
// callback lives in plus a generation counter; a handle for an event that
// already fired or was cancelled mismatches its slot's current generation
// and cancel() returns false. Zero is never a valid handle.
//
// Storage: flat vectors — the heap entries, one dense array per slot field
// (callback, links, generation, prefetch hint) and the slot free list. A
// slot's links — its heap position and its chain neighbours — share one
// 12-byte record, clear of the 80-byte callbacks: sifts rewrite the heap
// position of every entry they move, and a pop or cancel reads all three. At
// steady state push/pop/cancel touch no allocator at all, and a callback
// whose closure fits Callback's small buffer never touches the heap anywhere
// in its life.
//
// Prefetch hints: push() may carry up to four addresses the callback will
// touch first. After a pop, prefetch_next() hands the closure and hinted
// addresses of the next event to the CPU's prefetcher, so its cold state
// loads while the popped callback runs, and fetches the slot lines of the
// event after it. A hinted address is never read by the queue; it can
// change host time, never the order or any output.

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "simcore/inplace_function.hpp"
#include "simcore/time.hpp"

namespace ampom::sim {

// Up to four addresses an event's callback touches first; unused entries
// are null. Nothing dereferences them (see prefetch_next()).
struct PrefetchHint {
  std::array<const void*, 4> addrs{};
};

class EventQueue {
 public:
  using Callback = InplaceFunction<void()>;
  using Handle = std::uint64_t;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Insert `cb` keyed by (`at`, arrival order): O(1) behind a still-queued
  // previous push at the same instant, else O(log n); allocation-free at
  // steady state. Returns a non-zero handle for cancel().
  Handle push(Time at, Callback cb) { return push(at, std::move(cb), PrefetchHint{}); }
  // Same, with a prefetch hint for prefetch_next(). Takes the callback by
  // reference: it is moved once, into its slot.
  Handle push(Time at, Callback&& cb, const PrefetchHint& hint);

  // Remove a pending event in place and destroy its callback now. Returns
  // false for the zero handle or one whose event already popped/cancelled.
  bool cancel(Handle handle);

  // Move the earliest event (FIFO among equal times) into `at`/`cb`;
  // false when empty.
  bool pop(Time& at, Callback& cb);

  // Prefetch for the next two events: the closure and hinted addresses of
  // the earliest pending one, and the closure, hint and links lines of the
  // one after it — the root's chained successor, known exactly, or else the
  // root's earliest child. That second event's hint is only prefetched, not
  // read, so no cache miss stalls here; when it becomes the root its hint is
  // in cache and its hinted addresses go out a whole event ahead of its
  // callback. A pure host-cache hint: no effect on
  // order, state or outputs. Call it after pop(), before running the popped
  // callback.
  //
  // Inline: GCC sees no side effect in a prefetch, so it would delete an
  // out-of-line call.
  [[gnu::always_inline]] void prefetch_next() const {
    const std::size_t n = heap_.size();
    if (n == 0) {
      return;
    }
    const std::uint32_t root = heap_[0].slot;
    __builtin_prefetch(&callbacks_[root]);
    for (const void* addr : hints_[root].addrs) {
      if (addr != nullptr) {
        __builtin_prefetch(addr);
      }
    }
    std::uint32_t next = links_[root].next;
    if (next == kNone && n > 1) {
      next = heap_[earliest_child(0, n)].slot;
    }
    if (next != kNone) {
      __builtin_prefetch(&callbacks_[next]);
      __builtin_prefetch(&hints_[next]);
      __builtin_prefetch(&links_[next]);
    }
  }

  // Earliest pending time without popping. Precondition: !empty().
  [[nodiscard]] Time top_time() const { return heap_.front().at; }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return callbacks_.size() - free_slots_.size(); }

  // Storage introspection for soak tests and the perf harness.
  // Events physically held by the queue. For this engine it equals size()
  // by construction — the lazy-delete engine it replaced kept cancelled
  // entries queued, which is exactly what the cancel-heavy soak pins.
  [[nodiscard]] std::size_t queued_entries() const { return size(); }
  // High-water mark of concurrently live events (slots are recycled).
  [[nodiscard]] std::size_t slot_high_water() const { return callbacks_.size(); }

 private:
  static constexpr std::size_t kArity = 4;
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};  // no slot

  // One chain: `slot` is its head, `order` its first member's push order.
  struct Entry {
    Time at;
    std::uint64_t order;  // monotonic per-entry counter: FIFO tie-break
    std::uint32_t slot;
  };

  [[nodiscard]] static bool earlier(const Entry& a, const Entry& b) {
    return a.at != b.at ? a.at < b.at : a.order < b.order;
  }

  // The earliest child of `i` in a heap of `n` entries; `i` must have one.
  [[nodiscard]] std::size_t earliest_child(std::size_t i, std::size_t n) const {
    const std::size_t first = i * kArity + 1;
    const std::size_t last = first + kArity < n ? first + kArity : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (earlier(heap_[c], heap_[best])) {
        best = c;
      }
    }
    return best;
  }

  [[nodiscard]] static Handle make_handle(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<Handle>(generation) << 32U) | (static_cast<Handle>(slot) + 1U);
  }

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void place(std::size_t i, Entry entry);  // write + maintain the index
  void remove_at(std::size_t i);
  void release(std::uint32_t slot);

  std::vector<Entry> heap_;
  // A slot's place in the queue.
  struct Link {
    std::uint32_t heap_pos{kNone};  // a chain head's heap index; kNone for other members
    std::uint32_t next{kNone};  // the next member of its chain; kNone at the end
                                // of a chain and for every free slot
    std::uint32_t prev{kNone};  // the previous member; meaningful for non-heads only
  };

  // Per-slot fields, indexed by slot.
  std::vector<Callback> callbacks_;
  std::vector<Link> links_;
  std::vector<std::uint32_t> generations_;
  std::vector<PrefetchHint> hints_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_order_{1};
  // The previous push while it is still queued (it is then its chain's last
  // member), else kNone; tail_at_ is its time.
  std::uint32_t tail_{kNone};
  Time tail_at_{};
};

}  // namespace ampom::sim
