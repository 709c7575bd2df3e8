#pragma once
// The discrete-event engine: a time-ordered queue of callbacks.
//
// Determinism: events scheduled for the same instant fire in schedule order
// (FIFO by sequence), so a run is a pure function of the scenario.
//
// Storage is an indexed 4-ary heap of same-instant chains
// (simcore/event_queue.hpp): an event scheduled for the instant of the
// schedule just before it, while that one is still pending, joins its chain
// in O(1) instead of the heap; cancel() is an in-place removal that destroys
// the callback immediately; and callbacks are small-buffer-optimized
// (simcore/inplace_function.hpp), so the schedule/fire/cancel hot path
// performs no heap allocations for typical closures.
//
// Halt semantics: halt() requests that the engine stop dispatching. The run
// in progress — or, if none is in progress, the *next* run() / run_until()
// call — returns before processing another event. The request is consumed
// by the run it stops; a subsequent run proceeds normally. A run stopped by
// halt() leaves now() at the instant of the last processed event: it never
// fast-forwards to a run_until() limit it did not actually reach. step()
// ignores halt requests; it processes exactly one event regardless.
//
// --- Partitioned (parallel) mode -------------------------------------------
//
// configure_partitions() splits the event queue into one sub-queue per node
// partition plus a global partition (index 0), and the run loop becomes a
// conservative (CMB-style) window engine: every partition processes its own
// events up to a shared fence = window start + lookahead, then a barrier
// merges cross-partition traffic in a deterministic (time, source partition,
// sequence) order. Because the fence never exceeds the next global event and
// cross-partition effects are delayed by at least the lookahead, no event
// can observe state out of order. The schedule — which event runs on which
// partition at which (time, order) key — is a pure function of the scenario
// and the partition plan, NOT of the worker-thread count: set_workers() only
// chooses how many OS threads execute that fixed schedule, so workers=1 and
// workers=N runs are bit-identical. See DESIGN.md §15.
//
// Partitioned-mode semantics deltas (all documented, none observable by a
// well-formed scenario):
//   - now() is per-partition and window-quantized: after a window it sits at
//     the fence, not at the last processed event.
//   - halt() takes effect at the next window boundary, not mid-window.
//   - step() is unavailable (throws): single-stepping a parallel schedule
//     has no serial meaning.
//   - Cross-partition schedule_on_node() below the fence is clamped to the
//     fence (the lookahead contract makes this unreachable for fabric
//     traffic; it only triggers for barrier-adjacent control events).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "simcore/event_queue.hpp"
#include "simcore/time.hpp"

namespace ampom::sim {

class Simulator {
 public:
  using Callback = EventQueue::Callback;

  struct EventId {
    std::uint64_t seq{0};
    std::uint32_t part{0};  // owning partition; 0 = global (and all of serial mode)
    [[nodiscard]] bool valid() const { return seq != 0; }
  };

  // Static node→partition map for partitioned mode. Partition indices are
  // 1-based (0 is the global/barrier partition); `lookahead` is the minimum
  // cross-partition propagation delay (the CMB bound) and must be positive.
  struct PartitionPlan {
    std::uint32_t partitions{0};
    std::vector<std::uint32_t> node_partition;  // node id -> 1..partitions
    Time lookahead{Time::zero()};
  };

  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  // Current simulated time of the executing context: the partition clock
  // inside a partition event, the global clock everywhere else.
  [[nodiscard]] Time now() const;

  // Schedule `cb` at absolute time `at` (must not be in the past). The event
  // lands on the scheduling context's own partition (the global partition
  // when called from outside any event or from a barrier-context event).
  EventId schedule_at(Time at, Callback cb) {
    return schedule_at(at, std::move(cb), PrefetchHint{});
  }
  // Same, with up to four addresses the callback touches first: the run loop
  // prefetches them while the event before it runs. Addresses only — never
  // read, and with no effect on order or outputs (see event_queue.hpp).
  EventId schedule_at(Time at, Callback&& cb, const PrefetchHint& hint);

  // Schedule `cb` `delay` after now.
  EventId schedule_after(Time delay, Callback cb) { return schedule_at(now() + delay, std::move(cb)); }

  // Schedule `cb` on the partition that owns `node` (serial mode: identical
  // to schedule_at). Cross-partition calls from inside a partition event are
  // deferred to the next barrier and return an invalid id (not cancellable);
  // same-partition and barrier-context calls push directly.
  EventId schedule_on_node(std::uint32_t node, Time at, Callback cb) {
    return schedule_on_node(node, at, std::move(cb), PrefetchHint{});
  }
  // Same, with a prefetch hint. A deferred cross-partition event drops it.
  EventId schedule_on_node(std::uint32_t node, Time at, Callback&& cb, const PrefetchHint& hint);

  // Run `cb` in barrier context, where every partition is parked: inline if
  // already serialized (serial mode, global context), otherwise deferred to
  // the fence of the current window. Cross-partition state transitions
  // (e.g. migration commits) use this to serialize against all partitions.
  void post_global(Callback cb);

  // Cancel a pending event in place (its callback is destroyed immediately).
  // Returns false if it already fired or was cancelled before. A partition
  // event may cancel a *global* event (deferred to the barrier, returns true
  // optimistically); cancelling another partition's event throws.
  bool cancel(EventId id);

  // Run until the queue drains or halt() is called. Returns the number of
  // events processed by this call.
  std::uint64_t run();

  // Run events with time <= `limit`; afterwards now() == min(limit, drain),
  // unless halt() stopped the run early — then now() stays at the halt point.
  std::uint64_t run_until(Time limit);

  // Process a single event; returns false when the queue is empty.
  // Unavailable (throws) in partitioned mode.
  bool step();

  void halt() { halted_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool halted() const { return halted_.load(std::memory_order_relaxed); }

  // Partitioned mode. Must be called on a fresh simulator (no events yet);
  // `workers` is the OS-thread count (clamped to [1, partitions]) and only
  // affects wall-clock, never the schedule. set_workers() may retune the
  // thread count until the first partitioned run starts the pool.
  void configure_partitions(PartitionPlan plan, std::uint32_t workers);
  void set_workers(std::uint32_t workers);
  [[nodiscard]] bool partitioned() const { return partitioned_; }
  [[nodiscard]] std::uint32_t partitions() const;  // excluding the global partition
  [[nodiscard]] std::uint32_t workers() const { return workers_; }
  [[nodiscard]] std::uint32_t partition_of_node(std::uint32_t node) const;
  [[nodiscard]] bool cross_partition(std::uint32_t node_a, std::uint32_t node_b) const;
  // Executing context: 0 outside partition events (and always in serial
  // mode), otherwise the 1-based index of the partition being drained.
  [[nodiscard]] std::uint32_t current_partition() const { return ctx_index(); }
  // Same, but across whatever simulator the calling thread is executing —
  // shard routing for observers (e.g. trace recording) that have no
  // simulator reference at the call site.
  [[nodiscard]] static std::uint32_t current_partition_hint();

  // Aggregates over all partitions. In partitioned mode these are exact in
  // barrier/root context; a partition event calling them mid-window sees
  // only a consistent snapshot of its own partition plus the parked ones.
  [[nodiscard]] std::size_t pending() const;
  [[nodiscard]] std::uint64_t events_processed() const;

  // Storage introspection (soak tests, perf harness): entries physically in
  // the queue — equal to pending() for this engine, where the retired
  // lazy-delete engine kept cancelled entries queued until their deadline —
  // and the high-water mark of concurrently live events.
  [[nodiscard]] std::size_t queued_entries() const;
  [[nodiscard]] std::size_t slot_high_water() const;

  // Observability hook: invoke `probe` every `period` of simulated time with
  // the current time, queue depth and cumulative events processed. The probe
  // rides the ordinary event queue (so it perturbs no other event's relative
  // order) and stops rescheduling itself once it is the only pending event,
  // letting run() drain naturally. One probe at a time; stop_probe() cancels.
  // In partitioned mode the probe is a global event and fires at barriers.
  using Probe = std::function<void(Time now, std::size_t pending, std::uint64_t processed)>;
  void start_probe(Time period, Probe probe);
  void stop_probe();

 private:
  struct Outgoing {
    Time at{Time::zero()};
    std::uint32_t target{0};     // partition index; 0 = global
    std::uint64_t seq{0};        // per-source counter: preserves schedule order
    EventId cancel_target{};     // valid => deferred cancel instead of a push
    Callback cb;
  };

  struct Partition {
    EventQueue queue;
    Time now{Time::zero()};
    std::uint64_t processed{0};
    std::vector<Outgoing> outbox;  // cross-partition traffic made this window
    std::uint64_t next_out_seq{0};
  };

  [[nodiscard]] std::uint32_t ctx_index() const;
  void fire_probe();
  std::uint64_t run_serial(std::optional<Time> limit);
  std::uint64_t run_windows(std::optional<Time> limit);
  void run_global_at(Time at);
  void run_partition_window(Partition& part, std::uint32_t index, Time fence, Time clock);
  void merge_outboxes();
  void dispatch_window(Time fence, Time clock);
  void ensure_pool();
  void stop_pool();
  void worker_main(std::uint32_t slot);

  std::vector<std::unique_ptr<Partition>> parts_;  // [0] = global; serial mode uses only [0]
  std::atomic<bool> halted_{false};
  Probe probe_;
  Time probe_period_{Time::zero()};
  EventId probe_event_{};

  // Partitioned mode.
  bool partitioned_{false};
  PartitionPlan plan_;
  std::uint32_t workers_{1};
  Time window_fence_{Time::zero()};  // written under pool_mu_ before each window
  std::vector<Outgoing*> merge_scratch_;

  // Worker pool (spawned lazily on the first partitioned run with >1 thread).
  std::vector<std::thread> threads_;
  std::uint32_t nthreads_{1};
  std::mutex pool_mu_;
  std::condition_variable pool_cv_;
  std::condition_variable done_cv_;
  std::uint64_t pool_epoch_{0};
  std::uint32_t pool_pending_{0};
  Time pool_clock_{Time::zero()};
  bool pool_quit_{false};
};

}  // namespace ampom::sim
