#pragma once
// Drives a process: consumes its reference stream, accumulating compute
// time for local accesses without simulator events, and yields to the
// event queue only at page faults, syscalls, periodic burst boundaries and
// completion.
//
// The executor follows the process across a migration: the engine requests
// a freeze (taken at the next safe point — a burst boundary or fault-handler
// entry, as a kernel would at a trap) and later resumes it with the
// destination node's cost model. Fault resolution is delegated to a
// FaultPolicy (NoPrefetch demand paging or AMPoM), which calls
// complete_fault() once the faulted page is mapped.

#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>

#include "proc/costs.hpp"
#include "proc/fault_policy.hpp"
#include "proc/process.hpp"
#include "simcore/simulator.hpp"
#include "stats/summary.hpp"

namespace ampom::proc {

struct ExecStats {
  // Bumped per reference inside a burst: these lead, so they fill one cache
  // line right behind the executor's hot block.
  std::uint64_t refs_consumed{0};
  std::uint64_t hits{0};
  std::uint64_t first_touches{0};
  std::uint64_t swap_faults{0};
  std::uint64_t syscalls_local{0};
  std::uint64_t evictions{0};
  sim::Time cpu_time{};       // pure application compute
  sim::Time handler_time{};   // charged fault/handler kernel time

  std::uint64_t soft_faults{0};     // served from the lookaside buffer
  std::uint64_t hard_faults{0};     // required a remote request
  std::uint64_t inflight_waits{0};  // blocked on an already-requested page
  std::uint64_t syscalls_redirected{0};
  sim::Time stall_time{};     // wall time from fault to resume
  // CPMD cache warm-up (migration/cpmd.hpp): debt assessed at migration
  // commits vs. debt actually paid delaying post-migration bursts. The
  // difference is the outstanding balance a re-migration carries forward.
  sim::Time warmup_charged{};
  sim::Time warmup_paid{};
  std::uint64_t warmup_charges{0};  // commits that assessed a fresh charge
  sim::Time started_at{};
  sim::Time finished_at{};
  bool finished{false};
  // Per-fault stall latency distribution, in microseconds (blocking faults
  // only — the tail NoPrefetch suffers and AMPoM collapses).
  stats::Summary fault_latency_us;
};

// Cache-line aligned: a burst event's first touches are the leading block of
// members below, and schedule_burst() names it in its prefetch hint.
class alignas(64) Executor {
 public:
  Executor(sim::Simulator& simulator, Process& process, NodeCosts costs);

  void set_policy(FaultPolicy* policy) { policy_ = policy; }
  void set_on_finished(std::function<void()> fn) { on_finished_ = std::move(fn); }
  // Fraction of the CPU available to the process on the current node
  // (1 - background load); feeds both time dilation and AMPoM's c'.
  void set_cpu_share_source(std::function<double()> fn) { cpu_share_ = std::move(fn); }
  // Transport for redirected system calls (set while migrated with the
  // openMosix home dependency; absent = syscalls execute locally).
  void set_syscall_transport(std::function<void(std::uint64_t seq)> fn) {
    syscall_transport_ = std::move(fn);
  }
  // RAM-limit extension: the node holds at most this many local pages
  // (0 = unlimited); beyond it, LRU pages are evicted to local swap.
  void set_ram_limit_pages(std::uint64_t pages);
  // A long local burst yields to the event queue after this much simulated
  // compute, bounding freeze-request latency.
  void set_max_burst(sim::Time t) { max_burst_ = t; }
  // Observe every consumed memory reference (pre-copy engines track pages
  // re-dirtied during their copy rounds). Null to remove.
  void set_touch_observer(std::function<void(mem::PageId)> fn) {
    touch_observer_ = std::move(fn);
  }

  void start();

  // Ask for a freeze; `on_frozen` fires at the next safe point. If the
  // process finishes first, the request is dropped (the caller observes the
  // Finished state).
  void request_freeze(std::function<void()> on_frozen);
  // Resume on the destination node after migration with its cost model.
  void resume_migrated(NodeCosts new_costs);
  // The hosting node crashed: force Frozen from any state, discarding a
  // blocked fault/syscall and any pending freeze request. Stale burst/fault
  // events see Frozen and return; recovery later calls resume_migrated()
  // with the new host's costs and re-examines the interrupted reference.
  void crash_interrupt();

  // CPMD warm-up charge: the process's first bursts at a migration
  // destination are delayed until `t` of simulated warm-up is paid down
  // (one max_burst slice per burst, so freezes still interleave). A zero
  // balance leaves the burst loop untouched — runs without the cost model
  // are bit-identical. The balance survives crash_interrupt: the debt is
  // real wherever the process resumes.
  void add_warmup_charge(sim::Time t) {
    warmup_balance_ += t;
    stats_.warmup_charged += t;
    ++stats_.warmup_charges;
  }
  [[nodiscard]] sim::Time warmup_balance() const { return warmup_balance_; }

  // --- policy-facing API ----------------------------------------------------
  // Accumulate kernel handler time; consumed by the next complete_fault().
  void charge_handler(sim::Time t);
  // The faulted page is Local; resume execution after pending charges.
  void complete_fault(mem::PageId page);
  void complete_syscall(std::uint64_t seq);

  [[nodiscard]] const ExecStats& stats() const { return stats_; }
  [[nodiscard]] Process& process() { return process_; }
  [[nodiscard]] const NodeCosts& costs() const { return costs_; }
  [[nodiscard]] double cpu_share() const { return cpu_share_ ? cpu_share_() : 1.0; }

  // CPU fraction actually consumed since the previous fault (AMPoM's C_i).
  [[nodiscard]] double recent_cpu_fraction() const;

 private:
  void schedule_burst(sim::Time delay);
  // The burst loop body; always runs on the process's current partition.
  // ampom: partition-entry
  void run_burst();
  void finish(sim::Time at_delay);
  void begin_fault(mem::PageId page, sim::Time acc);
  void begin_syscall(sim::Time acc);
  // Take a pending freeze request; returns true if the executor froze.
  bool take_freeze();
  [[nodiscard]] sim::Time scale_cpu(sim::Time t) const;
  void consume_pending(mem::PageId touched);
  void touch_lru(mem::PageId page);
  sim::Time maybe_evict_for(mem::PageId page);

  // --- hot block: what a burst event reads and writes, in its first line ---
  // Bumped by crash_interrupt; burst/finish events carry the generation they
  // were scheduled under and return if it moved (see schedule_burst).
  std::uint64_t run_gen_{0};
  Process& process_;
  Ref pending_{};                    // reference being executed / blocked on
  bool has_pending_{false};          // pending_ holds one
  bool pending_cpu_counted_{false};  // its compute already accrued
  bool freeze_pending_{false};       // on_frozen_ is set
  sim::Time max_burst_{sim::Time::from_ms(20)};
  sim::Time warmup_balance_{};       // unpaid CPMD warm-up (see add_warmup_charge)
  ExecStats stats_;                  // per-reference counters lead (next line)

  sim::Simulator& sim_;
  std::function<double()> cpu_share_;
  std::uint64_t ram_limit_pages_{0};  // RAM-limit LRU active when > 0
  std::function<void(mem::PageId)> touch_observer_;
  NodeCosts costs_;
  FaultPolicy* policy_{nullptr};
  std::function<void()> on_finished_;
  std::function<void(std::uint64_t)> syscall_transport_;

  sim::Time fault_started_{};        // when the active fault event fired
  sim::Time pending_charge_{};       // handler time to apply at resume
  std::uint64_t syscall_seq_{0};
  bool started_{false};
  std::function<void()> on_frozen_;  // set while a freeze is pending

  // Markers for AMPoM's per-fault CPU-fraction estimate (C_i).
  sim::Time last_fault_wall_{};
  sim::Time last_fault_cpu_{};
  double cpu_fraction_snapshot_{1.0};

  // RAM-limit LRU (active only when ram_limit_pages_ > 0).
  std::list<mem::PageId> lru_;  // front = most recent
  // ampom-lint: ordered-safe(lookup index only; eviction order is the std::list, never this map)
  std::unordered_map<mem::PageId, std::list<mem::PageId>::iterator> lru_pos_;
};

}  // namespace ampom::proc
