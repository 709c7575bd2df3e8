#include "proc/executor.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace ampom::proc {

Executor::Executor(sim::Simulator& simulator, Process& process, NodeCosts costs)
    : process_{process}, sim_{simulator}, costs_{costs} {}

namespace {

// Simulated time per unit of nominal compute on a CPU of `speed` of which
// the process gets `share`.
double cpu_dilation(double speed, double share) {
  return 1.0 / (speed * (share <= 0.0 ? 1e-3 : share));
}

}  // namespace

sim::Time Executor::scale_cpu(sim::Time t) const {
  return t.scaled(cpu_dilation(costs_.cpu_speed, cpu_share()));
}

void Executor::set_ram_limit_pages(std::uint64_t pages) {
  ram_limit_pages_ = pages;
  lru_.clear();
  lru_pos_.clear();
  if (pages > 0) {
    // Seed with currently local pages (deterministic order).
    for (const mem::PageId p : process_.aspace().pages_in_state(mem::PageState::Local)) {
      lru_.push_back(p);
      lru_pos_[p] = std::prev(lru_.end());
    }
  }
}

void Executor::touch_lru(mem::PageId page) {
  if (ram_limit_pages_ == 0) {
    return;
  }
  const auto it = lru_pos_.find(page);
  if (it != lru_pos_.end()) {
    lru_.erase(it->second);
    lru_pos_.erase(it);
  }
  lru_.push_front(page);
  lru_pos_[page] = lru_.begin();
}

// Make room for `page` if at the limit; returns the eviction CPU cost.
sim::Time Executor::maybe_evict_for(mem::PageId page) {
  if (ram_limit_pages_ == 0) {
    return sim::Time::zero();
  }
  sim::Time cost = sim::Time::zero();
  while (lru_pos_.size() >= ram_limit_pages_ && !lru_.empty()) {
    const mem::PageId victim = lru_.back();
    if (victim == page) {
      break;  // never evict the page being installed
    }
    lru_.pop_back();
    lru_pos_.erase(victim);
    process_.aspace().evict_to_swap(victim);
    ++stats_.evictions;
    cost += scale_cpu(costs_.map_page);  // unmap + queue to swap
  }
  return cost;
}

void Executor::start() {
  if (started_) {
    throw std::logic_error("Executor::start called twice");
  }
  started_ = true;
  stats_.started_at = sim_.now();
  last_fault_wall_ = sim_.now();
  last_fault_cpu_ = stats_.cpu_time;
  schedule_burst(sim::Time::zero());
}

void Executor::schedule_burst(sim::Time delay) {
  // The generation stamp invalidates events that were in flight when a
  // crash interrupted the run. "Stale events see Frozen and return" is not
  // enough on its own: recovery may freeze and resume within one instant
  // (recover_to_home), in which case a pre-crash burst event fires against a
  // Running process and a second burst loop starts consuming the stream.
  //
  // The burst chain follows the process: routing by current_node hands the
  // chain to the destination's partition after a migration commit (which
  // runs in the barrier context) instead of leaving it wherever the commit
  // happened to execute.
  //
  // The hint names what the burst touches first: this executor's hot block,
  // the process's, the stream object and the state byte of the heap page
  // touched last (hot-set pages share its line).
  const mem::PageId heap_page = process_.last_touched(mem::Region::Heap);
  const sim::PrefetchHint hint{
      {this, &process_, &process_.stream(),
       heap_page == mem::kInvalidPage ? nullptr : process_.aspace().state_address(heap_page)}};
  sim_.schedule_on_node(
      process_.current_node(), sim_.now() + delay,
      [this, gen = run_gen_] {
        if (gen != run_gen_) {
          return;
        }
        run_burst();
      },
      hint);
}

void Executor::finish(sim::Time at_delay) {
  sim_.schedule_on_node(process_.current_node(), sim_.now() + at_delay,
                        [this, gen = run_gen_] {
                          if (gen != run_gen_) {
                            return;
                          }
                          process_.set_state(ProcState::Finished);
                          stats_.finished = true;
                          stats_.finished_at = sim_.now();
                          on_frozen_ = nullptr;  // a pending freeze request is moot now
                          freeze_pending_ = false;
                          if (on_finished_) {
                            on_finished_();
                          }
                        });
}

bool Executor::take_freeze() {
  if (!freeze_pending_) {
    return false;
  }
  process_.set_state(ProcState::Frozen);
  auto cb = std::move(on_frozen_);
  on_frozen_ = nullptr;
  freeze_pending_ = false;
  cb();
  return true;
}

void Executor::request_freeze(std::function<void()> on_frozen) {
  if (process_.state() == ProcState::Finished) {
    throw std::logic_error("Executor::request_freeze: process already finished");
  }
  if (freeze_pending_) {
    throw std::logic_error("Executor::request_freeze: freeze already pending");
  }
  on_frozen_ = std::move(on_frozen);
  freeze_pending_ = on_frozen_ != nullptr;
}

void Executor::consume_pending(mem::PageId touched) {
  if (touched != mem::kInvalidPage) {
    process_.note_touch(touched);
    touch_lru(touched);
    if (touch_observer_) {
      touch_observer_(touched);
    }
  }
  has_pending_ = false;
  pending_cpu_counted_ = false;
  ++stats_.refs_consumed;
}

void Executor::run_burst() {
  if (process_.state() == ProcState::Frozen || process_.state() == ProcState::Finished) {
    return;
  }
  if (take_freeze()) {
    return;
  }
  process_.set_state(ProcState::Running);
  if (warmup_balance_ > sim::Time::zero()) {
    // Cold-cache warm-up after a migration: pay the CPMD balance down in
    // burst-sized slices so a pending freeze (re-migration) still gets its
    // safe point between slices — whatever is unpaid then carries over.
    const sim::Time pay = std::min(warmup_balance_, max_burst_);
    warmup_balance_ -= pay;
    stats_.warmup_paid += pay;
    schedule_burst(pay);
    return;
  }
  mem::AddressSpace& aspace = process_.aspace();
  sim::Time acc = sim::Time::zero();
  // No other event runs inside a burst, so the CPU share (and with it the
  // dilation) cannot change until the loop yields: compute it once.
  const double dilation = cpu_dilation(costs_.cpu_speed, cpu_share());

  for (;;) {
    if (!has_pending_) {
      const std::optional<Ref> next = process_.stream().next();
      if (!next) {
        finish(acc);
        return;
      }
      pending_ = *next;
      has_pending_ = true;
      pending_cpu_counted_ = false;
    }
    const Ref ref = pending_;
    if (!pending_cpu_counted_) {
      const sim::Time cpu = ref.cpu.scaled(dilation);
      acc += cpu;
      stats_.cpu_time += cpu;
      pending_cpu_counted_ = true;
    }

    if (ref.kind == Ref::Kind::Syscall) {
      if (process_.migrated() && syscall_transport_) {
        begin_syscall(acc);
        return;
      }
      const sim::Time service = costs_.syscall_service.scaled(dilation);
      acc += service;
      stats_.handler_time += service;
      ++stats_.syscalls_local;
      consume_pending(mem::kInvalidPage);
    } else {
      switch (aspace.classify(ref.page)) {
        case mem::AccessKind::Hit: {
          ++stats_.hits;
          consume_pending(ref.page);
          break;
        }
        case mem::AccessKind::FirstTouch: {
          acc += maybe_evict_for(ref.page);
          const sim::Time minor = costs_.minor_fault.scaled(dilation);
          acc += minor;
          stats_.handler_time += minor;
          aspace.create_on_touch(ref.page);
          ++stats_.first_touches;
          consume_pending(ref.page);
          break;
        }
        case mem::AccessKind::SwapFault: {
          acc += maybe_evict_for(ref.page);
          const sim::Time swap = costs_.swap_in.scaled(dilation);
          acc += swap;
          stats_.handler_time += swap;
          aspace.load_from_swap(ref.page);
          ++stats_.swap_faults;
          consume_pending(ref.page);
          break;
        }
        case mem::AccessKind::SoftFault:
        case mem::AccessKind::HardFault:
        case mem::AccessKind::InFlightWait: {
          begin_fault(ref.page, acc);
          return;
        }
      }
    }

    if (acc >= max_burst_) {
      // Yield so freezes and message handlers interleave with long bursts.
      schedule_burst(acc);
      return;
    }
  }
}

void Executor::begin_fault(mem::PageId page, sim::Time acc) {
  sim_.schedule_after(acc, [this, page] {
    if (process_.state() == ProcState::Frozen || take_freeze()) {
      return;  // migration intervened; resume_migrated() restarts the burst
    }
    process_.set_state(ProcState::Blocked);
    fault_started_ = sim_.now();
    // C_i: CPU fraction over the full previous fault-to-fault interval,
    // including the previous fault's stall — "the current CPU utilization
    // when r_i is recorded" (paper §3.1).
    {
      const sim::Time wall = sim_.now() - last_fault_wall_;
      const sim::Time cpu = stats_.cpu_time - last_fault_cpu_;
      if (wall > sim::Time::zero()) {
        const double f = cpu / wall;
        cpu_fraction_snapshot_ = f < 0.01 ? 0.01 : (f > 1.0 ? 1.0 : f);
      }
      last_fault_wall_ = sim_.now();
      last_fault_cpu_ = stats_.cpu_time;
    }
    pending_charge_ = costs_.fault_entry.scaled(1.0 / costs_.cpu_speed);
    stats_.handler_time += pending_charge_;
    // Classification may have improved while compute was accruing (the page
    // or its batch may have Arrived); the policy sees the current kind.
    const mem::AccessKind kind = process_.aspace().classify(page);
    switch (kind) {
      case mem::AccessKind::SoftFault:
        ++stats_.soft_faults;
        break;
      case mem::AccessKind::HardFault:
        ++stats_.hard_faults;
        break;
      case mem::AccessKind::InFlightWait:
        ++stats_.inflight_waits;
        break;
      default:
        // Became Local already (mapped as an urgent page of an earlier batch).
        complete_fault(page);
        return;
    }
    if (policy_ == nullptr) {
      throw std::logic_error("Executor: page fault with no fault policy installed");
    }
    policy_->on_fault(process_, page, kind);
  });
}

void Executor::charge_handler(sim::Time t) {
  const sim::Time scaled = t.scaled(1.0 / costs_.cpu_speed);
  pending_charge_ += scaled;
  stats_.handler_time += scaled;
}

void Executor::complete_fault(mem::PageId page) {
  if (process_.state() != ProcState::Blocked || !has_pending_ || pending_.page != page) {
    // Stale completion. A policy charge/arrival timer armed before a crash
    // interrupt outlives the run it belonged to — and recovery may already
    // have the process executing at home (even in the same instant, when
    // the balancer reclaims a just-crashed node's migrant). Consuming here
    // would double-count the reference; only the executor can tell the
    // timer its run is gone, so it is dropped here.
    return;
  }
  mem::AddressSpace& aspace = process_.aspace();
  if (aspace.state(page) != mem::PageState::Local) {
    throw std::logic_error("Executor::complete_fault: page is not Local");
  }
  const sim::Time eviction = maybe_evict_for(page);
  const sim::Time resume_delay = pending_charge_ + eviction;
  const sim::Time latency = (sim_.now() - fault_started_) + resume_delay;
  stats_.stall_time += latency;
  stats_.fault_latency_us.add(latency.us());
  pending_charge_ = sim::Time::zero();

  consume_pending(page);
  schedule_burst(resume_delay);
}

void Executor::begin_syscall(sim::Time acc) {
  sim_.schedule_after(acc, [this] {
    if (process_.state() == ProcState::Frozen || take_freeze()) {
      return;
    }
    process_.set_state(ProcState::Blocked);
    fault_started_ = sim_.now();
    ++stats_.syscalls_redirected;
    syscall_transport_(++syscall_seq_);
  });
}

void Executor::complete_syscall(std::uint64_t seq) {
  if (process_.state() != ProcState::Blocked || seq < syscall_seq_) {
    // Stale: a duplicate, or a response to a run a crash interrupt already
    // ended (see complete_fault). A *future* sequence stays a hard error.
    return;
  }
  if (seq != syscall_seq_) {
    throw std::logic_error("Executor::complete_syscall: unexpected sequence number");
  }
  stats_.stall_time += sim_.now() - fault_started_;
  consume_pending(mem::kInvalidPage);
  schedule_burst(sim::Time::zero());
}

void Executor::crash_interrupt() {
  if (process_.state() == ProcState::Finished) {
    return;
  }
  on_frozen_ = nullptr;
  freeze_pending_ = false;
  pending_charge_ = sim::Time::zero();
  process_.set_state(ProcState::Frozen);
  ++run_gen_;  // orphan every burst/finish event from the interrupted run
}

void Executor::resume_migrated(NodeCosts new_costs) {
  if (process_.state() != ProcState::Frozen) {
    throw std::logic_error("Executor::resume_migrated: process is not frozen");
  }
  costs_ = new_costs;
  if (ram_limit_pages_ > 0) {
    set_ram_limit_pages(ram_limit_pages_);  // rebuild LRU over surviving pages
  }
  process_.set_state(ProcState::Running);
  last_fault_wall_ = sim_.now();
  last_fault_cpu_ = stats_.cpu_time;
  schedule_burst(sim::Time::zero());
}

double Executor::recent_cpu_fraction() const { return cpu_fraction_snapshot_; }

}  // namespace ampom::proc
