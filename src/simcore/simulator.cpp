#include "simcore/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "simcore/fmt.hpp"

namespace ampom::sim {

namespace {

// Executing context of the calling thread: which simulator is draining which
// partition. Null outside partition windows (root code, barrier events), so
// scheduling from there defaults to the global partition.
struct ExecCtx {
  const Simulator* sim{nullptr};
  std::uint32_t part{0};
};
thread_local ExecCtx tl_exec_ctx{};

}  // namespace

std::string Time::str() const {
  if (ns_ == 0) {
    return "0s";
  }
  const double s = sec();
  if (s >= 1.0 || s <= -1.0) {
    return strfmt("%.3fs", s);
  }
  const double milli = ms();
  if (milli >= 1.0 || milli <= -1.0) {
    return strfmt("%.3fms", milli);
  }
  return strfmt("%.3fus", us());
}

Simulator::Simulator() { parts_.push_back(std::make_unique<Partition>()); }

Simulator::~Simulator() { stop_pool(); }

std::uint32_t Simulator::ctx_index() const {
  return tl_exec_ctx.sim == this ? tl_exec_ctx.part : 0U;
}

std::uint32_t Simulator::current_partition_hint() { return tl_exec_ctx.part; }

Time Simulator::now() const { return parts_[ctx_index()]->now; }

Simulator::EventId Simulator::schedule_at(Time at, Callback&& cb, const PrefetchHint& hint) {
  const std::uint32_t index = ctx_index();
  Partition& part = *parts_[index];
  if (at < part.now) {
    throw std::logic_error(
        strfmt("schedule_at(%s) is in the past (now=%s)", at.str().c_str(), part.now.str().c_str()));
  }
  return EventId{part.queue.push(at, std::move(cb), hint), index};
}

Simulator::EventId Simulator::schedule_on_node(std::uint32_t node, Time at, Callback&& cb,
                                               const PrefetchHint& hint) {
  if (!partitioned_) {
    return schedule_at(at, std::move(cb), hint);
  }
  const std::uint32_t target = partition_of_node(node);
  const std::uint32_t cur = ctx_index();
  if (cur == target) {
    return schedule_at(at, std::move(cb), hint);
  }
  if (cur == 0) {
    // Barrier/root context: every partition is parked, push directly.
    Partition& part = *parts_[target];
    if (at < part.now) {
      throw std::logic_error(strfmt("schedule_on_node(%s) is in the past (partition now=%s)",
                                    at.str().c_str(), part.now.str().c_str()));
    }
    return EventId{part.queue.push(at, std::move(cb), hint), target};
  }
  // Cross-partition from inside a partition event: defer to the barrier. The
  // lookahead contract puts `at` at or beyond the fence; barrier-adjacent
  // control events may land just below it and are clamped (deterministic —
  // the fence is schedule state, not thread state).
  Partition& src = *parts_[cur];
  const Time eff = at < window_fence_ ? window_fence_ : at;
  src.outbox.push_back(Outgoing{eff, target, src.next_out_seq++, EventId{}, std::move(cb)});
  return EventId{};
}

void Simulator::post_global(Callback cb) {
  const std::uint32_t cur = ctx_index();
  if (!partitioned_ || cur == 0) {
    cb();  // already serialized against every partition
    return;
  }
  Partition& src = *parts_[cur];
  src.outbox.push_back(Outgoing{window_fence_, 0, src.next_out_seq++, EventId{}, std::move(cb)});
}

bool Simulator::cancel(EventId id) {
  if (!id.valid()) {
    return false;
  }
  const std::uint32_t cur = ctx_index();
  if (!partitioned_ || id.part == cur || cur == 0) {
    return parts_[id.part]->queue.cancel(id.seq);
  }
  if (id.part == 0) {
    // Deferred cancel of a barrier-context event. Safe: global events fire
    // only at barriers, and the fence this cancel lands on is <= any global
    // event time still pending, so the cancel is applied before the event
    // could fire.
    Partition& src = *parts_[cur];
    src.outbox.push_back(Outgoing{window_fence_, 0, src.next_out_seq++, id, Callback{}});
    return true;
  }
  throw std::logic_error("Simulator::cancel: cross-partition cancel of a non-global event");
}

bool Simulator::step() {
  if (partitioned_) {
    throw std::logic_error("Simulator::step: single-stepping is unavailable in partitioned mode");
  }
  Partition& part = *parts_[0];
  Time at;
  Callback cb;
  if (!part.queue.pop(at, cb)) {
    return false;
  }
  part.queue.prefetch_next();
  assert(at >= part.now);
  part.now = at;
  ++part.processed;
  cb();
  return true;
}

std::uint64_t Simulator::run() {
  return partitioned_ ? run_windows(std::nullopt) : run_serial(std::nullopt);
}

std::uint64_t Simulator::run_until(Time limit) {
  return partitioned_ ? run_windows(limit) : run_serial(limit);
}

std::uint64_t Simulator::run_serial(std::optional<Time> limit) {
  Partition& part = *parts_[0];
  const std::uint64_t before = part.processed;
  while (!halted()) {
    if (part.queue.empty() || (limit && part.queue.top_time() > *limit)) {
      if (limit && part.now < *limit) {
        // Drained the window: the full interval elapsed.
        part.now = *limit;
      }
      if (!limit && part.queue.empty()) {
        break;
      }
      if (limit) {
        halted_.store(false, std::memory_order_relaxed);
        return part.processed - before;
      }
      break;
    }
    step();
  }
  // Halted (possibly before the first event): the clock stays where the halt
  // caught it, so delays scheduled afterwards are measured from the true
  // stopping point, not a limit this run never reached.
  halted_.store(false, std::memory_order_relaxed);
  return part.processed - before;
}

std::size_t Simulator::pending() const {
  std::size_t total = 0;
  for (const auto& part : parts_) {
    total += part->queue.size();
  }
  return total;
}

std::uint64_t Simulator::events_processed() const {
  std::uint64_t total = 0;
  for (const auto& part : parts_) {
    total += part->processed;
  }
  return total;
}

std::size_t Simulator::queued_entries() const {
  std::size_t total = 0;
  for (const auto& part : parts_) {
    total += part->queue.queued_entries();
  }
  return total;
}

std::size_t Simulator::slot_high_water() const {
  std::size_t high = 0;
  for (const auto& part : parts_) {
    high = std::max(high, part->queue.slot_high_water());
  }
  return high;
}

void Simulator::start_probe(Time period, Probe probe) {
  if (period <= Time::zero()) {
    throw std::invalid_argument("Simulator::start_probe: period must be positive");
  }
  stop_probe();
  probe_ = std::move(probe);
  probe_period_ = period;
  probe_event_ = schedule_after(period, [this] { fire_probe(); });
}

void Simulator::stop_probe() {
  if (probe_event_.valid()) {
    cancel(probe_event_);
    probe_event_ = EventId{};
  }
  probe_ = nullptr;
  probe_period_ = Time::zero();
}

void Simulator::fire_probe() {
  probe_event_ = EventId{};
  if (!probe_) {
    return;
  }
  probe_(now(), pending(), events_processed());
  // Reschedule only while other work remains: a probe alone in the queue
  // would otherwise keep run() alive forever.
  if (pending() > 0) {
    probe_event_ = schedule_after(probe_period_, [this] { fire_probe(); });
  }
}

// --- partitioned mode -------------------------------------------------------

void Simulator::configure_partitions(PartitionPlan plan, std::uint32_t workers) {
  if (partitioned_) {
    throw std::logic_error("Simulator::configure_partitions: already partitioned");
  }
  if (plan.partitions == 0) {
    throw std::invalid_argument("Simulator::configure_partitions: need at least one partition");
  }
  if (plan.lookahead <= Time::zero()) {
    throw std::invalid_argument("Simulator::configure_partitions: lookahead must be positive");
  }
  for (const std::uint32_t p : plan.node_partition) {
    if (p == 0 || p > plan.partitions) {
      throw std::invalid_argument("Simulator::configure_partitions: node partition out of range");
    }
  }
  if (!parts_[0]->queue.empty() || parts_[0]->processed != 0) {
    throw std::logic_error("Simulator::configure_partitions: simulator already has events");
  }
  plan_ = std::move(plan);
  partitioned_ = true;
  parts_.reserve(plan_.partitions + 1);
  for (std::uint32_t p = 0; p < plan_.partitions; ++p) {
    parts_.push_back(std::make_unique<Partition>());
  }
  set_workers(workers);
}

void Simulator::set_workers(std::uint32_t workers) {
  const std::uint32_t clamped =
      partitioned_ ? std::clamp(workers, 1U, plan_.partitions) : std::max(workers, 1U);
  if (!threads_.empty() && clamped != workers_) {
    throw std::logic_error("Simulator::set_workers: worker pool already started");
  }
  workers_ = clamped;
}

std::uint32_t Simulator::partitions() const {
  return partitioned_ ? plan_.partitions : 1U;
}

std::uint32_t Simulator::partition_of_node(std::uint32_t node) const {
  if (!partitioned_) {
    return 0;
  }
  if (node >= plan_.node_partition.size()) {
    throw std::out_of_range("Simulator::partition_of_node: unknown node");
  }
  return plan_.node_partition[node];
}

bool Simulator::cross_partition(std::uint32_t node_a, std::uint32_t node_b) const {
  return partitioned_ && partition_of_node(node_a) != partition_of_node(node_b);
}

std::uint64_t Simulator::run_windows(std::optional<Time> limit) {
  const std::uint64_t before = events_processed();
  ensure_pool();
  for (;;) {
    if (halted()) {
      break;
    }
    // Earliest pending work anywhere.
    bool any = false;
    Time tmin = Time::zero();
    for (const auto& part : parts_) {
      if (!part->queue.empty()) {
        const Time t = part->queue.top_time();
        if (!any || t < tmin) {
          tmin = t;
          any = true;
        }
      }
    }
    if (!any || (limit && tmin > *limit)) {
      if (limit) {
        for (auto& part : parts_) {
          part->now = std::max(part->now, *limit);
        }
      }
      break;
    }
    Partition& global = *parts_[0];
    if (!global.queue.empty() && global.queue.top_time() <= tmin) {
      // Barrier phase: global events run serially with every partition
      // parked at or before this instant.
      run_global_at(global.queue.top_time());
      continue;
    }
    // Window [tmin, fence): partitions drain concurrently. The fence never
    // exceeds the next global event (barrier-context state must not be
    // overtaken) and cross-partition traffic cannot land below
    // tmin + lookahead, so the window is causally closed.
    Time fence = tmin + plan_.lookahead;
    if (!global.queue.empty()) {
      fence = std::min(fence, global.queue.top_time());
    }
    if (limit) {
      fence = std::min(fence, *limit + Time::from_ns(1));
    }
    const Time clock = limit ? std::min(fence, *limit) : fence;
    dispatch_window(fence, clock);
    merge_outboxes();
    global.now = std::max(global.now, clock);
  }
  halted_.store(false, std::memory_order_relaxed);
  return events_processed() - before;
}

void Simulator::run_global_at(Time at) {
  Partition& global = *parts_[0];
  global.now = at;
  while (!halted() && !global.queue.empty() && global.queue.top_time() == at) {
    Time t;
    Callback cb;
    global.queue.pop(t, cb);
    ++global.processed;
    cb();
  }
}

void Simulator::run_partition_window(Partition& part, std::uint32_t index, Time fence, Time clock) {
  const ExecCtx saved = tl_exec_ctx;
  tl_exec_ctx = ExecCtx{this, index};
  while (!part.queue.empty() && part.queue.top_time() < fence) {
    Time at;
    Callback cb;
    part.queue.pop(at, cb);
    part.queue.prefetch_next();
    assert(at >= part.now);
    part.now = at;
    ++part.processed;
    cb();
  }
  part.now = std::max(part.now, clock);
  tl_exec_ctx = saved;
}

void Simulator::dispatch_window(Time fence, Time clock) {
  window_fence_ = fence;
  if (nthreads_ <= 1) {
    for (std::uint32_t p = 1; p < parts_.size(); ++p) {
      run_partition_window(*parts_[p], p, fence, clock);
    }
    return;
  }
  {
    const std::lock_guard<std::mutex> lk(pool_mu_);
    pool_clock_ = clock;
    pool_pending_ = nthreads_ - 1;
    ++pool_epoch_;
  }
  pool_cv_.notify_all();
  for (std::uint32_t p = 1; p < parts_.size(); ++p) {
    if ((p - 1) % nthreads_ == 0) {
      run_partition_window(*parts_[p], p, fence, clock);
    }
  }
  std::unique_lock<std::mutex> lk(pool_mu_);
  done_cv_.wait(lk, [this] { return pool_pending_ == 0; });
}

void Simulator::merge_outboxes() {
  // Deterministic cross-partition delivery: collect every outbox in source
  // order (entries within one source are already in schedule order) and
  // stable-sort by time, yielding the canonical (time, source partition,
  // sequence) key. Push order into each target queue — and therefore the
  // (time, order) tie-break — is then independent of thread scheduling.
  merge_scratch_.clear();
  for (std::uint32_t p = 1; p < parts_.size(); ++p) {
    for (Outgoing& out : parts_[p]->outbox) {
      merge_scratch_.push_back(&out);
    }
  }
  std::stable_sort(merge_scratch_.begin(), merge_scratch_.end(),
                   [](const Outgoing* a, const Outgoing* b) { return a->at < b->at; });
  for (Outgoing* out : merge_scratch_) {
    if (out->cancel_target.valid()) {
      parts_[out->cancel_target.part]->queue.cancel(out->cancel_target.seq);
    } else {
      parts_[out->target]->queue.push(out->at, std::move(out->cb));
    }
  }
  merge_scratch_.clear();
  for (std::uint32_t p = 1; p < parts_.size(); ++p) {
    parts_[p]->outbox.clear();
  }
}

void Simulator::ensure_pool() {
  nthreads_ = std::min(workers_, plan_.partitions);
  if (nthreads_ <= 1 || !threads_.empty()) {
    return;
  }
  threads_.reserve(nthreads_ - 1);
  for (std::uint32_t slot = 1; slot < nthreads_; ++slot) {
    threads_.emplace_back([this, slot] { worker_main(slot); });
  }
}

void Simulator::stop_pool() {
  if (threads_.empty()) {
    return;
  }
  {
    const std::lock_guard<std::mutex> lk(pool_mu_);
    pool_quit_ = true;
  }
  pool_cv_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
  threads_.clear();
  pool_quit_ = false;
}

void Simulator::worker_main(std::uint32_t slot) {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lk(pool_mu_);
  for (;;) {
    pool_cv_.wait(lk, [this, seen] { return pool_quit_ || pool_epoch_ != seen; });
    if (pool_quit_) {
      return;
    }
    seen = pool_epoch_;
    const Time fence = window_fence_;
    const Time clock = pool_clock_;
    lk.unlock();
    // Static partition→thread assignment: the work split is a function of
    // the plan, not of runtime load, so thread count cannot leak into the
    // schedule.
    for (std::uint32_t p = 1; p < parts_.size(); ++p) {
      if ((p - 1) % nthreads_ == slot) {
        run_partition_window(*parts_[p], p, fence, clock);
      }
    }
    lk.lock();
    if (--pool_pending_ == 0) {
      done_cv_.notify_one();
    }
  }
}

}  // namespace ampom::sim
