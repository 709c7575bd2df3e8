#include "simcore/event_queue.hpp"

#include <cassert>
#include <utility>

namespace ampom::sim {

EventQueue::Handle EventQueue::push(Time at, Callback&& cb, const PrefetchHint& hint) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(callbacks_.size());
    callbacks_.emplace_back();
    links_.emplace_back();
    generations_.push_back(0);
    hints_.emplace_back();
  }
  callbacks_[slot] = std::move(cb);
  hints_[slot] = hint;

  if (tail_ != kNone && at == tail_at_) {
    // The previous push is still queued at this instant, so it ends its
    // chain: join that chain instead of the heap.
    links_[tail_].next = slot;
    links_[slot] = Link{kNone, kNone, tail_};
  } else {
    const std::size_t i = heap_.size();
    heap_.push_back(Entry{at, next_order_++, slot});
    sift_up(i);
  }
  tail_ = slot;
  tail_at_ = at;
  return make_handle(slot, generations_[slot]);
}

bool EventQueue::cancel(Handle handle) {
  if (handle == 0) {
    return false;
  }
  const std::uint32_t slot = static_cast<std::uint32_t>(handle & 0xffffffffU) - 1U;
  if (slot >= callbacks_.size()) {
    return false;
  }
  if (generations_[slot] != static_cast<std::uint32_t>(handle >> 32U)) {
    return false;  // already fired or cancelled (slot possibly reused)
  }
  Link& link = links_[slot];
  const std::uint32_t succ = link.next;
  if (link.heap_pos != kNone) {
    // A chain head: its successor inherits the entry, key unchanged.
    if (succ == kNone) {
      remove_at(link.heap_pos);
    } else {
      heap_[link.heap_pos].slot = succ;
      links_[succ].heap_pos = link.heap_pos;
      link.next = kNone;
    }
  } else {
    links_[link.prev].next = succ;
    if (succ != kNone) {
      links_[succ].prev = link.prev;
      link.next = kNone;
    }
  }
  release(slot);
  return true;
}

bool EventQueue::pop(Time& at, Callback& cb) {
  if (heap_.empty()) {
    return false;
  }
  Entry& root = heap_.front();
  const std::uint32_t slot = root.slot;
  at = root.at;
  cb = std::move(callbacks_[slot]);
  const std::uint32_t succ = links_[slot].next;
  if (succ == kNone) {
    remove_at(0);
  } else {
    // Hand the root to the chained successor in place: same key, no sift.
    root.slot = succ;
    links_[succ].heap_pos = 0;
    links_[slot].next = kNone;
  }
  release(slot);
  return true;
}

void EventQueue::place(std::size_t i, Entry entry) {
  links_[entry.slot].heap_pos = static_cast<std::uint32_t>(i);
  heap_[i] = entry;
}

void EventQueue::sift_up(std::size_t i) {
  Entry entry = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!earlier(entry, heap_[parent])) {
      break;
    }
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, entry);
}

void EventQueue::sift_down(std::size_t i) {
  Entry entry = heap_[i];
  const std::size_t n = heap_.size();
  while (i * kArity + 1 < n) {
    const std::size_t best = earliest_child(i, n);
    if (!earlier(heap_[best], entry)) {
      break;
    }
    place(i, heap_[best]);
    i = best;
  }
  place(i, entry);
}

void EventQueue::remove_at(std::size_t i) {
  assert(i < heap_.size());
  const std::size_t last = heap_.size() - 1;
  if (i == last) {
    heap_.pop_back();
    return;
  }
  Entry moved = heap_[last];
  heap_.pop_back();
  place(i, moved);
  // The displaced entry may belong either above or below its new position.
  sift_up(i);
  sift_down(links_[moved.slot].heap_pos);
}

void EventQueue::release(std::uint32_t slot) {
  callbacks_[slot] = nullptr;  // destroy the closure immediately, not at its deadline
  ++generations_[slot];
  free_slots_.push_back(slot);
  if (slot == tail_) {
    tail_ = kNone;  // the next push starts a new chain
  }
}

}  // namespace ampom::sim
