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
    heap_pos_.push_back(0);
    generations_.push_back(0);
    hints_.emplace_back();
  }
  callbacks_[slot] = std::move(cb);
  hints_[slot] = hint;

  const std::size_t i = heap_.size();
  heap_.push_back(Entry{at, next_order_++, slot});
  heap_pos_[slot] = static_cast<std::uint32_t>(i);
  sift_up(i);
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
  remove_at(heap_pos_[slot]);
  release(slot);
  return true;
}

bool EventQueue::pop(Time& at, Callback& cb) {
  if (heap_.empty()) {
    return false;
  }
  const std::uint32_t slot = heap_.front().slot;
  at = heap_.front().at;
  cb = std::move(callbacks_[slot]);
  remove_at(0);
  release(slot);
  return true;
}

void EventQueue::place(std::size_t i, Entry entry) {
  heap_pos_[entry.slot] = static_cast<std::uint32_t>(i);
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
  sift_down(heap_pos_[moved.slot]);
}

void EventQueue::release(std::uint32_t slot) {
  callbacks_[slot] = nullptr;  // destroy the closure immediately, not at its deadline
  ++generations_[slot];
  free_slots_.push_back(slot);
}

}  // namespace ampom::sim
