#pragma once
// The migrating process's address-space image.
//
// One AddressSpace describes the distributed state of a process's pages:
// mapped locally at the current node, left behind at the home node, in
// flight, parked in the lookaside buffer, or swapped out. The executor
// classifies every reference against it; the migration engines and the
// remote-paging protocol drive the state transitions.

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "mem/page.hpp"
#include "mem/region.hpp"

namespace ampom::mem {

// Classification of a memory reference (what the MMU + fault handler see).
enum class AccessKind : std::uint8_t {
  Hit,         // page is Local: no fault
  FirstTouch,  // page was Unallocated: minor fault, created locally
  SoftFault,   // page is Arrived: fault served from the lookaside buffer
  HardFault,   // page is Remote: fault requiring a remote paging request
  InFlightWait,  // page is InFlight: fault that blocks until the reply lands
  SwapFault,   // page is Swapped: fault served from local swap
};

class AddressSpace {
 public:
  explicit AddressSpace(RegionLayout layout);

  [[nodiscard]] const RegionLayout& layout() const { return layout_; }
  [[nodiscard]] std::uint64_t page_count() const { return states_.size(); }

  [[nodiscard]] PageState state(PageId page) const { return states_.at(page); }
  [[nodiscard]] bool dirty(PageId page) const { return dirty_.at(page); }
  // Where `page`'s state lives, for prefetch hints (an address, not a read).
  [[nodiscard]] const void* state_address(PageId page) const { return states_.data() + page; }

  // --- setup -------------------------------------------------------------
  // Materialize every page locally and mark it dirty: the paper migrates
  // "right after a kernel has finished allocating the required memory", at
  // which point the whole address space is dirty.
  void populate_all_dirty();

  // Materialize a page range (initialized data/code at process start).
  void populate_range(PageId begin, PageId end, bool mark_dirty);

  // --- migration-time transitions -----------------------------------------
  // Page stays at the home node; the migrant will fault on it.
  void demote_to_remote(PageId page);
  // Page was shipped during the freeze; it is mapped at the destination.
  void carry_over(PageId page);

  // --- runtime transitions -------------------------------------------------
  [[nodiscard]] AccessKind classify(PageId page) const;

  // First touch of an Unallocated page: created locally, dirty (MPT-only
  // update per paper §2.2).
  void create_on_touch(PageId page);

  void mark_in_flight(PageId page);
  // A PageData message landed: page goes to the lookaside buffer.
  void mark_arrived(PageId page);
  // Map every Arrived page (Algorithm 1: "copy these pages to the migrant's
  // address space" at the next fault). Returns how many were mapped.
  std::uint64_t map_all_arrived();
  // Map one specific Arrived page now (the urgent page a fault blocks on).
  void map_arrived_page(PageId page);

  // RAM-limit extension: evict/load a Local page to/from local swap.
  void evict_to_swap(PageId page);
  void load_from_swap(PageId page);

  // Crash recovery: the process restarts at its home node from the deputy's
  // image, so every materialized page (Remote, InFlight, Arrived, Swapped)
  // becomes Local again; Unallocated pages stay untouched. Returns how many
  // pages changed state.
  std::uint64_t recover_all_local();

  void mark_dirty(PageId page) { dirty_.at(page) = true; }

  // --- counters ------------------------------------------------------------
  [[nodiscard]] std::uint64_t count(PageState s) const {
    return counts_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] std::uint64_t local_pages() const { return count(PageState::Local); }
  [[nodiscard]] std::uint64_t remote_pages() const { return count(PageState::Remote); }
  [[nodiscard]] std::uint64_t dirty_pages() const { return dirty_count_; }
  [[nodiscard]] sim::Bytes dirty_bytes() const { return bytes_for_pages(dirty_count_); }

  // All pages currently in the given state (used by migration engines).
  [[nodiscard]] std::vector<PageId> pages_in_state(PageState s) const;

 private:
  void transition(PageId page, PageState from, PageState to);
  void set_state_unchecked(PageId page, PageState to);

  RegionLayout layout_;
  std::vector<PageState> states_;
  std::vector<bool> dirty_;
  std::uint64_t counts_[6]{};
  std::uint64_t dirty_count_{0};
  std::vector<PageId> arrived_;  // lookaside buffer contents
};

}  // namespace ampom::mem
