#pragma once
// A migratable process: PCB + address space + reference stream + location.

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>

#include "mem/address_space.hpp"
#include "net/message.hpp"
#include "proc/reference_stream.hpp"

namespace ampom::proc {

enum class ProcState : std::uint8_t {
  Running,   // consuming its reference stream
  Blocked,   // waiting on a remote page or redirected syscall
  Frozen,    // mid-migration
  Finished,  // stream exhausted
};

struct Pcb {
  std::uint64_t pid{0};
  // Captured at freeze: registers, kernel stack, file table, signal state.
  // The simulator carries only its wire size.
};

// Cache-line aligned, with what a burst reads first (state, node, stream,
// last-touched pages) leading the object: the executor's prefetch hint
// names its first line.
class alignas(64) Process {
 public:
  Process(std::uint64_t pid, std::unique_ptr<ReferenceStream> stream, net::NodeId home);

  [[nodiscard]] std::uint64_t pid() const { return pcb_.pid; }
  [[nodiscard]] mem::AddressSpace& aspace() { return aspace_; }
  [[nodiscard]] const mem::AddressSpace& aspace() const { return aspace_; }
  [[nodiscard]] ReferenceStream& stream() { return *stream_; }
  [[nodiscard]] const ReferenceStream& stream() const { return *stream_; }

  [[nodiscard]] ProcState state() const { return state_; }
  void set_state(ProcState s) { state_ = s; }

  [[nodiscard]] net::NodeId home_node() const { return home_; }
  [[nodiscard]] net::NodeId current_node() const { return current_; }
  void set_current_node(net::NodeId n) {
    const net::NodeId prev = current_;
    current_ = n;
    if (prev != n && on_node_changed_) {
      on_node_changed_(prev, n);
    }
  }
  // Placement hook: the cluster world maintains per-node load counts
  // incrementally from this instead of rescanning every process (O(1) vs
  // O(processes) per load read — the difference at 100k processes).
  void set_on_node_changed(std::function<void(net::NodeId, net::NodeId)> fn) {
    on_node_changed_ = std::move(fn);
  }
  [[nodiscard]] bool migrated() const { return current_ != home_; }

  // Track the most recently touched page per region; the FFA-style engines
  // ship exactly these "currently accessed" pages (paper §2.1).
  void note_touch(mem::PageId page);
  [[nodiscard]] mem::PageId last_touched(mem::Region r) const {
    return last_touched_[static_cast<std::size_t>(r)];
  }
  // The three pages every lightweight scheme migrates: current code, current
  // data (heap), current stack page. Falls back to each region's first page
  // if a region was never touched.
  [[nodiscard]] std::array<mem::PageId, 3> current_pages() const;

 private:
  ProcState state_{ProcState::Running};
  net::NodeId current_;
  net::NodeId home_;
  std::unique_ptr<ReferenceStream> stream_;
  std::array<mem::PageId, mem::kRegionCount> last_touched_;
  mem::AddressSpace aspace_;
  Pcb pcb_;
  std::function<void(net::NodeId, net::NodeId)> on_node_changed_;
};

}  // namespace ampom::proc
