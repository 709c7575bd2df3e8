#pragma once
// Base classes for workload generators.
//
// WorkloadStream holds what every generator shares: the region layout and
// the cadence of code/stack "aux" touches interleaved with the generated
// references. A generator that can produce one reference at a time derives
// from it directly and emits on demand (HotColdStream).
//
// BufferedStream is for kernels that are easier to write in batches: they
// append references into a small buffer (refill()) and next() drains it.
// Keeps each kernel a simple resumable state machine, so the sequence a
// stream emits never depends on how many references one refill appends. The
// buffer is a vector read through a head index and cleared (capacity kept)
// when drained: a stream in steady state makes no allocator calls.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/region.hpp"
#include "proc/reference_stream.hpp"

namespace ampom::workload {

class WorkloadStream : public proc::ReferenceStream {
 public:
  explicit WorkloadStream(sim::Bytes memory_bytes)
      : layout_{mem::RegionLayout::for_total_bytes(memory_bytes)}, memory_bytes_{memory_bytes} {}

  [[nodiscard]] sim::Bytes memory_bytes() const final { return memory_bytes_; }
  [[nodiscard]] const mem::RegionLayout& layout() const { return layout_; }

 protected:
  // Real processes keep touching code and stack while they run: every
  // kAuxPeriod-th generated memory reference is preceded by a round-robin
  // code-page touch, and every eighth of those also by a stack-page touch,
  // so the "currently accessed" page set the migration engines ship is
  // meaningful. Call once per generated memory reference, before emitting
  // it; passes the touches due first (none, one or two) to `out`.
  template <class Out>
  void aux_touches(Out&& out) {
    if (++since_aux_ < kAuxPeriod) {
      return;
    }
    since_aux_ = 0;
    const mem::PageId code =
        layout_.begin(mem::Region::Code) + (aux_round_ % layout_.pages(mem::Region::Code));
    out(proc::Ref{code, sim::Time::from_ns(200), proc::Ref::Kind::Memory});
    if (aux_round_ % 8 == 0) {
      const mem::PageId stack =
          layout_.begin(mem::Region::Stack) + (aux_round_ % layout_.pages(mem::Region::Stack));
      out(proc::Ref{stack, sim::Time::from_ns(200), proc::Ref::Kind::Memory});
    }
    ++aux_round_;
  }

  [[nodiscard]] mem::PageId heap_begin() const { return layout_.begin(mem::Region::Heap); }
  [[nodiscard]] std::uint64_t heap_pages() const { return layout_.pages(mem::Region::Heap); }

 private:
  static constexpr std::uint64_t kAuxPeriod = 1024;
  std::uint64_t since_aux_{0};
  std::uint64_t aux_round_{0};
  mem::RegionLayout layout_;
  sim::Bytes memory_bytes_;
};

class BufferedStream : public WorkloadStream {
 public:
  using WorkloadStream::WorkloadStream;

  [[nodiscard]] std::optional<proc::Ref> next() final {
    if (head_ == buffer_.size()) {
      buffer_.clear();
      head_ = 0;
      refill();
      if (buffer_.empty()) {
        return std::nullopt;
      }
    }
    count_emit();
    return buffer_[head_++];
  }

 protected:
  // References a streaming refill() appends per call; small, so each
  // process's buffer stays a few hundred bytes.
  static constexpr std::uint64_t kRefillBatch = 16;

  // Append more references; leaving the buffer empty ends the stream.
  virtual void refill() = 0;

  void emit(mem::PageId page, sim::Time cpu) {
    aux_touches([this](const proc::Ref& ref) { buffer_.push_back(ref); });
    buffer_.push_back(proc::Ref{page, cpu, proc::Ref::Kind::Memory});
  }
  void emit_syscall(sim::Time cpu) {
    buffer_.push_back(proc::Ref{mem::kInvalidPage, cpu, proc::Ref::Kind::Syscall});
  }

 private:
  std::vector<proc::Ref> buffer_;
  std::size_t head_{0};
};

}  // namespace ampom::workload
