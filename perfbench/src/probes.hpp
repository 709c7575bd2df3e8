#pragma once
// Host-side measurement for the benchmark: clocks, memory, host facts, the
// benchmark's own spans, and the timing decorator it wraps around every
// ReferenceStream it hands to the simulator. Nothing here reaches inside
// the simulator; everything observes it from its public surface.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "json.hpp"
#include "proc/reference_stream.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Peak resident set of this process so far (getrusage), in MiB.
[[nodiscard]] double peak_rss_mib();
// Bytes currently allocated through malloc (small and mmapped chunks).
[[nodiscard]] std::uint64_t heap_in_use_bytes();

// nproc, cache sizes, compiler and build type, recorded next to every result.
[[nodiscard]] Json host_facts();

// Spans around each call the benchmark makes into a layer. Kept in memory
// and emitted with the result; a span's parent is the span open when it
// began (-1 at top level).
class SpanLog {
 public:
  SpanLog() : origin_{Clock::now()} {}

  std::size_t begin(std::string name);
  void end(std::size_t index);
  [[nodiscard]] Json to_json() const;

 private:
  struct Span {
    std::string name;
    double start_s{0.0};
    double end_s{0.0};
    std::int64_t parent{-1};
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

// RAII span.
class Scoped {
 public:
  Scoped(SpanLog* log, std::string name)
      : log_{log}, index_{log != nullptr ? log->begin(std::move(name)) : 0} {}
  ~Scoped() {
    if (log_ != nullptr) {
      log_->end(index_);
    }
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog* log_;
  std::size_t index_;
};

// What the timing decorator gathers, one slot per stream the benchmark
// hands to the simulator. A decorator writes only its own slot, so streams
// driven by different simulator worker threads never share state.
struct StreamSlot {
  std::uint64_t emitted{0};      // references returned (== the stream's emitted())
  std::uint64_t timed_calls{0};  // next() calls that were timed
  double timed_ns{0.0};          // host ns those calls spent in the inner stream
  ampom::sim::Bytes memory_bytes{0};
  // (arrival ticket, page id): the first pages this stream produced, tagged
  // with a world-wide ticket so the replay sees them in consumption order.
  std::vector<std::pair<std::uint64_t, ampom::mem::PageId>> captured;
};

class StreamProbe {
 public:
  // `streams` slots; each stream captures at most `capture_per_stream` page
  // ids for the classify replay (0 disables capture).
  StreamProbe(std::size_t streams, std::size_t capture_per_stream);

  StreamProbe(const StreamProbe&) = delete;
  StreamProbe& operator=(const StreamProbe&) = delete;

  // Decorates `inner`: forwards every call, times one next() in 16 with
  // steady_clock, and captures page ids; `on_end` (optional) runs once when
  // the stream finishes. The probe must outlive the returned stream.
  [[nodiscard]] std::unique_ptr<ampom::proc::ReferenceStream> wrap(
      std::size_t index, std::unique_ptr<ampom::proc::ReferenceStream> inner,
      std::function<void()> on_end = {});

  [[nodiscard]] const StreamSlot& slot(std::size_t index) const { return slots_.at(index); }

  // Host ns per inner next() call, net of the clock's own cost.
  [[nodiscard]] double next_ns() const;
  // Replays AddressSpace::classify over the captured page ids in arrival
  // order (one fully populated address space per stream); ns per call.
  [[nodiscard]] double classify_ns() const;

 private:
  std::vector<StreamSlot> slots_;
  std::size_t capture_per_stream_;
  std::atomic<std::uint64_t> ticket_{0};
};

}  // namespace perfbench
