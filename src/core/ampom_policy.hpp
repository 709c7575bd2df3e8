#pragma once
// AMPoM's fault-time prefetching loop — Algorithm 1 of the paper.
//
// On every page fault:
//   1. map the prefetched pages that arrived since the last fault
//      (the lookaside buffer),
//   2. record the fault in the lookback window,
//   3. compute the spatial-locality score S,
//   4. size the dependent zone (Eq. 3) from S, the paging rate, the CPU
//      utilization and the monitored network round-trip/transfer times,
//   5. identify the zone pages from the outstanding-stream pivots,
//   6. batch one remote request for the zone pages not stored locally,
//   7. block only if the faulted page itself is still remote.

#include <cstdint>
#include <functional>
#include <optional>

#include "core/config.hpp"
#include "core/dependent_zone.hpp"
#include "core/locality.hpp"
#include "core/lookback_window.hpp"
#include "proc/executor.hpp"
#include "proc/fault_policy.hpp"
#include "proc/paging_client.hpp"

namespace ampom::core {

// Monitoring inputs at fault time; supplied by the InfoDaemon adapter.
struct ResourceEstimates {
  sim::Time rtt_one_way{};       // t0: half the measured load-update RTT
  sim::Time page_transfer{};     // td: one page at the available bandwidth
  double expected_cpu_share{1.0};  // c': CPU the process can use next period
};
using ResourceProvider = std::function<ResourceEstimates()>;

struct AmpomStats {
  std::uint64_t faults_seen{0};           // Algorithm 1 invocations
  std::uint64_t window_records{0};        // non-collapsed records
  std::uint64_t zone_pages_considered{0};  // sum of zone sizes
  std::uint64_t prefetch_pages_issued{0};  // missing zone pages requested
  std::uint64_t requests_sent{0};
  sim::Time analysis_time{};  // total dependent-zone analysis cost (Fig. 11)
  double last_score{0.0};
  std::uint64_t last_zone_size{0};
};

class AmpomPolicy final : public proc::FaultPolicy {
 public:
  AmpomPolicy(sim::Simulator& simulator, proc::Executor& executor, proc::PagingClient& client,
              AmpomConfig config, ResourceProvider resources);

  void on_fault(proc::Process& process, mem::PageId page, mem::AccessKind kind) override;

  // Wired to PagingClient::set_arrival_handler by the scenario builder.
  void on_arrival(mem::PageId page, bool urgent);

  [[nodiscard]] const AmpomStats& stats() const { return stats_; }
  // The lookback window a given page's faults are recorded in (with the
  // default single partition, every page maps to window 0).
  [[nodiscard]] const LookbackWindow& window_for(mem::PageId page) const;
  [[nodiscard]] const LookbackWindow& window() const { return windows_.front(); }
  [[nodiscard]] std::size_t partition_count() const { return windows_.size(); }
  [[nodiscard]] const AmpomConfig& config() const { return config_; }

  // Observability: called after every per-fault analysis with the Eq.-3
  // inputs, the zone size and the outstanding-stream count.
  using TraceHook = std::function<void(const ZoneInputs&, std::uint64_t zone,
                                       std::size_t streams)>;
  void set_trace(TraceHook hook) { trace_ = std::move(hook); }

 private:
  // Issues `urgent` (unless kInvalidPage) followed by the remote zone pages
  // left in zone_ as one batch.
  void send_requests(mem::PageId urgent);
  [[nodiscard]] LookbackWindow& partition_of(mem::PageId page);

  sim::Simulator& sim_;
  proc::Executor& executor_;
  proc::PagingClient& client_;
  AmpomConfig config_;
  ResourceProvider resources_;
  std::vector<LookbackWindow> windows_;  // one per address-space partition
  // With partitions > 1, the paging rate r and utilization c are process-
  // wide properties and come from a global window; per-partition windows
  // supply the locality score and the stream pivots.
  std::optional<LookbackWindow> global_window_;
  LocalityAnalyzer analyzer_;
  AmpomStats stats_;
  TraceHook trace_;
  mem::PageId blocked_page_{mem::kInvalidPage};
  // Per-fault scratch, cleared on every fault with its capacity kept.
  std::vector<StrideStream> streams_;
  std::vector<mem::PageId> zone_;
};

}  // namespace ampom::core
