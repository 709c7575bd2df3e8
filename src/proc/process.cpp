#include "proc/process.hpp"

namespace ampom::proc {

namespace {
ReferenceStream& require_stream(const std::unique_ptr<ReferenceStream>& stream) {
  if (stream == nullptr) {
    throw std::invalid_argument("Process requires a reference stream");
  }
  return *stream;
}
}  // namespace

Process::Process(std::uint64_t pid, std::unique_ptr<ReferenceStream> stream, net::NodeId home)
    : current_{home},
      home_{home},
      stream_{std::move(stream)},
      aspace_{mem::RegionLayout::for_total_bytes(require_stream(stream_).memory_bytes())} {
  pcb_.pid = pid;
  last_touched_.fill(mem::kInvalidPage);
}

void Process::note_touch(mem::PageId page) {
  const mem::Region r = aspace_.layout().region_of(page);
  last_touched_[static_cast<std::size_t>(r)] = page;
}

std::array<mem::PageId, 3> Process::current_pages() const {
  const auto& layout = aspace_.layout();
  auto current_or_first = [&](mem::Region r) {
    const mem::PageId p = last_touched(r);
    return p == mem::kInvalidPage ? layout.begin(r) : p;
  };
  // "Data" in the paper's FFA description means the current heap page; fall
  // back to the data segment if the heap was never touched.
  mem::PageId data_page = last_touched(mem::Region::Heap);
  if (data_page == mem::kInvalidPage) {
    data_page = current_or_first(mem::Region::Data);
  }
  return {current_or_first(mem::Region::Code), data_page, current_or_first(mem::Region::Stack)};
}

}  // namespace ampom::proc
