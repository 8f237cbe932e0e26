#include "tvp/trace/source.hpp"

#include <algorithm>
#include <stdexcept>

namespace tvp::trace {

std::size_t TraceSource::span_lanes(const AccessRecord** data,
                                    const BankLaneView** lanes,
                                    std::size_t* lane_banks) {
  *data = nullptr;
  if (lanes != nullptr) {
    *lanes = nullptr;
    *lane_banks = 0;
  }
  return 0;
}

VectorSource::VectorSource(std::vector<AccessRecord> records)
    : records_(std::move(records)) {
  for (std::size_t i = 1; i < records_.size(); ++i)
    if (records_[i].time_ps < records_[i - 1].time_ps)
      throw std::invalid_argument("VectorSource: records not time-sorted");
}

std::size_t VectorSource::next_batch(AccessRecord* out, std::size_t max) {
  const std::size_t n = std::min(max, records_.size() - pos_);
  std::copy_n(records_.begin() + static_cast<std::ptrdiff_t>(pos_), n, out);
  pos_ += n;
  return n;
}

std::size_t VectorSource::span_lanes(const AccessRecord** data,
                                     const BankLaneView** lanes,
                                     std::size_t* lane_banks) {
  if (lanes != nullptr) {
    *lanes = nullptr;
    *lane_banks = 0;
  }
  const std::size_t n = records_.size() - pos_;
  *data = n > 0 ? records_.data() + pos_ : nullptr;
  pos_ = records_.size();
  return n;
}

MergedSource::MergedSource(std::vector<std::unique_ptr<TraceSource>> sources)
    : sources_(std::move(sources)),
      blocks_(sources_.size() * kBlockRecords) {
  lanes_.reserve(sources_.size());
  heads_.reserve(sources_.size());
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    if (!sources_[i]) throw std::invalid_argument("MergedSource: null source");
    lanes_.push_back(Lane{sources_[i].get(), blocks_.data() + i * kBlockRecords,
                          0, 0});
    heads_.push_back(0);
    refill(lanes_.size() - 1);
  }
}

bool MergedSource::refill(std::size_t i) {
  Lane& lane = lanes_[i];
  lane.pos = 0;
  lane.len = lane.source->next_batch(lane.block, kBlockRecords);
  if (lane.len == 0) {
    lanes_.erase(lanes_.begin() + static_cast<std::ptrdiff_t>(i));
    heads_.erase(heads_.begin() + static_cast<std::ptrdiff_t>(i));
    return false;
  }
  heads_[i] = lane.block[0].time_ps;
  return true;
}

std::size_t MergedSource::next_batch(AccessRecord* out, std::size_t max) {
  std::size_t n = 0;
  while (n < max && !lanes_.empty()) {
    // Min-select over the cached heads, tracking the runner-up too.
    // Strict comparisons keep the earlier-registered lane on ties.
    const std::size_t k = heads_.size();
    std::size_t best = 0;
    std::size_t second = k;
    for (std::size_t i = 1; i < k; ++i) {
      if (heads_[i] < heads_[best]) {
        second = best;
        best = i;
      } else if (second == k || heads_[i] < heads_[second]) {
        second = i;
      }
    }
    // The winner emits while it stays ahead of the runner-up: up to and
    // including the runner-up's head time when the winner registered
    // first, strictly below it otherwise (then the runner-up's head is
    // strictly later than the winner's, so the subtraction cannot wrap).
    std::uint64_t limit = ~0ull;
    if (second != k) limit = heads_[second] - (second < best ? 1 : 0);

    Lane& lane = lanes_[best];
    for (;;) {
      const AccessRecord* block = lane.block;
      std::size_t pos = lane.pos;
      const std::size_t end = pos + std::min(lane.len - pos, max - n);
      while (pos < end && block[pos].time_ps <= limit) out[n++] = block[pos++];
      lane.pos = pos;
      if (pos < lane.len) {
        heads_[best] = block[pos].time_ps;
        break;
      }
      if (!refill(best)) break;
    }
  }
  return n;
}

LimitSource::LimitSource(std::unique_ptr<TraceSource> inner,
                         std::uint64_t limit_records, std::uint64_t end_ps)
    : inner_(std::move(inner)), remaining_(limit_records), end_ps_(end_ps) {
  if (!inner_) throw std::invalid_argument("LimitSource: null source");
}

std::size_t LimitSource::next_batch(AccessRecord* out, std::size_t max) {
  if (remaining_ == 0) return 0;
  const std::size_t want = static_cast<std::size_t>(
      std::min<std::uint64_t>(max, remaining_));
  std::size_t got = inner_->next_batch(out, want);
  if (got > 0 && out[got - 1].time_ps >= end_ps_) {
    got = static_cast<std::size_t>(
        std::partition_point(out, out + got,
                             [this](const AccessRecord& r) {
                               return r.time_ps < end_ps_;
                             }) -
        out);
    remaining_ = 0;
    return got;
  }
  remaining_ -= got;
  if (got < want) remaining_ = 0;  // inner exhausted
  return got;
}

std::size_t LimitSource::span_lanes(const AccessRecord** data,
                                    const BankLaneView** lanes,
                                    std::size_t* lane_banks) {
  *data = nullptr;
  const bool want_lanes = lanes != nullptr;
  if (want_lanes) {
    *lanes = nullptr;
    *lane_banks = 0;
  }
  if (remaining_ == 0) return 0;
  const AccessRecord* span = nullptr;
  const BankLaneView* inner_lanes = nullptr;
  std::size_t inner_banks = 0;
  std::size_t got =
      inner_->span_lanes(&span, want_lanes ? &inner_lanes : nullptr,
                         want_lanes ? &inner_banks : nullptr);
  if (got == 0) {
    remaining_ = 0;
    return 0;
  }
  const std::size_t full = got;
  // Trim at the time horizon first (spans are time-sorted, so the cut
  // is the partition point of time_ps < end_ps_), then at the record
  // budget.
  const AccessRecord* cut = std::partition_point(
      span, span + got,
      [this](const AccessRecord& r) { return r.time_ps < end_ps_; });
  const bool time_cut = cut != span + got;
  if (time_cut) got = static_cast<std::size_t>(cut - span);
  if (got >= remaining_) {
    got = static_cast<std::size_t>(remaining_);
    remaining_ = 0;
  } else {
    // A time cut kills the stream even under the record limit.
    remaining_ = time_cut ? 0 : remaining_ - got;
  }
  *data = got > 0 ? span : nullptr;
  // Lanes describe the inner span in full; a trimmed span would leave
  // them claiming records past the cut, so only an untrimmed span
  // passes them through (the consumer re-partitions otherwise).
  if (got == full && inner_lanes != nullptr) {
    *lanes = inner_lanes;
    *lane_banks = inner_banks;
  }
  return got;
}

std::vector<AccessRecord> drain(TraceSource& source, std::size_t max_records) {
  constexpr std::size_t kChunk = 4096;
  std::vector<AccessRecord> out;
  while (out.size() < max_records) {
    const std::size_t at = out.size();
    const std::size_t want = std::min(kChunk, max_records - at);
    out.resize(at + want);
    const std::size_t got = source.next_batch(out.data() + at, want);
    out.resize(at + got);
    if (got < want) break;
  }
  return out;
}

}  // namespace tvp::trace
