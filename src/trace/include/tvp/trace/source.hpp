// Trace sources: pull-based streams of AccessRecords ordered by time.
//
// Generators (synthetic workloads, attackers, file readers) implement
// TraceSource; MergedSource interleaves any number of them into one
// time-ordered stream, which is what the memory controller consumes.
//
// Batch first: next_batch() is the one copying body of every source
// and span_lanes() the one zero-copy body of the sources whose records
// already sit in memory (VectorSource, MmapSource, and LimitSource over
// either). next() and next_span() are non-virtual adapters in the base:
// a one-record next_batch() and a lane-less span_lanes().
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "tvp/trace/record.hpp"

namespace tvp::trace {

/// Abstract pull-based record stream. Implementations must produce
/// records with non-decreasing time_ps.
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Fills @p out with up to @p max records and returns the count. The
  /// record sequence does not depend on how it is split into batches. A
  /// count below @p max means the stream is exhausted (0 on every later
  /// call); consumers such as LimitSource and drain() rely on that.
  virtual std::size_t next_batch(AccessRecord* out, std::size_t max) = 0;

  /// Next record, or nullopt when the stream is exhausted: a one-record
  /// next_batch().
  std::optional<AccessRecord> next() {
    AccessRecord rec;
    if (next_batch(&rec, 1) == 0) return std::nullopt;
    return rec;
  }

  /// True when span_lanes() is cheaper than next_batch() for this
  /// source — i.e. the records already live in memory and the source
  /// can hand out a borrowed view instead of copying.
  virtual bool supports_spans() const noexcept { return false; }

  /// Zero-copy variant of next_batch(): points @p data at a contiguous
  /// run of records owned by the source and returns its length
  /// (0 = exhausted). The span stays valid until the next call on this
  /// source. Span lengths are an implementation detail (block-sized for
  /// mmap'd corpora, the whole tail for vectors); the concatenation of
  /// all spans is exactly the next_batch() sequence. Only meaningful
  /// when supports_spans() is true; the base implementation returns 0.
  ///
  /// When the source has the span's per-bank column lanes precomputed
  /// (a corpus with a partition index), *lanes points at @p lane_banks
  /// BankLaneView entries on return — one per bank, serials relative to
  /// the returned span, valid until the next call; otherwise *lanes is
  /// null and the consumer partitions the span itself. Lanes are an
  /// optimization, never a semantic: the record span is identical
  /// either way. Null @p lanes and @p lane_banks mean "no lanes
  /// wanted": the source then neither builds nor verifies any.
  virtual std::size_t span_lanes(const AccessRecord** data,
                                 const BankLaneView** lanes,
                                 std::size_t* lane_banks);

  /// span_lanes() without lanes.
  std::size_t next_span(const AccessRecord** data) {
    return span_lanes(data, nullptr, nullptr);
  }
};

/// Replays a pre-built vector of records (must be time-sorted; verified
/// at construction).
class VectorSource final : public TraceSource {
 public:
  explicit VectorSource(std::vector<AccessRecord> records);
  /// Bulk copy out of the backing vector (one virtual call per batch).
  std::size_t next_batch(AccessRecord* out, std::size_t max) override;
  bool supports_spans() const noexcept override { return true; }
  /// Hands out the whole unconsumed tail of the vector in one span
  /// (never with lanes).
  std::size_t span_lanes(const AccessRecord** data, const BankLaneView** lanes,
                         std::size_t* lane_banks) override;

 private:
  std::vector<AccessRecord> records_;
  std::size_t pos_ = 0;
};

/// Merges multiple sources into one time-ordered stream: a stable
/// k-way merge, ties broken by source registration order.
///
/// Block merge: each source fills its own kBlockRecords-record block
/// through next_batch(); a min-select over the cached head times picks
/// the lane to emit from, and that lane keeps emitting while it stays
/// ahead of the runner-up, so each record is copied once into the
/// caller's batch. A source leaves the merge the first time its
/// next_batch() returns 0 — exhaustion is tracked explicitly, never
/// through a sentinel time, so a record at time_ps == UINT64_MAX merges
/// like any other.
///
/// Lookahead: a source is pulled up to one block ahead of the merged
/// output (and ahead of any time cut a LimitSource applies on top).
/// The output is still exactly the merge of the per-source streams,
/// provided the sources share no mutable state — two sources drawing
/// from one util::Rng, say, would see their draws reordered. Give every
/// source its own stream (build_workload forks one per source).
class MergedSource final : public TraceSource {
 public:
  /// Records each source buffers ahead of the merge.
  static constexpr std::size_t kBlockRecords = 256;

  explicit MergedSource(std::vector<std::unique_ptr<TraceSource>> sources);
  std::size_t next_batch(AccessRecord* out, std::size_t max) override;

 private:
  struct Lane {
    TraceSource* source = nullptr;
    AccessRecord* block = nullptr;  // kBlockRecords slots in blocks_
    std::size_t pos = 0;
    std::size_t len = 0;
  };

  /// Refills lane @p i's block; drops the lane (keeping the others in
  /// registration order) when its source is exhausted. Returns false
  /// when it dropped the lane.
  bool refill(std::size_t i);

  std::vector<std::unique_ptr<TraceSource>> sources_;
  std::vector<AccessRecord> blocks_;
  /// Live lanes in registration order; heads_[i] caches the time of
  /// lanes_[i]'s next record (always pos < len for a live lane).
  std::vector<Lane> lanes_;
  std::vector<std::uint64_t> heads_;
};

/// Truncates an underlying source after @p limit records or @p end_ps
/// picoseconds (whichever comes first).
class LimitSource final : public TraceSource {
 public:
  LimitSource(std::unique_ptr<TraceSource> inner, std::uint64_t limit_records,
              std::uint64_t end_ps);
  /// Forwards to the inner source's batch path and applies the record
  /// limit and the time cut. The batch is time-sorted, so the cut is
  /// checked against its last record and searched for only when it
  /// falls inside the batch; the first out-of-range record ends the
  /// stream.
  std::size_t next_batch(AccessRecord* out, std::size_t max) override;
  /// Spans pass through when the inner source supports them.
  bool supports_spans() const noexcept override {
    return inner_->supports_spans();
  }
  /// Borrows the inner span and trims it to the record/time limits
  /// (identical cut-off to next_batch(); the trim is a partition_point
  /// on the time-sorted span, not a copy). Passes the inner source's
  /// lanes through for untrimmed spans; a trimmed span drops them (its
  /// lanes would reference records past the cut).
  std::size_t span_lanes(const AccessRecord** data, const BankLaneView** lanes,
                         std::size_t* lane_banks) override;

 private:
  std::unique_ptr<TraceSource> inner_;
  std::uint64_t remaining_;
  std::uint64_t end_ps_;
};

/// Drains a source into a vector (testing / trace capture helper).
std::vector<AccessRecord> drain(TraceSource& source, std::size_t max_records = ~0ull);

}  // namespace tvp::trace
