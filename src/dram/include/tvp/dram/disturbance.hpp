// Row-Hammer disturbance model.
//
// Tracks, for every physical row, the number of neighbour activations
// accumulated since the row's charge was last restored (by its own ACT,
// by a refresh, or by a mitigation-issued activate-neighbours command).
// When the accumulated disturbance reaches the flip threshold (139 K
// activations per [12], Table I), a bit-flip event is recorded. This is
// the ground truth against which all nine mitigation techniques are
// judged: a technique "fails" iff a flip event occurs.
#pragma once

#include <cstdint>
#include <vector>

#include "tvp/dram/geometry.hpp"

namespace tvp::dram {

/// Parameters of the physical disturbance process.
struct DisturbanceParams {
  /// Combined aggressor activations that flip a victim (Table I: 139 K).
  std::uint32_t flip_threshold = 139'000;
  /// How many rows on each side of an activated row are disturbed.
  /// 1 reproduces the paper's model; 2 enables the half-double-style
  /// extension study (disturbance at distance 2 is attenuated).
  std::uint32_t blast_radius = 1;
  /// Disturbance contributed to rows at distance 2 (per activation),
  /// expressed in 1/256 units. Only used when blast_radius == 2.
  std::uint32_t distance2_weight_q8 = 16;  // 1/16 of a distance-1 hit
  /// Cell-strength variation (extension): per-row thresholds drawn
  /// uniformly from [flip_threshold * (1 - v), flip_threshold * (1 + v)]
  /// where v = variation_pct / 100. Real DRAM has weak rows; defences
  /// tuned to the nominal threshold must survive the weak tail. 0
  /// reproduces the paper's uniform model.
  std::uint32_t variation_pct = 0;
  /// Seed for the (device-fixed) per-row threshold draw.
  std::uint64_t variation_seed = 0x5EED;
};

/// One recorded bit flip.
struct FlipEvent {
  BankId bank = 0;
  RowId row = 0;         // physical row that flipped
  std::uint64_t at_activation = 0;  // global activation count when it flipped
  std::uint32_t interval = 0;       // refresh interval index when it flipped
};

/// Exact per-row disturbance bookkeeping for one memory system.
///
/// All row indices are *physical*. Activations must be reported through
/// on_activate(); refreshes through on_refresh_row(). The model never
/// throttles or mitigates — it only observes.
class DisturbanceModel {
 public:
  DisturbanceModel(std::uint32_t banks, RowId rows_per_bank,
                   DisturbanceParams params = {});

  const DisturbanceParams& params() const noexcept { return params_; }
  std::uint32_t banks() const noexcept { return banks_; }
  RowId rows_per_bank() const noexcept { return rows_; }

  /// Reports an activation of @p row in @p bank: restores the row's own
  /// charge (its count drops to 0 and its flip latch re-arms), then adds
  /// 256 to each row at distance 1 and distance2_weight_q8 to each row
  /// at distance 2 (blast_radius 2 only), in the order row-1, row+1,
  /// row-2, row+2, skipping rows outside the bank. A neighbour whose
  /// count reaches 256 * its threshold while unlatched latches and
  /// records a FlipEvent with at_activation = activations() after this
  /// call. @p interval is the current refresh interval (for flip
  /// reporting).
  void on_activate(BankId bank, RowId row, std::uint32_t interval);

  /// Reports a refresh of @p row (count 0 and latch re-armed, no
  /// disturbance).
  void on_refresh_row(BankId bank, RowId row);

  /// Accumulated disturbance (in 1/256 units of a distance-1 hit) of a
  /// row; mostly for tests and diagnostics.
  std::uint64_t disturbance_q8(BankId bank, RowId row) const;

  /// Total activations observed so far.
  std::uint64_t activations() const noexcept { return activations_; }

  /// All flips recorded so far (at most one per row per charge period).
  const std::vector<FlipEvent>& flips() const noexcept { return flips_; }
  bool any_flip() const noexcept { return !flips_.empty(); }

  /// Highest disturbance (q8) any row has reached so far — how close
  /// the system came to a flip. Restores do not lower it.
  std::uint64_t peak_disturbance_q8() const noexcept { return peak_q8_; }

  /// This row's flip threshold in activations (varies per row when
  /// variation_pct > 0; the draw is fixed per device/seed).
  std::uint32_t threshold_of(BankId bank, RowId row) const;

  /// Clears counters and flip history (new experiment).
  void reset();

  /// Bit 63 of a row's count word latches "this row has flipped in its
  /// current charge period"; bits 0..62 hold the q8 disturbance. A
  /// restore (own ACT, REF, act_n) zeroes the whole word, re-arming the
  /// latch. Counts cannot reach 2^63: that takes 2^55 activations.
  static constexpr std::uint64_t kFlipLatch = std::uint64_t{1} << 63;

  /// A flip seen by a Kernel, tagged with its position in the serial
  /// activation order (see Lane); commit_lanes turns it into a FlipEvent.
  struct PendingFlip {
    RowId row = 0;
    std::uint32_t interval = 0;
    std::uint32_t serial = 0;
    std::uint32_t offset = 0;
  };

  /// The one disturbance body: a by-value view of one bank's rows for a
  /// hot loop. It holds raw pointers to the bank's slice of the count
  /// (and threshold) arrays and keeps the running activation count and
  /// peak as its own members. Held in a local that never escapes, those
  /// members live in registers: the uint64_t count stores cannot alias
  /// them, as they could alias fields reached through a model or lane
  /// pointer. Flips leave through a cold out-of-line push. Obtained from
  /// Lane::kernel() and handed back through Lane::fold() when the loop
  /// ends.
  class Kernel {
   public:
    /// Reports an activation of @p row: restores the row's own charge
    /// and disturbs its neighbours. (@p serial, @p offset) tag any flip
    /// it causes; see Lane.
    void activate(RowId row, std::uint32_t interval, std::uint32_t serial,
                  std::uint32_t offset);

   private:
    friend class DisturbanceModel;
    void disturb(RowId row, std::uint64_t amount_q8, std::uint32_t interval,
                 std::uint32_t serial, std::uint32_t offset);
    [[gnu::cold]] static void push_flip(std::vector<PendingFlip>* out,
                                        PendingFlip flip);

    std::uint64_t* counts_ = nullptr;            // this bank's row words
    const std::uint32_t* thresholds_ = nullptr;  // this bank's; null = uniform
    std::uint64_t threshold_q8_ = 0;             // uniform threshold
    std::uint64_t distance2_q8_ = 0;             // 0 unless blast_radius 2
    RowId rows_ = 0;
    std::uint64_t activations_ = 0;
    std::uint64_t peak_q8_ = 0;
    std::vector<PendingFlip>* pending_ = nullptr;
  };

  /// A per-bank shard of the model for one region (a refresh segment,
  /// or a single serial activation).
  ///
  /// Per-row charge state (the count words) is naturally disjoint per
  /// bank, so a Lane's kernels mutate it directly; the *shared* members
  /// (activations_, peak_q8_, flips_) are accumulated lane-locally and
  /// folded back by commit_lanes() in a way that is bit-identical to
  /// serial execution. Each activation is tagged with its position in
  /// the serial order — (serial, offset) where `serial` is the record's
  /// index within the region and `offset` numbers the activations that
  /// record performs (0 = the demand ACT, 1.. = mitigation extras in
  /// issue order) — so commit_lanes can re-sequence flip events and
  /// reconstruct their exact at_activation values via a prefix sum of
  /// per-record activation totals.
  ///
  /// Lanes of distinct banks may run on different threads; a Lane itself
  /// is not thread-safe. A Lane is bound to (model, bank) once and
  /// reused across regions; commit_lanes resets it for the next region.
  class Lane {
   public:
    Lane() = default;

    /// A kernel over the lane's bank whose flips land in this lane. At
    /// most one live kernel per lane; fold() it back before commit.
    Kernel kernel() noexcept;
    /// Adds a kernel's activations and peak to the lane.
    void fold(const Kernel& kernel) noexcept;

    bool has_pending_flips() const noexcept { return !pending_.empty(); }

   private:
    friend class DisturbanceModel;
    DisturbanceModel* model_ = nullptr;
    BankId bank_ = 0;
    std::uint64_t activations_ = 0;
    std::uint64_t peak_q8_ = 0;
    std::vector<PendingFlip> pending_;
  };

  /// Binds a lane to @p bank. At most one live lane per bank; the lane
  /// must not outlive the model.
  Lane lane(BankId bank);

  /// Folds a region's lanes back into the model (serial; call after the
  /// parallel region joins). @p prefix re-sequences flips: prefix[j] is
  /// the number of activations performed by all records with serial
  /// index < j in the region (across every lane), so a flip tagged
  /// (serial, offset) happened at global activation
  /// activations() + prefix[serial] + offset + 1. @p prefix may be null
  /// when no lane has pending flips. Lanes are reset for reuse.
  void commit_lanes(Lane* const* lanes, std::size_t n_lanes,
                    const std::uint64_t* prefix);

 private:
  std::uint32_t banks_;
  RowId rows_;
  DisturbanceParams params_;
  std::vector<std::uint64_t> counts_;  // q8 disturbance | kFlipLatch per (bank, row)
  std::vector<std::uint32_t> thresholds_;  // per (bank, row); empty = uniform
  std::vector<FlipEvent> flips_;
  std::uint64_t activations_ = 0;
  std::uint64_t peak_q8_ = 0;
};

// The kernel is defined inline: it runs once per demand or mitigation
// ACT (10^8+ calls per campaign) and the body is a few loads and
// compares — an out-of-line call would rival the work.

inline void DisturbanceModel::Kernel::disturb(RowId row,
                                              std::uint64_t amount_q8,
                                              std::uint32_t interval,
                                              std::uint32_t serial,
                                              std::uint32_t offset) {
  const std::uint64_t c = counts_[row] + amount_q8;
  counts_[row] = c;
  const std::uint64_t q8 = c & ~kFlipLatch;
  if (q8 > peak_q8_) peak_q8_ = q8;
  const std::uint64_t threshold_q8 =
      thresholds_ ? std::uint64_t{thresholds_[row]} << 8 : threshold_q8_;
  // A latched word compares >= any threshold, so a flipped row takes
  // this branch again only to find its latch set.
  if (c >= threshold_q8) [[unlikely]] {
    if ((c & kFlipLatch) == 0) {
      counts_[row] = c | kFlipLatch;
      push_flip(pending_, PendingFlip{row, interval, serial, offset});
    }
  }
}

inline void DisturbanceModel::Kernel::activate(RowId row,
                                               std::uint32_t interval,
                                               std::uint32_t serial,
                                               std::uint32_t offset) {
  ++activations_;
  counts_[row] = 0;  // own charge restored; the latch re-arms
  if (row > 0) disturb(row - 1, 256, interval, serial, offset);
  if (row + 1 < rows_) disturb(row + 1, 256, interval, serial, offset);
  if (distance2_q8_ != 0) {
    if (row > 1) disturb(row - 2, distance2_q8_, interval, serial, offset);
    if (row + 2 < rows_)
      disturb(row + 2, distance2_q8_, interval, serial, offset);
  }
}

inline DisturbanceModel::Kernel DisturbanceModel::Lane::kernel() noexcept {
  const std::size_t base = static_cast<std::size_t>(bank_) * model_->rows_;
  Kernel k;
  k.counts_ = model_->counts_.data() + base;
  k.thresholds_ =
      model_->thresholds_.empty() ? nullptr : model_->thresholds_.data() + base;
  k.threshold_q8_ = std::uint64_t{model_->params_.flip_threshold} << 8;
  k.distance2_q8_ = model_->params_.blast_radius >= 2
                        ? model_->params_.distance2_weight_q8
                        : 0;
  k.rows_ = model_->rows_;
  k.pending_ = &pending_;
  return k;
}

inline void DisturbanceModel::Lane::fold(const Kernel& kernel) noexcept {
  activations_ += kernel.activations_;
  if (kernel.peak_q8_ > peak_q8_) peak_q8_ = kernel.peak_q8_;
}

}  // namespace tvp::dram
