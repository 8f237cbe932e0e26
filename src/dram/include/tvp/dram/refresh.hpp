// Refresh scheduling: which rows are refreshed in which refresh interval.
//
// TiVaPRoMi's weight (Eq. 1) assumes refresh interval i refreshes rows
// [i*RowsPI, (i+1)*RowsPI). Section IV checks the technique against
// three alternative device-side orders; this class implements all four:
//   (i)   kNeighborSequential — the assumed order,
//   (ii)  kNeighborRemapped   — sequential with a few spare-row swaps,
//   (iii) kRandom             — a fixed random permutation,
//   (iv)  kCounterMask        — interval counter XOR a constant mask.
#pragma once

#include <cstdint>
#include <vector>

#include "tvp/dram/geometry.hpp"
#include "tvp/dram/remap.hpp"
#include "tvp/util/rng.hpp"

namespace tvp::dram {

enum class RefreshPolicy {
  kNeighborSequential,
  kNeighborRemapped,
  kRandom,
  kCounterMask,
};

const char* to_string(RefreshPolicy policy) noexcept;

/// The physical rows one refresh interval restores, without owning
/// them: a contiguous range [first, first + size) for the arithmetic
/// policies, or a view of the scheduler's precomputed list for the
/// table-driven ones. Valid for the scheduler's lifetime.
class RefreshRows {
 public:
  class iterator {
   public:
    RowId operator*() const noexcept { return list_ ? list_[i_] : i_; }
    iterator& operator++() noexcept {
      ++i_;
      return *this;
    }
    bool operator!=(const iterator& other) const noexcept {
      return i_ != other.i_;
    }

   private:
    friend class RefreshRows;
    iterator(const RowId* list, RowId i) : list_(list), i_(i) {}
    const RowId* list_;  // null: i_ is the row itself
    RowId i_;            // otherwise: index into list_
  };

  /// Contiguous rows [first, first + count).
  static RefreshRows range(RowId first, RowId count) noexcept {
    return RefreshRows(nullptr, first, count);
  }
  /// The @p count rows at @p list.
  static RefreshRows list(const RowId* list, RowId count) noexcept {
    return RefreshRows(list, 0, count);
  }

  std::size_t size() const noexcept { return count_; }
  iterator begin() const noexcept { return iterator(list_, first_); }
  iterator end() const noexcept { return iterator(list_, first_ + count_); }

 private:
  RefreshRows(const RowId* list, RowId first, RowId count)
      : list_(list), first_(first), count_(count) {}
  const RowId* list_;
  RowId first_;
  RowId count_;
};

/// Deterministic per-device refresh order. The order is fixed at
/// construction (real devices hard-wire it); every row is refreshed
/// exactly once per refresh window under every policy.
class RefreshScheduler {
 public:
  /// @param rows_per_bank   number of rows (power of two)
  /// @param refresh_intervals RefInt intervals per window
  /// @param policy          device-side refresh order
  /// @param rng             seeds policies (ii)/(iii)/(iv)
  /// @param remap_swaps     swap count for kNeighborRemapped
  RefreshScheduler(RowId rows_per_bank, std::uint32_t refresh_intervals,
                   RefreshPolicy policy, util::Rng& rng,
                   std::size_t remap_swaps = 16);

  RefreshPolicy policy() const noexcept { return policy_; }
  std::uint32_t refresh_intervals() const noexcept { return intervals_; }
  RowId rows_per_bank() const noexcept { return rows_; }
  /// RowsPI: rows refreshed per interval.
  RowId rows_per_interval() const noexcept { return rows_ / intervals_; }

  /// Physical rows refreshed in interval @p interval (mod RefInt), in
  /// refresh order. Allocation-free; the view stays valid for the
  /// scheduler's lifetime.
  RefreshRows rows_in_interval(std::uint32_t interval) const;

  /// Interval (within the window) in which physical row @p row is
  /// refreshed — the ground truth the device implements.
  std::uint32_t interval_of_row(RowId row) const noexcept;

  /// The controller-side *assumed* mapping f_r = r / RowsPI that the
  /// TiVaPRoMi weight calculation uses regardless of the true policy.
  std::uint32_t assumed_interval_of_row(RowId row) const noexcept {
    return static_cast<std::uint32_t>(row / rows_per_interval());
  }

 private:
  RowId rows_;
  std::uint32_t intervals_;
  RefreshPolicy policy_;
  std::uint32_t mask_ = 0;                 // kCounterMask
  std::vector<std::uint32_t> row_to_interval_;  // kRandom / kNeighborRemapped
  std::vector<std::vector<RowId>> interval_rows_;  // inverse, same policies
};

}  // namespace tvp::dram
