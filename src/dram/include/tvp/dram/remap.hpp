// Logical-to-physical row remapping.
//
// Real DRAM devices replace defective rows with spare rows, so the rows
// a memory controller sees at addresses N-1 / N+1 are not always the
// physical neighbours of row N. The paper calls this out as a weakness
// of ProHit/MRLoc (Section II) and evaluates TiVaPRoMi under a refresh
// policy "(ii) refreshing neighbours but with few replacements".
// RowRemapper models that mechanism: an identity map with a sparse set
// of swapped pairs.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "tvp/dram/geometry.hpp"
#include "tvp/util/rng.hpp"

namespace tvp::dram {

/// Bijective logical->physical row map, identity except for a sparse set
/// of swapped row pairs (a defective row and its spare).
class RowRemapper {
 public:
  /// Identity map over @p rows_per_bank rows.
  explicit RowRemapper(RowId rows_per_bank);

  /// Identity map with @p swaps random logical<->spare swaps drawn from
  /// @p rng. Swap targets are drawn over the whole bank, modelling spare
  /// rows interspersed in the array.
  RowRemapper(RowId rows_per_bank, std::size_t swaps, util::Rng& rng);

  RowId rows_per_bank() const noexcept { return rows_; }
  std::size_t swap_count() const noexcept { return to_physical_.size() / 2; }

  /// Physical row backing logical row @p logical. Inline because it
  /// runs on every demand ACT; the identity map (the common case) costs
  /// one emptiness test instead of a hash lookup.
  RowId to_physical(RowId logical) const noexcept {
    return to_physical_.empty() ? logical : lookup(logical);
  }
  /// Logical address of physical row @p physical.
  RowId to_logical(RowId physical) const noexcept;

  /// True when the map is the identity.
  bool is_identity() const noexcept { return to_physical_.empty(); }

  /// Physical neighbours of a *physical* row (one neighbour at the array
  /// edges). Returns the count written into @p out (0..2).
  std::size_t physical_neighbors(RowId physical, RowId out[2]) const noexcept;

 private:
  void add_swap(RowId a, RowId b);
  RowId lookup(RowId logical) const noexcept;

  RowId rows_;
  std::unordered_map<RowId, RowId> to_physical_;  // sparse; both directions
  std::unordered_map<RowId, RowId> to_logical_;
};

}  // namespace tvp::dram
