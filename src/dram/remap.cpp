#include "tvp/dram/remap.hpp"

#include <stdexcept>

namespace tvp::dram {

RowRemapper::RowRemapper(RowId rows_per_bank) : rows_(rows_per_bank) {
  if (rows_ == 0) throw std::invalid_argument("RowRemapper: zero rows");
}

RowRemapper::RowRemapper(RowId rows_per_bank, std::size_t swaps, util::Rng& rng)
    : RowRemapper(rows_per_bank) {
  for (std::size_t i = 0; i < swaps; ++i) {
    const auto a = static_cast<RowId>(rng.below(rows_));
    const auto b = static_cast<RowId>(rng.below(rows_));
    if (a == b) continue;
    // Skip rows already involved in a swap; keeps the map a clean set of
    // disjoint transpositions.
    if (to_physical_.count(a) || to_physical_.count(b)) continue;
    add_swap(a, b);
  }
}

void RowRemapper::add_swap(RowId a, RowId b) {
  to_physical_[a] = b;
  to_physical_[b] = a;
  to_logical_[b] = a;
  to_logical_[a] = b;
}

RowId RowRemapper::lookup(RowId logical) const noexcept {
  const auto it = to_physical_.find(logical);
  return it == to_physical_.end() ? logical : it->second;
}

RowId RowRemapper::to_logical(RowId physical) const noexcept {
  const auto it = to_logical_.find(physical);
  return it == to_logical_.end() ? physical : it->second;
}

std::size_t RowRemapper::physical_neighbors(RowId physical, RowId out[2]) const noexcept {
  std::size_t n = 0;
  if (physical > 0) out[n++] = physical - 1;
  if (physical + 1 < rows_) out[n++] = physical + 1;
  return n;
}

}  // namespace tvp::dram
