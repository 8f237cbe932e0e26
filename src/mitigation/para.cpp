#include "tvp/mitigation/para.hpp"

#include <memory>
#include <stdexcept>

namespace tvp::mitigation {

Para::Para(ParaConfig config, util::Rng rng) : cfg_(config), rng_(rng) {
  if (cfg_.rows_per_bank == 0)
    throw std::invalid_argument("Para: zero rows_per_bank");
}

void Para::on_activates(const dram::RowId* rows, std::size_t n,
                        const mem::MitigationContext&,
                        mem::ActionBuffer& out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (!rng_.bernoulli_q32(cfg_.p.raw())) continue;
    // Pick one side at random; fall back to the other at the array edge.
    const dram::RowId row = rows[i];
    const bool up = (rng_.next() & 1) != 0;
    dram::RowId neighbor;
    if (up && row + 1 < cfg_.rows_per_bank)
      neighbor = row + 1;
    else if (row > 0)
      neighbor = row - 1;
    else
      neighbor = row + 1;
    out.push_back({mem::MitigationAction::Kind::kActRow, neighbor, row,
                   static_cast<std::uint32_t>(i)});
  }
}

mem::BankMitigationFactory make_para_factory(ParaConfig config) {
  return [config](dram::BankId, util::Rng rng) -> std::unique_ptr<mem::IBankMitigation> {
    return std::make_unique<Para>(config, rng);
  };
}

}  // namespace tvp::mitigation
