#include "tvp/trace/synthetic.hpp"

#include <cmath>
#include <stdexcept>

namespace tvp::trace {

const char* to_string(AccessProfile profile) noexcept {
  switch (profile) {
    case AccessProfile::kStreaming: return "streaming";
    case AccessProfile::kStrided: return "strided";
    case AccessProfile::kRandom: return "random";
    case AccessProfile::kHotspot: return "hotspot";
    case AccessProfile::kPointerChase: return "pointer-chase";
  }
  return "?";
}

SyntheticSource::SyntheticSource(SyntheticConfig config, util::Rng rng)
    : cfg_(config), rng_(rng), now_ps_(static_cast<double>(config.start_ps)) {
  if (cfg_.banks == 0 || cfg_.rows_per_bank == 0)
    throw std::invalid_argument("SyntheticSource: zero banks or rows");
  if (!(cfg_.mean_interarrival_ps > 0.0) ||
      !std::isfinite(cfg_.mean_interarrival_ps))
    throw std::invalid_argument(
        "SyntheticSource: interarrival must be positive and finite");
  if (cfg_.profile == AccessProfile::kHotspot) {
    hot_rows_.reserve(cfg_.hotspot_rows);
    for (std::uint32_t i = 0; i < cfg_.hotspot_rows; ++i)
      hot_rows_.push_back(static_cast<dram::RowId>(rng_.below(cfg_.rows_per_bank)));
  }
  cursor_ = static_cast<dram::RowId>(rng_.below(cfg_.rows_per_bank));
}

template <AccessProfile P>
void SyntheticSource::generate(AccessRecord* out, std::size_t n) {
  util::Rng rng = rng_;
  double now = now_ps_;
  dram::RowId cursor = cursor_;
  std::uint32_t bank = bank_cursor_;
  const double mean = cfg_.mean_interarrival_ps;
  const dram::RowId rows = cfg_.rows_per_bank;
  const std::uint32_t banks = cfg_.banks;
  const double write_fraction = cfg_.write_fraction;
  const SourceId source = cfg_.source_id;
  const dram::RowId* hot = hot_rows_.data();
  const std::size_t hot_count = hot_rows_.size();

  for (std::size_t i = 0; i < n; ++i) {
    now += rng.exponential(mean);
    dram::RowId row = 0;
    if constexpr (P == AccessProfile::kStreaming) {
      if (++cursor == rows) cursor = 0;
      row = cursor;
    } else if constexpr (P == AccessProfile::kStrided) {
      cursor = (cursor + cfg_.stride) % rows;
      row = cursor;
    } else if constexpr (P == AccessProfile::kRandom) {
      row = static_cast<dram::RowId>(rng.below(rows));
    } else if constexpr (P == AccessProfile::kHotspot) {
      if (hot_count != 0 && rng.bernoulli(cfg_.hotspot_bias))
        row = hot[rng.below(hot_count)];
      else
        row = static_cast<dram::RowId>(rng.below(rows));
    } else {
      // Pointer chase: random walk of up to +/- chase_jump rows, wrapped
      // into the bank (the division only runs when the walk wraps).
      const auto jump = static_cast<std::int64_t>(
                            rng.below(2ull * cfg_.chase_jump + 1)) -
                        static_cast<std::int64_t>(cfg_.chase_jump);
      auto pos = static_cast<std::int64_t>(cursor) + jump;
      const auto span = static_cast<std::int64_t>(rows);
      if (pos < 0 || pos >= span) pos = ((pos % span) + span) % span;
      cursor = static_cast<dram::RowId>(pos);
      row = cursor;
    }
    // Round-robin with a random skip of 1..3 keeps banks evenly loaded
    // without a lockstep pattern; bank < banks + 3 before the wrap, so
    // subtraction replaces the modulo.
    bank += 1 + static_cast<std::uint32_t>(rng.below(3));
    while (bank >= banks) bank -= banks;

    AccessRecord& rec = out[i];
    rec.time_ps = static_cast<std::uint64_t>(now);
    rec.bank = bank;
    rec.row = row;
    rec.write = rng.bernoulli(write_fraction);
    rec.is_attack = false;
    rec.source = source;
  }

  rng_ = rng;
  now_ps_ = now;
  cursor_ = cursor;
  bank_cursor_ = bank;
}

std::size_t SyntheticSource::next_batch(AccessRecord* out, std::size_t max) {
  switch (cfg_.profile) {
    case AccessProfile::kStreaming:
      generate<AccessProfile::kStreaming>(out, max);
      break;
    case AccessProfile::kStrided:
      generate<AccessProfile::kStrided>(out, max);
      break;
    case AccessProfile::kRandom:
      generate<AccessProfile::kRandom>(out, max);
      break;
    case AccessProfile::kHotspot:
      generate<AccessProfile::kHotspot>(out, max);
      break;
    case AccessProfile::kPointerChase:
      generate<AccessProfile::kPointerChase>(out, max);
      break;
  }
  return max;
}

std::vector<SyntheticConfig> mixed_workload(std::uint32_t banks,
                                            dram::RowId rows_per_bank,
                                            std::uint64_t t_refi_ps,
                                            double target_acts_per_interval_per_bank) {
  if (target_acts_per_interval_per_bank <= 0.0)
    throw std::invalid_argument("mixed_workload: non-positive target rate");
  // Four application streams (one per core of Table I). Shares model a
  // memory-intensive SPEC mix, which is strongly row-reuse dominated:
  // most DRAM activations revisit a small working set of rows (the
  // property the 32-entry history table exploits; see the A1 ablation).
  struct Slice {
    AccessProfile profile;
    double share;
  };
  const Slice slices[] = {
      {AccessProfile::kHotspot, 0.96},
      {AccessProfile::kPointerChase, 0.02},
      {AccessProfile::kStreaming, 0.015},
      {AccessProfile::kRandom, 0.005},
  };
  const double total_rate_per_ps =
      target_acts_per_interval_per_bank * static_cast<double>(banks) /
      static_cast<double>(t_refi_ps);

  std::vector<SyntheticConfig> configs;
  SourceId id = 0;
  for (const auto& s : slices) {
    SyntheticConfig c;
    c.profile = s.profile;
    c.banks = banks;
    c.rows_per_bank = rows_per_bank;
    c.mean_interarrival_ps = 1.0 / (total_rate_per_ps * s.share);
    c.source_id = id++;
    // Row-reuse calibration: the hot working set must fit the history
    // table (paper: 32 entries was "the best optimization" for the
    // simulated traces), and the pointer-chaser drifts slowly.
    c.hotspot_rows = 8;
    c.hotspot_bias = 0.98;
    c.chase_jump = 4;
    configs.push_back(c);
  }
  return configs;
}

}  // namespace tvp::trace
