#include "tvp/mem/controller.hpp"

#include <time.h>

#include <algorithm>
#include <stdexcept>

namespace tvp::mem {

namespace {
std::uint64_t monotonic_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}
}  // namespace

MemoryController::MemoryController(ControllerConfig config, MitigationEngine& engine,
                                   dram::DisturbanceModel& disturbance,
                                   util::Rng& rng)
    : cfg_(config),
      timing_(config.timing),
      engine_(engine),
      disturbance_(disturbance),
      remapper_(config.remap_rows
                    ? dram::RowRemapper(config.geometry.rows_per_bank,
                                        config.remap_swaps, rng)
                    : dram::RowRemapper(config.geometry.rows_per_bank)),
      scheduler_(config.geometry.rows_per_bank, config.timing.refresh_intervals,
                 config.refresh_policy, rng, config.remap_swaps) {
  cfg_.geometry.validate();
  timing_.validate();
  if (engine_.banks() != cfg_.geometry.total_banks())
    throw std::invalid_argument(
        "MemoryController: engine bank count does not match geometry");
  if (disturbance_.banks() != cfg_.geometry.total_banks() ||
      disturbance_.rows_per_bank() != cfg_.geometry.rows_per_bank)
    throw std::invalid_argument(
        "MemoryController: disturbance model shape mismatch");
  interval_acts_.assign(cfg_.geometry.total_banks(), 0);
  next_refresh_ps_ = timing_.t_refi_ps();

  const std::uint32_t banks = cfg_.geometry.total_banks();
  shards_ = std::vector<BankShard>(banks);
  lane_ptrs_.reserve(banks);
  for (std::uint32_t b = 0; b < banks; ++b) {
    shards_[b].lane = disturbance_.lane(b);
    lane_ptrs_.push_back(&shards_[b].lane);
  }
  std::size_t jobs = cfg_.bank_jobs == 0 ? util::job_count() : cfg_.bank_jobs;
  jobs = std::min<std::size_t>(jobs, banks);
  if (jobs > 1) pool_ = std::make_unique<util::WorkerPool>(jobs);
}

void MemoryController::check_order(std::uint64_t time_ps) const {
  if (time_ps < now_ps_)
    throw std::invalid_argument(
        "MemoryController: records must be time-ordered");
}

void MemoryController::process_refresh_boundaries(std::uint64_t up_to_ps) {
  while (next_refresh_ps_ <= up_to_ps) {
    refresh_interval_tick();
    next_refresh_ps_ += timing_.t_refi_ps();
  }
}

// Inlined into both callers: the per-ACT walk keeps the kernel, the
// bank clock and the tally in registers only while their addresses do
// not escape into a call.
[[gnu::always_inline]] inline void MemoryController::issue(
    dram::BankId bank, const MitigationAction& act,
    dram::DisturbanceModel::Kernel& kernel, std::uint32_t interval,
    std::uint32_t serial, std::uint32_t& offset, std::uint64_t& ready_ps,
    Tally& tally) const {
  ++tally.triggers;
  if (tally.first_trigger == kNoTrigger) tally.first_trigger = serial;
  std::uint32_t cost = 0;
  switch (act.kind) {
    case MitigationAction::Kind::kActNeighbors: {
      const dram::RowId physical = remapper_.to_physical(act.row);
      const auto rows = static_cast<std::int64_t>(cfg_.geometry.rows_per_bank);
      const auto radius = static_cast<std::int64_t>(cfg_.act_n_radius);
      for (std::int64_t d = -radius; d <= radius; ++d) {
        const std::int64_t neighbor = static_cast<std::int64_t>(physical) + d;
        if (d == 0 || neighbor < 0 || neighbor >= rows) continue;
        ready_ps += timing_.t_rc_ps;
        kernel.activate(static_cast<dram::RowId>(neighbor), interval, serial,
                        offset++);
        ++cost;
      }
      break;
    }
    case MitigationAction::Kind::kActRow: {
      ready_ps += timing_.t_rc_ps;
      kernel.activate(remapper_.to_physical(act.row), interval, serial,
                      offset++);
      cost = 1;
      break;
    }
  }
  tally.extra += cost;
  if (oracle_ && !oracle_(bank, act.suspect)) tally.fp_extra += cost;
}

void MemoryController::refresh_interval_tick() {
  const std::uint64_t boundary_ps = next_refresh_ps_;
  ++global_interval_;
  ++stats_.refresh_intervals;
  const auto interval = interval_in_window();

  MitigationContext ctx;
  ctx.interval_in_window = interval;
  ctx.global_interval = global_interval_;
  ctx.window_start = interval == 0;

  // All banks refresh the same row slot in lockstep (all-bank REF).
  const dram::RefreshRows rows = scheduler_.rows_in_interval(interval);

  // The REF's actions form a region of their own: serial tag b is bank
  // b's actions, which have no demand ACT before them.
  const std::uint32_t banks = engine_.banks();
  bool issued = false;
  for (dram::BankId b = 0; b < banks; ++b) {
    stats_.acts_per_interval.add(static_cast<double>(interval_acts_[b]));
    interval_acts_[b] = 0;

    BankShard& s = shards_[b];
    s.ready_ps = std::max(s.ready_ps, boundary_ps + timing_.t_rfc_ps);

    for (const auto row : rows) {
      disturbance_.on_refresh_row(b, row);
      ++stats_.rows_refreshed;
    }

    const ActionBuffer& actions = engine_.on_refresh(b, ctx);
    if (actions.empty()) continue;
    dram::DisturbanceModel::Kernel kernel = s.lane.kernel();
    std::uint32_t offset = 0;
    for (const MitigationAction& act : actions)
      issue(b, act, kernel, interval, b, offset, s.ready_ps, s.tally);
    s.extras.emplace_back(b, offset);
    s.lane.fold(kernel);
    issued = true;
  }
  if (issued) commit_region(banks, false, interval);
}

void MemoryController::on_records(const trace::AccessRecord* records,
                                  std::size_t count) {
  const std::uint32_t banks = engine_.banks();
  // Address validation up-front; the valid prefix is still walked
  // before the throw.
  std::size_t valid = count;
  const char* bad = nullptr;
  for (std::size_t j = 0; j < count; ++j) {
    if (records[j].bank >= banks) {
      bad = "MemoryController: bank out of range";
    } else if (records[j].row >= cfg_.geometry.rows_per_bank) {
      bad = "MemoryController: row out of range";
    } else {
      continue;
    }
    valid = j;
    break;
  }
  walk(records, valid, true);
  if (bad) {
    // The bad record still orders and advances time, as it would
    // have fed record-at-a-time, before the throw.
    check_order(records[valid].time_ps);
    advance_to(records[valid].time_ps);
    throw std::out_of_range(bad);
  }
}

void MemoryController::scatter(const trace::AccessRecord* records,
                               std::size_t begin, std::size_t end) {
  const std::uint32_t banks = engine_.banks();
  const bool timed = cfg_.profile;
  const std::uint64_t t0 = timed ? monotonic_ns() : 0;
  for (std::uint32_t b = 0; b < banks; ++b) {
    BankShard& s = shards_[b];
    s.serials.clear();
    s.rows.clear();
    s.times.clear();
    s.write_col.clear();
  }
  for (std::size_t j = begin; j < end; ++j) {
    BankShard& s = shards_[records[j].bank];
    s.serials.push_back(static_cast<std::uint32_t>(j));
    s.rows.push_back(records[j].row);
    s.times.push_back(records[j].time_ps);
    s.write_col.push_back(records[j].write ? 1 : 0);
  }
  for (std::uint32_t b = 0; b < banks; ++b) {
    BankShard& s = shards_[b];
    s.view = trace::BankLaneView{s.rows.data(), s.times.data(),
                                 s.serials.data(), s.write_col.data(),
                                 s.serials.size(), 0};
    s.cursor = 0;
  }
  profile_.scattered_acts += end - begin;
  if (timed) profile_.partition_ns += monotonic_ns() - t0;
}

void MemoryController::on_records_partitioned(
    const trace::AccessRecord* records, std::size_t count,
    const trace::BankLaneView* lanes, std::size_t lane_banks) {
  const std::uint32_t banks = engine_.banks();
  bool usable = lanes != nullptr && lane_banks == banks;
  // A whole-span range check per lane (O(banks), not O(records)): a
  // lane row out of range means on_records' throw-after-valid-prefix
  // semantics must apply, so fall back entirely.
  for (std::size_t b = 0; usable && b < lane_banks; ++b)
    usable = lanes[b].count == 0 || lanes[b].max_row < cfg_.geometry.rows_per_bank;
  if (!usable) {
    on_records(records, count);
    return;
  }
  for (std::uint32_t b = 0; b < banks; ++b) {
    shards_[b].view = lanes[b];
    shards_[b].cursor = 0;
  }
  walk(records, count, false);
}

void MemoryController::walk(const trace::AccessRecord* records,
                            std::size_t count, bool scatter_segments) {
  const std::uint32_t banks = engine_.banks();
  std::size_t i = 0;
  while (i < count) {
    check_order(records[i].time_ps);
    process_refresh_boundaries(records[i].time_ps);
    // A refresh segment: the maximal time-ordered run strictly before
    // the next refresh boundary (the mitigation context is constant
    // inside it). An out-of-order record ends the segment and is
    // rejected by the check above on the next pass, after the valid
    // prefix has been processed.
    std::size_t end = i + 1;
    while (end < count && records[end].time_ps >= records[end - 1].time_ps &&
           records[end].time_ps < next_refresh_ps_)
      ++end;

    if (scatter_segments)
      scatter(records, i, end);
    else
      profile_.partitioned_acts += end - i;
    now_ps_ = records[end - 1].time_ps;
    MitigationContext ctx;
    ctx.interval_in_window = interval_in_window();
    ctx.global_interval = global_interval_;
    ctx.window_start = false;
    if (pool_) {
      pool_->run(banks, [&](std::size_t b) {
        run_bank_shard(static_cast<dram::BankId>(b), ctx, i, end);
      });
    } else {
      for (std::uint32_t b = 0; b < banks; ++b) run_bank_shard(b, ctx, i, end);
    }
    commit_region(end - i, true, ctx.interval_in_window);
    i = end;
  }
}

void MemoryController::commit_region(std::size_t serials, bool demand,
                                     std::uint32_t interval) {
  const std::uint32_t banks = engine_.banks();
  const bool timed = cfg_.profile;
  const std::uint64_t t0 = timed ? monotonic_ns() : 0;

  // Fold shard tallies into the shared counters in bank order. Every
  // sum is independent of which thread produced it, and the
  // order-dependent aggregates (first_extra_act_at, flip events) are
  // reconstructed from the serial tags, so the result is bit-identical
  // to serial execution for any bank_jobs.
  const std::uint64_t demand_before = stats_.demand_acts;
  const std::size_t phase_bin =
      interval * ControllerStats::kPhaseBins / timing_.refresh_intervals;
  std::uint64_t first_serial = kNoTrigger;
  bool any_flips = false;
  for (std::uint32_t b = 0; b < banks; ++b) {
    BankShard& s = shards_[b];
    const Tally& t = s.tally;
    const std::uint64_t acts = t.reads + t.writes;
    stats_.demand_acts += acts;
    stats_.reads += t.reads;
    stats_.writes += t.writes;
    stats_.delayed_acts += t.delayed;
    stats_.triggers += t.triggers;
    stats_.extra_acts += t.extra;
    stats_.fp_extra_acts += t.fp_extra;
    stats_.extra_acts_by_phase[phase_bin] += t.extra;
    interval_acts_[b] += static_cast<std::uint32_t>(acts);
    first_serial = std::min(first_serial, t.first_trigger);
    any_flips = any_flips || s.lane.has_pending_flips();
    s.tally = Tally{};
    if (timed) {
      profile_.technique_ns += s.technique_ns;
      profile_.replay_ns += s.replay_ns;
      s.technique_ns = s.replay_ns = 0;
    }
  }
  // The demand count the record-at-a-time feed had reached at the first
  // trigger: its own record included, inside a segment.
  if (stats_.first_extra_act_at == 0 && first_serial != kNoTrigger)
    stats_.first_extra_act_at = std::max<std::uint64_t>(
        demand_before + (demand ? first_serial + 1 : 0), 1);

  const std::uint64_t* prefix = nullptr;
  if (any_flips) {
    // Per-serial activation totals (the demand ACT, plus the sparse
    // extras from the shards), then prefix-summed: prefix[j] =
    // activations performed by serials < j.
    act_prefix_.assign(serials, demand ? 1 : 0);
    for (std::uint32_t b = 0; b < banks; ++b)
      for (const auto& [serial, acts] : shards_[b].extras)
        act_prefix_[serial] += acts;
    std::uint64_t running = 0;
    for (std::size_t j = 0; j < serials; ++j) {
      const std::uint64_t t = act_prefix_[j];
      act_prefix_[j] = running;
      running += t;
    }
    prefix = act_prefix_.data();
  }
  for (std::uint32_t b = 0; b < banks; ++b) shards_[b].extras.clear();
  disturbance_.commit_lanes(lane_ptrs_.data(), lane_ptrs_.size(), prefix);
  if (timed) profile_.disturbance_ns += monotonic_ns() - t0;
}

void MemoryController::run_bank_shard(dram::BankId bank,
                                      const MitigationContext& ctx,
                                      std::size_t begin, std::size_t end) {
  BankShard& s = shards_[bank];
  // The bank's slice of the segment: its lane serials ascend, so it is
  // the run from the cursor while they stay below `end`.
  const trace::BankLaneView& v = s.view;
  const std::size_t first = s.cursor;
  std::size_t last = first;
  while (last < v.count && v.serials[last] < end) ++last;
  s.cursor = last;
  const std::size_t n = last - first;
  if (n == 0) return;

  const bool timed = cfg_.profile;
  const std::uint64_t t0 = timed ? monotonic_ns() : 0;
  const ActionBuffer& actions = engine_.on_activates(bank, v.rows + first, n, ctx);
  const std::uint64_t t1 = timed ? monotonic_ns() : 0;
  const MitigationAction* act = actions.begin();
  const MitigationAction* const act_end = actions.end();

  // Everything the per-ACT loop reads or accumulates lives in locals
  // (the disturbance kernel and the tally included): the kernel's count
  // stores are uint64_t and would otherwise force every shard counter
  // and lane pointer to be reloaded and re-stored through memory per
  // ACT.
  const dram::RowId* const lane_rows = v.rows + first;
  const std::uint64_t* const lane_times = v.times + first;
  const std::uint32_t* const lane_serials = v.serials + first;
  const std::uint8_t* const lane_writes = v.writes + first;
  const auto serial_base = static_cast<std::uint32_t>(begin);
  const std::uint32_t interval = ctx.interval_in_window;
  const std::uint64_t t_rc = timing_.t_rc_ps;
  dram::DisturbanceModel::Kernel kernel = s.lane.kernel();
  std::uint64_t ready = s.ready_ps;
  Tally tally;

  for (std::size_t k = 0; k < n; ++k) {
    const std::uint32_t serial = lane_serials[k] - serial_base;
    const std::uint64_t t = lane_times[k];
    if (ready > t) ++tally.delayed;
    ready = std::max(ready, t) + t_rc;
    tally.writes += lane_writes[k] != 0;
    kernel.activate(remapper_.to_physical(lane_rows[k]), interval, serial, 0);

    std::uint32_t offset = 1;  // the demand ACT was offset 0
    for (; act != act_end && act->origin == k; ++act)
      issue(bank, *act, kernel, interval, serial, offset, ready, tally);
    if (offset != 1) s.extras.emplace_back(serial, offset - 1);
  }

  tally.reads = n - tally.writes;
  s.lane.fold(kernel);
  s.ready_ps = ready;
  s.tally = tally;
  if (timed) {
    s.technique_ns += t1 - t0;
    s.replay_ns += monotonic_ns() - t1;
  }
}

void MemoryController::advance_to(std::uint64_t time_ps) {
  process_refresh_boundaries(time_ps);
  now_ps_ = std::max(now_ps_, time_ps);
}

}  // namespace tvp::mem
