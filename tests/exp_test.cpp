// Unit tests for tvp::exp — the registry, runner, reporting helpers,
// and the security analysis (flood + verdict).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "tvp/dram/disturbance.hpp"
#include "tvp/exp/config_io.hpp"
#include "tvp/exp/report.hpp"
#include "tvp/exp/registry.hpp"
#include "tvp/exp/runner.hpp"
#include "tvp/exp/sweep.hpp"
#include "tvp/exp/verdict.hpp"
#include "tvp/mem/controller.hpp"
#include "tvp/mitigation/graphene.hpp"
#include "tvp/trace/source.hpp"

namespace tvp::exp {
namespace {

SimConfig fast_config() {
  SimConfig cfg;
  cfg.geometry.banks_per_rank = 2;
  cfg.windows = 1;
  cfg.workload.benign_acts_per_interval_per_bank = 10.0;
  cfg.finalize();
  return cfg;
}

// ----------------------------------------------------------------- registry

TEST(Registry, CreatesAllNineTechniques) {
  const TechniqueConfig cfg;
  util::Rng rng(1);
  for (const auto t : hw::kAllTechniques) {
    const auto factory = make_factory(t, cfg);
    ASSERT_TRUE(factory != nullptr);
    const auto instance = factory(0, rng.fork());
    ASSERT_TRUE(instance != nullptr);
    EXPECT_EQ(std::string_view(instance->name()), hw::to_string(t));
    EXPECT_GE(instance->state_bits(), 0u);
  }
}

TEST(Registry, CounterThresholdIsQuarterOfFlipThreshold) {
  TechniqueConfig cfg;
  EXPECT_EQ(cfg.counter_threshold(), 34750u);
  cfg.flip_threshold = 100'000;
  EXPECT_EQ(cfg.counter_threshold(), 25'000u);
}

// ------------------------------------------------------------------- runner

TEST(Runner, DeterministicForSameSeed) {
  const SimConfig cfg = fast_config();
  const RunResult a = run_simulation(hw::Technique::kLoLiPRoMi, cfg);
  const RunResult b = run_simulation(hw::Technique::kLoLiPRoMi, cfg);
  EXPECT_EQ(a.stats.demand_acts, b.stats.demand_acts);
  EXPECT_EQ(a.stats.extra_acts, b.stats.extra_acts);
  EXPECT_EQ(a.stats.fp_extra_acts, b.stats.fp_extra_acts);
  EXPECT_EQ(a.flips, b.flips);
  EXPECT_EQ(a.records, b.records);
}

// The record-at-a-time semantics of mem::MemoryController, written out
// serially as the reference its lane pipeline is held to. Per record:
// refresh ticks up to the record's time, the tRC/tRFC stall, one serial
// DisturbanceModel::on_activate, one technique call, and the issue of
// every requested action (cost, oracle and phase accounting). The
// production controller partitions segments into per-bank lanes, may
// shard banks across workers and commits disturbance lanes in bulk; the
// equivalence tests below require it to agree with this class bit for
// bit.
class ScalarReferenceController {
 public:
  ScalarReferenceController(const mem::ControllerConfig& config,
                            mem::MitigationEngine& engine,
                            dram::DisturbanceModel& disturbance,
                            util::Rng& rng)
      : cfg_(config),
        engine_(engine),
        disturbance_(disturbance),
        // Same construction order (and so the same RNG draws) as the
        // controller's remapper and refresh scheduler.
        remapper_(config.remap_rows
                      ? dram::RowRemapper(config.geometry.rows_per_bank,
                                          config.remap_swaps, rng)
                      : dram::RowRemapper(config.geometry.rows_per_bank)),
        scheduler_(config.geometry.rows_per_bank,
                   config.timing.refresh_intervals, config.refresh_policy,
                   rng, config.remap_swaps),
        next_refresh_ps_(config.timing.t_refi_ps()),
        bank_ready_ps_(engine.banks(), 0),
        interval_acts_(engine.banks(), 0) {}

  void set_aggressor_oracle(mem::AggressorOracle oracle) {
    oracle_ = std::move(oracle);
  }
  const mem::ControllerStats& stats() const noexcept { return stats_; }

  void on_record(const trace::AccessRecord& record) {
    ASSERT_GE(record.time_ps, now_ps_) << "records must be time-ordered";
    now_ps_ = record.time_ps;
    refresh_up_to(now_ps_);

    const dram::BankId bank = record.bank;
    if (bank_ready_ps_[bank] > now_ps_) ++stats_.delayed_acts;
    bank_ready_ps_[bank] =
        std::max(bank_ready_ps_[bank], now_ps_) + cfg_.timing.t_rc_ps;
    ++stats_.demand_acts;
    ++(record.write ? stats_.writes : stats_.reads);
    ++interval_acts_[bank];

    const std::uint32_t interval = interval_in_window();
    disturbance_.on_activate(bank, remapper_.to_physical(record.row), interval);
    mem::MitigationContext ctx;
    ctx.interval_in_window = interval;
    ctx.global_interval = global_interval_;
    actions_.clear();
    engine_.bank(bank).on_activate(record.row, ctx, actions_);
    issue_actions(bank, interval);
  }

  void advance_to(std::uint64_t time_ps) {
    refresh_up_to(time_ps);
    now_ps_ = std::max(now_ps_, time_ps);
  }

 private:
  std::uint32_t interval_in_window() const noexcept {
    return static_cast<std::uint32_t>(global_interval_ %
                                      cfg_.timing.refresh_intervals);
  }

  // One all-bank REF per tREFI boundary up to @p time_ps.
  void refresh_up_to(std::uint64_t time_ps) {
    while (next_refresh_ps_ <= time_ps) {
      const std::uint64_t boundary_ps = next_refresh_ps_;
      next_refresh_ps_ += cfg_.timing.t_refi_ps();
      ++global_interval_;
      ++stats_.refresh_intervals;
      const std::uint32_t interval = interval_in_window();
      mem::MitigationContext ctx;
      ctx.interval_in_window = interval;
      ctx.global_interval = global_interval_;
      ctx.window_start = interval == 0;
      const dram::RefreshRows rows = scheduler_.rows_in_interval(interval);
      for (dram::BankId b = 0; b < engine_.banks(); ++b) {
        stats_.acts_per_interval.add(static_cast<double>(interval_acts_[b]));
        interval_acts_[b] = 0;
        bank_ready_ps_[b] =
            std::max(bank_ready_ps_[b], boundary_ps + cfg_.timing.t_rfc_ps);
        for (const auto row : rows) {
          disturbance_.on_refresh_row(b, row);
          ++stats_.rows_refreshed;
        }
        actions_.clear();
        engine_.bank(b).on_refresh(ctx, actions_);
        issue_actions(b, interval);
      }
    }
  }

  void activate_physical(dram::BankId bank, dram::RowId row,
                         std::uint32_t interval) {
    bank_ready_ps_[bank] += cfg_.timing.t_rc_ps;
    disturbance_.on_activate(bank, row, interval);
  }

  void issue_actions(dram::BankId bank, std::uint32_t interval) {
    const auto rows = static_cast<std::int64_t>(cfg_.geometry.rows_per_bank);
    const auto radius = static_cast<std::int64_t>(cfg_.act_n_radius);
    for (const auto& action : actions_) {
      ++stats_.triggers;
      if (stats_.first_extra_act_at == 0)
        stats_.first_extra_act_at =
            std::max<std::uint64_t>(stats_.demand_acts, 1);
      std::uint32_t cost = 0;
      if (action.kind == mem::MitigationAction::Kind::kActRow) {
        activate_physical(bank, remapper_.to_physical(action.row), interval);
        cost = 1;
      } else {
        const auto physical =
            static_cast<std::int64_t>(remapper_.to_physical(action.row));
        for (std::int64_t d = -radius; d <= radius; ++d) {
          const std::int64_t neighbor = physical + d;
          if (d == 0 || neighbor < 0 || neighbor >= rows) continue;
          activate_physical(bank, static_cast<dram::RowId>(neighbor),
                            interval);
          ++cost;
        }
      }
      stats_.extra_acts += cost;
      if (oracle_ && !oracle_(bank, action.suspect))
        stats_.fp_extra_acts += cost;
      stats_.extra_acts_by_phase[interval * mem::ControllerStats::kPhaseBins /
                                 cfg_.timing.refresh_intervals] += cost;
    }
  }

  mem::ControllerConfig cfg_;
  mem::MitigationEngine& engine_;
  dram::DisturbanceModel& disturbance_;
  dram::RowRemapper remapper_;
  dram::RefreshScheduler scheduler_;
  mem::AggressorOracle oracle_;
  mem::ControllerStats stats_;
  mem::ActionBuffer actions_;
  std::uint64_t now_ps_ = 0;
  std::uint64_t global_interval_ = 0;
  std::uint64_t next_refresh_ps_;
  std::vector<std::uint64_t> bank_ready_ps_;
  std::vector<std::uint32_t> interval_acts_;
};

/// Everything the batch-equivalence contract pins: the controller
/// counters plus the disturbance model's ground truth.
struct FeedOutcome {
  mem::ControllerStats stats;
  std::vector<dram::FlipEvent> flips;
  std::uint64_t activations = 0;
  std::uint64_t peak_q8 = 0;
};

/// Builds a fresh system for @p cfg and @p factory, with the aggressor
/// oracle wired for FPR accounting when @p aggressors is given and
/// @p bank_jobs shard workers, hands it to
/// @p feed(controller_cfg, engine, disturbance, controller_rng, oracle)
/// — which returns the controller stats — and captures the outcome.
template <class Feed>
FeedOutcome run_outcome(const SimConfig& cfg,
                        const mem::BankMitigationFactory& factory,
                        std::size_t bank_jobs,
                        const std::unordered_set<std::uint64_t>* aggressors,
                        Feed&& feed) {
  util::Rng rng(cfg.seed);
  (void)rng.fork();  // workload stream, unused: records are pre-drained
  util::Rng engine_rng = rng.fork();
  util::Rng controller_rng = rng.fork();
  mem::MitigationEngine engine(cfg.geometry.total_banks(), factory, engine_rng);
  dram::DisturbanceModel disturbance(cfg.geometry.total_banks(),
                                     cfg.geometry.rows_per_bank,
                                     cfg.disturbance);
  mem::ControllerConfig controller_cfg;
  controller_cfg.geometry = cfg.geometry;
  controller_cfg.timing = cfg.timing;
  controller_cfg.refresh_policy = cfg.refresh_policy;
  controller_cfg.bank_jobs = bank_jobs;
  mem::AggressorOracle oracle;
  if (aggressors) {
    oracle = [aggressors](dram::BankId bank, dram::RowId row) {
      return aggressors->count((static_cast<std::uint64_t>(bank) << 32) |
                               row) != 0;
    };
  }
  FeedOutcome out;
  out.stats = feed(controller_cfg, engine, disturbance, controller_rng, oracle);
  out.flips = disturbance.flips();
  out.activations = disturbance.activations();
  out.peak_q8 = disturbance.peak_disturbance_q8();
  return out;
}

/// Feeds @p records through run_outcome. batch == 0 runs the
/// ScalarReferenceController (the baseline); any other batch delivers
/// through the production controller's on_records in chunks of
/// @p batch.
FeedOutcome feed_outcome(const SimConfig& cfg,
                         const mem::BankMitigationFactory& factory,
                         std::size_t batch, std::size_t bank_jobs,
                         const std::unordered_set<std::uint64_t>* aggressors,
                         const std::vector<trace::AccessRecord>& records) {
  return run_outcome(
      cfg, factory, bank_jobs, aggressors,
      [&](const mem::ControllerConfig& controller_cfg,
          mem::MitigationEngine& engine, dram::DisturbanceModel& disturbance,
          util::Rng& controller_rng, const mem::AggressorOracle& oracle) {
        if (batch == 0) {
          ScalarReferenceController reference(controller_cfg, engine,
                                              disturbance, controller_rng);
          reference.set_aggressor_oracle(oracle);
          for (const auto& r : records) reference.on_record(r);
          reference.advance_to(cfg.duration_ps());
          return reference.stats();
        }
        mem::MemoryController controller(controller_cfg, engine, disturbance,
                                         controller_rng);
        controller.set_aggressor_oracle(oracle);
        for (std::size_t i = 0; i < records.size(); i += batch)
          controller.on_records(records.data() + i,
                                std::min(batch, records.size() - i));
        controller.advance_to(cfg.duration_ps());
        return controller.stats();
      });
}

/// Asserts that @p got matches @p base in every pinned field.
void expect_same_outcome(const FeedOutcome& base, const FeedOutcome& got,
                         const std::string& label) {
  EXPECT_EQ(base.stats.demand_acts, got.stats.demand_acts) << label;
  EXPECT_EQ(base.stats.extra_acts, got.stats.extra_acts) << label;
  EXPECT_EQ(base.stats.fp_extra_acts, got.stats.fp_extra_acts) << label;
  EXPECT_EQ(base.stats.triggers, got.stats.triggers) << label;
  EXPECT_EQ(base.stats.reads, got.stats.reads) << label;
  EXPECT_EQ(base.stats.writes, got.stats.writes) << label;
  EXPECT_EQ(base.stats.delayed_acts, got.stats.delayed_acts) << label;
  EXPECT_EQ(base.stats.refresh_intervals, got.stats.refresh_intervals)
      << label;
  EXPECT_EQ(base.stats.rows_refreshed, got.stats.rows_refreshed) << label;
  EXPECT_EQ(base.stats.first_extra_act_at, got.stats.first_extra_act_at)
      << label;
  EXPECT_EQ(base.stats.extra_acts_by_phase, got.stats.extra_acts_by_phase)
      << label;
  EXPECT_EQ(base.stats.acts_per_interval.count(),
            got.stats.acts_per_interval.count())
      << label;
  EXPECT_EQ(base.stats.acts_per_interval.mean(),
            got.stats.acts_per_interval.mean())
      << label;
  EXPECT_EQ(base.stats.acts_per_interval.max(),
            got.stats.acts_per_interval.max())
      << label;
  EXPECT_EQ(base.activations, got.activations) << label;
  EXPECT_EQ(base.peak_q8, got.peak_q8) << label;
  ASSERT_EQ(base.flips.size(), got.flips.size()) << label;
  for (std::size_t f = 0; f < base.flips.size(); ++f) {
    EXPECT_EQ(base.flips[f].bank, got.flips[f].bank) << label;
    EXPECT_EQ(base.flips[f].row, got.flips[f].row) << label;
    EXPECT_EQ(base.flips[f].at_activation, got.flips[f].at_activation)
        << label;
    EXPECT_EQ(base.flips[f].interval, got.flips[f].interval) << label;
  }
}

/// A deliberately tiny system for the equivalence suite. The refresh
/// interval length (tREFI) matches DDR4 so per-interval ACT budgets and
/// *PRoMi weight schedules keep their real shape; thresholds are scaled
/// down so deterministic techniques trigger and real flips land within
/// the short run.
SimConfig tiny_attacked_config() {
  SimConfig cfg;
  cfg.geometry.banks_per_rank = 4;
  cfg.geometry.rows_per_bank = 16384;
  cfg.timing.t_refw_ps = 2'000'000'000;  // 2 ms window
  cfg.timing.refresh_intervals = 256;    // keeps tREFI at ~7.8 us
  cfg.windows = 1;
  cfg.workload.benign_acts_per_interval_per_bank = 5.0;
  cfg.technique.flip_threshold = 4000;   // counter_threshold() == 1000
  cfg.disturbance.flip_threshold = 3000;
  trace::AttackConfig attack;
  attack.victims = {1000, 5000};
  attack.rows_per_bank = cfg.geometry.rows_per_bank;
  attack.interarrival_ps = 180'000;  // 4 * tRC: ~11 K attack ACTs
  cfg.workload.attacks.push_back(attack);
  cfg.finalize();
  return cfg;
}

TEST(Runner, BatchedDeliveryIsBitIdenticalToRecordAtATime) {
  // The batched pull path must produce the same record sequence and the
  // same RNG draw order as record-at-a-time delivery — identical stats
  // and identical flip history, for any batch size.
  SimConfig cfg = fast_config();
  trace::AttackConfig attack;
  attack.victims = {1000, 5000};
  attack.rows_per_bank = cfg.geometry.rows_per_bank;
  cfg.workload.attacks.push_back(attack);
  cfg.finalize();
  util::Rng workload_rng = util::Rng(cfg.seed).fork();
  const auto records = trace::drain(*build_workload(cfg, workload_rng));
  ASSERT_FALSE(records.empty());

  const auto factory = make_factory(hw::Technique::kLoLiPRoMi, cfg.technique);
  const FeedOutcome reference =
      feed_outcome(cfg, factory, 0, 1, nullptr, records);
  for (const std::size_t batch : {1ul, 7ul, 256ul, records.size()})
    expect_same_outcome(
        reference, feed_outcome(cfg, factory, batch, 1, nullptr, records),
        "batch " + std::to_string(batch));
}

TEST(Runner, EveryTechniqueBatchAndShardingAreBitIdentical) {
  // The full batch-equivalence contract: for every technique (the
  // unprotected baseline, the paper's nine, and Graphene), delivery via
  // on_records — at any batch size, serial or per-bank sharded — must be
  // bit-identical to the ScalarReferenceController: every counter
  // (including the FPR / ground-truth accounting driven by the
  // aggressor oracle), the phase histogram, first_extra_act_at, and the
  // exact flip-event history.
  // 99 full simulations of the tiny system run below.
  const SimConfig cfg = tiny_attacked_config();
  std::unordered_set<std::uint64_t> aggressors;
  util::Rng workload_rng = util::Rng(cfg.seed).fork();
  const auto records =
      trace::drain(*build_workload(cfg, workload_rng, &aggressors));
  ASSERT_FALSE(records.empty());
  ASSERT_FALSE(aggressors.empty());

  std::vector<std::pair<std::string, mem::BankMitigationFactory>> variants;
  variants.emplace_back("none", [](dram::BankId, util::Rng) {
    return std::make_unique<mem::NoMitigation>();
  });
  for (const auto t : hw::kAllTechniques)
    variants.emplace_back(std::string(hw::to_string(t)),
                          make_factory(t, cfg.technique));
  mitigation::GrapheneConfig graphene_cfg;
  graphene_cfg.rows_per_bank = cfg.geometry.rows_per_bank;
  graphene_cfg.row_threshold = cfg.technique.counter_threshold();
  variants.emplace_back("Graphene",
                        mitigation::make_graphene_factory(graphene_cfg));

  for (const auto& [name, factory] : variants) {
    const FeedOutcome base =
        feed_outcome(cfg, factory, 0, 1, &aggressors, records);
    for (const std::size_t batch : {1ul, 7ul, 256ul, 4096ul}) {
      for (const std::size_t jobs : {1ul, 8ul}) {
        expect_same_outcome(
            base,
            feed_outcome(cfg, factory, batch, jobs, &aggressors, records),
            name + " batch " + std::to_string(batch) + " jobs " +
                std::to_string(jobs));
      }
    }
  }
}

TEST(Runner, BatchedThrowAfterValidPrefixIsBitIdentical) {
  // on_records' error contract: a record with a bad bank, a bad row or
  // a backwards timestamp throws after the valid prefix before it has
  // been processed. The state left behind must equal the
  // ScalarReferenceController fed that prefix (plus, for an address
  // error, the refresh ticks up to the bad record's time) — through
  // on_records and through on_records_partitioned's fallback, with the
  // bad record at a segment start and mid-segment. bank_jobs 0 follows
  // TVP_JOBS, so the CI runs this serial and sharded.
  const SimConfig cfg = tiny_attacked_config();
  std::unordered_set<std::uint64_t> aggressors;
  util::Rng workload_rng = util::Rng(cfg.seed).fork();
  const auto records =
      trace::drain(*build_workload(cfg, workload_rng, &aggressors));
  const std::uint64_t t_refi = cfg.timing.t_refi_ps();
  const auto interval_of = [&](std::size_t i) {
    return records[i].time_ps / t_refi;
  };
  // Late in the run, where the prefix holds flips and triggers.
  std::size_t segment_start = records.size() * 3 / 4;
  while (interval_of(segment_start) == interval_of(segment_start - 1))
    ++segment_start;
  std::size_t mid_segment = segment_start + 1;
  while (interval_of(mid_segment + 1) != interval_of(mid_segment - 1))
    ++mid_segment;
  ASSERT_LT(mid_segment + 1, records.size());

  std::vector<std::pair<std::string, mem::BankMitigationFactory>> variants;
  variants.emplace_back("none", [](dram::BankId, util::Rng) {
    return std::make_unique<mem::NoMitigation>();
  });
  // The prefix flips under none; ProHit issues its activations at REF,
  // PARA and TWiCe at ACT.
  for (const auto t :
       {hw::Technique::kPara, hw::Technique::kProHit, hw::Technique::kTwice})
    variants.emplace_back(std::string(hw::to_string(t)),
                          make_factory(t, cfg.technique));

  enum class Bad { kBank, kRow, kTime };
  for (const auto& [name, factory] : variants) {
    for (const std::size_t k : {segment_start, mid_segment}) {
      for (const Bad bad : {Bad::kBank, Bad::kRow, Bad::kTime}) {
        std::vector<trace::AccessRecord> batch(records.begin(),
                                               records.begin() + k + 100);
        switch (bad) {
          case Bad::kBank: batch[k].bank = cfg.geometry.total_banks(); break;
          case Bad::kRow: batch[k].row = cfg.geometry.rows_per_bank; break;
          case Bad::kTime: batch[k].time_ps = batch[k - 1].time_ps - 1; break;
        }
        const FeedOutcome base = run_outcome(
            cfg, factory, 0, &aggressors,
            [&](const mem::ControllerConfig& controller_cfg,
                mem::MitigationEngine& engine,
                dram::DisturbanceModel& disturbance, util::Rng& rng,
                const mem::AggressorOracle& oracle) {
              ScalarReferenceController reference(controller_cfg, engine,
                                                  disturbance, rng);
              reference.set_aggressor_oracle(oracle);
              for (std::size_t i = 0; i < k; ++i) reference.on_record(batch[i]);
              if (bad != Bad::kTime) reference.advance_to(batch[k].time_ps);
              return reference.stats();
            });

        // Lanes of the batch's in-range records (serials index the
        // batch), with one lane's max_row out of range so
        // on_records_partitioned must fall back to on_records.
        const std::uint32_t banks = cfg.geometry.total_banks();
        std::vector<std::vector<std::uint32_t>> serials(banks);
        std::vector<std::vector<dram::RowId>> rows(banks);
        std::vector<std::vector<std::uint64_t>> times(banks);
        std::vector<std::vector<std::uint8_t>> writes(banks);
        for (std::size_t i = 0; i < batch.size(); ++i) {
          const dram::BankId b = batch[i].bank;
          if (b >= banks) continue;
          serials[b].push_back(static_cast<std::uint32_t>(i));
          rows[b].push_back(batch[i].row);
          times[b].push_back(batch[i].time_ps);
          writes[b].push_back(batch[i].write ? 1 : 0);
        }
        std::vector<trace::BankLaneView> lanes(banks);
        for (std::uint32_t b = 0; b < banks; ++b) {
          lanes[b] = trace::BankLaneView{rows[b].data(), times[b].data(),
                                         serials[b].data(), writes[b].data(),
                                         serials[b].size(), 0};
          for (const dram::RowId row : rows[b])
            lanes[b].max_row = std::max(lanes[b].max_row, row);
        }
        lanes[0].max_row = cfg.geometry.rows_per_bank;

        for (const bool partitioned : {false, true}) {
          const std::string label = name + " k " + std::to_string(k) +
                                    " bad " +
                                    std::to_string(static_cast<int>(bad)) +
                                    (partitioned ? " partitioned" : "");
          const FeedOutcome got = run_outcome(
              cfg, factory, 0, &aggressors,
              [&](const mem::ControllerConfig& controller_cfg,
                  mem::MitigationEngine& engine,
                  dram::DisturbanceModel& disturbance, util::Rng& rng,
                  const mem::AggressorOracle& oracle) {
                mem::MemoryController controller(controller_cfg, engine,
                                                 disturbance, rng);
                controller.set_aggressor_oracle(oracle);
                const auto feed = [&] {
                  if (partitioned)
                    controller.on_records_partitioned(
                        batch.data(), batch.size(), lanes.data(), banks);
                  else
                    controller.on_records(batch.data(), batch.size());
                };
                if (bad == Bad::kTime)
                  EXPECT_THROW(feed(), std::invalid_argument) << label;
                else
                  EXPECT_THROW(feed(), std::out_of_range) << label;
                return controller.stats();
              });
          expect_same_outcome(base, got, label);
        }
      }
    }
  }
}

TEST(Runner, SeedChangesTheRun) {
  SimConfig cfg = fast_config();
  const RunResult a = run_simulation(hw::Technique::kPara, cfg);
  cfg.seed = 999;
  const RunResult b = run_simulation(hw::Technique::kPara, cfg);
  EXPECT_NE(a.stats.demand_acts, b.stats.demand_acts);
}

TEST(Runner, BenignRateLandsNearTarget) {
  SimConfig cfg = fast_config();
  const RunResult r = run_simulation(hw::Technique::kPara, cfg);
  // 10 acts/interval/bank x 8192 intervals x 2 banks, +/- 10%.
  const double expected = 10.0 * 8192 * 2;
  EXPECT_NEAR(static_cast<double>(r.stats.demand_acts), expected,
              expected * 0.1);
}

TEST(Runner, UnprotectedAttackFlipsVictim) {
  SimConfig cfg = fast_config();
  cfg.windows = 2;
  cfg.workload.benign_acts_per_interval_per_bank = 0;
  cfg.technique.para_p = 0.0;  // no mitigation
  util::Rng rng(3);
  auto attack = trace::make_multi_aggressor_attack(
      0, cfg.geometry.rows_per_bank, 1, rng);
  attack.interarrival_ps = cfg.timing.t_refi_ps() / 24;
  cfg.workload.attacks = {attack};
  cfg.finalize();
  const RunResult r = run_simulation(hw::Technique::kPara, cfg);
  EXPECT_GT(r.flips, 0u);
  EXPECT_GT(r.victim_flips, 0u);
}

TEST(Runner, EveryTechniqueStopsTheAttack) {
  SimConfig cfg = fast_config();
  cfg.windows = 2;
  cfg.workload.benign_acts_per_interval_per_bank = 0;
  util::Rng rng(3);
  auto attack = trace::make_multi_aggressor_attack(
      0, cfg.geometry.rows_per_bank, 1, rng);
  attack.interarrival_ps = cfg.timing.t_refi_ps() / 24;
  cfg.workload.attacks = {attack};
  cfg.finalize();
  for (const auto t : hw::kAllTechniques) {
    const RunResult r = run_simulation(t, cfg);
    EXPECT_EQ(r.flips, 0u) << r.technique;
  }
}

TEST(Runner, OracleMakesAttackTriggersTruePositives) {
  SimConfig cfg = fast_config();
  cfg.workload.benign_acts_per_interval_per_bank = 0;
  util::Rng rng(5);
  auto attack = trace::make_multi_aggressor_attack(
      0, cfg.geometry.rows_per_bank, 1, rng);
  attack.interarrival_ps = cfg.timing.t_refi_ps() / 24;
  cfg.workload.attacks = {attack};
  cfg.finalize();
  const RunResult r = run_simulation(hw::Technique::kLoPRoMi, cfg);
  EXPECT_GT(r.stats.extra_acts, 0u);
  // Attack-only traffic: every trigger suspects a true aggressor.
  EXPECT_EQ(r.stats.fp_extra_acts, 0u);
  EXPECT_DOUBLE_EQ(r.fpr_pct(), 0.0);
}

TEST(Runner, StateBytesReported) {
  const SimConfig cfg = fast_config();
  EXPECT_DOUBLE_EQ(run_simulation(hw::Technique::kLiPRoMi, cfg).state_bytes_per_bank,
                   120.0);
  EXPECT_NEAR(run_simulation(hw::Technique::kCaPRoMi, cfg).state_bytes_per_bank,
              376.0, 1.0);
}

TEST(Runner, SeedSweepAggregates) {
  SimConfig cfg = fast_config();
  const SeedSweepResult sweep = run_seed_sweep(hw::Technique::kPara, cfg, 3);
  EXPECT_EQ(sweep.overhead_pct.count(), 3u);
  EXPECT_GT(sweep.overhead_pct.mean(), 0.0);
  EXPECT_EQ(sweep.technique, "PARA");
  EXPECT_THROW(run_seed_sweep(hw::Technique::kPara, cfg, 0),
               std::invalid_argument);
}

TEST(Runner, SeedSweepRespectsBaseSeed) {
  // Regression: the sweep used to hardcode seeds 1000+s, ignoring
  // config.seed entirely. Seed s of the sweep must now run at
  // config.seed + s.
  SimConfig cfg = fast_config();
  cfg.seed = 42;
  const RunResult direct = run_simulation(hw::Technique::kPara, cfg);
  const SeedSweepResult one = run_seed_sweep(hw::Technique::kPara, cfg, 1);
  EXPECT_EQ(one.overhead_pct.count(), 1u);
  EXPECT_DOUBLE_EQ(one.overhead_pct.mean(), direct.overhead_pct());
  EXPECT_EQ(one.total_flips, direct.flips);

  SimConfig other = cfg;
  other.seed = 4242;
  const SeedSweepResult a = run_seed_sweep(hw::Technique::kPara, cfg, 2);
  const SeedSweepResult b = run_seed_sweep(hw::Technique::kPara, other, 2);
  EXPECT_NE(a.overhead_pct.mean(), b.overhead_pct.mean());
}

TEST(Runner, ParallelSweepMatchesSequential) {
  // The parallel grid must be bit-identical to the sequential run:
  // results land in per-seed slots and are reduced in seed order, so
  // the float-op sequence is the same for every TVP_JOBS value.
  SimConfig cfg = fast_config();
  cfg.seed = 7;
  ASSERT_EQ(setenv("TVP_JOBS", "1", 1), 0);
  const SeedSweepResult seq = run_seed_sweep(hw::Technique::kLoLiPRoMi, cfg, 4);
  ASSERT_EQ(setenv("TVP_JOBS", "4", 1), 0);
  const SeedSweepResult par = run_seed_sweep(hw::Technique::kLoLiPRoMi, cfg, 4);
  unsetenv("TVP_JOBS");

  EXPECT_EQ(par.jobs, 4u);
  EXPECT_EQ(seq.jobs, 1u);
  EXPECT_EQ(par.overhead_pct.count(), seq.overhead_pct.count());
  EXPECT_EQ(par.overhead_pct.mean(), seq.overhead_pct.mean());
  EXPECT_EQ(par.overhead_pct.stddev(), seq.overhead_pct.stddev());
  EXPECT_EQ(par.overhead_pct.min(), seq.overhead_pct.min());
  EXPECT_EQ(par.overhead_pct.max(), seq.overhead_pct.max());
  EXPECT_EQ(par.fpr_pct.count(), seq.fpr_pct.count());
  EXPECT_EQ(par.fpr_pct.mean(), seq.fpr_pct.mean());
  EXPECT_EQ(par.fpr_pct.stddev(), seq.fpr_pct.stddev());
  EXPECT_EQ(par.total_flips, seq.total_flips);
  EXPECT_EQ(par.total_victim_flips, seq.total_victim_flips);
  EXPECT_EQ(par.state_bytes_per_bank, seq.state_bytes_per_bank);
}

TEST(Sweep, ParallelParamSweepMatchesSequential) {
  const auto file = util::KeyValueFile::parse(to_config_text(fast_config()));
  const std::vector<std::string> values = {"16", "32"};
  const std::vector<hw::Technique> techs = {hw::Technique::kPara,
                                            hw::Technique::kLoLiPRoMi};
  ASSERT_EQ(setenv("TVP_JOBS", "1", 1), 0);
  const SweepResult seq =
      run_param_sweep(file, "technique.history_entries", values, techs);
  ASSERT_EQ(setenv("TVP_JOBS", "3", 1), 0);
  const SweepResult par =
      run_param_sweep(file, "technique.history_entries", values, techs);
  unsetenv("TVP_JOBS");

  ASSERT_EQ(par.cells.size(), seq.cells.size());
  for (std::size_t i = 0; i < seq.cells.size(); ++i) {
    EXPECT_EQ(par.cells[i].value, seq.cells[i].value);
    EXPECT_EQ(par.cells[i].result.stats.demand_acts,
              seq.cells[i].result.stats.demand_acts);
    EXPECT_EQ(par.cells[i].result.stats.extra_acts,
              seq.cells[i].result.stats.extra_acts);
    EXPECT_EQ(par.cells[i].result.flips, seq.cells[i].result.flips);
    EXPECT_EQ(par.cells[i].result.overhead_pct(),
              seq.cells[i].result.overhead_pct());
  }
}

TEST(Runner, BuildWorkloadCollectsAggressors) {
  SimConfig cfg = fast_config();
  util::Rng attack_rng(7);
  auto attack = trace::make_multi_aggressor_attack(
      1, cfg.geometry.rows_per_bank, 2, attack_rng);
  cfg.workload.attacks = {attack};
  cfg.finalize();
  util::Rng rng(9);
  std::unordered_set<std::uint64_t> aggressors;
  auto source = build_workload(cfg, rng, &aggressors);
  EXPECT_EQ(aggressors.size(), 4u);  // 2 victims x 2 neighbours
  EXPECT_TRUE(source->next().has_value());
}

TEST(Runner, CacheFrontendModeRuns) {
  SimConfig cfg = fast_config();
  cfg.workload.model = BenignModel::kCacheFrontend;
  cfg.workload.benign_acts_per_interval_per_bank = 5.0;
  cfg.finalize();
  const RunResult r = run_simulation(hw::Technique::kPara, cfg);
  EXPECT_GT(r.stats.demand_acts, 0u);
}

TEST(Runner, ConfigValidation) {
  SimConfig cfg = fast_config();
  cfg.windows = 0;
  EXPECT_THROW(cfg.finalize(), std::invalid_argument);
  cfg = fast_config();
  trace::AttackConfig bad;
  bad.victims = {1};
  bad.rows_per_bank = cfg.geometry.rows_per_bank;
  bad.bank = 99;
  cfg.workload.attacks = {bad};
  EXPECT_THROW(cfg.finalize(), std::invalid_argument);
}

TEST(Runner, ApplyScale) {
  SimConfig cfg;
  apply_scale(cfg, true);
  EXPECT_EQ(cfg.geometry.total_banks(), 16u);
  EXPECT_EQ(cfg.windows, 6u);
  apply_scale(cfg, false);
  EXPECT_EQ(cfg.geometry.total_banks(), 4u);
  EXPECT_EQ(cfg.windows, 2u);
}

// ------------------------------------------------------------------ config

TEST(ConfigIo, AppliesEveryKeyClass) {
  const auto file = util::KeyValueFile::parse(
      "geometry.banks = 2\n"
      "geometry.rows_per_bank = 65536\n"
      "timing.preset = ddr5\n"
      "windows = 3\n"
      "seed = 99\n"
      "refresh.policy = random\n"
      "act_n.radius = 2\n"
      "disturbance.flip_threshold = 50000\n"
      "workload.benign_rate = 7.5\n"
      "workload.model = uniform\n"
      "technique.pbase_exp = 22\n"
      "technique.history_entries = 16\n"
      "attack.count = 1\n"
      "attack.0.pattern = flood\n"
      "attack.0.bank = 1\n"
      "attack.0.victims = 4096\n"
      "attack.0.rate = 100\n");
  SimConfig config;
  apply_config(config, file);
  EXPECT_EQ(config.geometry.total_banks(), 2u);
  EXPECT_EQ(config.geometry.rows_per_bank, 65536u);
  EXPECT_EQ(config.timing.clock_hz, 2'400'000'000u);
  EXPECT_EQ(config.windows, 3u);
  EXPECT_EQ(config.seed, 99u);
  EXPECT_EQ(config.refresh_policy, dram::RefreshPolicy::kRandom);
  EXPECT_EQ(config.act_n_radius, 2u);
  EXPECT_EQ(config.disturbance.flip_threshold, 50000u);
  EXPECT_EQ(config.technique.flip_threshold, 50000u);
  EXPECT_EQ(config.workload.model, BenignModel::kUniformRandom);
  EXPECT_EQ(config.technique.pbase_exp, 22u);
  EXPECT_EQ(config.technique.params.history_entries, 16u);
  ASSERT_EQ(config.workload.attacks.size(), 1u);
  EXPECT_EQ(config.workload.attacks[0].pattern, trace::AttackPattern::kFlood);
  EXPECT_EQ(config.workload.attacks[0].bank, 1u);
  EXPECT_EQ(config.workload.attacks[0].victims,
            std::vector<dram::RowId>{4096});
  EXPECT_EQ(config.workload.attacks[0].interarrival_ps,
            config.timing.t_refi_ps() / 100);
}

TEST(ConfigIo, CapromiCooldownReachesTheTechnique) {
  SimConfig config;
  apply_config(config, util::KeyValueFile::parse(
                           "technique.capromi_cooldown = 128\n"));
  EXPECT_EQ(config.technique.capromi_cooldown, 128u);
  // And the registry forwards it into the CaPRoMi instance (observable
  // through behaviour: the suppressed counter activates under hammering).
  const auto factory = make_factory(hw::Technique::kCaPRoMi, config.technique);
  auto instance = factory(0, util::Rng(1));
  EXPECT_STREQ(instance->name(), "CaPRoMi");
}

TEST(ConfigIo, RandomVictimsAndUnknownKeys) {
  SimConfig config;
  apply_config(config, util::KeyValueFile::parse(
                           "attack.count = 1\nattack.0.victims = ~5\n"));
  ASSERT_EQ(config.workload.attacks.size(), 1u);
  EXPECT_EQ(config.workload.attacks[0].victims.size(), 5u);

  EXPECT_THROW(apply_config(config, util::KeyValueFile::parse("typo.key = 1\n")),
               std::invalid_argument);
  EXPECT_THROW(
      apply_config(config, util::KeyValueFile::parse("timing.preset = ddr9\n")),
      std::invalid_argument);
  EXPECT_THROW(apply_config(config, util::KeyValueFile::parse(
                                        "attack.count = 1\n"
                                        "attack.0.rate = 0\n")),
               std::invalid_argument);
}

// apply_config must refuse @p text with an error that names @p key.
void expect_config_error(const std::string& text, const std::string& key) {
  SimConfig config;
  try {
    apply_config(config, util::KeyValueFile::parse(text));
    ADD_FAILURE() << "accepted: " << text;
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("'" + key + "'"), std::string::npos)
        << "error does not name " << key << ": " << e.what();
  }
}

TEST(ConfigIo, NonFiniteBenignRateIsRejected) {
  // NaN used to pass, then fail every `> 0` test in build_workload and
  // silently drop all benign load.
  for (const char* v : {"nan", "inf", "-inf", "NAN"})
    expect_config_error(std::string("workload.benign_rate = ") + v,
                        "workload.benign_rate");
}

TEST(ConfigIo, NonFiniteAttackRateIsRejected) {
  // NaN used to pass `rate <= 0` and reach a double -> uint64 cast (UB).
  for (const char* v : {"nan", "inf", "-nan"})
    expect_config_error(
        std::string("attack.count = 1\nattack.0.rate = ") + v,
        "attack.0.rate");
  // Finite rates whose interarrival does not fit the uint64 field.
  expect_config_error("attack.count = 1\nattack.0.rate = 1e-30",
                      "attack.0.rate");
  expect_config_error("attack.count = 1\nattack.0.rate = 1e30",
                      "attack.0.rate");
  expect_config_error("attack.count = 1\nattack.0.rate = -5",
                      "attack.0.rate");
}

TEST(ConfigIo, AttackStartFracMustLieInUnitInterval) {
  for (const char* v : {"nan", "inf", "-0.1", "1", "1.5"})
    expect_config_error(
        std::string("attack.count = 1\nattack.0.start_frac = ") + v,
        "attack.0.start_frac");
  SimConfig config;
  apply_config(config, util::KeyValueFile::parse(
                           "attack.count = 1\nattack.0.start_frac = 0.5\n"));
  EXPECT_EQ(config.workload.attacks[0].start_ps, config.timing.t_refw_ps / 2);
}

TEST(ConfigIo, NonFiniteFuzzRateIsRejected) {
  expect_config_error("workload.model = fuzz\nfuzz.rate = nan", "fuzz.rate");
}

TEST(ConfigIo, FarPerNearAndSidesRejectNegativeAndOversized) {
  // -1 used to wrap to 4294967295 in the uint32 cast; half-double then
  // divided by far_per_near + 1 == 0 in 32 bits and died with SIGFPE.
  for (const char* v : {"-1", "0", "4294967296", "-4294967295"})
    expect_config_error(
        std::string("attack.count = 1\nattack.0.pattern = half-double\n"
                    "attack.0.far_per_near = ") + v,
        "attack.0.far_per_near");
  for (const char* v : {"-1", "0", "131073", "4294967295"})
    expect_config_error(
        std::string("attack.count = 1\nattack.0.pattern = many-sided\n"
                    "attack.0.sides = ") + v,
        "attack.0.sides");
  // The largest period is valid: the source counts it in 64 bits
  // (BatchedAttack.HalfDoubleMaxFarPerNearDoesNotDivideByZero).
  SimConfig config;
  apply_config(config, util::KeyValueFile::parse(
                           "attack.count = 1\n"
                           "attack.0.pattern = half-double\n"
                           "attack.0.far_per_near = 4294967295\n"));
  EXPECT_EQ(config.workload.attacks[0].far_per_near, 4294967295u);
}

TEST(ConfigIo, NegativeRemapSwapsIsRejected) {
  // -1 used to wrap to 2^64 - 1 in the size_t cast and hang the
  // RowRemapper constructor drawing that many swaps.
  const std::string shape =
      "geometry.banks = 1\ngeometry.rows_per_bank = 8192\n"
      "remap.rows = true\nremap.swaps = ";
  for (const char* v : {"-1", "-9223372036854775807", "8193"})
    expect_config_error(shape + v, "remap.swaps");
  SimConfig config;
  apply_config(config, util::KeyValueFile::parse(shape + "8192"));
  EXPECT_EQ(config.remap_swaps, 8192u);
}

TEST(ConfigIo, GeometryAndWindowKeysRejectNegativeAndZero) {
  for (const char* key : {"geometry.banks", "geometry.rows_per_bank", "windows"})
    for (const char* v : {"-1", "0", "4294967296"})
      expect_config_error(std::string(key) + " = " + v, key);
}

TEST(ConfigIo, RowTotalIsBoundedBeforeTheDenseCountersAreSized) {
  // 2^31 rows fits get_u32 and is a power of two, so only the row-total
  // bound stops it; apply_config sizes nothing, so no counters are
  // allocated on the way to the error.
  expect_config_error("geometry.banks = 1\ngeometry.rows_per_bank = 2147483648",
                      "geometry.rows_per_bank");
  expect_config_error("geometry.banks = 256\ngeometry.rows_per_bank = 131072",
                      "geometry.banks");
  // The largest checked-in geometry (TVP_SCALE=full: 16 banks x 2^17
  // rows) and the bound itself still load.
  for (const char* text : {"geometry.banks = 16\ngeometry.rows_per_bank = 131072",
                           "geometry.banks = 128\ngeometry.rows_per_bank = 131072"}) {
    SimConfig config;
    EXPECT_NO_THROW(apply_config(config, util::KeyValueFile::parse(text)))
        << text;
  }
}

TEST(ConfigIo, DisturbanceAndActNKeysRejectOutOfRange) {
  const std::vector<std::pair<const char*, std::vector<const char*>>> cases = {
      {"act_n.radius", {"-1", "0", "3"}},
      {"disturbance.flip_threshold", {"-1", "0", "4294967296"}},
      {"disturbance.blast_radius", {"-1", "0", "3"}},
      {"disturbance.distance2_weight_q8", {"-1", "4294967296"}},
      {"disturbance.variation_pct", {"-1", "100"}},
  };
  for (const auto& [key, values] : cases)
    for (const char* v : values)
      expect_config_error(std::string(key) + " = " + v, key);
  SimConfig config;
  apply_config(config, util::KeyValueFile::parse(
                           "act_n.radius = 2\ndisturbance.blast_radius = 2\n"
                           "disturbance.variation_pct = 99\n"));
  EXPECT_EQ(config.act_n_radius, 2u);
  EXPECT_EQ(config.disturbance.blast_radius, 2u);
  EXPECT_EQ(config.disturbance.variation_pct, 99u);
}

TEST(ConfigIo, FuzzKeysRejectOutOfRange) {
  // fuzz.patterns = -1 used to wrap to 4294967295 patterns.
  const std::vector<std::pair<const char*, std::vector<const char*>>> cases = {
      {"fuzz.patterns", {"-1", "0"}},
      {"fuzz.pairs_min", {"-1", "0"}},
      {"fuzz.pairs_max", {"-1", "0"}},
      {"fuzz.period_exp_min", {"-1", "17"}},
      {"fuzz.period_exp_max", {"-1", "17"}},
      {"fuzz.amplitude_max", {"-1", "0"}},
      {"fuzz.decoys_max", {"-1", "0", "4294967296"}},
  };
  for (const auto& [key, values] : cases)
    for (const char* v : values)
      expect_config_error(
          std::string("workload.model = fuzz\n") + key + " = " + v, key);
}

TEST(ConfigIo, TechniqueKeysRejectOutOfRange) {
  const std::vector<std::pair<const char*, std::vector<const char*>>> cases = {
      {"technique.pbase_exp", {"-1", "0", "33"}},
      {"technique.history_entries", {"-1", "0", "256"}},
      {"technique.counter_entries", {"-1", "0"}},
      {"technique.twice_entries", {"-1", "0"}},
      {"technique.capromi_cooldown", {"-1", "4294967296"}},
  };
  for (const auto& [key, values] : cases)
    for (const char* v : values)
      expect_config_error(std::string(key) + " = " + v, key);
}

TEST(ConfigIo, AttackBankRejectsOutOfRange) {
  for (const char* v : {"-1", "4", "4294967296"})
    expect_config_error(
        std::string("geometry.banks = 4\nattack.count = 1\nattack.0.bank = ") +
            v,
        "attack.0.bank");
}

TEST(ConfigIo, AttackShapeKeysRoundTrip) {
  // sides, far_per_near and start_frac used to be dropped by
  // to_config_text, and a rate "%g" cannot hold came back as a
  // different interarrival.
  SimConfig original;
  apply_config(original, util::KeyValueFile::parse(
                             "attack.count = 3\n"
                             "attack.0.pattern = many-sided\n"
                             "attack.0.victims = 1000\n"
                             "attack.0.sides = 7\n"
                             "attack.0.start_frac = 0.3\n"
                             "attack.1.pattern = half-double\n"
                             "attack.1.victims = 5000\n"
                             "attack.1.far_per_near = 9\n"
                             "attack.1.rate = 23.456789123\n"
                             "attack.1.start_frac = 0.123456789012345\n"
                             "attack.2.pattern = double\n"
                             "attack.2.victims = 9000\n"
                             "attack.2.rate = 0.7071067811865476\n"));
  SimConfig reloaded;
  apply_config(reloaded,
               util::KeyValueFile::parse(to_config_text(original)));
  ASSERT_EQ(reloaded.workload.attacks.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& a = original.workload.attacks[i];
    const auto& b = reloaded.workload.attacks[i];
    EXPECT_EQ(b.pattern, a.pattern) << i;
    EXPECT_EQ(b.victims, a.victims) << i;
    EXPECT_EQ(b.sides, a.sides) << i;
    EXPECT_EQ(b.far_per_near, a.far_per_near) << i;
    EXPECT_EQ(b.start_ps, a.start_ps) << i;
    EXPECT_EQ(b.interarrival_ps, a.interarrival_ps) << i;
  }
  EXPECT_EQ(reloaded.workload.attacks[0].sides, 7u);
  EXPECT_EQ(reloaded.workload.attacks[1].far_per_near, 9u);
  EXPECT_NE(reloaded.workload.attacks[1].start_ps, 0u);
  // The text is a fixed point: writing the reloaded config gives it back.
  EXPECT_EQ(to_config_text(reloaded), to_config_text(original));
}

TEST(ConfigIo, SampleConfigsLoadAndRun) {
  for (const char* name : {"paper_campaign.cfg", "modern_dram.cfg",
                           "half_double.cfg"}) {
    const std::string path = std::string(TVP_SOURCE_DIR) + "/configs/" + name;
    SimConfig config = load_sim_config(path);
    config.windows = 1;  // keep the smoke test fast
    config.finalize();
    const auto r = run_simulation(hw::Technique::kLoLiPRoMi, config);
    EXPECT_GT(r.stats.demand_acts, 0u) << path;
    EXPECT_EQ(r.flips, 0u) << path;
  }
}

// FNV-1a over every field of every record the workload yields, pulled
// the way run_custom_simulation pulls it (same workload-RNG fork, 4096-
// record batches), plus the record count.
std::uint64_t workload_digest(const SimConfig& config, std::uint64_t* count) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  const auto mix = [&h](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ull;
    }
  };
  util::Rng workload_rng = util::Rng(config.seed).fork();
  auto source = build_workload(config, workload_rng);
  std::vector<trace::AccessRecord> batch(4096);
  *count = 0;
  while (const std::size_t n = source->next_batch(batch.data(), batch.size())) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto& r = batch[i];
      mix(r.time_ps, 8);
      mix(r.bank, 4);
      mix(r.row, 4);
      mix(r.write, 1);
      mix(r.is_attack, 1);
      mix(r.source, 1);
    }
    *count += n;
  }
  mix(*count, 8);
  return h;
}

TEST(GoldenWorkload, PaperCampaignStreamDigestIsPinned) {
  // Pinned digests of the generated streams cellbench runs: any change
  // to an RNG draw, a merge tie-break or a time cut anywhere on the
  // generation path fails here.
  auto file = util::KeyValueFile::load(std::string(TVP_SOURCE_DIR) +
                                       "/configs/paper_campaign.cfg");
  file.set("seed", "1001");  // "~N" victims derive from the seed
  SimConfig config;
  apply_config(config, file);
  std::uint64_t count = 0;
  const std::uint64_t digest = workload_digest(config, &count);
  EXPECT_EQ(count, 2295159u);
  EXPECT_EQ(digest, 0x462b3e30374b514dull);
}

TEST(GoldenWorkload, FuzzCampaignStreamDigestIsPinned) {
  const SimConfig config = load_sim_config(std::string(TVP_SOURCE_DIR) +
                                           "/configs/fuzz_campaign.cfg");
  std::uint64_t count = 0;
  const std::uint64_t digest = workload_digest(config, &count);
  EXPECT_EQ(count, 17037236u);
  EXPECT_EQ(digest, 0x19205fa40ccdc6b7ull);
}

TEST(ConfigIo, RoundTripPreservesTheExperiment) {
  SimConfig original;
  install_standard_campaign(original);
  original.windows = 3;
  original.act_n_radius = 2;
  const std::string text = to_config_text(original);
  SimConfig reloaded;
  apply_config(reloaded, util::KeyValueFile::parse(text));
  EXPECT_EQ(reloaded.windows, original.windows);
  EXPECT_EQ(reloaded.act_n_radius, original.act_n_radius);
  ASSERT_EQ(reloaded.workload.attacks.size(), original.workload.attacks.size());
  for (std::size_t i = 0; i < original.workload.attacks.size(); ++i) {
    EXPECT_EQ(reloaded.workload.attacks[i].victims,
              original.workload.attacks[i].victims);
    EXPECT_EQ(reloaded.workload.attacks[i].interarrival_ps,
              original.workload.attacks[i].interarrival_ps);
  }
  // Same config file -> bit-identical run.
  const auto a = run_simulation(hw::Technique::kPara, original);
  const auto b = run_simulation(hw::Technique::kPara, reloaded);
  EXPECT_EQ(a.stats.demand_acts, b.stats.demand_acts);
  EXPECT_EQ(a.stats.extra_acts, b.stats.extra_acts);
}

// ------------------------------------------------------------------- sweep

TEST(Sweep, MatrixShapeAndDeterminism) {
  SimConfig base;
  base.geometry.banks_per_rank = 2;
  base.windows = 1;
  base.workload.benign_acts_per_interval_per_bank = 8;
  base.finalize();
  const auto file = util::KeyValueFile::parse(to_config_text(base));
  const auto sweep = run_param_sweep(
      file, "technique.history_entries", {"8", "32"},
      {hw::Technique::kLiPRoMi, hw::Technique::kPara});
  EXPECT_EQ(sweep.values.size(), 2u);
  EXPECT_EQ(sweep.techniques.size(), 2u);
  EXPECT_EQ(sweep.cells.size(), 4u);
  // PARA ignores the swept key: its two cells are identical.
  EXPECT_EQ(sweep.at(0, 1).stats.extra_acts, sweep.at(1, 1).stats.extra_acts);
  // LiPRoMi with a bigger table never does worse on this workload.
  EXPECT_LE(sweep.at(1, 0).overhead_pct(), sweep.at(0, 0).overhead_pct() + 1e-9);
  // Formatters cover every cell.
  const auto table = sweep_overhead_table(sweep);
  EXPECT_EQ(table.rows(), 2u);
  const std::string csv = sweep_to_csv(sweep);
  EXPECT_NE(csv.find("technique.history_entries,8,LiPRoMi"), std::string::npos);
  EXPECT_NE(csv.find("PARA"), std::string::npos);
}

TEST(Sweep, RejectsBadInput) {
  const util::KeyValueFile base;
  EXPECT_THROW(run_param_sweep(base, "windows", {}, {hw::Technique::kPara}),
               std::invalid_argument);
  EXPECT_THROW(run_param_sweep(base, "windows", {"1"}, {}),
               std::invalid_argument);
  EXPECT_THROW(run_param_sweep(base, "not.a.key", {"1"},
                               {hw::Technique::kPara}),
               std::invalid_argument);
}

// ------------------------------------------------------------------- report

TEST(Report, StandardCampaignRampsAggressors) {
  SimConfig cfg;
  install_standard_campaign(cfg);
  ASSERT_EQ(cfg.workload.attacks.size(), 3u);  // 4 banks: 3 attacked + control
  EXPECT_EQ(cfg.workload.attacks[0].victims.size(), 1u);
  EXPECT_EQ(cfg.workload.attacks[1].victims.size(), 4u);
  EXPECT_EQ(cfg.workload.attacks[2].victims.size(), 10u);
  for (const auto& a : cfg.workload.attacks)
    EXPECT_EQ(a.interarrival_ps, cfg.timing.t_refi_ps() / 20);
}

TEST(Report, FormatMuSigma) {
  util::RunningStat s;
  s.add(0.1);
  s.add(0.2);
  const std::string text = format_mu_sigma(s);
  EXPECT_NE(text.find("0.15"), std::string::npos);
  EXPECT_NE(text.find("%"), std::string::npos);
}

TEST(Report, SeedsFromEnvFallback) {
  // No env var set by the test harness: fallback applies.
  EXPECT_EQ(seeds_from_env(7), 7u);
}

// ------------------------------------------------------------------ verdict

TEST(Verdict, ReproducesTableIIIColumn) {
  const TechniqueConfig cfg;
  const bool expected_vulnerable[] = {
      true,   // PARA
      false,  // ProHit
      true,   // MRLoc
      false,  // TWiCe
      false,  // CRA
      true,   // LiPRoMi
      false,  // LoPRoMi
      false,  // LoLiPRoMi
      false,  // CaPRoMi
  };
  const hw::Technique order[] = {
      hw::Technique::kPara,     hw::Technique::kProHit,
      hw::Technique::kMrLoc,    hw::Technique::kTwice,
      hw::Technique::kCra,      hw::Technique::kLiPRoMi,
      hw::Technique::kLoPRoMi,  hw::Technique::kLoLiPRoMi,
      hw::Technique::kCaPRoMi,
  };
  for (std::size_t i = 0; i < 9; ++i) {
    const auto v = security_verdict(order[i], cfg, false);
    EXPECT_EQ(v.vulnerable, expected_vulnerable[i]) << v.technique << ": "
                                                    << v.reason;
  }
}

TEST(Verdict, FlipsForceVulnerable) {
  const TechniqueConfig cfg;
  const auto v = security_verdict(hw::Technique::kTwice, cfg, true);
  EXPECT_TRUE(v.vulnerable);
  EXPECT_NE(std::string_view(v.reason).find("flips"), std::string_view::npos);
}

TEST(Verdict, StaticTechniquesAreFlat) {
  const TechniqueConfig cfg;
  EXPECT_NEAR(security_verdict(hw::Technique::kPara, cfg, false).escalation,
              1.0, 0.01);
  EXPECT_NEAR(security_verdict(hw::Technique::kMrLoc, cfg, false).escalation,
              1.0, 0.01);
  EXPECT_GT(security_verdict(hw::Technique::kLoPRoMi, cfg, false).escalation,
            10.0);
}

TEST(Verdict, LinearRampHasHighestMissProbability) {
  const TechniqueConfig cfg;
  const double li = security_verdict(hw::Technique::kLiPRoMi, cfg, false).p_miss;
  const double lo = security_verdict(hw::Technique::kLoPRoMi, cfg, false).p_miss;
  const double ca = security_verdict(hw::Technique::kCaPRoMi, cfg, false).p_miss;
  EXPECT_GT(li, kMissProbThreshold);
  EXPECT_LT(lo, kMissProbThreshold);
  EXPECT_LT(ca, kMissProbThreshold);
  EXPECT_GT(li, 3 * lo);  // the log ramp is clearly safer
  EXPECT_DOUBLE_EQ(
      security_verdict(hw::Technique::kTwice, cfg, false).p_miss, 0.0);
}

TEST(Verdict, SaveScheduleShapes) {
  const TechniqueConfig cfg;
  const auto para = victim_save_schedule(hw::Technique::kPara, cfg, 1000);
  EXPECT_DOUBLE_EQ(para.front(), cfg.para_p / 2);
  EXPECT_DOUBLE_EQ(para.back(), cfg.para_p / 2);
  const auto li = victim_save_schedule(hw::Technique::kLiPRoMi, cfg, 1000);
  EXPECT_DOUBLE_EQ(li[0], 0.0);  // weight 0 in the first interval
  EXPECT_GT(li[999], li[200]);
  const auto twice = victim_save_schedule(hw::Technique::kTwice, cfg, 40000);
  EXPECT_DOUBLE_EQ(twice[34749], 1.0);  // counter threshold
  EXPECT_DOUBLE_EQ(twice[0], 0.0);
}

TEST(Flood, DeterministicTechniquesRespondAtThreshold) {
  const TechniqueConfig cfg;
  FloodOptions opts;
  opts.trials = 4;
  for (const auto t : {hw::Technique::kTwice, hw::Technique::kCra}) {
    const auto m = measure_flood(t, cfg, opts);
    EXPECT_EQ(m.no_response, 0u);
    EXPECT_DOUBLE_EQ(m.first_response_acts.mean(), 34750.0)
        << hw::to_string(t);
  }
}

TEST(Flood, AllTiVaPRoMiRespondBeforeHalfThreshold) {
  // Section IV: "all of them are sooner than 69 K activations."
  const TechniqueConfig cfg;
  FloodOptions opts;
  opts.trials = 16;
  for (const auto t : hw::kTiVaPRoMiVariants) {
    const auto m = measure_flood(t, cfg, opts);
    EXPECT_LT(m.distribution.percentile(0.5), cfg.flip_threshold / 2.0)
        << hw::to_string(t);
  }
}

TEST(Flood, LinearIsTheSlowestResponder) {
  const TechniqueConfig cfg;
  FloodOptions opts;
  opts.trials = 16;
  const double li = measure_flood(hw::Technique::kLiPRoMi, cfg, opts)
                        .distribution.percentile(0.5);
  const double lo = measure_flood(hw::Technique::kLoPRoMi, cfg, opts)
                        .distribution.percentile(0.5);
  EXPECT_GT(li, lo);
}

TEST(Flood, RandomPhaseIsMuchFaster) {
  const TechniqueConfig cfg;
  FloodOptions aligned;
  aligned.trials = 16;
  FloodOptions random_phase = aligned;
  random_phase.phase_aligned = false;
  const double a = measure_flood(hw::Technique::kLoPRoMi, cfg, aligned)
                       .distribution.percentile(0.5);
  const double r = measure_flood(hw::Technique::kLoPRoMi, cfg, random_phase)
                       .distribution.percentile(0.5);
  EXPECT_LT(r, a);  // a blind attacker triggers the defence sooner
}

TEST(Flood, InvalidOptionsThrow) {
  const TechniqueConfig cfg;
  FloodOptions opts;
  opts.trials = 0;
  EXPECT_THROW(measure_flood(hw::Technique::kPara, cfg, opts),
               std::invalid_argument);
}

}  // namespace
}  // namespace tvp::exp
