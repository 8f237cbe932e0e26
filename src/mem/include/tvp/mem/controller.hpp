// The memory controller: consumes a time-ordered request stream, drives
// refresh, enforces per-bank activation timing, invokes the mitigation
// engine, and reports every physical row activation / refresh to the
// disturbance model. This is the spine that every experiment runs on.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "tvp/dram/disturbance.hpp"
#include "tvp/dram/geometry.hpp"
#include "tvp/dram/refresh.hpp"
#include "tvp/dram/remap.hpp"
#include "tvp/dram/timing.hpp"
#include "tvp/mem/mitigation.hpp"
#include "tvp/trace/record.hpp"
#include "tvp/util/parallel.hpp"
#include "tvp/util/stats.hpp"

namespace tvp::mem {

/// Aggregated controller counters for one run.
struct ControllerStats {
  std::uint64_t demand_acts = 0;      ///< ACTs from the request stream
  std::uint64_t extra_acts = 0;       ///< row activations issued by mitigation
  std::uint64_t fp_extra_acts = 0;    ///< ...whose suspect was NOT a real aggressor
  std::uint64_t triggers = 0;         ///< mitigation decisions (one may cost 1-2 acts)
  std::uint64_t refresh_intervals = 0;
  std::uint64_t rows_refreshed = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t delayed_acts = 0;     ///< ACTs stalled by tRC/tRFC
  std::uint64_t first_extra_act_at = 0;  ///< demand-act count at first trigger (0 = never)
  util::RunningStat acts_per_interval;   ///< per active bank
  /// Extra activations binned by window phase (64 bins over RefInt):
  /// shows *when* inside the refresh window a technique spends its
  /// budget (TiVaPRoMi bursts just after the window clear; PARA is flat).
  static constexpr std::size_t kPhaseBins = 64;
  std::array<std::uint64_t, kPhaseBins> extra_acts_by_phase{};

  /// The paper's "Activations Overhead %": extra / demand * 100.
  double overhead_pct() const noexcept {
    return demand_acts
               ? 100.0 * static_cast<double>(extra_acts) / static_cast<double>(demand_acts)
               : 0.0;
  }
  /// The paper's "False Positive Rate %": false-positive extra activations
  /// per demand activation.
  double fpr_pct() const noexcept {
    return demand_acts
               ? 100.0 * static_cast<double>(fp_extra_acts) / static_cast<double>(demand_acts)
               : 0.0;
  }
};

/// Everything the controller needs to run.
struct ControllerConfig {
  dram::Geometry geometry;
  dram::Timing timing;
  dram::RefreshPolicy refresh_policy = dram::RefreshPolicy::kNeighborSequential;
  std::size_t remap_swaps = 16;     ///< spare-row swaps (policy (ii) & remapper)
  bool remap_rows = false;          ///< enable logical->physical remapping
  /// How far the act_n command reaches: 1 activates the two adjacent
  /// rows (the paper's command); 2 additionally restores the rows at
  /// distance two — the countermeasure to half-double-style attacks
  /// (see the extension_attacks bench). Cost scales accordingly.
  std::uint32_t act_n_radius = 1;
  /// Worker threads for the batched (on_records) hot path: independent
  /// banks of one refresh segment run concurrently, bit-identical to
  /// serial execution (per-bank state is disjoint; shared counters are
  /// slot-and-reduced; flip events are re-sequenced into serial order).
  /// 1 = serial (the default — seed sweeps already parallelize across
  /// runs, so per-run sharding would oversubscribe), 0 = auto
  /// (TVP_JOBS), N = exactly N workers. With bank_jobs > 1 the
  /// aggressor oracle must be safe to call from multiple threads.
  std::size_t bank_jobs = 1;
  /// Collect the per-stage wall-clock breakdown (StageProfile timers).
  /// Off by default: the act counters are always maintained, but the
  /// clock_gettime calls per segment are taken only when profiling.
  bool profile = false;
};

/// Per-stage breakdown of the columnar hot path, for perf attribution
/// (bench/perf_hotpath --profile). The *_ns timers accumulate only when
/// ControllerConfig::profile is set; the act counters are always live —
/// they are how replay tests prove a partition-indexed corpus actually
/// skipped the re-partition pass. technique_ns and replay_ns are summed
/// over bank shards, so with bank_jobs > 1 they are CPU time, not wall.
struct StageProfile {
  std::uint64_t partition_ns = 0;    ///< on_records' lane scatter (+ validation)
  std::uint64_t technique_ns = 0;    ///< technique kernels (engine on_activates)
  std::uint64_t replay_ns = 0;       ///< per-ACT replay: timing, remap, disturbance, extras
  std::uint64_t disturbance_ns = 0;  ///< serial reduce + flip re-sequencing/commit
  std::uint64_t scattered_acts = 0;    ///< records partitioned by the controller
  std::uint64_t partitioned_acts = 0;  ///< records fed from pre-built corpus lanes
};

/// Ground-truth oracle: is @p suspect row of @p bank a real aggressor?
/// Supplied by the experiment harness (it knows the attack config); used
/// only for statistics, never visible to the techniques.
using AggressorOracle = std::function<bool(dram::BankId, dram::RowId)>;

class MemoryController {
 public:
  /// @p engine and @p disturbance must outlive the controller.
  MemoryController(ControllerConfig config, MitigationEngine& engine,
                   dram::DisturbanceModel& disturbance, util::Rng& rng);

  /// Feeds one request: a one-record on_records call.
  void on_record(const trace::AccessRecord& record) { on_records(&record, 1); }

  /// Feeds a batch of requests; records must arrive in non-decreasing
  /// time order with bank and row in range. A record that breaks either
  /// rule throws (std::invalid_argument for time order, std::out_of_range
  /// for the address) after the valid prefix before it has been
  /// processed, exactly as a record-at-a-time feed would have left it:
  /// for a bad address, that includes the refresh ticks up to the bad
  /// record's time.
  ///
  /// The batch's addresses are validated up front; the segment walk then
  /// cuts the stream into *refresh segments* (maximal runs that cross no
  /// refresh boundary, so the mitigation context is constant), scatters
  /// each segment once into per-bank SoA lanes (contiguous row /
  /// timestamp / serial / write columns) and hands every bank's lane to
  /// its technique in one on_activates call — concurrently across banks
  /// when cfg.bank_jobs > 1. The observable result (stats, disturbance
  /// state, flip events, RNG streams) does not depend on how the stream
  /// is cut into batches or on bank_jobs, and equals the record-at-a-time
  /// semantics the scalar reference controller in tests/ spells out; see
  /// DESIGN.md "The ACT hot path".
  void on_records(const trace::AccessRecord* records, std::size_t count);

  /// Like on_records, but with the per-bank partition pre-computed (a
  /// corpus-carried partition index): @p lanes holds @p lane_banks
  /// column views whose serials are indices into @p records. When the
  /// lanes are usable (non-null, bank count matches the geometry, every
  /// lane row is in range) the segment walk borrows them zero-copy and
  /// skips the scatter pass; otherwise this is on_records — same
  /// observable results either way, including the throw semantics.
  void on_records_partitioned(const trace::AccessRecord* records,
                              std::size_t count,
                              const trace::BankLaneView* lanes,
                              std::size_t lane_banks);

  /// Advances refresh processing up to @p time_ps without new requests
  /// (completes the final partial window of a run).
  void advance_to(std::uint64_t time_ps);

  /// Installs the false-positive oracle (optional; without it all extra
  /// activations count as potential false positives = 0 known aggressors).
  void set_aggressor_oracle(AggressorOracle oracle) { oracle_ = std::move(oracle); }

  const ControllerStats& stats() const noexcept { return stats_; }
  const StageProfile& stage_profile() const noexcept { return profile_; }
  const dram::RefreshScheduler& refresh_scheduler() const noexcept { return scheduler_; }
  const dram::RowRemapper& remapper() const noexcept { return remapper_; }

  /// Current refresh interval within the window / globally.
  std::uint32_t interval_in_window() const noexcept {
    return static_cast<std::uint32_t>(global_interval_ % timing_.refresh_intervals);
  }
  std::uint64_t global_interval() const noexcept { return global_interval_; }

 private:
  static constexpr std::uint64_t kNoTrigger = ~0ull;

  /// What one bank's walk accumulates over a region (a refresh segment,
  /// or the actions of one REF); commit_region folds it into stats_.
  struct Tally {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t delayed = 0;
    std::uint64_t triggers = 0;
    std::uint64_t extra = 0;
    std::uint64_t fp_extra = 0;
    std::uint64_t first_trigger = kNoTrigger;  ///< its serial; or none
  };

  /// Per-bank working state. Cache-line aligned and written only by the
  /// worker that owns the bank, so concurrent shards never share a
  /// written line.
  struct alignas(64) BankShard {
    // Scatter-built columns (SoA; filled per segment by scatter()).
    std::vector<std::uint32_t> serials;   ///< batch-serial per record
    std::vector<dram::RowId> rows;        ///< logical row per record
    std::vector<std::uint64_t> times;     ///< time_ps per record
    std::vector<std::uint8_t> write_col;  ///< write flag per record
    /// The bank's lane of the current batch — the owned columns above or
    /// borrowed corpus partition columns; serials index the batch — and
    /// the walk's position in it.
    trace::BankLaneView view;
    std::size_t cursor = 0;
    /// Serials of the current region that issued mitigation
    /// activations: (serial, mitigation activations).
    std::vector<std::pair<std::uint32_t, std::uint32_t>> extras;
    dram::DisturbanceModel::Lane lane;
    Tally tally;
    std::uint64_t ready_ps = 0;      ///< earliest next ACT (tRC / tRFC)
    std::uint64_t technique_ns = 0;  ///< profiling only
    std::uint64_t replay_ns = 0;     ///< profiling only
  };

  void check_order(std::uint64_t time_ps) const;
  void process_refresh_boundaries(std::uint64_t up_to_ps);
  void refresh_interval_tick();
  /// The segment walk: the time-order check, refresh-boundary
  /// processing and the segment cut over @p records, running every
  /// segment over the shards' lane views. With @p scatter_segments the
  /// walk builds those views itself, one segment at a time (columns the
  /// size of a segment stay in L1; a whole batch's would not); without,
  /// they are the borrowed corpus lanes.
  void walk(const trace::AccessRecord* records, std::size_t count,
            bool scatter_segments);
  /// The partition pass: scatters records [@p begin, @p end) into the
  /// shards' owned columns (serials index @p records) and points every
  /// shard's lane view at them.
  void scatter(const trace::AccessRecord* records, std::size_t begin,
               std::size_t end);
  /// The per-bank half of segment [@p begin, @p end) of the batch (runs
  /// on a worker thread): the bank's slice of its lane view through the
  /// technique, the timing, the remap and the disturbance kernel.
  void run_bank_shard(dram::BankId bank, const MitigationContext& ctx,
                      std::size_t begin, std::size_t end);
  /// The one action-issue body: performs @p act's activations on
  /// @p bank through @p kernel (each a tRC on @p ready_ps, each tagged
  /// (@p serial, offset++) for flip re-sequencing) and tallies the
  /// trigger, its cost and the oracle's verdict.
  void issue(dram::BankId bank, const MitigationAction& act,
             dram::DisturbanceModel::Kernel& kernel, std::uint32_t interval,
             std::uint32_t serial, std::uint32_t& offset,
             std::uint64_t& ready_ps, Tally& tally) const;
  /// The serial reduce of a region with @p serials serial tags: folds
  /// every shard's tally into stats_ (phase bin of @p interval,
  /// first_extra_act_at), re-sequences and commits the disturbance
  /// lanes, and clears the shards for the next region. @p demand says
  /// each serial is a record with its demand ACT at offset 0 (a
  /// segment), not a bank's REF actions alone.
  void commit_region(std::size_t serials, bool demand, std::uint32_t interval);

  ControllerConfig cfg_;
  dram::Timing timing_;
  MitigationEngine& engine_;
  dram::DisturbanceModel& disturbance_;
  dram::RowRemapper remapper_;
  dram::RefreshScheduler scheduler_;
  AggressorOracle oracle_;
  ControllerStats stats_;

  std::uint64_t now_ps_ = 0;
  std::uint64_t global_interval_ = 0;      // intervals completed so far
  std::uint64_t next_refresh_ps_;          // time of the next REF command
  std::vector<std::uint32_t> interval_acts_;  // per-bank ACTs this interval

  // Batched hot-path scratch (reused across segments; steady-state
  // allocation-free once capacities stabilize).
  std::vector<BankShard> shards_;
  std::vector<dram::DisturbanceModel::Lane*> lane_ptrs_;
  std::vector<std::uint64_t> act_prefix_;  // per-serial activation prefix sums
  std::unique_ptr<util::WorkerPool> pool_;  // only when bank_jobs > 1
  StageProfile profile_;
};

}  // namespace tvp::mem
