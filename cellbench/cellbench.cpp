// Sweep-cell benchmark: the measuring program.
//
// Runs whole sweep cells (one config x seed x defence, from workload
// source to RunResult) through the simulator's public entry points and
// writes what it measured as JSON; cellbench/run.py turns that into the
// benchmark's metrics and checks every cell's simulated statistics.
//
// Modes:
//   --workload W --seed N --seconds T --trace 0|1 --repo DIR --work DIR
//       --out FILE [--spans FILE] [--max-cells N]
//     Measures workload W (paper_gen, paper_replay, fuzz_modern). With
//     --trace 1 every cell runs twice: once through the public entry
//     point and once rebuilt from public classes with spans around the
//     calls into each module; the two RunResults must match bit for bit.
//   --workload W --seed N --setup-only --repo DIR --work DIR --out FILE
//     Times the workload's set-up alone, in a fresh process.
//   --pool --repo DIR --work DIR --out FILE
//     Computes the digest of every cell of both seed pools on
//     util::job_count() workers (TVP_JOBS), used to regenerate
//     cellbench/digests.json after a deliberate model change.
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "tvp/exp/config_io.hpp"
#include "tvp/exp/registry.hpp"
#include "tvp/exp/runner.hpp"
#include "tvp/mitigation/trr.hpp"
#include "tvp/trace/corpus.hpp"
#include "tvp/util/json.hpp"
#include "tvp/util/parallel.hpp"

namespace {

using namespace tvp;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Workloads, seed pools and defence panels

/// Each workload maps the benchmark seed onto a fixed pool of simulation
/// seeds, so every cell a run can reach has a recorded digest in
/// cellbench/digests.json. Round r of a run with seed n uses pool entry
/// (n * 5 + r) mod size.
struct SeedPool {
  std::uint64_t first;
  std::uint64_t size;
  std::uint64_t at(std::uint64_t bench_seed, std::uint64_t round) const {
    return first + (bench_seed * 5 + round) % size;
  }
};
constexpr SeedPool kPaperPool{1001, 48};  // SimConfig::seed
constexpr SeedPool kFuzzPool{1, 12};      // workload.fuzz.seed

enum class Workload { kPaperGen, kPaperReplay, kFuzzModern };

Workload parse_workload(const std::string& name) {
  if (name == "paper_gen") return Workload::kPaperGen;
  if (name == "paper_replay") return Workload::kPaperReplay;
  if (name == "fuzz_modern") return Workload::kFuzzModern;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

/// Worker threads per workload: the paper grid runs as TVP_JOBS=1, the
/// fuzz campaign on two workers (headroom on a shared 4-vCPU host).
std::size_t workers_of(Workload w) { return w == Workload::kFuzzModern ? 2 : 1; }

struct Defence {
  std::string name;  ///< label as run_fuzz_campaign prints it
  std::string tag;   ///< technique name usable inside a metric name
  enum class Kind { kNone, kTrr, kTechnique } kind = Kind::kNone;
  hw::Technique technique = hw::Technique::kPara;
  unsigned pbase_exp = 0;  ///< 0 = the config's P_base
};

/// none + the paper's nine techniques, in Figure-4 order.
std::vector<Defence> paper_panel() {
  std::vector<Defence> panel{{"none", "none", Defence::Kind::kNone, {}, 0}};
  for (const auto t : hw::kAllTechniques) {
    const std::string name(hw::to_string(t));
    panel.push_back({name, name, Defence::Kind::kTechnique, t, 0});
  }
  return panel;
}

constexpr unsigned kFuzzPbase[] = {17, 23};

/// The fuzz campaign's defence panel, in run_fuzz_campaign's order.
std::vector<Defence> fuzz_panel() {
  std::vector<Defence> panel{{"none", "none", Defence::Kind::kNone, {}, 0},
                             {"TRR", "TRR", Defence::Kind::kTrr, {}, 0}};
  for (const auto t : hw::kTiVaPRoMiVariants)
    for (const unsigned e : kFuzzPbase) {
      const std::string name(hw::to_string(t));
      panel.push_back({name + "@2^-" + std::to_string(e),
                       name + "-p" + std::to_string(e),
                       Defence::Kind::kTechnique, t, e});
    }
  return panel;
}

const std::vector<Defence>& panel_of(Workload w) {
  static const auto paper = paper_panel();
  static const auto fuzz = fuzz_panel();
  return w == Workload::kFuzzModern ? fuzz : paper;
}

/// Digest-table key of a cell. Generated and replayed paper cells share
/// keys: a replayed cell must reproduce the generated one.
std::string cell_key(Workload w, std::uint64_t seed, const Defence& d) {
  return std::string(w == Workload::kFuzzModern ? "fuzz/" : "paper/") +
         std::to_string(seed) + "/" + d.name;
}

exp::SimConfig paper_config(const util::KeyValueFile& base, std::uint64_t seed) {
  // Attack victims ("~N") derive from the seed inside apply_config, so
  // the seed goes through the file, as run_param_sweep does it.
  util::KeyValueFile file = base;
  file.set("seed", std::to_string(seed));
  exp::SimConfig cfg;
  exp::apply_config(cfg, file);
  return cfg;
}

exp::SimConfig replay_config(exp::SimConfig cfg, const std::string& corpus) {
  cfg.workload.model = exp::BenignModel::kReplay;
  cfg.workload.trace_path = corpus;
  cfg.workload.attacks.clear();
  cfg.finalize();
  return cfg;
}

exp::SimConfig fuzz_config(const exp::SimConfig& base, std::uint64_t fuzz_seed) {
  exp::SimConfig cfg = base;
  cfg.workload.fuzz.seed = fuzz_seed;
  return cfg;
}

// ---------------------------------------------------------------------------
// Running one cell

/// The config and mitigation factory a public entry point would build
/// for @p d (run_simulation for the techniques, run_custom_simulation
/// for none and TRR), with the name it reports.
struct PreparedCell {
  exp::SimConfig cfg;
  mem::BankMitigationFactory factory;
  std::string display;
};

PreparedCell prepare(const Defence& d, exp::SimConfig cfg) {
  if (d.pbase_exp != 0) cfg.technique.pbase_exp = d.pbase_exp;
  cfg.finalize();
  PreparedCell p{cfg, {}, d.name};
  switch (d.kind) {
    case Defence::Kind::kNone:
      p.factory = [](dram::BankId, util::Rng) {
        return std::make_unique<mem::NoMitigation>();
      };
      break;
    case Defence::Kind::kTrr: {
      mitigation::TrrConfig trr;
      trr.rows_per_bank = cfg.geometry.rows_per_bank;
      p.factory = mitigation::make_trr_factory(trr);
      break;
    }
    case Defence::Kind::kTechnique:
      p.factory = exp::make_factory(d.technique, cfg.technique);
      p.display = std::string(hw::to_string(d.technique));
      break;
  }
  return p;
}

/// The untraced cell, through the public entry point users call.
exp::RunResult run_reference(const Defence& d, const exp::SimConfig& cfg) {
  if (d.kind == Defence::Kind::kTechnique) {
    exp::SimConfig c = cfg;
    if (d.pbase_exp != 0) c.technique.pbase_exp = d.pbase_exp;
    return exp::run_simulation(d.technique, c);
  }
  const PreparedCell p = prepare(d, cfg);
  return exp::run_custom_simulation(p.factory, p.display, p.cfg);
}

// ---------------------------------------------------------------------------
// Simulated-statistics digests

/// Every simulated field of a RunResult (wall time excluded), as words:
/// equal vectors mean bit-identical results.
std::vector<std::uint64_t> result_words(const exp::RunResult& r) {
  const auto bits = [](double v) {
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof u);
    return u;
  };
  const auto& s = r.stats;
  std::vector<std::uint64_t> w = {
      s.demand_acts,    s.extra_acts,        s.fp_extra_acts, s.triggers,
      s.refresh_intervals, s.rows_refreshed, s.reads,         s.writes,
      s.delayed_acts,   s.first_extra_act_at};
  const auto raw = s.acts_per_interval.raw();
  w.insert(w.end(), {raw.n, bits(raw.mean), bits(raw.m2), bits(raw.min),
                     bits(raw.max), bits(raw.sum)});
  w.insert(w.end(), s.extra_acts_by_phase.begin(), s.extra_acts_by_phase.end());
  w.insert(w.end(), {r.flips, r.victim_flips, r.peak_disturbance, r.records,
                     bits(r.state_bytes_per_bank), r.flip_events.size()});
  for (const auto& f : r.flip_events)
    w.insert(w.end(), {f.bank, f.row, f.at_activation, f.interval});
  return w;
}

std::string fnv_hex(const std::vector<std::uint64_t>& words) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto word : words)
    for (int b = 0; b < 8; ++b) {
      h ^= (word >> (8 * b)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  char out[17];
  std::snprintf(out, sizeof out, "%016llx", static_cast<unsigned long long>(h));
  return out;
}

std::string digest_of(const exp::RunResult& r) { return fnv_hex(result_words(r)); }

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, written out at exit

struct Span {
  std::uint32_t parent;  ///< index within the cell; kRoot for the cell span
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::uint64_t count;  ///< items the span covers (records, ACTs, REFs)
};
constexpr std::uint32_t kRoot = 0xFFFFFFFFu;

class SpanLog {
 public:
  std::uint32_t open(const char* name, std::uint32_t parent) {
    spans_.push_back({parent, name, now_ns(), 0, 0});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  void close(std::uint32_t id, std::uint64_t count = 0) {
    spans_[id].end_ns = now_ns();
    spans_[id].count = count;
  }
  /// A child covering @p ns of busy time inside span @p parent, for
  /// calls too frequent to keep one span each (per-bank technique calls).
  void rollup(const char* name, std::uint32_t parent, std::uint64_t ns,
              std::uint64_t count) {
    const std::uint64_t start = spans_[parent].start_ns;
    spans_.push_back({parent, name, start, start + ns, count});
  }
  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Busy time inside the technique, accumulated by TimedMitigation.
struct MitigationTimer {
  std::uint64_t act_ns = 0, acts = 0, ref_ns = 0, refs = 0;
};

/// Forwards every call to the wrapped technique and times it. Installed
/// through the BankMitigationFactory, so the technique sees exactly the
/// calls, arguments and RNG it would see unwrapped.
class TimedMitigation final : public mem::IBankMitigation {
 public:
  TimedMitigation(std::unique_ptr<mem::IBankMitigation> inner,
                  MitigationTimer* timer)
      : inner_(std::move(inner)), timer_(timer) {}
  const char* name() const noexcept override { return inner_->name(); }
  void on_activate(dram::RowId row, const mem::MitigationContext& ctx,
                   mem::ActionBuffer& out) override {
    const std::uint64_t t0 = now_ns();
    inner_->on_activate(row, ctx, out);
    timer_->act_ns += now_ns() - t0;
    ++timer_->acts;
  }
  void on_activates(const dram::RowId* rows, std::size_t n,
                    const mem::MitigationContext& ctx,
                    mem::ActionBuffer& out) override {
    const std::uint64_t t0 = now_ns();
    inner_->on_activates(rows, n, ctx, out);
    timer_->act_ns += now_ns() - t0;
    timer_->acts += n;
  }
  void on_refresh(const mem::MitigationContext& ctx,
                  mem::ActionBuffer& out) override {
    const std::uint64_t t0 = now_ns();
    inner_->on_refresh(ctx, out);
    timer_->ref_ns += now_ns() - t0;
    ++timer_->refs;
  }
  std::uint64_t state_bits() const noexcept override { return inner_->state_bits(); }

 private:
  std::unique_ptr<mem::IBankMitigation> inner_;
  MitigationTimer* timer_;
};

/// Records the technique time spent since @p mark as children of @p span.
void rollup_mitigation(SpanLog& log, std::uint32_t span,
                       const MitigationTimer& mark, const MitigationTimer& now) {
  if (now.acts != mark.acts)
    log.rollup("mitigation.on_activates", span, now.act_ns - mark.act_ns,
               now.acts - mark.acts);
  if (now.refs != mark.refs)
    log.rollup("mitigation.on_refresh", span, now.ref_ns - mark.ref_ns,
               now.refs - mark.refs);
}

struct TracedResult {
  exp::RunResult result;
  std::uint64_t partitioned_acts = 0;
};

constexpr std::uint64_t key_of(dram::BankId bank, dram::RowId row) noexcept {
  return (static_cast<std::uint64_t>(bank) << 32) | row;
}

/// The cell rebuilt from public classes, in exactly the order
/// exp::run_custom_simulation builds it, with a span around each call
/// into a module.
TracedResult traced_cell(const PreparedCell& p, SpanLog& log) {
  MitigationTimer timer;
  const std::uint32_t root = log.open("cell", kRoot);

  std::uint32_t span = log.open("exp.build", root);
  const exp::SimConfig& cfg = p.cfg;
  util::Rng rng(cfg.seed);
  util::Rng workload_rng = rng.fork();
  util::Rng engine_rng = rng.fork();
  util::Rng controller_rng = rng.fork();
  const mem::BankMitigationFactory& inner = p.factory;
  mem::MitigationEngine engine(
      cfg.geometry.total_banks(),
      [&inner, &timer](dram::BankId bank, util::Rng r) {
        return std::make_unique<TimedMitigation>(inner(bank, std::move(r)),
                                                 &timer);
      },
      engine_rng);
  dram::DisturbanceModel disturbance(cfg.geometry.total_banks(),
                                     cfg.geometry.rows_per_bank, cfg.disturbance);
  mem::ControllerConfig controller_cfg;
  controller_cfg.geometry = cfg.geometry;
  controller_cfg.timing = cfg.timing;
  controller_cfg.refresh_policy = cfg.refresh_policy;
  controller_cfg.remap_rows = cfg.remap_rows;
  controller_cfg.remap_swaps = cfg.remap_swaps;
  controller_cfg.act_n_radius = cfg.act_n_radius;
  controller_cfg.bank_jobs = cfg.bank_jobs;
  mem::MemoryController controller(controller_cfg, engine, disturbance,
                                   controller_rng);
  log.close(span);

  span = log.open("trace.open", root);
  std::unordered_set<std::uint64_t> aggressors;
  std::unordered_set<std::uint64_t> victims;
  auto workload = exp::build_workload(cfg, workload_rng, &aggressors, &victims);
  controller.set_aggressor_oracle(
      [&aggressors](dram::BankId bank, dram::RowId row) {
        return aggressors.count(key_of(bank, row)) != 0;
      });
  log.close(span);

  TracedResult out;
  exp::RunResult& result = out.result;
  if (workload->supports_spans()) {
    const trace::AccessRecord* records = nullptr;
    const trace::BankLaneView* lanes = nullptr;
    std::size_t lane_banks = 0;
    for (;;) {
      span = log.open("trace.pull", root);
      const std::size_t n = workload->span_lanes(&records, &lanes, &lane_banks);
      log.close(span, n);
      if (n == 0) break;
      const MitigationTimer mark = timer;
      span = log.open("mem.on_records", root);
      if (lanes != nullptr)
        controller.on_records_partitioned(records, n, lanes, lane_banks);
      else
        controller.on_records(records, n);
      log.close(span, n);
      rollup_mitigation(log, span, mark, timer);
      result.records += n;
    }
  } else {
    constexpr std::size_t kBatchRecords = 4096;  // as run_custom_simulation
    std::vector<trace::AccessRecord> batch(kBatchRecords);
    for (;;) {
      span = log.open("trace.pull", root);
      const std::size_t n = workload->next_batch(batch.data(), batch.size());
      log.close(span, n);
      if (n == 0) break;
      const MitigationTimer mark = timer;
      span = log.open("mem.on_records", root);
      controller.on_records(batch.data(), n);
      log.close(span, n);
      rollup_mitigation(log, span, mark, timer);
      result.records += n;
    }
  }
  {
    const MitigationTimer mark = timer;
    span = log.open("mem.advance", root);
    controller.advance_to(cfg.duration_ps());
    log.close(span);
    rollup_mitigation(log, span, mark, timer);
  }

  span = log.open("exp.verdict", root);
  result.technique = p.display;
  result.stats = controller.stats();
  result.flips = disturbance.flips().size();
  result.flip_events = disturbance.flips();
  result.peak_disturbance = disturbance.peak_disturbance_q8() >> 8;
  result.state_bytes_per_bank = engine.state_bytes_per_bank();
  std::unordered_set<std::uint64_t> victim_keys;
  for (const auto key : victims)
    victim_keys.insert(key_of(
        static_cast<dram::BankId>(key >> 32),
        controller.remapper().to_physical(static_cast<dram::RowId>(key))));
  for (const auto& flip : disturbance.flips())
    if (victim_keys.count(key_of(flip.bank, flip.row))) ++result.victim_flips;
  out.partitioned_acts = controller.stage_profile().partitioned_acts;
  log.close(span);

  log.close(root, result.records);
  return out;
}

// ---------------------------------------------------------------------------
// Measurement

struct CellRecord {
  std::string key;
  std::string defence;
  std::string tag;
  std::uint64_t seed = 0;
  std::uint32_t round = 0;
  std::uint64_t wall_ns = 0;         ///< untraced cell
  std::uint64_t traced_wall_ns = 0;  ///< traced cell (trace mode)
  std::uint64_t records = 0;
  std::string digest;                ///< full RunResult digest
  bool identical = true;  ///< traced result == entry-point result
  std::string error;
  double overhead_pct = 0.0;
  double fpr_pct = 0.0;
  exp::RunResult stats;  ///< simulated counters (trace mode)
  std::uint64_t partitioned_acts = 0;
  std::vector<Span> spans;
};

struct Round {
  std::uint64_t wall_ns = 0;
  std::size_t first_cell = 0;
  std::size_t cells = 0;
};

struct Measurement {
  std::vector<std::uint64_t> setup_ns;
  std::vector<std::uint64_t> record_ns;
  std::uint64_t peak_rss_kb = 0;
  std::vector<Round> rounds;
  std::vector<CellRecord> cells;
};

struct Options {
  Workload workload = Workload::kPaperGen;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string repo = ".";
  std::string work = ".";
  std::size_t max_cells = 0;  ///< 0 = no limit (self-tests cap the run)
  bool setup_only = false;    ///< time the set-up, run no cell
};

std::uint64_t peak_rss_kb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss);
}

/// Runs one cell: untraced through the entry point, plus (trace mode)
/// the traced rebuild, which must match it bit for bit.
CellRecord run_cell(Workload w, const Defence& d, const exp::SimConfig& cfg,
                    std::uint64_t seed, bool trace) {
  CellRecord cell;
  cell.key = cell_key(w, seed, d);
  cell.defence = d.name;
  cell.tag = d.tag;
  cell.seed = seed;
  try {
    const std::uint64_t t0 = now_ns();
    exp::RunResult ref = run_reference(d, cfg);
    cell.wall_ns = now_ns() - t0;
    cell.records = ref.records;
    cell.digest = digest_of(ref);
    cell.overhead_pct = ref.overhead_pct();
    cell.fpr_pct = ref.fpr_pct();
    if (trace) {
      const PreparedCell p = prepare(d, cfg);
      SpanLog log;
      TracedResult traced = traced_cell(p, log);
      cell.traced_wall_ns = log.spans()[0].end_ns - log.spans()[0].start_ns;
      cell.identical = traced.result.technique == ref.technique &&
                       result_words(traced.result) == result_words(ref);
      cell.partitioned_acts = traced.partitioned_acts;
      cell.spans = log.spans();
    }
    ref.flip_events.clear();
    cell.stats = std::move(ref);
  } catch (const std::exception& e) {
    cell.error = e.what();
  }
  return cell;
}

void measure(const Options& o, Measurement& m) {
  const Workload w = o.workload;
  const auto& panel = panel_of(w);
  const std::uint64_t budget_ns = static_cast<std::uint64_t>(o.seconds * 1e9);

  // Set-up: everything a user pays once before the first cell, timed
  // cold (run.py repeats it in fresh processes and reports the median).
  util::KeyValueFile paper_file;
  exp::SimConfig fuzz_base;
  const std::string corpus = o.work + "/paper_replay.tvpc";
  const std::uint64_t replay_seed = kPaperPool.at(o.seed, 0);
  exp::SimConfig replay_cfg;
  const std::uint64_t setup_start = now_ns();
  if (w == Workload::kFuzzModern) {
    fuzz_base = exp::load_sim_config(o.repo + "/configs/fuzz_campaign.cfg");
  } else {
    paper_file = util::KeyValueFile::load(o.repo + "/configs/paper_campaign.cfg");
    const exp::SimConfig first = paper_config(paper_file, replay_seed);
    if (w == Workload::kPaperReplay) {
      // One corpus per seed (partition index on), then the first
      // verification pass, which maps it and checks every block.
      const std::uint64_t r0 = now_ns();
      exp::record_corpus(first, corpus);
      m.record_ns.push_back(now_ns() - r0);
      trace::verify_corpus(corpus);
      replay_cfg = replay_config(first, corpus);
    }
  }
  m.setup_ns.push_back(now_ns() - setup_start);
  if (o.setup_only) {
    if (w == Workload::kPaperReplay) std::remove(corpus.c_str());
    return;
  }

  const std::uint64_t start = now_ns();
  for (std::uint32_t r = 0;; ++r) {
    const std::uint64_t round_start = now_ns();
    Round round;
    round.first_cell = m.cells.size();
    if (w == Workload::kFuzzModern) {
      const std::uint64_t seed = kFuzzPool.at(o.seed, r);
      const exp::SimConfig cfg = fuzz_config(fuzz_base, seed);
      // run_fuzz_campaign's grid for one fuzz seed, cell by cell so each
      // is timed and checked in full: the same per-cell entry points
      // (run_simulation, run_custom_simulation for none and TRR) on the
      // same util parallel grid.
      std::vector<CellRecord> cells(panel.size());
      util::parallel_for_indexed(panel.size(), workers_of(w), [&](std::size_t i) {
        cells[i] = run_cell(w, panel[i], cfg, seed, o.trace);
      });
      for (auto& cell : cells) m.cells.push_back(std::move(cell));
    } else {
      const std::uint64_t seed =
          w == Workload::kPaperReplay ? replay_seed : kPaperPool.at(o.seed, r);
      const exp::SimConfig cfg = w == Workload::kPaperReplay
                                     ? replay_cfg
                                     : paper_config(paper_file, seed);
      for (const auto& d : panel) {
        m.cells.push_back(run_cell(w, d, cfg, seed, o.trace));
        if (o.max_cells != 0 && m.cells.size() >= o.max_cells) break;
      }
    }
    for (std::size_t i = round.first_cell; i < m.cells.size(); ++i)
      m.cells[i].round = r;
    round.cells = m.cells.size() - round.first_cell;
    const std::uint64_t end = now_ns();
    round.wall_ns = end - round_start;
    m.rounds.push_back(round);
    if (o.max_cells != 0 && m.cells.size() >= o.max_cells) break;
    // Whole rounds only (every defence equally often); stop when the
    // next round would overrun the budget.
    if (end - start + round.wall_ns > budget_ns) break;
  }
  m.peak_rss_kb = peak_rss_kb();
  if (w == Workload::kPaperReplay) std::remove(corpus.c_str());
}

// ---------------------------------------------------------------------------
// Output

void write_cell(util::JsonWriter& json, const CellRecord& c) {
  const auto& s = c.stats.stats;
  json.begin_object();
  json.key("key").value(c.key);
  json.key("defence").value(c.defence);
  json.key("tag").value(c.tag);
  json.key("seed").value(c.seed);
  json.key("round").value(static_cast<std::uint64_t>(c.round));
  json.key("wall_ns").value(c.wall_ns);
  json.key("traced_wall_ns").value(c.traced_wall_ns);
  json.key("records").value(c.records);
  json.key("digest").value(c.digest);
  json.key("identical").value(c.identical);
  json.key("error").value(c.error);
  json.key("overhead_pct").value_exact(c.overhead_pct);
  json.key("fpr_pct").value_exact(c.fpr_pct);
  json.key("demand_acts").value(s.demand_acts);
  json.key("extra_acts").value(s.extra_acts);
  json.key("fp_extra_acts").value(s.fp_extra_acts);
  json.key("triggers").value(s.triggers);
  json.key("delayed_acts").value(s.delayed_acts);
  json.key("rows_refreshed").value(s.rows_refreshed);
  json.key("flips").value(c.stats.flips);
  json.key("victim_flips").value(c.stats.victim_flips);
  json.key("partitioned_acts").value(c.partitioned_acts);
  json.end_object();
}

void write_measurement(const Options& o, const Measurement& m,
                       const std::string& out_path, const std::string& spans_path) {
  util::JsonWriter json;
  json.begin_object();
  json.key("workers").value(static_cast<std::uint64_t>(workers_of(o.workload)));
  json.key("trace").value(o.trace);
  json.key("setup_ns").begin_array();
  for (const auto v : m.setup_ns) json.value(v);
  json.end_array();
  json.key("record_ns").begin_array();
  for (const auto v : m.record_ns) json.value(v);
  json.end_array();
  json.key("peak_rss_kb").value(m.peak_rss_kb);
  json.key("rounds").begin_array();
  for (const auto& r : m.rounds) {
    json.begin_object();
    json.key("wall_ns").value(r.wall_ns);
    json.key("first_cell").value(static_cast<std::uint64_t>(r.first_cell));
    json.key("cells").value(static_cast<std::uint64_t>(r.cells));
    json.end_object();
  }
  json.end_array();
  json.key("cells").begin_array();
  for (const auto& c : m.cells) write_cell(json, c);
  json.end_array();
  json.end_object();
  std::ofstream(out_path) << json.str() << "\n";

  if (spans_path.empty()) return;
  // One line per span: cell, span, parent (-1 = none), name, start, end,
  // count. Times are ns on the steady clock.
  std::ofstream spans(spans_path);
  for (std::size_t c = 0; c < m.cells.size(); ++c) {
    const auto& list = m.cells[c].spans;
    for (std::size_t i = 0; i < list.size(); ++i) {
      const Span& s = list[i];
      spans << c << '\t' << i << '\t'
            << (s.parent == kRoot ? -1 : static_cast<long long>(s.parent)) << '\t'
            << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << s.count
            << '\n';
    }
  }
}

// ---------------------------------------------------------------------------
// Pool mode

struct CellRequest {
  Workload workload;
  std::uint64_t seed;
  const Defence* defence;
};

std::vector<CellRequest> pool_requests() {
  std::vector<CellRequest> requests;
  for (std::uint64_t s = 0; s < kPaperPool.size; ++s)
    for (const auto& d : panel_of(Workload::kPaperGen))
      requests.push_back({Workload::kPaperGen, kPaperPool.first + s, &d});
  for (std::uint64_t s = 0; s < kFuzzPool.size; ++s)
    for (const auto& d : panel_of(Workload::kFuzzModern))
      requests.push_back({Workload::kFuzzModern, kFuzzPool.first + s, &d});
  return requests;
}

/// Runs every pool cell through its entry point (paper cells generated)
/// and writes its digest and record count.
void record_pool(const Options& o, const std::string& out_path) {
  const auto paper_file =
      util::KeyValueFile::load(o.repo + "/configs/paper_campaign.cfg");
  const auto fuzz_base = exp::load_sim_config(o.repo + "/configs/fuzz_campaign.cfg");
  const auto requests = pool_requests();
  std::vector<exp::RunResult> results(requests.size());
  std::vector<std::string> errors(requests.size());
  util::parallel_for_indexed(requests.size(), [&](std::size_t i) {
    const auto& q = requests[i];
    try {
      results[i] = run_reference(*q.defence, q.workload == Workload::kFuzzModern
                                                 ? fuzz_config(fuzz_base, q.seed)
                                                 : paper_config(paper_file, q.seed));
    } catch (const std::exception& e) {
      errors[i] = e.what();
    }
  });

  util::JsonWriter json;
  json.begin_object();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto& q = requests[i];
    const auto& r = results[i];
    json.key(cell_key(q.workload, q.seed, *q.defence)).begin_object();
    json.key("digest").value(errors[i].empty() ? digest_of(r) : std::string());
    json.key("records").value(r.records);
    json.key("error").value(errors[i]);
    json.end_object();
  }
  json.end_object();
  std::ofstream(out_path) << json.str() << "\n";
}

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "cellbench: " << error << "\n"
            << "usage: cellbench --workload W --seed N --seconds T --trace 0|1 "
               "--repo DIR --work DIR --out FILE [--spans FILE] [--max-cells N]\n"
               "       cellbench --workload W --seed N --setup-only --repo DIR --work DIR --out FILE\n"
               "       cellbench --pool --repo DIR --work DIR --out FILE\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string out, spans;
  bool pool = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--pool") {
        pool = true;
        continue;
      }
      if (arg == "--setup-only") {
        o.setup_only = true;
        continue;
      }
      if (i + 1 >= argc) usage("missing value for " + arg);
      const std::string v = argv[++i];
      if (arg == "--workload") o.workload = parse_workload(v);
      else if (arg == "--seed") o.seed = std::stoull(v);
      else if (arg == "--seconds") o.seconds = std::stod(v);
      else if (arg == "--trace") o.trace = v == "1";
      else if (arg == "--repo") o.repo = v;
      else if (arg == "--work") o.work = v;
      else if (arg == "--out") out = v;
      else if (arg == "--spans") spans = v;
      else if (arg == "--max-cells") o.max_cells = std::stoull(v);
      else usage("unknown argument " + arg);
    }
  } catch (const std::exception& e) {
    usage(e.what());
  }
  if (out.empty()) usage("--out is required");

  try {
    if (pool) {
      record_pool(o, out);
    } else {
      Measurement m;
      measure(o, m);
      write_measurement(o, m, out, spans);
    }
  } catch (const std::exception& e) {
    std::cerr << "cellbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
