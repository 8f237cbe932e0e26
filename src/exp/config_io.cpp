#include "tvp/exp/config_io.hpp"

#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>

#include "tvp/util/table.hpp"

namespace tvp::exp {

namespace {

constexpr std::uint32_t kU32Max = std::numeric_limits<std::uint32_t>::max();

const std::set<std::string>& known_keys() {
  static const std::set<std::string> keys = {
      "geometry.banks", "geometry.rows_per_bank", "timing.preset", "windows",
      "seed", "refresh.policy", "remap.rows", "remap.swaps", "act_n.radius",
      "disturbance.flip_threshold", "disturbance.blast_radius",
      "disturbance.distance2_weight_q8", "disturbance.variation_pct",
      "workload.benign_rate",
      "workload.model", "workload.trace",
      "fuzz.seed", "fuzz.patterns", "fuzz.rate", "fuzz.pairs_min",
      "fuzz.pairs_max", "fuzz.period_exp_min", "fuzz.period_exp_max",
      "fuzz.amplitude_max", "fuzz.decoys_max", "fuzz.half_double",
      "technique.pbase_exp", "technique.history_entries",
      "technique.counter_entries", "technique.para_p", "technique.mrloc_p_min",
      "technique.mrloc_p_max", "technique.twice_entries",
      "technique.capromi_cooldown", "attack.count",
  };
  return keys;
}

bool is_attack_key(const std::string& key) {
  return key.rfind("attack.", 0) == 0 && key != "attack.count";
}

dram::RefreshPolicy parse_policy(const std::string& name) {
  if (name == "seq" || name == "neighbor") return dram::RefreshPolicy::kNeighborSequential;
  if (name == "remap") return dram::RefreshPolicy::kNeighborRemapped;
  if (name == "random") return dram::RefreshPolicy::kRandom;
  if (name == "mask") return dram::RefreshPolicy::kCounterMask;
  throw std::invalid_argument("config: unknown refresh.policy '" + name + "'");
}

BenignModel parse_model(const std::string& name) {
  if (name == "mixed") return BenignModel::kMixedSynthetic;
  if (name == "cache") return BenignModel::kCacheFrontend;
  if (name == "uniform") return BenignModel::kUniformRandom;
  if (name == "replay") return BenignModel::kReplay;
  if (name == "fuzz") return BenignModel::kFuzz;
  throw std::invalid_argument("config: unknown workload.model '" + name + "'");
}

trace::AttackPattern parse_pattern(const std::string& name) {
  if (name == "single") return trace::AttackPattern::kSingleSided;
  if (name == "double") return trace::AttackPattern::kDoubleSided;
  if (name == "multi") return trace::AttackPattern::kMultiAggressor;
  if (name == "flood") return trace::AttackPattern::kFlood;
  if (name == "many-sided") return trace::AttackPattern::kManySided;
  if (name == "half-double") return trace::AttackPattern::kHalfDouble;
  throw std::invalid_argument("config: unknown attack pattern '" + name + "'");
}

const char* pattern_name(trace::AttackPattern pattern) {
  switch (pattern) {
    case trace::AttackPattern::kSingleSided: return "single";
    case trace::AttackPattern::kDoubleSided: return "double";
    case trace::AttackPattern::kMultiAggressor: return "multi";
    case trace::AttackPattern::kFlood: return "flood";
    case trace::AttackPattern::kManySided: return "many-sided";
    case trace::AttackPattern::kHalfDouble: return "half-double";
    // kFuzzed never round-trips through attack.<i>.* (its schedule is
    // derived, not serialised) — fuzz workloads use the fuzz.* keys.
    case trace::AttackPattern::kFuzzed: return "fuzzed";
  }
  return "double";
}

// Reads an integer key into an unsigned field, range-checked. get_int
// hands back -1 as -1, which a bare narrowing cast would turn into
// 4294967295 (or 2^64 - 1 for a size_t field).
std::uint64_t get_u64(const util::KeyValueFile& file, const std::string& key,
                      std::uint64_t fallback, std::uint64_t lo,
                      std::uint64_t hi) {
  if (!file.has(key)) return fallback;
  const std::int64_t value = file.get_int(key, 0);
  if (value < 0 || static_cast<std::uint64_t>(value) < lo ||
      static_cast<std::uint64_t>(value) > hi)
    throw std::invalid_argument("config: key '" + key + "' must be in [" +
                                std::to_string(lo) + ", " + std::to_string(hi) +
                                "]");
  return static_cast<std::uint64_t>(value);
}

std::uint32_t get_u32(const util::KeyValueFile& file, const std::string& key,
                      std::uint32_t fallback, std::uint32_t lo,
                      std::uint32_t hi = kU32Max) {
  return static_cast<std::uint32_t>(get_u64(file, key, fallback, lo, hi));
}

// The shortest "%g"-style text that the parser's @p decode maps back to
// @p target: "%g" when it already does (keeps existing config text
// stable), otherwise the nearest double at 17 digits that decodes to it.
template <class Decode>
std::string exact_double_text(double guess, std::uint64_t target,
                              Decode decode) {
  const std::string short_text = util::strfmt("%g", guess);
  if (decode(std::stod(short_text)) == target) return short_text;
  double up = guess;
  double down = guess;
  for (int i = 0; i < 64 && decode(guess) != target; ++i) {
    up = std::nextafter(up, std::numeric_limits<double>::infinity());
    down = std::nextafter(down, -std::numeric_limits<double>::infinity());
    if (decode(up) == target)
      guess = up;
    else if (decode(down) == target)
      guess = down;
  }
  return util::strfmt("%.17g", guess);
}

}  // namespace

void apply_config(SimConfig& config, const util::KeyValueFile& file) {
  for (const auto& key : file.keys()) {
    if (known_keys().count(key) == 0 && !is_attack_key(key))
      throw std::invalid_argument("config: unknown key '" + key + "'");
  }

  config.geometry.banks_per_rank =
      get_u32(file, "geometry.banks", config.geometry.banks_per_rank, 1);
  config.geometry.rows_per_bank =
      get_u32(file, "geometry.rows_per_bank", config.geometry.rows_per_bank, 1);
  // The disturbance model allocates a dense 8-byte count word for every
  // row of every bank before the first record (CRA and PRAC add 4 bytes
  // per row), so the row total is capped before anything is sized: 2^24
  // rows is 128 MiB of count words, 8x a 16-bank rank of 128 K rows.
  constexpr std::uint64_t kMaxTotalRows = std::uint64_t{1} << 24;
  if (config.geometry.rows_total() > kMaxTotalRows)
    throw std::invalid_argument(
        "config: 'geometry.banks' x 'geometry.rows_per_bank' = " +
        std::to_string(config.geometry.rows_total()) + " rows exceeds " +
        std::to_string(kMaxTotalRows) +
        " (dense per-row disturbance counters, 8 bytes per row)");

  const std::string preset = file.get("timing.preset", "ddr4");
  if (preset == "ddr4")
    config.timing = dram::ddr4_timing();
  else if (preset == "ddr3")
    config.timing = dram::ddr3_timing();
  else if (preset == "ddr5")
    config.timing = dram::ddr5_timing();
  else
    throw std::invalid_argument("config: unknown timing.preset '" + preset + "'");

  config.windows = get_u32(file, "windows", config.windows, 1);
  config.seed = static_cast<std::uint64_t>(file.get_int("seed",
                                                        static_cast<std::int64_t>(config.seed)));
  if (file.has("refresh.policy"))
    config.refresh_policy = parse_policy(file.get("refresh.policy", ""));
  config.remap_rows = file.get_bool("remap.rows", config.remap_rows);
  // Each swap attempt draws two rows; more attempts than rows cannot
  // add a swap the first rows_per_bank attempts could not.
  config.remap_swaps = static_cast<std::size_t>(
      get_u64(file, "remap.swaps", config.remap_swaps, 0,
              config.geometry.rows_per_bank));
  // act_n reaches as far as the disturbance does (blast_radius 1 or 2).
  config.act_n_radius = get_u32(file, "act_n.radius", config.act_n_radius, 1, 2);

  config.disturbance.flip_threshold = get_u32(
      file, "disturbance.flip_threshold", config.disturbance.flip_threshold, 1);
  config.technique.flip_threshold = config.disturbance.flip_threshold;
  config.disturbance.blast_radius = get_u32(
      file, "disturbance.blast_radius", config.disturbance.blast_radius, 1, 2);
  config.disturbance.distance2_weight_q8 =
      get_u32(file, "disturbance.distance2_weight_q8",
              config.disturbance.distance2_weight_q8, 0);
  config.disturbance.variation_pct = get_u32(
      file, "disturbance.variation_pct", config.disturbance.variation_pct, 0, 99);

  config.workload.benign_acts_per_interval_per_bank = file.get_double(
      "workload.benign_rate", config.workload.benign_acts_per_interval_per_bank);
  if (file.has("workload.model"))
    config.workload.model = parse_model(file.get("workload.model", ""));
  config.workload.trace_path =
      file.get("workload.trace", config.workload.trace_path);

  // Fuzzed-attack layer (workload.model = fuzz). fuzz.seed is an
  // ordinary config key, so run_param_sweep over "fuzz.seed" sweeps
  // fuzzer seeds like any other parameter.
  auto& fuzz = config.workload.fuzz;
  fuzz.seed = static_cast<std::uint64_t>(
      file.get_int("fuzz.seed", static_cast<std::int64_t>(fuzz.seed)));
  fuzz.patterns = get_u32(file, "fuzz.patterns", fuzz.patterns, 1);
  fuzz.acts_per_interval = file.get_double("fuzz.rate", fuzz.acts_per_interval);
  fuzz.params.pairs_min =
      get_u32(file, "fuzz.pairs_min", fuzz.params.pairs_min, 1);
  fuzz.params.pairs_max =
      get_u32(file, "fuzz.pairs_max", fuzz.params.pairs_max, 1);
  fuzz.params.period_exp_min =
      get_u32(file, "fuzz.period_exp_min", fuzz.params.period_exp_min, 0, 16);
  fuzz.params.period_exp_max =
      get_u32(file, "fuzz.period_exp_max", fuzz.params.period_exp_max, 0, 16);
  fuzz.params.amplitude_max =
      get_u32(file, "fuzz.amplitude_max", fuzz.params.amplitude_max, 1);
  fuzz.params.decoys_max =
      get_u32(file, "fuzz.decoys_max", fuzz.params.decoys_max, 1);
  fuzz.params.half_double =
      file.get_bool("fuzz.half_double", fuzz.params.half_double);

  config.technique.pbase_exp =
      get_u32(file, "technique.pbase_exp", config.technique.pbase_exp, 1, 32);
  // The history table's 8-bit link encoding reserves 0xFF.
  config.technique.params.history_entries =
      get_u32(file, "technique.history_entries",
              config.technique.params.history_entries, 1, 255);
  config.technique.params.counter_entries =
      get_u32(file, "technique.counter_entries",
              config.technique.params.counter_entries, 1);
  config.technique.params.twice_entries =
      get_u32(file, "technique.twice_entries",
              config.technique.params.twice_entries, 1);
  config.technique.para_p =
      file.get_double("technique.para_p", config.technique.para_p);
  config.technique.mrloc_p_min =
      file.get_double("technique.mrloc_p_min", config.technique.mrloc_p_min);
  config.technique.mrloc_p_max =
      file.get_double("technique.mrloc_p_max", config.technique.mrloc_p_max);
  config.technique.capromi_cooldown =
      get_u32(file, "technique.capromi_cooldown",
              config.technique.capromi_cooldown, 0);

  // Attacks: attack.count = N, then attack.<i>.{pattern,bank,victims,
  // rate,start_frac,sides,far_per_near}. `victims` is either an explicit
  // comma-separated row list or a count prefixed with '~' (random,
  // well-separated, derived from the seed).
  config.workload.attacks.clear();
  const auto count = file.get_int("attack.count", 0);
  util::Rng rng(config.seed ^ 0xC0F16ull);
  for (std::int64_t i = 0; i < count; ++i) {
    const std::string prefix = "attack." + std::to_string(i) + ".";
    trace::AttackConfig attack;
    attack.rows_per_bank = config.geometry.rows_per_bank;
    attack.bank = get_u32(file, prefix + "bank", 0, 0,
                          config.geometry.total_banks() - 1);
    attack.pattern = parse_pattern(file.get(prefix + "pattern", "double"));
    attack.sides = get_u32(file, prefix + "sides", attack.sides, 1,
                           config.geometry.rows_per_bank);
    attack.far_per_near =
        get_u32(file, prefix + "far_per_near", attack.far_per_near, 1);

    const std::string victims = file.get(prefix + "victims", "~1");
    if (!victims.empty() && victims[0] == '~') {
      const auto n = std::stoul(victims.substr(1));
      auto generated = trace::make_multi_aggressor_attack(
          attack.bank, config.geometry.rows_per_bank, n, rng);
      attack.victims = generated.victims;
    } else {
      std::size_t pos = 0;
      while (pos < victims.size()) {
        const auto comma = victims.find(',', pos);
        const std::string token = victims.substr(
            pos, comma == std::string::npos ? std::string::npos : comma - pos);
        attack.victims.push_back(static_cast<dram::RowId>(std::stoul(token)));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    }
    const double rate = file.get_double(prefix + "rate", 24.0);
    if (rate <= 0)
      throw std::invalid_argument("config: key '" + prefix + "rate' must be > 0");
    const double interarrival = config.timing.t_refi_ps() / rate;
    if (!(interarrival >= 1.0 && interarrival < 0x1p64))
      throw std::invalid_argument(
          "config: key '" + prefix +
          "rate' must give an interarrival of at least 1 ps and below 2^64 ps");
    attack.interarrival_ps = static_cast<std::uint64_t>(interarrival);
    const double start_frac = file.get_double(prefix + "start_frac", 0.0);
    if (!(start_frac >= 0.0 && start_frac < 1.0))
      throw std::invalid_argument("config: key '" + prefix +
                                  "start_frac' must be in [0, 1)");
    attack.start_ps = static_cast<std::uint64_t>(
        start_frac * static_cast<double>(config.timing.t_refw_ps));
    attack.source_id = static_cast<trace::SourceId>(200 + i);
    config.workload.attacks.push_back(std::move(attack));
  }

  config.finalize();
}

SimConfig load_sim_config(const std::string& path) {
  SimConfig config;
  apply_config(config, util::KeyValueFile::load(path));
  return config;
}

std::string to_config_text(const SimConfig& config) {
  util::KeyValueFile file;
  file.set("geometry.banks", std::to_string(config.geometry.banks_per_rank));
  file.set("geometry.rows_per_bank",
           std::to_string(config.geometry.rows_per_bank));
  file.set("windows", std::to_string(config.windows));
  file.set("seed", std::to_string(config.seed));
  file.set("refresh.policy", [&] {
    switch (config.refresh_policy) {
      case dram::RefreshPolicy::kNeighborSequential: return "seq";
      case dram::RefreshPolicy::kNeighborRemapped: return "remap";
      case dram::RefreshPolicy::kRandom: return "random";
      case dram::RefreshPolicy::kCounterMask: return "mask";
    }
    return "seq";
  }());
  file.set("remap.rows", config.remap_rows ? "true" : "false");
  file.set("remap.swaps", std::to_string(config.remap_swaps));
  file.set("act_n.radius", std::to_string(config.act_n_radius));
  file.set("disturbance.flip_threshold",
           std::to_string(config.disturbance.flip_threshold));
  file.set("disturbance.blast_radius",
           std::to_string(config.disturbance.blast_radius));
  file.set("disturbance.distance2_weight_q8",
           std::to_string(config.disturbance.distance2_weight_q8));
  file.set("disturbance.variation_pct",
           std::to_string(config.disturbance.variation_pct));
  file.set("workload.benign_rate",
           util::strfmt("%g", config.workload.benign_acts_per_interval_per_bank));
  file.set("workload.model", [&] {
    switch (config.workload.model) {
      case BenignModel::kMixedSynthetic: return "mixed";
      case BenignModel::kCacheFrontend: return "cache";
      case BenignModel::kUniformRandom: return "uniform";
      case BenignModel::kReplay: return "replay";
      case BenignModel::kFuzz: return "fuzz";
    }
    return "mixed";
  }());
  if (!config.workload.trace_path.empty())
    file.set("workload.trace", config.workload.trace_path);
  if (config.workload.model == BenignModel::kFuzz) {
    const auto& fuzz = config.workload.fuzz;
    file.set("fuzz.seed", std::to_string(fuzz.seed));
    file.set("fuzz.patterns", std::to_string(fuzz.patterns));
    file.set("fuzz.rate", util::strfmt("%g", fuzz.acts_per_interval));
    file.set("fuzz.pairs_min", std::to_string(fuzz.params.pairs_min));
    file.set("fuzz.pairs_max", std::to_string(fuzz.params.pairs_max));
    file.set("fuzz.period_exp_min", std::to_string(fuzz.params.period_exp_min));
    file.set("fuzz.period_exp_max", std::to_string(fuzz.params.period_exp_max));
    file.set("fuzz.amplitude_max", std::to_string(fuzz.params.amplitude_max));
    file.set("fuzz.decoys_max", std::to_string(fuzz.params.decoys_max));
    file.set("fuzz.half_double", fuzz.params.half_double ? "true" : "false");
  }
  file.set("technique.pbase_exp", std::to_string(config.technique.pbase_exp));
  file.set("technique.history_entries",
           std::to_string(config.technique.params.history_entries));
  file.set("technique.counter_entries",
           std::to_string(config.technique.params.counter_entries));
  file.set("attack.count", std::to_string(config.workload.attacks.size()));
  for (std::size_t i = 0; i < config.workload.attacks.size(); ++i) {
    const auto& attack = config.workload.attacks[i];
    const std::string prefix = "attack." + std::to_string(i) + ".";
    file.set(prefix + "pattern", pattern_name(attack.pattern));
    file.set(prefix + "bank", std::to_string(attack.bank));
    std::string victims;
    for (const auto v : attack.victims) {
      if (!victims.empty()) victims += ',';
      victims += std::to_string(v);
    }
    file.set(prefix + "victims", victims);
    // Written so that apply_config's conversions land on the exact
    // interarrival and start time again.
    const double t_refi = static_cast<double>(config.timing.t_refi_ps());
    file.set(prefix + "rate",
             exact_double_text(
                 t_refi / static_cast<double>(attack.interarrival_ps),
                 attack.interarrival_ps, [&](double rate) {
                   const double interarrival = t_refi / rate;
                   return interarrival >= 1.0 && interarrival < 0x1p64
                              ? static_cast<std::uint64_t>(interarrival)
                              : 0;
                 }));
    const double t_refw = static_cast<double>(config.timing.t_refw_ps);
    file.set(prefix + "start_frac",
             exact_double_text(static_cast<double>(attack.start_ps) / t_refw,
                               attack.start_ps, [&](double frac) {
                                 return frac >= 0.0 && frac < 1.0
                                            ? static_cast<std::uint64_t>(
                                                  frac * t_refw)
                                            : ~std::uint64_t{0};
                               }));
    file.set(prefix + "sides", std::to_string(attack.sides));
    file.set(prefix + "far_per_near", std::to_string(attack.far_per_near));
  }
  return file.to_text();
}

}  // namespace tvp::exp
