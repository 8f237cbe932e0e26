// Unit tests for tvp::trace — sources, synthetic workloads, attacker
// models, trace I/O and statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <new>
#include <set>
#include <sstream>

#include "tvp/trace/attack.hpp"
#include "tvp/trace/io.hpp"
#include "tvp/trace/source.hpp"
#include "tvp/trace/stats.hpp"
#include "tvp/trace/synthetic.hpp"

namespace tvp::trace {
namespace {

AccessRecord rec(std::uint64_t t, std::uint32_t bank = 0, std::uint32_t row = 0) {
  AccessRecord r;
  r.time_ps = t;
  r.bank = bank;
  r.row = row;
  return r;
}

// ------------------------------------------------------------------ sources

TEST(VectorSource, ReplaysInOrder) {
  VectorSource src({rec(1), rec(2), rec(2), rec(5)});
  EXPECT_EQ(src.next()->time_ps, 1u);
  EXPECT_EQ(src.next()->time_ps, 2u);
  EXPECT_EQ(src.next()->time_ps, 2u);
  EXPECT_EQ(src.next()->time_ps, 5u);
  EXPECT_FALSE(src.next().has_value());
}

TEST(VectorSource, RejectsUnsorted) {
  EXPECT_THROW(VectorSource({rec(5), rec(1)}), std::invalid_argument);
}

TEST(MergedSource, ProducesGlobalTimeOrder) {
  std::vector<std::unique_ptr<TraceSource>> sources;
  sources.push_back(std::make_unique<VectorSource>(
      std::vector<AccessRecord>{rec(1), rec(4), rec(9)}));
  sources.push_back(std::make_unique<VectorSource>(
      std::vector<AccessRecord>{rec(2), rec(3), rec(10)}));
  MergedSource merged(std::move(sources));
  std::uint64_t last = 0;
  int count = 0;
  while (auto r = merged.next()) {
    EXPECT_GE(r->time_ps, last);
    last = r->time_ps;
    ++count;
  }
  EXPECT_EQ(count, 6);
}

TEST(MergedSource, TieBreaksByRegistrationOrder) {
  std::vector<std::unique_ptr<TraceSource>> sources;
  sources.push_back(std::make_unique<VectorSource>(
      std::vector<AccessRecord>{rec(5, 0)}));
  sources.push_back(std::make_unique<VectorSource>(
      std::vector<AccessRecord>{rec(5, 1)}));
  MergedSource merged(std::move(sources));
  EXPECT_EQ(merged.next()->bank, 0u);
  EXPECT_EQ(merged.next()->bank, 1u);
}

TEST(MergedSource, ThreeWayTieKeepsRegistrationOrderThroughout) {
  // Replay determinism leans on this: when several sources agree on a
  // timestamp — including runs of equal times within one source — the
  // merged order is registration order, every time.
  std::vector<std::unique_ptr<TraceSource>> sources;
  for (std::uint32_t s = 0; s < 3; ++s)
    sources.push_back(std::make_unique<VectorSource>(
        std::vector<AccessRecord>{rec(5, s), rec(5, s), rec(7, s)}));
  MergedSource merged(std::move(sources));
  std::vector<std::uint32_t> banks;
  while (auto r = merged.next()) banks.push_back(r->bank);
  EXPECT_EQ(banks,
            (std::vector<std::uint32_t>{0, 0, 1, 1, 2, 2, 0, 1, 2}));
}

TEST(LimitSource, CutsByCountAndTime) {
  auto inner = std::make_unique<VectorSource>(
      std::vector<AccessRecord>{rec(1), rec(2), rec(3), rec(100)});
  LimitSource by_count(std::move(inner), 2, ~0ull);
  EXPECT_TRUE(by_count.next().has_value());
  EXPECT_TRUE(by_count.next().has_value());
  EXPECT_FALSE(by_count.next().has_value());

  auto inner2 = std::make_unique<VectorSource>(
      std::vector<AccessRecord>{rec(1), rec(2), rec(50)});
  LimitSource by_time(std::move(inner2), ~0ull, 10);
  EXPECT_TRUE(by_time.next().has_value());
  EXPECT_TRUE(by_time.next().has_value());
  EXPECT_FALSE(by_time.next().has_value());  // 50 >= 10
}

TEST(Drain, CollectsEverything) {
  VectorSource src({rec(1), rec(2)});
  EXPECT_EQ(drain(src).size(), 2u);
}

// -------------------------------------------------------------- next_batch

// Drains @p a via next() and @p b via next_batch(chunk) and requires the
// two record sequences to be identical.
void expect_batch_equals_next(TraceSource& a, TraceSource& b,
                              std::size_t chunk) {
  std::vector<AccessRecord> via_next;
  while (auto r = a.next()) via_next.push_back(*r);

  std::vector<AccessRecord> via_batch;
  std::vector<AccessRecord> buf(chunk);
  for (;;) {
    const std::size_t n = b.next_batch(buf.data(), buf.size());
    if (n == 0) break;
    ASSERT_LE(n, buf.size());
    via_batch.insert(via_batch.end(), buf.begin(), buf.begin() + n);
  }
  ASSERT_EQ(via_next.size(), via_batch.size()) << "chunk " << chunk;
  for (std::size_t i = 0; i < via_next.size(); ++i)
    EXPECT_TRUE(via_next[i] == via_batch[i]) << "record " << i;
}

TEST(NextBatch, VectorSourceMatchesNext) {
  const std::vector<AccessRecord> data{rec(1), rec(2), rec(2, 1, 7), rec(5),
                                       rec(9, 3, 4)};
  for (const std::size_t chunk : {1u, 2u, 3u, 16u}) {
    VectorSource a(data), b(data);
    expect_batch_equals_next(a, b, chunk);
  }
}

std::unique_ptr<MergedSource> make_merged() {
  std::vector<std::unique_ptr<TraceSource>> sources;
  sources.push_back(std::make_unique<VectorSource>(
      std::vector<AccessRecord>{rec(1), rec(4), rec(5, 0), rec(9)}));
  sources.push_back(std::make_unique<VectorSource>(
      std::vector<AccessRecord>{rec(2), rec(3), rec(5, 1), rec(10)}));
  return std::make_unique<MergedSource>(std::move(sources));
}

TEST(NextBatch, MergedSourceMatchesNextIncludingTieBreaks) {
  for (const std::size_t chunk : {1u, 3u, 64u}) {
    auto a = make_merged();
    auto b = make_merged();
    expect_batch_equals_next(*a, *b, chunk);
  }
}

TEST(NextBatch, LimitSourceHonoursCountAndTimeCuts) {
  const std::vector<AccessRecord> data{rec(1), rec(2), rec(3), rec(4),
                                       rec(50), rec(60)};
  for (const std::size_t chunk : {1u, 2u, 4u, 16u}) {
    LimitSource a(std::make_unique<VectorSource>(data), 3, ~0ull);
    LimitSource b(std::make_unique<VectorSource>(data), 3, ~0ull);
    expect_batch_equals_next(a, b, chunk);

    LimitSource at(std::make_unique<VectorSource>(data), ~0ull, 10);
    LimitSource bt(std::make_unique<VectorSource>(data), ~0ull, 10);
    expect_batch_equals_next(at, bt, chunk);
  }
}

TEST(NextBatch, DeadSourceKeepsReturningZero) {
  LimitSource src(std::make_unique<VectorSource>(
                      std::vector<AccessRecord>{rec(1), rec(2)}),
                  1, ~0ull);
  AccessRecord buf[4];
  EXPECT_EQ(src.next_batch(buf, 4), 1u);
  EXPECT_EQ(src.next_batch(buf, 4), 0u);
  EXPECT_EQ(src.next_batch(buf, 4), 0u);
  EXPECT_FALSE(src.next().has_value());
}

// --------------------------------------------------------------- next_span

// Drains @p a via next() and @p b via next_span() and requires the two
// record sequences to be identical.
void expect_span_equals_next(TraceSource& a, TraceSource& b) {
  std::vector<AccessRecord> via_next;
  while (auto r = a.next()) via_next.push_back(*r);

  std::vector<AccessRecord> via_span;
  const AccessRecord* span = nullptr;
  while (const std::size_t n = b.next_span(&span))
    via_span.insert(via_span.end(), span, span + n);

  ASSERT_EQ(via_next.size(), via_span.size());
  for (std::size_t i = 0; i < via_next.size(); ++i)
    EXPECT_TRUE(via_next[i] == via_span[i]) << "record " << i;
}

TEST(NextSpan, VectorSourceHandsOutItsUnconsumedTail) {
  const std::vector<AccessRecord> data{rec(1), rec(2), rec(5)};
  VectorSource a(data), b(data);
  EXPECT_TRUE(b.supports_spans());
  expect_span_equals_next(a, b);

  VectorSource mixed(data);
  EXPECT_EQ(mixed.next()->time_ps, 1u);  // consume one via next()...
  const AccessRecord* span = nullptr;
  ASSERT_EQ(mixed.next_span(&span), 2u);  // ...the span is the tail
  EXPECT_EQ(span[0].time_ps, 2u);
  EXPECT_EQ(span[1].time_ps, 5u);
  EXPECT_EQ(mixed.next_span(&span), 0u);
  EXPECT_EQ(span, nullptr);
}

TEST(NextSpan, LimitSourceTrimsSpansByCountAndTime) {
  const std::vector<AccessRecord> data{rec(1), rec(2), rec(3), rec(4),
                                       rec(50), rec(60)};
  {
    LimitSource a(std::make_unique<VectorSource>(data), 3, ~0ull);
    LimitSource b(std::make_unique<VectorSource>(data), 3, ~0ull);
    EXPECT_TRUE(b.supports_spans());
    expect_span_equals_next(a, b);
  }
  {
    LimitSource a(std::make_unique<VectorSource>(data), ~0ull, 10);
    LimitSource b(std::make_unique<VectorSource>(data), ~0ull, 10);
    expect_span_equals_next(a, b);
  }
  {
    // Both cuts at once: the record limit must bind inside a span the
    // time cut already shortened.
    LimitSource a(std::make_unique<VectorSource>(data), 2, 10);
    LimitSource b(std::make_unique<VectorSource>(data), 2, 10);
    expect_span_equals_next(a, b);
  }
}

TEST(NextSpan, MergedSourceDeclinesSpansButStreamsNormally) {
  // A k-way merge interleaves records and cannot hand out borrowed
  // contiguous spans; the base contract is "unsupported": next_span
  // returns 0 without consuming anything.
  auto merged = make_merged();
  EXPECT_FALSE(merged->supports_spans());
  const AccessRecord* span = nullptr;
  EXPECT_EQ(merged->next_span(&span), 0u);
  EXPECT_EQ(span, nullptr);
  EXPECT_EQ(merged->next()->time_ps, 1u);  // the stream itself is intact
}

// ---------------------------------------------------------------- synthetic

class SyntheticProfile : public ::testing::TestWithParam<AccessProfile> {};

TEST_P(SyntheticProfile, TimeMonotoneAndInRange) {
  SyntheticConfig cfg;
  cfg.profile = GetParam();
  cfg.banks = 4;
  cfg.rows_per_bank = 4096;
  cfg.mean_interarrival_ps = 1000;
  SyntheticSource src(cfg, util::Rng(3));
  std::uint64_t last = 0;
  for (int i = 0; i < 5000; ++i) {
    const auto r = src.next();
    ASSERT_TRUE(r.has_value());
    EXPECT_GE(r->time_ps, last);
    last = r->time_ps;
    EXPECT_LT(r->bank, 4u);
    EXPECT_LT(r->row, 4096u);
    EXPECT_FALSE(r->is_attack);
  }
}

TEST_P(SyntheticProfile, RateMatchesConfiguration) {
  SyntheticConfig cfg;
  cfg.profile = GetParam();
  cfg.mean_interarrival_ps = 500;
  SyntheticSource src(cfg, util::Rng(5));
  const int n = 20000;
  std::uint64_t last = 0;
  for (int i = 0; i < n; ++i) last = src.next()->time_ps;
  const double mean = static_cast<double>(last) / n;
  EXPECT_NEAR(mean, 500, 25);
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, SyntheticProfile,
    ::testing::Values(AccessProfile::kStreaming, AccessProfile::kStrided,
                      AccessProfile::kRandom, AccessProfile::kHotspot,
                      AccessProfile::kPointerChase));

TEST(Synthetic, HotspotConcentratesOnWorkingSet) {
  SyntheticConfig cfg;
  cfg.profile = AccessProfile::kHotspot;
  cfg.hotspot_rows = 8;
  cfg.hotspot_bias = 0.95;
  cfg.rows_per_bank = 1 << 16;
  SyntheticSource src(cfg, util::Rng(7));
  std::map<dram::RowId, int> counts;
  const int n = 10000;
  for (int i = 0; i < n; ++i) ++counts[src.next()->row];
  // The top 8 rows should hold ~95% of accesses.
  std::vector<int> sorted;
  for (const auto& [row, c] : counts) sorted.push_back(c);
  std::sort(sorted.rbegin(), sorted.rend());
  int top8 = 0;
  for (int i = 0; i < 8 && i < static_cast<int>(sorted.size()); ++i)
    top8 += sorted[i];
  EXPECT_GT(top8, n * 0.90);
}

TEST(Synthetic, StreamingWalksSequentially) {
  SyntheticConfig cfg;
  cfg.profile = AccessProfile::kStreaming;
  cfg.rows_per_bank = 1024;
  SyntheticSource src(cfg, util::Rng(9));
  dram::RowId prev = src.next()->row;
  for (int i = 0; i < 100; ++i) {
    const dram::RowId cur = src.next()->row;
    EXPECT_EQ(cur, (prev + 1) % 1024);
    prev = cur;
  }
}

TEST(Synthetic, InvalidConfigThrows) {
  SyntheticConfig cfg;
  cfg.banks = 0;
  EXPECT_THROW(SyntheticSource(cfg, util::Rng(1)), std::invalid_argument);
  for (const double mean : {0.0, -1.0, std::nan(""),
                            std::numeric_limits<double>::infinity()}) {
    cfg = SyntheticConfig{};
    cfg.mean_interarrival_ps = mean;
    EXPECT_THROW(SyntheticSource(cfg, util::Rng(1)), std::invalid_argument)
        << mean;
  }
}

TEST(MixedWorkload, HitsTargetRate) {
  const auto configs = mixed_workload(4, 131072, 7'812'500, 20.0);
  ASSERT_EQ(configs.size(), 4u);
  // Aggregate rate: sum of 1/interarrival == banks * target / tREFI.
  double rate = 0;
  for (const auto& c : configs) rate += 1.0 / c.mean_interarrival_ps;
  EXPECT_NEAR(rate, 4 * 20.0 / 7'812'500, rate * 0.01);
  EXPECT_THROW(mixed_workload(4, 131072, 7'812'500, 0.0), std::invalid_argument);
}

// ------------------------------------------------------------------- attack

TEST(Attack, DoubleSidedDerivesBothAggressors) {
  AttackConfig cfg;
  cfg.pattern = AttackPattern::kDoubleSided;
  cfg.victims = {100};
  cfg.rows_per_bank = 1024;
  AttackSource src(cfg);
  ASSERT_EQ(src.aggressors().size(), 2u);
  EXPECT_EQ(src.aggressors()[0], 99u);
  EXPECT_EQ(src.aggressors()[1], 101u);
}

TEST(Attack, SingleSidedAndFlood) {
  AttackConfig cfg;
  cfg.pattern = AttackPattern::kSingleSided;
  cfg.victims = {100};
  cfg.rows_per_bank = 1024;
  EXPECT_EQ(AttackSource(cfg).aggressors(), std::vector<dram::RowId>{101});
  cfg.pattern = AttackPattern::kFlood;
  EXPECT_EQ(AttackSource(cfg).aggressors(), std::vector<dram::RowId>{100});
}

TEST(Attack, EdgeVictimHasOneAggressor) {
  AttackConfig cfg;
  cfg.pattern = AttackPattern::kDoubleSided;
  cfg.victims = {0};
  cfg.rows_per_bank = 1024;
  EXPECT_EQ(AttackSource(cfg).aggressors(), std::vector<dram::RowId>{1});
}

TEST(Attack, MultiAggressorDeduplicatesOverlap) {
  AttackConfig cfg;
  cfg.pattern = AttackPattern::kMultiAggressor;
  cfg.victims = {10, 12};  // share aggressor row 11
  cfg.rows_per_bank = 1024;
  const AttackSource src(cfg);
  EXPECT_EQ(src.aggressors().size(), 3u);  // 9, 11, 13
}

TEST(Attack, RoundRobinAtConfiguredRate) {
  AttackConfig cfg;
  cfg.pattern = AttackPattern::kDoubleSided;
  cfg.victims = {100};
  cfg.rows_per_bank = 1024;
  cfg.interarrival_ps = 45'000;
  cfg.bank = 3;
  AttackSource src(cfg);
  std::uint64_t prev = 0;
  for (int i = 0; i < 100; ++i) {
    const auto r = src.next();
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->time_ps - prev, 45'000u);
    prev = r->time_ps;
    EXPECT_EQ(r->bank, 3u);
    EXPECT_TRUE(r->is_attack);
    EXPECT_EQ(r->row, i % 2 == 0 ? 99u : 101u);
  }
}

TEST(Attack, EndsAtConfiguredTime) {
  AttackConfig cfg;
  cfg.victims = {100};
  cfg.rows_per_bank = 1024;
  cfg.interarrival_ps = 10;
  cfg.end_ps = 100;
  AttackSource src(cfg);
  int n = 0;
  while (src.next()) ++n;
  EXPECT_EQ(n, 9);
}

TEST(Attack, InvalidConfigThrows) {
  AttackConfig cfg;
  EXPECT_THROW(AttackSource{cfg}, std::invalid_argument);  // no victims
  cfg.victims = {5000};
  cfg.rows_per_bank = 1024;
  EXPECT_THROW(AttackSource{cfg}, std::invalid_argument);  // out of range
}

TEST(Attack, MakeMultiAggressorSeparatesVictims) {
  util::Rng rng(13);
  const auto cfg = make_multi_aggressor_attack(0, 131072, 20, rng);
  EXPECT_EQ(cfg.victims.size(), 20u);
  for (std::size_t i = 1; i < cfg.victims.size(); ++i)
    EXPECT_GE(cfg.victims[i] - cfg.victims[i - 1], 8u);
  EXPECT_THROW(make_multi_aggressor_attack(0, 64, 20, rng),
               std::invalid_argument);
}

// ----------------------------------------------------------------------- io

std::vector<AccessRecord> sample_records() {
  std::vector<AccessRecord> records;
  util::Rng rng(21);
  std::uint64_t t = 0;
  for (int i = 0; i < 500; ++i) {
    AccessRecord r;
    t += rng.below(1000);
    r.time_ps = t;
    r.bank = static_cast<dram::BankId>(rng.below(16));
    r.row = static_cast<dram::RowId>(rng.below(131072));
    r.write = rng.bernoulli(0.3);
    r.is_attack = rng.bernoulli(0.1);
    r.source = static_cast<SourceId>(rng.below(8));
    records.push_back(r);
  }
  return records;
}

TEST(TraceIo, TextRoundTrip) {
  const auto records = sample_records();
  std::stringstream ss;
  EXPECT_EQ(write_text(ss, records), records.size());
  EXPECT_EQ(read_text(ss), records);
}

TEST(TraceIo, BinaryRoundTrip) {
  const auto records = sample_records();
  std::stringstream ss;
  EXPECT_EQ(write_binary(ss, records), records.size());
  EXPECT_EQ(read_binary(ss), records);
}

TEST(TraceIo, TextToleratesCommentsAndBlanks) {
  std::stringstream ss("# comment\n\n100 3 42 W 1 A\n");
  const auto records = read_text(ss);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].time_ps, 100u);
  EXPECT_EQ(records[0].bank, 3u);
  EXPECT_EQ(records[0].row, 42u);
  EXPECT_TRUE(records[0].write);
  EXPECT_TRUE(records[0].is_attack);
}

TEST(TraceIo, TextRejectsMalformed) {
  std::stringstream ss("100 3 42 X 1 A\n");
  EXPECT_THROW(read_text(ss), std::runtime_error);
}

TEST(TraceIo, BinaryRejectsBadMagicAndTruncation) {
  std::stringstream bad("not a trace at all");
  EXPECT_THROW(read_binary(bad), std::runtime_error);

  std::stringstream ss;
  write_binary(ss, sample_records());
  std::string data = ss.str();
  data.resize(data.size() / 2);
  std::stringstream truncated(data);
  EXPECT_THROW(read_binary(truncated), std::runtime_error);
}

TEST(TraceIo, BinaryRejectsCorruptCountWithoutAllocating) {
  // A corrupt header count must fail the "truncated" check before the
  // reader reserves memory for it — not attempt a huge allocation.
  std::stringstream ss;
  write_binary(ss, sample_records());
  std::string data = ss.str();
  const std::uint64_t huge = ~0ull / sizeof(std::uint64_t);
  std::memcpy(data.data() + 8, &huge, sizeof huge);  // count field at offset 8
  std::stringstream corrupt(data);
  try {
    read_binary(corrupt);
    FAIL() << "corrupt count accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  } catch (const std::bad_alloc&) {
    FAIL() << "corrupt count triggered an allocation instead of a parse error";
  }
}

TEST(TraceIo, FileRoundTripByExtension) {
  const auto records = sample_records();
  const std::string text_path = ::testing::TempDir() + "/trace.txt";
  const std::string bin_path = ::testing::TempDir() + "/trace.tvpt";
  save_trace(text_path, records);
  save_trace(bin_path, records);
  EXPECT_EQ(load_trace(text_path), records);
  EXPECT_EQ(load_trace(bin_path), records);
  EXPECT_THROW(load_trace("/nonexistent/dir/x.tvpt"), std::runtime_error);
}

TEST(TraceIo, ImportAddressTrace) {
  dram::Geometry g;
  g.banks_per_rank = 4;
  g.rows_per_bank = 4096;
  g.cols_per_row = 64;
  const dram::AddressMapper mapper(g, dram::AddressMapPolicy::kRowColBank);
  std::stringstream ss(
      "# DRAMSim-style trace\n"
      "0x00001000 READ 100\n"
      "0x00002040 WRITE 250\n"
      "4096 R 400\n"
      "; trailing comment line\n");
  const auto records = import_address_trace(ss, mapper, 1000.0);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].time_ps, 100'000u);
  EXPECT_FALSE(records[0].write);
  EXPECT_TRUE(records[1].write);
  EXPECT_EQ(records[2].time_ps, 400'000u);
  // 0x1000 and 4096 are the same address -> same coordinates.
  EXPECT_EQ(records[0].bank, records[2].bank);
  EXPECT_EQ(records[0].row, records[2].row);
  for (const auto& r : records) {
    EXPECT_LT(r.bank, g.total_banks());
    EXPECT_LT(r.row, g.rows_per_bank);
    EXPECT_FALSE(r.is_attack);
  }
}

TEST(TraceIo, ImportWithoutCyclesSpacesByClock) {
  dram::Geometry g;
  g.banks_per_rank = 2;
  g.rows_per_bank = 1024;
  const dram::AddressMapper mapper(g, dram::AddressMapPolicy::kRowBankCol);
  std::stringstream ss("0x100 R\n0x200 W\n0x300 R\n");
  const auto records = import_address_trace(ss, mapper, 500.0);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].time_ps, 500u);
  EXPECT_EQ(records[1].time_ps, 1000u);
  EXPECT_EQ(records[2].time_ps, 1500u);
}

TEST(TraceIo, ImportRejectsMalformed) {
  dram::Geometry g;
  const dram::AddressMapper mapper(g, dram::AddressMapPolicy::kRowColBank);
  std::stringstream no_op("0x1000\n");
  EXPECT_THROW(import_address_trace(no_op, mapper), std::runtime_error);
  std::stringstream bad_op("0x1000 X\n");
  EXPECT_THROW(import_address_trace(bad_op, mapper), std::runtime_error);
  std::stringstream bad_addr("zzz R\n");
  EXPECT_THROW(import_address_trace(bad_addr, mapper), std::runtime_error);
  std::stringstream bad_clock("0x1000 R\n");
  EXPECT_THROW(import_address_trace(bad_clock, mapper, 0.0),
               std::runtime_error);
  EXPECT_THROW(import_address_trace(bad_clock, mapper, -833.0),
               std::runtime_error);
}

TEST(TraceIo, ImportErrorsCarryTheFailingLineNumber) {
  dram::Geometry g;
  const dram::AddressMapper mapper(g, dram::AddressMapPolicy::kRowColBank);
  std::stringstream ss("0x100 R 1\n0x200 W 2\n0x300\n");
  try {
    import_address_trace(ss, mapper, 1000.0);
    FAIL() << "missing op accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(TraceIo, ImportDefaultClockComesFromDdr4Timing) {
  // The no-clock overloads derive the period from dram::Timing (the
  // DDR4 preset every SimConfig starts from), not a hardcoded constant:
  // all three spellings must agree.
  dram::Geometry g;
  const dram::AddressMapper mapper(g, dram::AddressMapPolicy::kRowColBank);
  const dram::Timing timing = dram::ddr4_timing();
  const std::string text = "0x100 R\n0x200 W\n";
  std::stringstream a(text), b(text), c(text);
  const auto by_default = import_address_trace(a, mapper);
  const auto by_timing = import_address_trace(b, mapper, timing);
  const auto by_clock = import_address_trace(c, mapper, timing.t_ck_ps());
  EXPECT_EQ(by_default, by_timing);
  EXPECT_EQ(by_timing, by_clock);
  ASSERT_EQ(by_default.size(), 2u);
  EXPECT_EQ(by_default[0].time_ps,
            static_cast<std::uint64_t>(timing.t_ck_ps()));
}

TEST(TraceIo, FormatResolutionIsCaseInsensitiveAndOverridable) {
  EXPECT_EQ(resolve_trace_format("a.tvpt", TraceFormat::kAuto),
            TraceFormat::kBinaryV1);
  EXPECT_EQ(resolve_trace_format("a.TVPT", TraceFormat::kAuto),
            TraceFormat::kBinaryV1);
  EXPECT_EQ(resolve_trace_format("a.TvPc", TraceFormat::kAuto),
            TraceFormat::kCorpus);
  EXPECT_EQ(resolve_trace_format("a.trace", TraceFormat::kAuto),
            TraceFormat::kText);
  EXPECT_EQ(resolve_trace_format("tvpt", TraceFormat::kAuto),
            TraceFormat::kText)
      << "an extensionless name that merely ends in the letters is text";
  // An explicit format wins over the extension.
  EXPECT_EQ(resolve_trace_format("a.tvpt", TraceFormat::kText),
            TraceFormat::kText);

  const auto records = sample_records();
  const std::string upper = ::testing::TempDir() + "/trace.TVPT";
  save_trace(upper, records);  // uppercase extension still picks binary
  EXPECT_EQ(load_trace(upper), records);
}

TEST(TraceIo, ImportClampsUnsortedTimes) {
  dram::Geometry g;
  const dram::AddressMapper mapper(g, dram::AddressMapPolicy::kRowColBank);
  std::stringstream ss("0x100 R 100\n0x200 R 50\n");
  const auto records = import_address_trace(ss, mapper, 1.0);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_GE(records[1].time_ps, records[0].time_ps);
}

// ------------------------------------------------------- batched generation
//
// The batch kernels are the only generation bodies, and next() is a
// one-record call into them; these suites pin that every split of a
// stream into batches (and any mix of next() and next_batch() calls)
// yields the same records, that the block merge equals an offline
// stable sort by (time, registration index), and that the kernels equal
// straightforward per-record reference models of the generators.

constexpr std::size_t kBatchSizes[] = {1, 7, 255, 256, 257, 4096};

/// Pulls @p source dry with next_batch(@p chunk).
std::vector<AccessRecord> pull_batched(TraceSource& source, std::size_t chunk,
                                       std::size_t limit = ~std::size_t{0}) {
  std::vector<AccessRecord> out;
  std::vector<AccessRecord> buf(chunk);
  while (out.size() < limit) {
    const std::size_t want = std::min(chunk, limit - out.size());
    const std::size_t n = source.next_batch(buf.data(), want);
    EXPECT_LE(n, want);
    out.insert(out.end(), buf.begin(), buf.begin() + n);
    if (n < want) break;
  }
  return out;
}

/// Pulls @p source dry with next().
std::vector<AccessRecord> pull_next(TraceSource& source,
                                    std::size_t limit = ~std::size_t{0}) {
  std::vector<AccessRecord> out;
  while (out.size() < limit) {
    auto r = source.next();
    if (!r) break;
    out.push_back(*r);
  }
  return out;
}

/// Time-sorted per-source record lists; bank = source index, row = a
/// unique serial, so any reordering shows.
using Streams = std::vector<std::vector<AccessRecord>>;

Streams random_streams(std::size_t sources, std::uint64_t seed,
                       std::uint64_t time_span) {
  util::Rng rng(seed);
  Streams streams(sources);
  dram::RowId serial = 0;
  for (std::size_t s = 0; s < sources; ++s) {
    // Lengths from empty through several blocks, so sources run out at
    // different times and refills cross block boundaries.
    const std::size_t len = s % 5 == 3 ? 0 : rng.below(1200);
    std::uint64_t t = rng.below(time_span);
    for (std::size_t i = 0; i < len; ++i) {
      t += rng.below(time_span);  // small spans force many ties
      streams[s].push_back(rec(t, static_cast<std::uint32_t>(s), serial++));
    }
  }
  return streams;
}

std::unique_ptr<MergedSource> merge_of(const Streams& streams) {
  std::vector<std::unique_ptr<TraceSource>> sources;
  for (const auto& s : streams) sources.push_back(std::make_unique<VectorSource>(s));
  return std::make_unique<MergedSource>(std::move(sources));
}

/// The merge's specification: a stable sort of the concatenated streams
/// by time, so ties keep registration order.
std::vector<AccessRecord> stable_sorted(const Streams& streams) {
  std::vector<AccessRecord> all;
  for (const auto& s : streams) all.insert(all.end(), s.begin(), s.end());
  std::stable_sort(all.begin(), all.end(),
                   [](const AccessRecord& a, const AccessRecord& b) {
                     return a.time_ps < b.time_ps;
                   });
  return all;
}

void expect_merge_matches_spec(const Streams& streams) {
  const auto expected = stable_sorted(streams);
  auto by_next = merge_of(streams);
  ASSERT_EQ(pull_next(*by_next), expected);
  for (const std::size_t chunk : kBatchSizes) {
    auto merged = merge_of(streams);
    EXPECT_EQ(pull_batched(*merged, chunk), expected) << "chunk " << chunk;
    AccessRecord buf[4];
    EXPECT_EQ(merged->next_batch(buf, 4), 0u) << "chunk " << chunk;
    EXPECT_FALSE(merged->next().has_value());
  }
}

TEST(BatchedMerge, EqualsStableSortForEverySourceCountAndBatchSize) {
  for (const std::size_t sources : {1u, 2u, 7u, 9u, 17u}) {
    for (const std::uint64_t span : {3u, 1000u}) {
      SCOPED_TRACE(testing::Message() << sources << " sources, span " << span);
      expect_merge_matches_spec(random_streams(sources, 40 + sources, span));
    }
  }
}

TEST(BatchedMerge, AllTimestampsEqualKeepRegistrationOrder) {
  Streams streams(9);
  dram::RowId serial = 0;
  for (std::size_t s = 0; s < streams.size(); ++s)
    for (std::size_t i = 0; i < 100 * s; ++i)
      streams[s].push_back(rec(42, static_cast<std::uint32_t>(s), serial++));
  expect_merge_matches_spec(streams);
  // Equal times: the merge is the sources one after another.
  auto merged = merge_of(streams);
  const auto out = pull_batched(*merged, 257);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i].row, i);
}

TEST(BatchedMerge, EmptyAndExhaustedSources) {
  expect_merge_matches_spec(Streams(5));  // nothing at all
  Streams streams(7);
  streams[2] = {rec(5, 2, 0), rec(6, 2, 1)};      // runs out first
  for (dram::RowId i = 0; i < 600; ++i)            // outlives the others
    streams[6].push_back(rec(i, 6, 100 + i));
  streams[4] = {rec(0, 4, 50), rec(600, 4, 51)};  // last record at the end
  expect_merge_matches_spec(streams);
}

TEST(BatchedMerge, RefillInsideARunYieldsToTheRunnerUp) {
  // Source 0 drains a whole block in one run, and its next block starts
  // past source 1's head: the merge must switch sources at the refill.
  Streams streams(2);
  for (dram::RowId i = 0; i < MergedSource::kBlockRecords; ++i)
    streams[0].push_back(rec(i, 0, i));
  streams[0].push_back(rec(1000, 0, 900));
  streams[1] = {rec(500, 1, 901), rec(1000, 1, 902)};
  expect_merge_matches_spec(streams);
}

TEST(BatchedMerge, MaxTimestampIsARecordNotExhaustion) {
  constexpr std::uint64_t kMax = ~0ull;
  Streams streams(4);
  streams[0] = {rec(kMax, 0, 0)};
  streams[1] = {rec(1, 1, 1), rec(kMax, 1, 2), rec(kMax, 1, 3)};
  streams[3] = {rec(kMax - 1, 3, 4), rec(kMax, 3, 5)};
  expect_merge_matches_spec(streams);
  auto merged = merge_of(streams);
  std::vector<dram::RowId> rows;
  for (const auto& r : pull_batched(*merged, 256)) rows.push_back(r.row);
  EXPECT_EQ(rows, (std::vector<dram::RowId>{1, 4, 0, 2, 3, 5}));
}

TEST(BatchedMerge, InterleavedNextAndBatchCalls) {
  const auto streams = random_streams(9, 77, 50);
  const auto expected = stable_sorted(streams);
  auto merged = merge_of(streams);
  std::vector<AccessRecord> out;
  std::vector<AccessRecord> buf(4096);
  for (std::size_t step = 0;; ++step) {
    if (step % 3 == 0) {
      auto r = merged->next();
      if (!r) break;
      out.push_back(*r);
    } else {
      const std::size_t chunk = kBatchSizes[step % std::size(kBatchSizes)];
      const std::size_t n = merged->next_batch(buf.data(), chunk);
      out.insert(out.end(), buf.begin(), buf.begin() + n);
      if (n < chunk) break;
    }
  }
  EXPECT_EQ(out, expected);
}

TEST(BatchedLimit, TimeAndCountCutsMatchNextForEveryBatchSize) {
  const auto streams = random_streams(7, 5, 100);
  const auto all = stable_sorted(streams);
  ASSERT_GT(all.size(), 2000u);
  const std::uint64_t mid = all[all.size() / 2].time_ps;
  const std::uint64_t kNone = ~0ull;
  // (record limit, time cut): none, time only (also one past the last
  // record), count only, and both binding in either order.
  const std::pair<std::uint64_t, std::uint64_t> cuts[] = {
      {kNone, kNone}, {kNone, mid}, {kNone, all.back().time_ps + 1},
      {1000, kNone},  {1000, mid},  {all.size(), mid}};
  for (const auto& [limit, end] : cuts) {
    std::vector<AccessRecord> expected;
    for (const auto& r : all)
      if (expected.size() < limit && r.time_ps < end) expected.push_back(r);
      else break;
    LimitSource by_next(merge_of(streams), limit, end);
    EXPECT_EQ(pull_next(by_next), expected);
    for (const std::size_t chunk : kBatchSizes) {
      LimitSource batched(merge_of(streams), limit, end);
      EXPECT_EQ(pull_batched(batched, chunk), expected)
          << "chunk " << chunk << " limit " << limit << " end " << end;
      EXPECT_FALSE(batched.next().has_value());
    }
  }
}

/// Per-record reference model of SyntheticSource: the generator written
/// out draw by draw, with plain modulo arithmetic.
class ReferenceSynthetic {
 public:
  ReferenceSynthetic(const SyntheticConfig& cfg, util::Rng rng)
      : cfg_(cfg), rng_(rng), now_(static_cast<double>(cfg.start_ps)) {
    if (cfg_.profile == AccessProfile::kHotspot)
      for (std::uint32_t i = 0; i < cfg_.hotspot_rows; ++i)
        hot_.push_back(static_cast<dram::RowId>(rng_.below(cfg_.rows_per_bank)));
    cursor_ = static_cast<dram::RowId>(rng_.below(cfg_.rows_per_bank));
  }

  AccessRecord next() {
    const dram::RowId rows = cfg_.rows_per_bank;
    now_ += rng_.exponential(cfg_.mean_interarrival_ps);
    AccessRecord r;
    r.time_ps = static_cast<std::uint64_t>(now_);
    switch (cfg_.profile) {
      case AccessProfile::kStreaming:
        r.row = cursor_ = (cursor_ + 1) % rows;
        break;
      case AccessProfile::kStrided:
        r.row = cursor_ = (cursor_ + cfg_.stride) % rows;
        break;
      case AccessProfile::kRandom:
        r.row = static_cast<dram::RowId>(rng_.below(rows));
        break;
      case AccessProfile::kHotspot:
        if (!hot_.empty() && rng_.bernoulli(cfg_.hotspot_bias))
          r.row = hot_[rng_.below(hot_.size())];
        else
          r.row = static_cast<dram::RowId>(rng_.below(rows));
        break;
      case AccessProfile::kPointerChase: {
        const auto jump =
            static_cast<std::int64_t>(rng_.below(2ull * cfg_.chase_jump + 1)) -
            static_cast<std::int64_t>(cfg_.chase_jump);
        const auto n = static_cast<std::int64_t>(rows);
        const auto pos = static_cast<std::int64_t>(cursor_) + jump;
        r.row = cursor_ = static_cast<dram::RowId>(((pos % n) + n) % n);
        break;
      }
    }
    bank_ = (bank_ + 1 + static_cast<std::uint32_t>(rng_.below(3))) % cfg_.banks;
    r.bank = bank_;
    r.write = rng_.bernoulli(cfg_.write_fraction);
    r.source = cfg_.source_id;
    return r;
  }

 private:
  SyntheticConfig cfg_;
  util::Rng rng_;
  double now_;
  dram::RowId cursor_ = 0;
  std::uint32_t bank_ = 0;
  std::vector<dram::RowId> hot_;
};

TEST(BatchedSynthetic, KernelsMatchReferenceModelForEveryProfile) {
  for (const auto profile :
       {AccessProfile::kStreaming, AccessProfile::kStrided,
        AccessProfile::kRandom, AccessProfile::kHotspot,
        AccessProfile::kPointerChase}) {
    // Edge shapes too: one bank (the bank skip wraps several times),
    // a tiny bank the chase and stride jump across, an empty hot set.
    for (const std::uint32_t banks : {1u, 3u, 16u}) {
      for (const dram::RowId rows : {5u, 131072u}) {
        SyntheticConfig cfg;
        cfg.profile = profile;
        cfg.banks = banks;
        cfg.rows_per_bank = rows;
        cfg.mean_interarrival_ps = 700;
        cfg.stride = 9;
        cfg.chase_jump = 12;
        cfg.hotspot_rows = rows == 5 ? 0 : 8;
        cfg.source_id = 3;
        SCOPED_TRACE(testing::Message() << to_string(profile) << " banks "
                                        << banks << " rows " << rows);
        ReferenceSynthetic reference(cfg, util::Rng(rows + banks));
        std::vector<AccessRecord> expected(3000);
        for (auto& r : expected) r = reference.next();
        SyntheticSource by_next(cfg, util::Rng(rows + banks));
        EXPECT_EQ(pull_next(by_next, expected.size()), expected);
        for (const std::size_t chunk : kBatchSizes) {
          SyntheticSource batched(cfg, util::Rng(rows + banks));
          EXPECT_EQ(pull_batched(batched, chunk, expected.size()), expected)
              << "chunk " << chunk;
        }
      }
    }
  }
}

TEST(BatchedAttack, EveryPatternMatchesReferenceModel) {
  struct Case {
    AttackPattern pattern;
    std::uint32_t far_per_near;
  };
  for (const Case c : {Case{AttackPattern::kDoubleSided, 16},
                       Case{AttackPattern::kManySided, 16},
                       Case{AttackPattern::kFlood, 16},
                       Case{AttackPattern::kHalfDouble, 1},
                       Case{AttackPattern::kHalfDouble, 3},
                       Case{AttackPattern::kFuzzed, 16}}) {
    AttackConfig cfg;
    cfg.pattern = c.pattern;
    cfg.bank = 2;
    cfg.victims = {100, 200};
    cfg.rows_per_bank = 1024;
    cfg.interarrival_ps = 45'000;
    cfg.start_ps = 1'000;
    cfg.end_ps = 45'000ull * 2000 + 1'000;  // exactly 1999 records
    cfg.sides = 3;
    cfg.far_per_near = c.far_per_near;
    cfg.schedule = {99, 101, 99, 300, 101};
    const AttackSource shape(cfg);
    // Reference: emitted % (far_per_near + 1) == 0 picks the dribble.
    std::vector<AccessRecord> expected;
    std::size_t cursor = 0, dribble = 0;
    const auto& cycle =
        c.pattern == AttackPattern::kFuzzed ? cfg.schedule : shape.aggressors();
    for (std::uint64_t k = 1; k < 2000; ++k) {
      AccessRecord r;
      r.time_ps = cfg.start_ps + k * cfg.interarrival_ps;
      r.bank = cfg.bank;
      r.is_attack = true;
      r.source = cfg.source_id;
      if (!shape.dribble_rows().empty() &&
          k % (std::uint64_t{c.far_per_near} + 1) == 0) {
        r.row = shape.dribble_rows()[dribble++ % shape.dribble_rows().size()];
      } else {
        r.row = cycle[cursor++ % cycle.size()];
      }
      expected.push_back(r);
    }
    SCOPED_TRACE(to_string(c.pattern));
    AttackSource by_next(cfg);
    EXPECT_EQ(pull_next(by_next), expected);
    for (const std::size_t chunk : kBatchSizes) {
      AttackSource batched(cfg);
      EXPECT_EQ(pull_batched(batched, chunk), expected) << "chunk " << chunk;
      EXPECT_FALSE(batched.next().has_value());
    }
  }
}

TEST(BatchedAttack, HalfDoubleMaxFarPerNearDoesNotDivideByZero) {
  // far_per_near + 1 used to wrap to 0 in 32 bits (SIGFPE on the first
  // record). In 64 bits the dribble period is 2^32: no dribble here.
  AttackConfig cfg;
  cfg.pattern = AttackPattern::kHalfDouble;
  cfg.victims = {100};
  cfg.rows_per_bank = 1024;
  cfg.far_per_near = 0xFFFFFFFFu;
  AttackSource src(cfg);
  for (const auto& r : pull_batched(src, 4096, 10'000))
    EXPECT_TRUE(r.row == 98 || r.row == 102) << r.row;
  ASSERT_TRUE(src.next().has_value());
}

TEST(BatchedAttack, EndNearMaxTimeStopsWithoutWrapping) {
  // The clock must stop at end_ps, not wrap past UINT64_MAX.
  AttackConfig cfg;
  cfg.victims = {100};
  cfg.rows_per_bank = 1024;
  cfg.interarrival_ps = 1ull << 62;
  cfg.start_ps = 0;
  cfg.end_ps = ~0ull;
  AttackSource src(cfg);
  const auto out = pull_batched(src, 7);
  ASSERT_EQ(out.size(), 3u);  // 2^62, 2^63, 3 * 2^62
  EXPECT_EQ(out.back().time_ps, 3ull << 62);
  EXPECT_FALSE(src.next().has_value());
  EXPECT_FALSE(src.next().has_value());
}

// -------------------------------------------------------------------- stats

TEST(TraceStats, CountsAndRates) {
  TraceStats stats(1000, 2);  // tREFI=1000ps, 2 banks
  for (int i = 0; i < 10; ++i) {
    AccessRecord r = rec(i * 100, i % 2, 5);
    r.is_attack = i < 3;
    r.write = i % 5 == 0;
    stats.add(r);
  }
  EXPECT_EQ(stats.records(), 10u);
  EXPECT_EQ(stats.attack_records(), 3u);
  EXPECT_DOUBLE_EQ(stats.attack_fraction(), 0.3);
  EXPECT_EQ(stats.writes(), 2u);
  EXPECT_EQ(stats.unique_rows(), 2u);  // row 5 in banks 0 and 1
  EXPECT_EQ(stats.hottest_row_count(), 5u);
  const auto per_interval = stats.acts_per_interval_per_bank();
  EXPECT_EQ(per_interval.count(), 2u);  // (interval 0, banks 0 and 1)
  EXPECT_DOUBLE_EQ(per_interval.mean(), 5.0);
}

TEST(TraceStats, InvalidConfigThrows) {
  EXPECT_THROW(TraceStats(0, 2), std::invalid_argument);
  EXPECT_THROW(TraceStats(1000, 0), std::invalid_argument);
}

}  // namespace
}  // namespace tvp::trace
