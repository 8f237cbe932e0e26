// Unit tests for tvp::cpu — cache model, synthetic cores, and the
// cache-filtered trace front-end (the gem5 stand-in).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "tvp/cpu/cache.hpp"
#include "tvp/cpu/core.hpp"
#include "tvp/cpu/frontend.hpp"
#include "tvp/cpu/page_mapper.hpp"

namespace tvp::cpu {
namespace {

// -------------------------------------------------------------------- cache

TEST(CacheConfig, ValidatesShape) {
  CacheConfig ok{64 * 1024, 64, 8};
  EXPECT_NO_THROW(ok.validate());
  EXPECT_EQ(ok.sets(), 128u);
  CacheConfig bad{64 * 1024, 48, 8};  // non-pow2 line
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  CacheConfig zero{0, 64, 8};
  EXPECT_THROW(zero.validate(), std::invalid_argument);
}

TEST(Cache, MissThenHit) {
  Cache cache(CacheConfig{1024, 64, 2});
  const auto miss = cache.access(0x1000, false);
  EXPECT_FALSE(miss.hit);
  EXPECT_EQ(miss.fill_addr, 0x1000u);
  EXPECT_FALSE(miss.writeback_addr.has_value());
  const auto hit = cache.access(0x1000 + 8, false);  // same line
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(Cache, LruEviction) {
  // 2-way, 8 sets of 64 B lines: addresses 0, 1024, 2048 map to set 0.
  Cache cache(CacheConfig{1024, 64, 2});
  cache.access(0, false);
  cache.access(1024, false);
  cache.access(0, false);           // 0 is now MRU
  const auto r = cache.access(2048, false);
  EXPECT_FALSE(r.hit);              // evicts 1024 (LRU)
  EXPECT_TRUE(cache.access(0, false).hit);
  EXPECT_FALSE(cache.access(1024, false).hit);  // was evicted
}

TEST(Cache, DirtyWritebackOnEviction) {
  Cache cache(CacheConfig{1024, 64, 2});
  cache.access(0, true);  // dirty
  cache.access(1024, false);
  const auto r = cache.access(2048, false);  // evicts dirty line 0
  EXPECT_FALSE(r.hit);
  ASSERT_TRUE(r.writeback_addr.has_value());
  EXPECT_EQ(*r.writeback_addr, 0u);
}

TEST(Cache, CleanEvictionHasNoWriteback) {
  Cache cache(CacheConfig{1024, 64, 2});
  cache.access(0, false);
  cache.access(1024, false);
  const auto r = cache.access(2048, false);
  EXPECT_FALSE(r.writeback_addr.has_value());
}

TEST(Cache, WriteHitMarksDirty) {
  Cache cache(CacheConfig{1024, 64, 2});
  cache.access(0, false);
  cache.access(0, true);  // dirtied by the hit
  cache.access(1024, false);
  const auto r = cache.access(2048, false);
  ASSERT_TRUE(r.writeback_addr.has_value());
}

TEST(Cache, FlushLine) {
  Cache cache(CacheConfig{1024, 64, 2});
  cache.access(0x40, true);
  const auto wb = cache.flush_line(0x40);
  ASSERT_TRUE(wb.has_value());
  EXPECT_EQ(*wb, 0x40u);
  EXPECT_FALSE(cache.access(0x40, false).hit);  // gone
  EXPECT_FALSE(cache.flush_line(0x7000).has_value());  // not present
}

// Property: the cache agrees with a reference map on hits/misses.
TEST(Cache, AgreesWithReferenceModel) {
  const CacheConfig cfg{4096, 64, 4};
  Cache cache(cfg);
  // Reference: per set, list of (tag, lru) with true LRU.
  std::map<std::uint32_t, std::vector<std::uint64_t>> reference;  // MRU front
  util::Rng rng(31);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t addr = rng.below(1 << 16) & ~63ull;
    const std::uint32_t set =
        static_cast<std::uint32_t>((addr / 64) % cfg.sets());
    const std::uint64_t tag = addr / 64 / cfg.sets();
    auto& ways = reference[set];
    const auto it = std::find(ways.begin(), ways.end(), tag);
    const bool expect_hit = it != ways.end();
    if (expect_hit) ways.erase(it);
    ways.insert(ways.begin(), tag);
    if (ways.size() > cfg.ways) ways.pop_back();

    EXPECT_EQ(cache.access(addr, false).hit, expect_hit) << "op " << i;
  }
}

// --------------------------------------------------------------------- core

TEST(Core, AddressesStayInRegion) {
  CoreConfig cfg;
  cfg.region_base = 1 << 20;
  cfg.region_bytes = 1 << 16;
  for (const auto profile :
       {trace::AccessProfile::kStreaming, trace::AccessProfile::kRandom,
        trace::AccessProfile::kHotspot, trace::AccessProfile::kPointerChase,
        trace::AccessProfile::kStrided}) {
    cfg.profile = profile;
    Core core(cfg, util::Rng(17));
    for (int i = 0; i < 2000; ++i) {
      const MemOp op = core.next();
      EXPECT_GE(op.addr, cfg.region_base);
      EXPECT_LT(op.addr, cfg.region_base + cfg.region_bytes);
    }
  }
}

TEST(Core, TimeAdvancesMonotonically) {
  Core core(CoreConfig{}, util::Rng(19));
  std::uint64_t last = 0;
  for (int i = 0; i < 1000; ++i) {
    const MemOp op = core.next();
    EXPECT_GE(op.time_ps, last);
    last = op.time_ps;
  }
}

TEST(Core, InvalidConfigThrows) {
  CoreConfig cfg;
  cfg.region_bytes = 0;
  EXPECT_THROW(Core(cfg, util::Rng(1)), std::invalid_argument);
  cfg = CoreConfig{};
  cfg.mean_gap_ps = 0;
  EXPECT_THROW(Core(cfg, util::Rng(1)), std::invalid_argument);
}

// ----------------------------------------------------------------- frontend

dram::Geometry small_geometry() {
  dram::Geometry g;
  g.banks_per_rank = 4;
  g.rows_per_bank = 4096;
  g.cols_per_row = 64;
  return g;
}

TEST(Frontend, EmitsTimeOrderedDramTraffic) {
  auto cfg = default_frontend(small_geometry());
  CoreFrontend frontend(cfg, util::Rng(23));
  std::uint64_t last = 0;
  for (int i = 0; i < 5000; ++i) {
    const auto r = frontend.next();
    ASSERT_TRUE(r.has_value());
    EXPECT_GE(r->time_ps, last);
    last = r->time_ps;
    EXPECT_LT(r->bank, small_geometry().total_banks());
    EXPECT_LT(r->row, small_geometry().rows_per_bank);
    EXPECT_FALSE(r->is_attack);
  }
}

TEST(Frontend, CachesFilterMostTraffic) {
  auto cfg = default_frontend(small_geometry());
  CoreFrontend frontend(cfg, util::Rng(29));
  for (int i = 0; i < 20000; ++i) frontend.next();
  // A SPEC-like mix is strongly cache-filtered: L1 absorbs the bulk.
  EXPECT_GT(frontend.l1_hit_rate(), 0.3);
  EXPECT_LE(frontend.l1_hit_rate(), 1.0);
  EXPECT_GE(frontend.l2_hit_rate(), 0.0);
}

TEST(Frontend, CoversMultipleBanks) {
  auto cfg = default_frontend(small_geometry());
  CoreFrontend frontend(cfg, util::Rng(31));
  std::set<dram::BankId> banks;
  for (int i = 0; i < 5000; ++i) banks.insert(frontend.next()->bank);
  EXPECT_EQ(banks.size(), small_geometry().total_banks());
}

TEST(Frontend, DeterministicForSameSeed) {
  auto cfg = default_frontend(small_geometry());
  CoreFrontend a(cfg, util::Rng(37));
  CoreFrontend b(cfg, util::Rng(37));
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(*a.next(), *b.next());

  // next_batch is the generation body; next() is a one-record call into
  // it. Any batch size yields the next() sequence.
  std::vector<trace::AccessRecord> via_next(8192);
  CoreFrontend by_next(cfg, util::Rng(37));
  for (auto& r : via_next) r = *by_next.next();
  for (const std::size_t size : {1ul, 7ul, 4096ul}) {
    CoreFrontend by_batch(cfg, util::Rng(37));
    std::vector<trace::AccessRecord> via_batch(via_next.size());
    for (std::size_t at = 0; at < via_batch.size(); at += size) {
      const std::size_t want = std::min(size, via_batch.size() - at);
      ASSERT_EQ(by_batch.next_batch(via_batch.data() + at, want), want);
    }
    EXPECT_EQ(via_batch, via_next) << "batch " << size;
  }
}

TEST(Frontend, PrefetcherAddsSequentialFills) {
  auto cfg = default_frontend(small_geometry());
  cfg.prefetch.enable = true;
  cfg.prefetch.degree = 2;
  CoreFrontend with_pf(cfg, util::Rng(41));
  cfg.prefetch.enable = false;
  CoreFrontend without_pf(cfg, util::Rng(41));
  for (int i = 0; i < 20000; ++i) {
    with_pf.next();
    without_pf.next();
  }
  EXPECT_GT(with_pf.prefetch_fills(), 0u);
  EXPECT_EQ(without_pf.prefetch_fills(), 0u);
}

TEST(Frontend, PrefetcherImprovesStreamingHitRate) {
  // A purely streaming core benefits most from next-line prefetch.
  FrontendConfig cfg;
  cfg.geometry = small_geometry();
  CoreConfig core;
  core.profile = trace::AccessProfile::kStreaming;
  core.region_bytes = 1 << 22;
  cfg.cores = {core};
  cfg.prefetch.enable = true;
  cfg.prefetch.degree = 4;
  CoreFrontend with_pf(cfg, util::Rng(43));
  cfg.prefetch.enable = false;
  CoreFrontend without_pf(cfg, util::Rng(43));
  for (int i = 0; i < 5000; ++i) {
    with_pf.next();
    without_pf.next();
  }
  EXPECT_GT(with_pf.l2_hit_rate(), without_pf.l2_hit_rate());
}

TEST(Frontend, RejectsEmptyCoreList) {
  FrontendConfig cfg;
  cfg.geometry = small_geometry();
  EXPECT_THROW(CoreFrontend(cfg, util::Rng(1)), std::invalid_argument);
}

// --------------------------------------------------------------- page mapper

TEST(PageMapper, ContiguousIsIdentity) {
  util::Rng rng(1);
  const PageMapper mapper(1024, 8, PagePolicyOs::kContiguous, rng);
  for (dram::RowId r = 0; r < 1024; r += 13)
    EXPECT_EQ(mapper.to_physical(r), r);
  EXPECT_TRUE(mapper.preserves_adjacency(100));
}

TEST(PageMapper, RandomizedIsABijection) {
  util::Rng rng(2);
  const PageMapper mapper(1024, 4, PagePolicyOs::kRandomized, rng);
  std::set<dram::RowId> images;
  for (dram::RowId r = 0; r < 1024; ++r) {
    const auto phys = mapper.to_physical(r);
    EXPECT_LT(phys, 1024u);
    EXPECT_TRUE(images.insert(phys).second);
  }
}

TEST(PageMapper, RandomizationBreaksCrossPageAdjacency) {
  util::Rng rng(3);
  const PageMapper mapper(1 << 16, 1, PagePolicyOs::kRandomized, rng);
  int preserved = 0;
  for (dram::RowId r = 0; r < 2000; ++r)
    preserved += mapper.preserves_adjacency(r);
  EXPECT_LT(preserved, 5);  // ~2000/65536 expected by chance
}

TEST(PageMapper, IntraPageAdjacencySurvives) {
  util::Rng rng(4);
  const PageMapper mapper(1024, 8, PagePolicyOs::kRandomized, rng);
  // Rows 16 and 17 share a page: their offset distance is preserved.
  EXPECT_EQ(mapper.to_physical(17), mapper.to_physical(16) + 1);
  EXPECT_TRUE(mapper.preserves_adjacency(16));
}

TEST(PageMapper, Validation) {
  util::Rng rng(5);
  EXPECT_THROW(PageMapper(1000, 16, PagePolicyOs::kContiguous, rng),
               std::invalid_argument);  // 1000 is not a multiple of 16
  EXPECT_THROW(PageMapper(0, 1, PagePolicyOs::kContiguous, rng),
               std::invalid_argument);
  const PageMapper mapper(64, 8, PagePolicyOs::kContiguous, rng);
  EXPECT_THROW(mapper.to_physical(64), std::out_of_range);
  EXPECT_FALSE(mapper.preserves_adjacency(63));  // edge
}

}  // namespace
}  // namespace tvp::cpu
