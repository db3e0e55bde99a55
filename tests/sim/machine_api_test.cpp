// Machine public-API behaviours: construction validation, preloads,
// read_word coherence, stats reporting, stepping, access logs, and the
// error for an access beyond the end of memory.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "isa/builder.hpp"
#include "sim/machine.hpp"
#include "sim/workloads.hpp"

namespace mcsim {
namespace {

Program trivial() {
  ProgramBuilder b;
  b.li(1, 7);
  b.store(1, ProgramBuilder::abs(0x100));
  b.halt();
  return b.build();
}

TEST(MachineApi, RejectsInvalidConfig) {
  SystemConfig cfg = SystemConfig::paper_default(1, ConsistencyModel::kSC);
  cfg.cache.num_sets = 3;  // not a power of two
  EXPECT_THROW(Machine(cfg, {trivial()}), std::invalid_argument);
}

TEST(MachineApi, RejectsProgramCountMismatch) {
  SystemConfig cfg = SystemConfig::paper_default(2, ConsistencyModel::kSC);
  EXPECT_THROW(Machine(cfg, {trivial()}), std::invalid_argument);
}

TEST(MachineApi, DataInitializersApplyBeforeRun) {
  ProgramBuilder b;
  b.data(0x200, 42);
  b.halt();
  SystemConfig cfg = SystemConfig::paper_default(1, ConsistencyModel::kSC);
  Machine m(cfg, {b.build()});
  EXPECT_EQ(m.read_word(0x200), 42u);  // visible pre-run
  m.run();
  EXPECT_EQ(m.read_word(0x200), 42u);
}

TEST(MachineApi, ReadWordPrefersExclusiveCachedCopy) {
  SystemConfig cfg = SystemConfig::paper_default(1, ConsistencyModel::kSC);
  Machine m(cfg, {trivial()});
  RunResult r = m.run();
  ASSERT_FALSE(r.deadlocked);
  // The store's line is dirty in the cache; memory still has 0.
  EXPECT_EQ(m.cache(0).line_state(0x100), LineState::kExclusive);
  EXPECT_EQ(m.directory().memory().read(0x100), 0u);
  EXPECT_EQ(m.read_word(0x100), 7u);  // coherent view
}

TEST(MachineApi, PreloadSharedMakesLoadsHit) {
  ProgramBuilder b;
  b.data(0x300, 9);
  b.load(1, ProgramBuilder::abs(0x300));
  b.halt();
  SystemConfig cfg = SystemConfig::paper_default(1, ConsistencyModel::kSC);
  Machine m(cfg, {b.build()});
  m.preload_shared(0, 0x300);
  RunResult r = m.run();
  ASSERT_FALSE(r.deadlocked);
  EXPECT_EQ(m.core(0).reg(1), 9u);
  EXPECT_LT(r.cycles, 10u) << "a preloaded line must hit";
  EXPECT_EQ(m.cache(0).stats().get("load_hit"), 1u);
}

TEST(MachineApi, SharedPreloadsOfOneLineKeepEverySharer) {
  // Both caches preload 0x1080 (value 9) shared; P1's store of 0 must
  // invalidate P0's copy before it performs, so P0's load, which
  // performs after that store, reads 0. The smallest fuzz reproducer
  // of seed 1 (SC with prefetch): with the sharer set cleared on each
  // preload, P1's upgrade skipped the invalidation and P0 read 9.
  ProgramBuilder p0;
  p0.data(0x1080, 9);
  p0.li(1, 1);
  p0.store(1, ProgramBuilder::abs(0x1040));
  p0.load(2, ProgramBuilder::abs(0x1080));
  p0.halt();
  ProgramBuilder p1;
  p1.store(0, ProgramBuilder::abs(0x1080));  // r0 is hardwired to 0
  p1.halt();
  SystemConfig cfg = SystemConfig::paper_default(2, ConsistencyModel::kSC);
  cfg.core.prefetch = PrefetchMode::kNonBinding;
  Machine m(cfg, {p0.build(), p1.build()});
  m.preload_shared(0, 0x1080);
  m.preload_shared(1, 0x1080);
  EXPECT_EQ(m.directory().sharers(0x1080), 0b11u);
  RunResult r = m.run();
  ASSERT_FALSE(r.deadlocked);
  EXPECT_EQ(m.core(0).reg(2), 0u);
}

TEST(MachineApi, PreloadExclusiveMakesStoresHit) {
  SystemConfig cfg = SystemConfig::paper_default(1, ConsistencyModel::kSC);
  Machine m(cfg, {trivial()});
  m.preload_exclusive(0, 0x100);
  RunResult r = m.run();
  ASSERT_FALSE(r.deadlocked);
  EXPECT_LT(r.cycles, 10u);
}

TEST(MachineApi, StepAdvancesOneCycle) {
  SystemConfig cfg = SystemConfig::paper_default(1, ConsistencyModel::kSC);
  Machine m(cfg, {trivial()});
  EXPECT_EQ(m.now(), 0u);
  m.step();
  EXPECT_EQ(m.now(), 1u);
  while (!m.done()) m.step();
  EXPECT_TRUE(m.core(0).halted());
}

TEST(MachineApi, StatsReportMentionsEveryComponent) {
  SystemConfig cfg = SystemConfig::paper_default(2, ConsistencyModel::kSC);
  Machine m(cfg, {trivial(), trivial()});
  m.run();
  std::string rep = m.stats_report();
  for (const char* key : {"core0.", "core1.", "lsu0.", "cache0.", "dir.", "net."})
    EXPECT_NE(rep.find(key), std::string::npos) << key;
}

TEST(MachineApi, AccessLogsEmptyUnlessEnabled) {
  SystemConfig cfg = SystemConfig::paper_default(1, ConsistencyModel::kSC);
  Machine m(cfg, {trivial()});
  m.run();
  EXPECT_TRUE(m.access_logs()[0].empty());

  cfg.record_accesses = true;
  Machine m2(cfg, {trivial()});
  m2.run();
  auto log = m2.access_logs()[0];
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].addr, 0x100u);
  EXPECT_EQ(log[0].kind, AccessKind::kStore);
  EXPECT_EQ(log[0].value, 7u);
}

TEST(MachineApi, DeadlockWatchdogReports) {
  // A program that spins forever on a flag nobody sets.
  ProgramBuilder b;
  b.spin_until_eq(0x400, 1);
  b.halt();
  SystemConfig cfg = SystemConfig::paper_default(1, ConsistencyModel::kSC);
  cfg.max_cycles = 2000;
  Machine m(cfg, {b.build()});
  RunResult r = m.run();
  EXPECT_TRUE(r.deadlocked);
  EXPECT_GE(r.cycles, 2000u);
}

TEST(MachineApi, RetiredCountsPerProcessor) {
  SystemConfig cfg = SystemConfig::paper_default(2, ConsistencyModel::kSC);
  Machine m(cfg, {trivial(), trivial()});
  RunResult r = m.run();
  ASSERT_EQ(r.retired.size(), 2u);
  EXPECT_EQ(r.retired[0], 3u);  // li, st, halt
  EXPECT_EQ(r.retired[1], 3u);
}

TEST(MachineApi, AccessBeyondMemoryNamesAddressAndMemBytes) {
  // 64 producer/consumer pairs need more than the default 1 MiB of
  // memory (the workload's min_mem_bytes); a machine built without
  // raising mem_bytes must say which access fell off the end.
  Workload w = make_producer_consumer(64, 2);
  SystemConfig cfg = SystemConfig::realistic(64, ConsistencyModel::kSC);
  ASSERT_GT(w.min_mem_bytes, cfg.mem.mem_bytes);
  Machine m(cfg, w.programs);
  try {
    m.run();
    FAIL() << "run() past the end of memory did not throw";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("byte address 1048576"), std::string::npos) << what;
    EXPECT_NE(what.find("mem_bytes 1048576"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace mcsim
