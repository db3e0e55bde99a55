// Randomized differential campaign for the fast-forward scheduler:
// seeded litmus_gen programs run through both schedulers — naive
// tick-every-cycle and event-driven skipping — across every topology,
// and the complete observable outcome (timing, retirement, stall
// attribution, final registers and memory, the full stats report) must
// be bit-identical. A worker-count sweep on top pins that skipping
// composes with the parallel experiment runner.
//
// With the in-test seeds x models x topologies this exercises well over
// a hundred program pairs per run; any divergence prints the seed, so
// a failure is reproducible with generate_litmus(cfg, seed).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/machine.hpp"
#include "sva/litmus_gen.hpp"

namespace mcsim {
namespace {

using sva::LitmusGenConfig;
using sva::LitmusProgram;
using sva::generate_litmus;

struct Outcome {
  RunResult result;
  std::string stats;
  std::vector<Word> regs;
  std::vector<Word> mem;
};

Outcome run_one(const LitmusProgram& lp, SystemConfig cfg, bool fastforward) {
  cfg.fastforward = fastforward;
  Machine m(cfg, lp.programs);
  for (const auto& [p, a] : lp.preload_shared) m.preload_shared(p, a);
  Outcome o;
  o.result = m.run();
  o.stats = m.stats_report();
  for (ProcId p = 0; p < cfg.num_procs; ++p) {
    for (RegId r = 0; r < kNumArchRegs; ++r) o.regs.push_back(m.core(p).reg(r));
  }
  for (Addr a : lp.addrs) o.mem.push_back(m.read_word(a));
  return o;
}

void expect_identical(const Outcome& ff, const Outcome& naive, const std::string& what) {
  ASSERT_EQ(ff.result.cycles, naive.result.cycles) << what;
  ASSERT_EQ(ff.result.ticks, naive.result.ticks) << what;
  ASSERT_EQ(ff.result.deadlocked, naive.result.deadlocked) << what;
  ASSERT_EQ(ff.result.retired, naive.result.retired) << what;
  ASSERT_EQ(ff.result.drain_cycle, naive.result.drain_cycle) << what;
  ASSERT_EQ(ff.result.stall, naive.result.stall) << what;
  ASSERT_EQ(ff.regs, naive.regs) << what;
  ASSERT_EQ(ff.mem, naive.mem) << what;
  ASSERT_EQ(ff.stats, naive.stats) << what << " (stats report diverged)";
}

TEST(FastForwardProperty, RandomLitmusMatchesNaiveAcrossTopologies) {
  LitmusGenConfig gen;
  gen.max_threads = 4;
  const ConsistencyModel models[] = {ConsistencyModel::kSC, ConsistencyModel::kPC,
                                     ConsistencyModel::kWC, ConsistencyModel::kRC};
  std::uint64_t pairs = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const LitmusProgram lp = generate_litmus(gen, seed);
    for (ConsistencyModel model : models) {
      for (Topology topo :
           {Topology::kCrossbar, Topology::kRing, Topology::kMesh2D}) {
        SystemConfig cfg = SystemConfig::paper_default(
            static_cast<std::uint32_t>(lp.programs.size()), model);
        cfg.mem.topology = topo;
        cfg.max_cycles = 200'000;
        const std::string what = "seed=" + std::to_string(seed) + " " +
                                 to_string(model) + " " + to_string(topo);
        const Outcome ff = run_one(lp, cfg, true);
        const Outcome naive = run_one(lp, cfg, false);
        expect_identical(ff, naive, what);
        ASSERT_FALSE(ff.result.deadlocked) << what;
        // Skip accounting: every core's stall breakdown still sums to
        // the machine's tick count even when most ticks were skipped.
        for (std::size_t p = 0; p < ff.result.stall.size(); ++p) {
          std::uint64_t sum = 0;
          for (std::uint64_t c : ff.result.stall[p]) sum += c;
          ASSERT_EQ(sum, static_cast<std::uint64_t>(ff.result.ticks))
              << what << " core " << p;
        }
        ++pairs;
      }
    }
  }
  EXPECT_GE(pairs, 100u) << "campaign shrank below the acceptance floor";
}

TEST(FastForwardProperty, SpeculationAndPrefetchTechniquesMatchToo) {
  // The paper's two techniques stress the squash/reissue and prefetch
  // paths — the progress-flag sites hardest to get right.
  LitmusGenConfig gen;
  gen.sync_pct = 35;
  gen.rmw_pct = 25;
  for (std::uint64_t seed = 100; seed < 112; ++seed) {
    const LitmusProgram lp = generate_litmus(gen, seed);
    SystemConfig cfg = SystemConfig::paper_default(
        static_cast<std::uint32_t>(lp.programs.size()), ConsistencyModel::kRC);
    cfg.core.speculative_loads = true;
    cfg.core.prefetch = PrefetchMode::kNonBinding;
    cfg.max_cycles = 200'000;
    const std::string what = "techniques seed=" + std::to_string(seed);
    expect_identical(run_one(lp, cfg, true), run_one(lp, cfg, false), what);
  }
}

TEST(FastForwardProperty, RunnerSweepMatchesNaiveAtAnyWorkerCount) {
  // The same random cells through the ExperimentRunner, fast-forward
  // vs naive and serial vs 4 workers: four bit-identical result sets.
  LitmusGenConfig gen;
  ExperimentGrid ff_grid("ff");
  ExperimentGrid naive_grid("naive");
  for (std::uint64_t seed = 200; seed < 208; ++seed) {
    const LitmusProgram lp = generate_litmus(gen, seed);
    SystemConfig cfg = SystemConfig::paper_default(
        static_cast<std::uint32_t>(lp.programs.size()), ConsistencyModel::kSC);
    cfg.max_cycles = 200'000;
    Workload w;
    w.name = "litmus-" + std::to_string(seed);
    w.programs = lp.programs;
    w.preload_shared = lp.preload_shared;
    SystemConfig naive_cfg = cfg;
    naive_cfg.fastforward = false;
    std::size_t i = ff_grid.add(w, cfg);
    ff_grid.cell(i).config.record_accesses = true;
    ff_grid.cell(i).watch = lp.addrs;
    i = naive_grid.add(w, naive_cfg);
    naive_grid.cell(i).config.record_accesses = true;
    naive_grid.cell(i).watch = lp.addrs;
  }
  const std::vector<CellResult> ff1 = ExperimentRunner(1).run(ff_grid);
  const std::vector<CellResult> ff4 = ExperimentRunner(4).run(ff_grid);
  const std::vector<CellResult> naive1 = ExperimentRunner(1).run(naive_grid);
  for (std::size_t i = 0; i < ff1.size(); ++i) {
    ASSERT_TRUE(ff1[i].ok()) << ff1[i].cell_label << ": " << ff1[i].error;
    for (const std::vector<CellResult>* other : {&ff4, &naive1}) {
      const CellResult& o = (*other)[i];
      ASSERT_TRUE(o.ok()) << o.cell_label << ": " << o.error;
      ASSERT_EQ(ff1[i].stats.cycles, o.stats.cycles) << i;
      ASSERT_EQ(ff1[i].stats.ticks, o.stats.ticks) << i;
      ASSERT_EQ(ff1[i].stats.retired, o.stats.retired) << i;
      ASSERT_EQ(ff1[i].stats.stall, o.stats.stall) << i;
      ASSERT_EQ(ff1[i].watch_values, o.watch_values) << i;
      ASSERT_EQ(ff1[i].final_regs, o.final_regs) << i;
    }
  }
}

}  // namespace
}  // namespace mcsim
