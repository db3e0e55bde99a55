// End-to-end tests of the differential fuzz harness: a clean machine
// yields a violation-free campaign; an injected policy fault is caught
// and shrunk to a tiny reproducer; partial SC enumeration is reported
// as inconclusive rather than passing; and the report is identical
// whatever the worker count.
#include <filesystem>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "consistency/policy.hpp"
#include "sva/fuzz_harness.hpp"

namespace mcsim {
namespace {

using namespace sva;

FuzzConfig small_config() {
  FuzzConfig cfg;
  cfg.programs = 4;
  cfg.seed = 1;
  cfg.workers = 2;
  cfg.repro_dir.clear();  // keep reproducers in memory
  return cfg;
}

class FuzzHarness : public ::testing::Test {
 protected:
  void TearDown() override { set_policy_fault(PolicyFault::kNone); }
};

TEST_F(FuzzHarness, CleanMachinePassesEveryCell) {
  FuzzConfig cfg = small_config();
  FuzzReport rep = run_fuzz(cfg);
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_EQ(rep.programs, cfg.programs);
  EXPECT_EQ(rep.cells, cfg.programs * cfg.models.size() * cfg.techniques.size());
  EXPECT_GT(rep.arcs_checked, 0u);
  EXPECT_GT(rep.reads_checked, 0u);
  EXPECT_GT(rep.sc_outcomes_checked, 0u);
  EXPECT_EQ(rep.inconclusive_sc, 0u);
}

TEST_F(FuzzHarness, InjectedFaultIsCaughtAndShrunkSmall) {
  // The acceptance loop: weaken SC's load gate, fuzz SC only, and the
  // harness must find it AND shrink the reproducer to a handful of
  // instructions. Run once keeping the reproducer in memory and once
  // writing it under a nested directory that does not exist yet: the
  // campaign must create it, and the written file must replay.
  const std::filesystem::path root = "fuzz_harness_test_repros";
  std::filesystem::remove_all(root);
  for (const std::string& repro_dir : {std::string(), (root / "nested").string()}) {
    SCOPED_TRACE("repro_dir=" + repro_dir);
    set_policy_fault(PolicyFault::kSCLoadIgnoresStores);
    FuzzConfig cfg = small_config();
    cfg.programs = 30;
    cfg.models = {ConsistencyModel::kSC};
    cfg.max_failures = 1;  // stop at the first catch
    cfg.repro_dir = repro_dir;
    FuzzReport rep = run_fuzz(cfg);
    ASSERT_FALSE(rep.ok()) << "the fuzzer missed an injected SC hole";
    EXPECT_TRUE(rep.errors.empty()) << rep.summary();
    const FuzzViolation& v = rep.violations.front();
    EXPECT_EQ(v.cell.model, ConsistencyModel::kSC);
    EXPECT_LE(v.shrunk_insts, 8u) << "shrinker left a bloated reproducer";
    EXPECT_GE(v.shrunk_insts, 1u);
    EXPECT_FALSE(v.repro.note.empty());
    EXPECT_EQ(v.repro.litmus.seed, v.seed);
    Reproducer replayed = v.repro;
    if (repro_dir.empty()) {
      EXPECT_TRUE(v.repro_path.empty());
    } else {
      ASSERT_FALSE(v.repro_path.empty()) << "reproducer not written";
      ASSERT_TRUE(std::filesystem::exists(v.repro_path)) << v.repro_path;
      replayed = load_reproducer(v.repro_path);
    }
    // Replay on the cell the reproducer records, as fuzz_models --replay
    // does. The shrunk reproducer still fails while the fault is active...
    EXPECT_EQ(replayed.cell.label(), v.cell.label());
    CellCheck still = verify_litmus_cell(replayed.litmus, replayed.cell, nullptr);
    EXPECT_TRUE(still.failed) << "shrunk reproducer no longer reproduces";
    // ...and is clean once the machine is healthy again.
    set_policy_fault(PolicyFault::kNone);
    CellCheck healthy = verify_litmus_cell(replayed.litmus, replayed.cell, nullptr);
    EXPECT_FALSE(healthy.failed) << healthy.detail;
  }
  std::filesystem::remove_all(root);
}

TEST_F(FuzzHarness, ReproducerFileRecordsItsMemorySystem) {
  // The fault self-test on a contended mesh with a coarse, 2-bank
  // directory: the file must carry that memory system, so a replay from
  // the file runs the very cell that failed, and the campaign table
  // (built from cfg.cells()) has a row for every violation.
  const std::filesystem::path dir = "fuzz_harness_test_mem_repros";
  std::filesystem::remove_all(dir);
  set_policy_fault(PolicyFault::kSCLoadIgnoresStores);
  FuzzConfig cfg = small_config();
  cfg.programs = 30;
  cfg.models = {ConsistencyModel::kSC};
  cfg.max_failures = 1;
  cfg.repro_dir = dir.string();
  cfg.mem.topology = Topology::kMesh2D;
  cfg.mem.dir_scheme = DirScheme::kCoarseVector;
  cfg.mem.dir_banks = 2;
  FuzzReport rep = run_fuzz(cfg);
  ASSERT_FALSE(rep.ok()) << "the fuzzer missed an injected SC hole on the mesh";
  std::set<std::string> labels;
  for (const FuzzCell& c : cfg.cells()) labels.insert(c.label());
  for (const FuzzViolation& v : rep.violations)
    EXPECT_EQ(labels.count(v.cell.label()), 1u) << v.cell.label();
  const FuzzViolation& v = rep.violations.front();
  ASSERT_FALSE(v.repro_path.empty()) << rep.summary();
  const Reproducer replayed = load_reproducer(v.repro_path);
  EXPECT_EQ(replayed.cell.label(), v.cell.label());
  EXPECT_EQ(replayed.cell.mem, cfg.mem);
  EXPECT_NE(replayed.cell.label().find("@mesh2d#coarsex2"), std::string::npos);
  EXPECT_TRUE(verify_litmus_cell(replayed.litmus, replayed.cell, nullptr).failed)
      << "the recorded cell no longer reproduces";
  std::filesystem::remove_all(dir);
}

TEST_F(FuzzHarness, PartialScEnumerationIsInconclusiveNotPassing) {
  FuzzConfig cfg = small_config();
  cfg.programs = 2;
  cfg.models = {ConsistencyModel::kSC};
  cfg.sc_max_states = 4;  // guaranteed to truncate
  FuzzReport rep = run_fuzz(cfg);
  EXPECT_EQ(rep.inconclusive_sc, cfg.programs)
      << "a truncated enumeration must be counted, never silently passed";
  EXPECT_EQ(rep.sc_outcomes_checked, 0u);
  // Inconclusive is not a failure either: the delay-arc/reads checkers
  // still ran and the machine is healthy.
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_GT(rep.arcs_checked, 0u);
}

TEST_F(FuzzHarness, ReportIsIdenticalWhateverTheWorkerCount) {
  FuzzConfig cfg = small_config();
  cfg.models = {ConsistencyModel::kSC, ConsistencyModel::kWC};
  cfg.workers = 1;
  FuzzReport serial = run_fuzz(cfg);
  cfg.workers = 4;
  FuzzReport parallel = run_fuzz(cfg);
  EXPECT_EQ(serial.cells, parallel.cells);
  EXPECT_EQ(serial.arcs_checked, parallel.arcs_checked);
  EXPECT_EQ(serial.reads_checked, parallel.reads_checked);
  EXPECT_EQ(serial.sc_outcomes_checked, parallel.sc_outcomes_checked);
  EXPECT_EQ(serial.divergences, parallel.divergences);
  EXPECT_EQ(serial.violations.size(), parallel.violations.size());
}

TEST_F(FuzzHarness, Mesh2dSliceHoldsTheAxiomsUnderContention) {
  // The consistency axioms must hold for ANY memory-system timing
  // (Taming Weak Memory Models): re-run a slice of the grid on a
  // contended 2D mesh with 1-msg/cycle links and assert the same
  // checkers stay green.
  FuzzConfig cfg = small_config();
  cfg.mem.topology = Topology::kMesh2D;
  cfg.mem.link_bw = 1;
  cfg.models = {ConsistencyModel::kSC, ConsistencyModel::kRC};
  FuzzReport rep = run_fuzz(cfg);
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_EQ(rep.cells, cfg.programs * cfg.models.size() * cfg.techniques.size());
  EXPECT_GT(rep.arcs_checked, 0u);
  EXPECT_GT(rep.sc_outcomes_checked, 0u);
}

TEST_F(FuzzHarness, Mesh2dSliceReportIsWorkerCountInvariant) {
  FuzzConfig cfg = small_config();
  cfg.mem.topology = Topology::kMesh2D;
  cfg.models = {ConsistencyModel::kSC};
  cfg.workers = 1;
  FuzzReport serial = run_fuzz(cfg);
  cfg.workers = 4;
  FuzzReport parallel = run_fuzz(cfg);
  EXPECT_EQ(serial.cells, parallel.cells);
  EXPECT_EQ(serial.arcs_checked, parallel.arcs_checked);
  EXPECT_EQ(serial.reads_checked, parallel.reads_checked);
  EXPECT_EQ(serial.divergences, parallel.divergences);
  EXPECT_EQ(serial.violations.size(), parallel.violations.size());
}

TEST_F(FuzzHarness, CountInstsIgnoresHaltAndCountsEveryThread) {
  LitmusProgram lp = generate_litmus(LitmusGenConfig{}, 11);
  std::size_t manual = 0;
  for (const Program& p : lp.programs) {
    for (const Instruction& inst : p.instructions())
      if (inst.op != Opcode::kHalt) ++manual;
  }
  EXPECT_EQ(count_insts(lp), manual);
  EXPECT_GT(manual, 0u);
}

TEST_F(FuzzHarness, CellAndTechniqueLabelsAreStable) {
  EXPECT_EQ((FuzzCell{ConsistencyModel::kSC, {PrefetchMode::kOff, false}}).label(),
            "SC/base");
  EXPECT_EQ((FuzzCell{ConsistencyModel::kWC, {PrefetchMode::kNonBinding, false}}).label(),
            "WC/pf");
  EXPECT_EQ((FuzzCell{ConsistencyModel::kRC, {PrefetchMode::kOff, true}}).label(),
            "RC/sp");
  EXPECT_EQ((FuzzCell{ConsistencyModel::kPC, {PrefetchMode::kNonBinding, true}}).label(),
            "PC/both");
}

}  // namespace
}  // namespace mcsim
