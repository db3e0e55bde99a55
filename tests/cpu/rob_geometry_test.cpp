// Reorder-buffer geometry cycle pins: squash-heavy workloads run under
// SC and RC with both techniques at ROB sizes that cross 64-bit word
// boundaries (63/64/65) and make a small window wrap many times under
// squashes (4), plus large windows (128, 512) and one ideal-frontend
// cell at 512. Each cell pins its ticks and, per core, the retired
// instructions, squashes, speculative-load reissues and the full
// stall-cause breakdown, so any change to how the ROB stores, finds,
// wakes or executes its entries that is not cycle-identical fails
// here with the exact cell.
//
// Regenerate tests/cpu/golden/rob_geometry.txt after an INTENDED
// timing change:   MCSIM_UPDATE_GOLDEN=1 ./rob_geometry_test
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "isa/builder.hpp"
#include "sim/machine.hpp"
#include "sim/workloads.hpp"
#include "trace/trace_core.hpp"
#include "trace/workload_gen.hpp"

namespace mcsim {
namespace {

constexpr std::uint32_t kProcs = 4;

std::string golden_path() { return MCSIM_ROB_GOLDEN_DIR "/rob_geometry.txt"; }

Workload generated(WorkloadKind kind, std::uint64_t ops) {
  WorkloadGenSpec spec;
  spec.kind = kind;
  spec.nprocs = kProcs;
  spec.ops = ops;
  spec.seed = 1;
  return trace_to_workload(generate_trace(spec));
}

/// Each core runs an LCG whose sign bit picks the branch direction, so
/// the predictor misses about half the time; the not-taken path does a
/// load/increment/store on its own word of one shared line, and reads
/// a neighbour's word, so coherence invalidations also squash
/// speculative loads.
Workload mispredict_loop() {
  constexpr Addr kShared = 0x1000;
  constexpr Word kIters = 80;
  Workload w;
  w.name = "mispredict_loop";
  for (std::uint32_t p = 0; p < kProcs; ++p) {
    const Addr mine = kShared + p * kWordBytes;
    const Addr next = kShared + ((p + 1) % kProcs) * kWordBytes;
    ProgramBuilder b;
    b.li(1, 12345 + 977 * p);
    b.li(2, kIters);
    b.li(3, 1103515245);
    b.label("loop");
    b.mul(1, 1, 3);
    b.addi(1, 1, 12345);
    b.blt(1, 0, "skip");
    b.load(5, ProgramBuilder::abs(mine));
    b.addi(5, 5, 1);
    b.store(5, ProgramBuilder::abs(mine));
    b.load(6, ProgramBuilder::abs(next));
    b.add(7, 7, 6);
    b.label("skip");
    b.addi(2, 2, -1);
    b.bne(2, 0, "loop");
    b.halt();
    w.programs.push_back(b.build());
  }
  return w;
}

struct Geometry {
  std::uint32_t rob;
  bool ideal;
};
const Geometry kGeometries[] = {{4, false},   {63, false},  {64, false}, {65, false},
                                {128, false}, {512, false}, {512, true}};
const ConsistencyModel kModels[] = {ConsistencyModel::kSC, ConsistencyModel::kRC};

std::string join(const std::vector<std::uint64_t>& v) {
  std::string s;
  for (std::size_t i = 0; i < v.size(); ++i) s += (i ? "," : "") + std::to_string(v[i]);
  return s;
}

/// One golden line: "<workload> <model> rob=<n>[i] ticks=<t> p<k>=..."
/// with retired/squashes/reissues and the stall breakdown per core.
/// `squashes` accumulates the cell's squashes over all cores.
std::string run_cell(const Workload& w, ConsistencyModel m, Geometry g,
                     std::uint64_t& squashes) {
  SystemConfig cfg = SystemConfig::realistic(kProcs, m);
  cfg.core.speculative_loads = true;
  cfg.core.prefetch = PrefetchMode::kNonBinding;
  cfg.core.rob_entries = g.rob;
  cfg.core.ideal_frontend = g.ideal;
  cfg.mem.mem_bytes = std::max<std::uint64_t>(cfg.mem.mem_bytes, w.min_mem_bytes);
  Machine machine(cfg, w.programs);
  for (const auto& [p, a] : w.preload_shared) machine.preload_shared(p, a);
  const RunResult r = machine.run();

  const std::string key =
      w.name + " " + to_string(m) + " rob=" + std::to_string(g.rob) + (g.ideal ? "i" : "");
  EXPECT_FALSE(r.deadlocked) << key;
  for (const auto& [a, v] : w.expected) EXPECT_EQ(machine.read_word(a), v) << key;

  std::ostringstream os;
  os << key << " ticks=" << r.ticks;
  for (std::uint32_t p = 0; p < kProcs; ++p) {
    const Core& c = machine.core(p);
    squashes += c.stats().get("squashes");
    std::vector<std::uint64_t> stall(r.stall[p].begin(), r.stall[p].end());
    os << " p" << p << "=" << r.retired[p] << "/" << c.stats().get("squashes") << "/"
       << c.lsu().stats().get("spec_reissue") << "/" << join(stall);
  }
  return os.str();
}

std::vector<std::string> run_grid() {
  const std::vector<Workload> workloads = {generated(WorkloadKind::kBarrierTree, 400),
                                           generated(WorkloadKind::kLockConvoy, 400),
                                           mispredict_loop()};
  std::vector<std::string> lines;
  for (const Workload& w : workloads) {
    // The pins are only worth having if every workload really squashes.
    std::uint64_t squashes = 0;
    for (ConsistencyModel m : kModels)
      for (const Geometry& g : kGeometries) lines.push_back(run_cell(w, m, g, squashes));
    EXPECT_GT(squashes, 0u) << w.name;
  }
  return lines;
}

std::string key_of(const std::string& line) {
  std::istringstream ls(line);
  std::string workload, model, rob;
  ls >> workload >> model >> rob;
  return workload + " " + model + " " + rob;
}

TEST(RobGeometry, CyclePinsHoldAcrossRobSizes) {
  const std::vector<std::string> observed = run_grid();

  if (std::getenv("MCSIM_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path());
    ASSERT_TRUE(out.good()) << golden_path();
    out << "# workload model rob ticks p<k>=retired/squashes/spec_reissue/"
           "stall[busy..idle]\n";
    for (const std::string& line : observed) out << line << "\n";
    GTEST_SKIP() << "golden file regenerated: " << golden_path();
  }

  std::ifstream in(golden_path());
  ASSERT_TRUE(in.good()) << "missing " << golden_path()
                         << " (regenerate with MCSIM_UPDATE_GOLDEN=1)";
  std::map<std::string, std::string> golden;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    golden[key_of(line)] = line;
  }
  ASSERT_EQ(golden.size(), observed.size()) << "golden table and grid disagree";
  for (const std::string& o : observed) {
    auto it = golden.find(key_of(o));
    ASSERT_NE(it, golden.end()) << "no golden entry for " << key_of(o);
    EXPECT_EQ(o, it->second);
  }
}

}  // namespace
}  // namespace mcsim
