// Banked directory: lines hash across home banks and every bank
// is its own network endpoint, so this file pins three things the
// single-bank tests cannot:
//
//  1. correctness is bank-count- and scheme-independent — the litmus
//     corpus and a seeded fuzz slice pass every model checker (and the
//     SC oracle) with 2 banks under full-map, limited-pointer, and
//     coarse-vector encodings;
//  2. banked traffic on the bounded ring/mesh drains — multiple home
//     nodes mean requests and replies cross MORE links, and the
//     deadlock-freedom argument (per-link FIFOs + unconditional
//     ejection at every endpoint, so every message's remaining hop
//     count strictly decreases) must survive the extra endpoints;
//  3. the fast-forward scheduler stays cycle-identical to the naive
//     loop at P=64 with a banked, coarse-vector directory — the
//     beyond-64-processor configuration the historical uint64_t sharer
//     mask could not even represent.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "coherence/directory.hpp"
#include "sim/machine.hpp"
#include "sim/workloads.hpp"
#include "sva/fuzz_harness.hpp"
#include "sva/reproducer.hpp"
#include "sva/sc_enumerator.hpp"
#include "trace/trace_core.hpp"
#include "trace/workload_gen.hpp"

namespace mcsim {
namespace {

using namespace sva;
using CM = ConsistencyModel;

constexpr CM kModels[] = {CM::kSC, CM::kPC, CM::kWC, CM::kRC};
const TechniqueKnobs kTechs[] = {
    {PrefetchMode::kOff, false},
    {PrefetchMode::kNonBinding, false},
    {PrefetchMode::kOff, true},
    {PrefetchMode::kNonBinding, true},
};

const char* kCorpus[] = {"dekker.litmus", "iriw_lite.litmus", "lock_handoff.litmus",
                         "message_passing.litmus", "store_buffering.litmus"};

Reproducer corpus(const std::string& name) {
  return load_reproducer(std::string(MCSIM_CORPUS_DIR) + "/" + name);
}

TEST(BankedDirectory, HomeBankHashPartitionsAndSpreadsStridedLines) {
  CacheConfig cache;
  MemConfig mem;
  mem.dir_banks = 4;
  Network net(2 + 4, 5);
  DirectoryGroup group(2, cache, mem, net);
  ASSERT_EQ(group.num_banks(), 4u);
  const Addr line = cache.line_bytes;
  for (std::uint32_t i = 0; i < 64; ++i) {
    const std::uint32_t home = group.home_bank(i * line);
    EXPECT_LT(home, 4u);
    EXPECT_EQ(group.home_bank(i * line + line - 1), home)
        << "every byte of a line shares its home";
    EXPECT_EQ(home, home_bank_of_line(i, 4)) << "cache routing must agree";
  }
  // The whole point of hashing rather than `line % banks`: the
  // 0x40-byte strides every workload uses (line numbers all ≡ 0 mod 4
  // at 16-byte lines) must still spread across all four banks.
  std::vector<std::uint32_t> per_bank(4, 0);
  for (std::uint32_t i = 0; i < 64; ++i)
    ++per_bank[group.home_bank(0x10000 + i * 0x40)];
  for (std::uint32_t b = 0; b < 4; ++b)
    EXPECT_GT(per_bank[b], 4u) << "bank " << b << " starved by the stride";
  // The per-bank controllers answer for exactly their own lines, and
  // the group facade routes state queries to the right bank.
  const Addr a0 = 0x0, a1 = line * 2;
  ASSERT_NE(group.home_bank(a0), group.home_bank(a1));
  group.preload(a0, Directory::State::kShared, 0);
  group.preload(a1, Directory::State::kShared, 1);
  EXPECT_EQ(group.sharers(a0), 1ull << 0);
  EXPECT_EQ(group.sharers(a1), 1ull << 1);
  EXPECT_EQ(group.bank(0).bank(), 0u);
  EXPECT_EQ(group.bank(3).bank(), 3u);
}

TEST(BankedDirectory, CorpusPassesEveryCheckerWithTwoBanks) {
  // The litmus corpus through the whole model x technique grid with a
  // 2-bank directory: different lines now resolve at different home
  // endpoints (reordering request service), yet every model checker
  // and the SC outcome oracle must stay green.
  for (const char* name : kCorpus) {
    Reproducer r = corpus(name);
    EnumerationResult sc =
        enumerate_sc_outcomes(r.litmus.programs, 1u << 20, r.litmus.addrs, 2'000'000);
    ASSERT_TRUE(sc.complete) << name;
    for (CM model : kModels) {
      for (const TechniqueKnobs& tech : kTechs) {
        FuzzCell cell{model, tech};
        cell.mem.dir_banks = 2;
        CellCheck c = verify_litmus_cell(r.litmus, cell, &sc);
        EXPECT_FALSE(c.failed) << name << " " << cell.label() << ": " << c.detail;
      }
    }
  }
}

TEST(BankedDirectory, InexactSchemesPreserveTheAxiomsOnTheCorpus) {
  // Limited-pointer with a 1-pointer budget degrades to broadcast on
  // the corpus's contended flags, and coarse-vector with 2-processor
  // clusters invalidates innocent neighbours: both are conservative
  // supersets, so spurious traffic may slow a run but can never break
  // a consistency axiom. One base-technique sweep per scheme x model.
  for (const char* name : kCorpus) {
    Reproducer r = corpus(name);
    EnumerationResult sc =
        enumerate_sc_outcomes(r.litmus.programs, 1u << 20, r.litmus.addrs, 2'000'000);
    ASSERT_TRUE(sc.complete) << name;
    for (CM model : kModels) {
      for (DirScheme scheme : {DirScheme::kLimitedPtr, DirScheme::kCoarseVector}) {
        FuzzCell cell{model, {PrefetchMode::kNonBinding, true}};
        cell.mem.dir_scheme = scheme;
        cell.mem.dir_banks = 2;
        cell.mem.dir_pointers = 1;  // any second sharer overflows to broadcast
        cell.mem.dir_cluster = 2;
        CellCheck c = verify_litmus_cell(r.litmus, cell, &sc);
        EXPECT_FALSE(c.failed) << name << " " << cell.label() << ": " << c.detail;
      }
    }
  }
}

TEST(BankedDirectory, FuzzSliceAtTwoBanksFindsNoViolations) {
  // Seeded differential fuzz with the banked directory in the loop —
  // the same oracles that catch injected policy faults in
  // fuzz_harness_test must report zero violations here.
  FuzzConfig cfg;
  cfg.programs = 4;
  cfg.seed = 9;
  cfg.workers = 2;
  cfg.mem.dir_banks = 2;
  FuzzReport rep = run_fuzz(cfg);
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_EQ(rep.cells, cfg.programs * cfg.models.size() * cfg.techniques.size());
  EXPECT_GT(rep.arcs_checked, 0u);
  EXPECT_GT(rep.sc_outcomes_checked, 0u);
}

TEST(BankedDirectory, FuzzSliceOnTheMeshWithCoarseVectorStaysGreen) {
  // Contended mesh + multiple home endpoints + inexact sharer sets in
  // one campaign: the strongest adversary this file can field.
  FuzzConfig cfg;
  cfg.programs = 3;
  cfg.seed = 11;
  cfg.workers = 2;
  cfg.mem.topology = Topology::kMesh2D;
  cfg.mem.link_bw = 1;
  cfg.mem.dir_scheme = DirScheme::kCoarseVector;
  cfg.mem.dir_banks = 2;
  cfg.models = {CM::kSC, CM::kRC};
  FuzzReport rep = run_fuzz(cfg);
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_GT(rep.arcs_checked, 0u);
}

TEST(BankedDirectory, MeshAndRingDrainWithManyBanks) {
  // Deadlock-freedom regression: 8 processors hammering 4 home banks
  // through 1-msg/cycle links. Every (src, dst) pair's path is fixed
  // (ring direction / mesh XY), ejection at an endpoint is
  // unconditional, and link FIFOs pop head-first, so the remaining hop
  // count of the oldest message always decreases — the run must drain,
  // never trip the watchdog.
  Workload w = make_producer_consumer(8, 4);
  for (Topology topo : {Topology::kRing, Topology::kMesh2D}) {
    SystemConfig cfg = SystemConfig::realistic(8, CM::kSC);
    cfg.mem.topology = topo;
    cfg.mem.link_bw = 1;
    cfg.mem.dir_banks = 4;
    cfg.max_cycles = 2'000'000;
    Machine m(cfg, w.programs);
    for (const auto& [p, a] : w.preload_shared) m.preload_shared(p, a);
    RunResult rr = m.run();
    EXPECT_FALSE(rr.deadlocked)
        << to_string(topo) << ": banked traffic failed to drain";
    for (std::size_t p = 0; p < rr.retired.size(); ++p)
      EXPECT_GT(rr.retired[p], 0u) << "core " << p << " retired nothing";
  }
}

// ---- P=64: fast-forward vs naive fingerprint identity -----------------

struct Fingerprint {
  RunResult result;
  std::string stats;
  std::vector<Word> mem;
};

Fingerprint run_one(const Workload& w, SystemConfig cfg, bool fastforward) {
  cfg.fastforward = fastforward;
  Machine m(cfg, w.programs);
  for (const auto& [p, a] : w.preload_shared) m.preload_shared(p, a);
  Fingerprint fp;
  fp.result = m.run();
  fp.stats = m.stats_report();
  for (const auto& [a, v] : w.expected) fp.mem.push_back(m.read_word(a));
  return fp;
}

TEST(BankedDirectory, FastForwardMatchesNaiveAtSixtyFourProcessors) {
  // P=64 with coarse-vector sharers and 4 banks: the configuration the
  // scaling campaign runs at. The event-driven scheduler's next_event
  // probe spans 64 cores, 64 caches, 4 directory banks, and the
  // network; any endpoint it forgets shows up as a timing drift here.
  WorkloadGenSpec spec;
  spec.kind = WorkloadKind::kZipfian;
  spec.nprocs = 64;
#ifdef NDEBUG
  spec.ops = 20'000;
#else
  spec.ops = 2'000;
#endif
  spec.seed = 23;
  const Workload w = trace_to_workload(generate_trace(spec));
  SystemConfig cfg = SystemConfig::realistic(64, CM::kRC);
  cfg.core.speculative_loads = true;
  cfg.core.prefetch = PrefetchMode::kNonBinding;
  cfg.mem.dir_scheme = DirScheme::kCoarseVector;
  cfg.mem.dir_cluster = 8;
  cfg.mem.dir_banks = 4;
  cfg.mem.mem_bytes = std::max<std::uint64_t>(cfg.mem.mem_bytes, w.min_mem_bytes);
  cfg.max_cycles = 1'000'000'000;
  Fingerprint ff = run_one(w, cfg, true);
  Fingerprint naive = run_one(w, cfg, false);
  ASSERT_FALSE(ff.result.deadlocked);
  EXPECT_EQ(ff.result.cycles, naive.result.cycles);
  EXPECT_EQ(ff.result.ticks, naive.result.ticks);
  EXPECT_EQ(ff.result.retired, naive.result.retired);
  EXPECT_EQ(ff.result.drain_cycle, naive.result.drain_cycle);
  EXPECT_EQ(ff.result.stall, naive.result.stall);
  EXPECT_EQ(ff.mem, naive.mem);
  EXPECT_EQ(ff.stats, naive.stats) << "P=64 banked stats report diverged";
}

}  // namespace
}  // namespace mcsim
