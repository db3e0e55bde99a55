// Pins that the event-driven fast-forward scheduler (cfg.fastforward,
// the default) is CYCLE-IDENTICAL to the naive tick-every-cycle loop:
// same RunResult, same final registers and memory, same stats report —
// on the litmus corpus, across every consistency model and topology,
// and through the parallel experiment runner.
//
// The golden numbers are the same constants crossbar_equivalence_test
// pins for the naive loop; running them here under fast-forward means
// any scheduler shortcut that drops or duplicates a cycle fails two
// independent tests in two different ways.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/machine.hpp"
#include "sim/options.hpp"
#include "sim/workloads.hpp"
#include "sva/reproducer.hpp"
#include "trace/trace_core.hpp"
#include "trace/trace_format.hpp"
#include "trace/workload_gen.hpp"

namespace mcsim {
namespace {

using sva::Reproducer;
using sva::load_reproducer;

struct Golden {
  const char* litmus;
  ConsistencyModel model;
  Cycle cycles;
};

// Captured from the naive per-cycle loop on the paper-default machine
// (100-cycle clean miss, base techniques, crossbar).
const Golden kGolden[] = {
    {"dekker.litmus", ConsistencyModel::kSC, 401u},
    {"dekker.litmus", ConsistencyModel::kPC, 201u},
    {"dekker.litmus", ConsistencyModel::kWC, 201u},
    {"dekker.litmus", ConsistencyModel::kRC, 201u},
    {"iriw_lite.litmus", ConsistencyModel::kSC, 201u},
    {"iriw_lite.litmus", ConsistencyModel::kPC, 201u},
    {"iriw_lite.litmus", ConsistencyModel::kWC, 201u},
    {"iriw_lite.litmus", ConsistencyModel::kRC, 201u},
    {"lock_handoff.litmus", ConsistencyModel::kSC, 600u},
    {"lock_handoff.litmus", ConsistencyModel::kPC, 600u},
    {"lock_handoff.litmus", ConsistencyModel::kWC, 600u},
    {"lock_handoff.litmus", ConsistencyModel::kRC, 600u},
    {"message_passing.litmus", ConsistencyModel::kSC, 401u},
    {"message_passing.litmus", ConsistencyModel::kPC, 401u},
    {"message_passing.litmus", ConsistencyModel::kWC, 401u},
    {"message_passing.litmus", ConsistencyModel::kRC, 401u},
    {"store_buffering.litmus", ConsistencyModel::kSC, 401u},
    {"store_buffering.litmus", ConsistencyModel::kPC, 201u},
    {"store_buffering.litmus", ConsistencyModel::kWC, 401u},
    {"store_buffering.litmus", ConsistencyModel::kRC, 201u},
};

/// Everything a run can observably produce, for exact diffing between
/// the two schedulers.
struct Fingerprint {
  RunResult result;
  std::string stats;
  std::vector<Word> regs;  ///< all processors' register files, flattened
  std::vector<Word> mem;   ///< watched addresses, in `watch` order
};

bool operator==(const Fingerprint& a, const Fingerprint& b) {
  return a.result.cycles == b.result.cycles && a.result.ticks == b.result.ticks &&
         a.result.deadlocked == b.result.deadlocked &&
         a.result.retired == b.result.retired &&
         a.result.drain_cycle == b.result.drain_cycle &&
         a.result.stall == b.result.stall && a.stats == b.stats && a.regs == b.regs &&
         a.mem == b.mem;
}

Fingerprint run_one(const std::vector<Program>& programs,
                    const std::vector<std::pair<ProcId, Addr>>& preload_shared,
                    SystemConfig cfg, const std::vector<Addr>& watch,
                    bool fastforward) {
  cfg.fastforward = fastforward;
  Machine m(cfg, programs);
  for (const auto& [p, a] : preload_shared) m.preload_shared(p, a);
  Fingerprint fp;
  fp.result = m.run();
  fp.stats = m.stats_report();
  for (ProcId p = 0; p < cfg.num_procs; ++p) {
    for (RegId r = 0; r < kNumArchRegs; ++r) fp.regs.push_back(m.core(p).reg(r));
  }
  for (Addr a : watch) fp.mem.push_back(m.read_word(a));
  return fp;
}

void expect_identical(const Fingerprint& ff, const Fingerprint& naive,
                      const std::string& what) {
  EXPECT_EQ(ff.result.cycles, naive.result.cycles) << what;
  EXPECT_EQ(ff.result.ticks, naive.result.ticks) << what;
  EXPECT_EQ(ff.result.deadlocked, naive.result.deadlocked) << what;
  EXPECT_EQ(ff.result.retired, naive.result.retired) << what;
  EXPECT_EQ(ff.result.drain_cycle, naive.result.drain_cycle) << what;
  EXPECT_EQ(ff.result.stall, naive.result.stall) << what;
  EXPECT_EQ(ff.regs, naive.regs) << what;
  EXPECT_EQ(ff.mem, naive.mem) << what;
  EXPECT_EQ(ff.stats, naive.stats) << what << " (stats report diverged)";
  EXPECT_TRUE(ff == naive) << what << " (aggregate fingerprint diverged)";
}

TEST(FastForwardEquivalence, IsTheDefaultAndFlagsParse) {
  SystemConfig cfg;
  EXPECT_TRUE(cfg.fastforward);
  const char* off[] = {"prog", "--no-fastforward"};
  OptionsResult r = parse_options(2, off);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_FALSE(r.config.fastforward);
  const char* on[] = {"prog", "--no-fastforward", "--fastforward"};
  r = parse_options(3, on);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.config.fastforward);
}

TEST(FastForwardEquivalence, LitmusCorpusCycleCountsArePinned) {
  // The naive loop's golden cycle counts, reproduced with skipping on.
  std::string dir = MCSIM_CORPUS_DIR;
  std::string last;
  Reproducer r;
  for (const Golden& g : kGolden) {
    if (last != g.litmus) {
      r = load_reproducer(dir + "/" + g.litmus);
      last = g.litmus;
    }
    SystemConfig cfg = SystemConfig::paper_default(
        static_cast<std::uint32_t>(r.litmus.programs.size()), g.model);
    cfg.max_cycles = 1'000'000;
    ASSERT_TRUE(cfg.fastforward);
    Machine m(cfg, r.litmus.programs);
    for (const auto& [p, a] : r.litmus.preload_shared) m.preload_shared(p, a);
    RunResult rr = m.run();
    EXPECT_FALSE(rr.deadlocked);
    EXPECT_EQ(rr.cycles, g.cycles)
        << g.litmus << " under " << to_string(g.model)
        << ": fast-forward drifted from the naive loop's golden timing";
  }
}

TEST(FastForwardEquivalence, CorpusMatchesNaiveOnEveryModelAndTopology) {
  std::string dir = MCSIM_CORPUS_DIR;
  for (const char* name : {"dekker.litmus", "iriw_lite.litmus", "lock_handoff.litmus",
                           "message_passing.litmus", "store_buffering.litmus"}) {
    Reproducer r = load_reproducer(dir + "/" + std::string(name));
    for (ConsistencyModel model : {ConsistencyModel::kSC, ConsistencyModel::kPC,
                                   ConsistencyModel::kWC, ConsistencyModel::kRC}) {
      for (Topology topo :
           {Topology::kCrossbar, Topology::kRing, Topology::kMesh2D}) {
        SystemConfig cfg = SystemConfig::paper_default(
            static_cast<std::uint32_t>(r.litmus.programs.size()), model);
        cfg.mem.topology = topo;
        cfg.max_cycles = 1'000'000;
        const std::string what = std::string(name) + " " + to_string(model) + " " +
                                 to_string(topo);
        expect_identical(run_one(r.litmus.programs, r.litmus.preload_shared, cfg,
                                 r.litmus.addrs, true),
                         run_one(r.litmus.programs, r.litmus.preload_shared, cfg,
                                 r.litmus.addrs, false),
                         what);
      }
    }
  }
}

TEST(FastForwardEquivalence, MissHeavyWorkloadMatchesAndStallSumsToTicks) {
  // Long clean-miss latency maximizes quiescent spans — the case the
  // scheduler exists for, and the one where a skip-accounting bug
  // would distort the stall breakdowns most.
  // The single-MSHR machine adds sleeping cores whose every frozen
  // cycle retries a rejected probe: queued prefetches and speculative
  // loads find the one MSHR taken, so a flush must charge those spans
  // without ticking them.
  Workload w = make_producer_consumer(2, 6);
  SystemConfig base = SystemConfig::realistic(2, ConsistencyModel::kSC);
  base.with_clean_miss_latency(400);
  SystemConfig one_mshr = SystemConfig::realistic(2, ConsistencyModel::kSC);
  one_mshr.with_clean_miss_latency(200);
  one_mshr.cache.mshrs = 1;
  one_mshr.core.prefetch = PrefetchMode::kNonBinding;
  one_mshr.core.speculative_loads = true;
  for (const auto& [cfg, what] : {std::pair{base, "producer_consumer miss=400"},
                                  std::pair{one_mshr, "producer_consumer mshrs=1"}}) {
    Fingerprint ff = run_one(w.programs, w.preload_shared, cfg, {}, true);
    Fingerprint naive = run_one(w.programs, w.preload_shared, cfg, {}, false);
    expect_identical(ff, naive, what);
    ASSERT_FALSE(ff.result.deadlocked) << what;
    for (std::size_t p = 0; p < ff.result.stall.size(); ++p) {
      std::uint64_t sum = 0;
      for (std::uint64_t c : ff.result.stall[p]) sum += c;
      EXPECT_EQ(sum, static_cast<std::uint64_t>(ff.result.ticks))
          << what << " core " << p << ": skipped spans not fully charged to stall causes";
    }
  }
}

TEST(FastForwardEquivalence, DeadlockTimingIsIdentical) {
  // Truncated run: max_cycles lands mid-flight, so the scheduler must
  // clamp its final jump to the watchdog and charge the tail spans.
  Workload w = make_producer_consumer(2, 6);
  SystemConfig cfg = SystemConfig::realistic(2, ConsistencyModel::kSC);
  cfg.with_clean_miss_latency(400);
  cfg.max_cycles = 900;
  Fingerprint ff = run_one(w.programs, w.preload_shared, cfg, {}, true);
  Fingerprint naive = run_one(w.programs, w.preload_shared, cfg, {}, false);
  EXPECT_TRUE(ff.result.deadlocked);
  expect_identical(ff, naive, "truncated producer_consumer");
  EXPECT_EQ(ff.result.ticks, 900u);
}

TEST(FastForwardEquivalence, SweepIsWorkerCountInvariant) {
  // Fast-forwarded cells through the ExperimentRunner: serial and
  // 4-worker sweeps bit-identical, and cell wall-clock fields filled.
  ExperimentGrid grid("fastforward-invariance");
  for (ConsistencyModel m : {ConsistencyModel::kSC, ConsistencyModel::kRC}) {
    SystemConfig cfg = SystemConfig::paper_default(4, m);
    grid.add(make_producer_consumer(4, 4), cfg, "base");
  }
  std::vector<CellResult> serial = ExperimentRunner(1).run(grid);
  std::vector<CellResult> parallel = ExperimentRunner(4).run(grid);
  ASSERT_EQ(serial.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ASSERT_TRUE(serial[i].ok()) << serial[i].cell_label << ": " << serial[i].error;
    ASSERT_TRUE(parallel[i].ok()) << parallel[i].error;
    EXPECT_EQ(serial[i].stats.cycles, parallel[i].stats.cycles) << i;
    EXPECT_EQ(serial[i].stats.ticks, parallel[i].stats.ticks) << i;
    EXPECT_EQ(serial[i].stats.retired, parallel[i].stats.retired) << i;
    EXPECT_GT(serial[i].wall_ns, 0u) << "per-cell wall_ns not recorded";
    EXPECT_GT(serial[i].sim_cycles_per_sec, 0.0) << i;
  }
}

// ---- counter pins ------------------------------------------------------
//
// The tests above compare the two schedulers inside one binary, so a
// counter that drifts in both at once passes them. These pins catch
// that: every cache, LSU, core, directory and network counter (the
// whole stats_report(), profiler counters included) plus each cache's
// unresolved-prefetch count, hashed per cell over the golden-trace
// corpus and the named litmus corpus, across both coherence protocols,
// every prefetch mode and speculation on/off. rmw_after_prefetch.litmus
// is there for the cache's read-exclusive prefetch-use rules, which
// the other inputs never reach.
//
// Regenerate tests/integration/golden/counter_pins.txt after an
// INTENDED counter change:   MCSIM_UPDATE_GOLDEN=1 ./fastforward_equivalence_test

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

struct PinWorkload {
  std::string name;
  Workload w;
  bool litmus;  ///< paper-default machine; otherwise the realistic one
};

std::vector<PinWorkload> pin_workloads() {
  std::vector<PinWorkload> out;
  for (const char* name :
       {"producer_consumer_small.mct", "lock_convoy_small.mct", "zipfian_small.mct"}) {
    out.push_back({name,
                   trace_to_workload(read_trace(std::string(MCSIM_TRACE_CORPUS_DIR) +
                                                "/" + name)),
                   false});
  }
  for (const char* name :
       {"dekker.litmus", "iriw_lite.litmus", "lock_handoff.litmus", "message_passing.litmus",
        "store_buffering.litmus", "rmw_after_prefetch.litmus"}) {
    Reproducer r = load_reproducer(std::string(MCSIM_CORPUS_DIR) + "/" + name);
    Workload w;
    w.programs = r.litmus.programs;
    w.preload_shared = r.litmus.preload_shared;
    out.push_back({name, std::move(w), true});
  }
  return out;
}

/// "<cycles> <hash>" for one cell: the hash covers stats_report() and
/// every cache's profile_pending().
std::string counter_pin(const PinWorkload& pw, SystemConfig cfg) {
  cfg.mem.mem_bytes = std::max<std::uint64_t>(cfg.mem.mem_bytes, pw.w.min_mem_bytes);
  cfg.max_cycles = 10'000'000;
  cfg.profile = true;
  Machine m(cfg, pw.w.programs);
  for (const auto& [p, a] : pw.w.preload_shared) m.preload_shared(p, a);
  const RunResult r = m.run();
  EXPECT_FALSE(r.deadlocked) << pw.name;
  std::string text = m.stats_report();
  for (ProcId p = 0; p < cfg.num_procs; ++p)
    text += "cache" + std::to_string(p) + ".pf_pending " +
            std::to_string(m.cache(p).profile_pending()) + "\n";
  return std::to_string(r.cycles) + " " + std::to_string(fnv1a(text));
}

std::map<std::string, std::string> run_counter_pins() {
  std::map<std::string, std::string> out;
  for (const PinWorkload& pw : pin_workloads()) {
    const auto nprocs = static_cast<std::uint32_t>(pw.w.programs.size());
    for (ConsistencyModel model : {ConsistencyModel::kSC, ConsistencyModel::kPC,
                                   ConsistencyModel::kWC, ConsistencyModel::kRC}) {
      for (CoherenceKind proto : {CoherenceKind::kInvalidation, CoherenceKind::kUpdate}) {
        for (PrefetchMode pf :
             {PrefetchMode::kOff, PrefetchMode::kNonBinding, PrefetchMode::kBinding}) {
          for (bool spec : {false, true}) {
            SystemConfig cfg = pw.litmus ? SystemConfig::paper_default(nprocs, model)
                                         : SystemConfig::realistic(nprocs, model);
            cfg.mem.coherence = proto;
            cfg.core.prefetch = pf;
            cfg.core.speculative_loads = spec;
            const std::string key = pw.name + " " + to_string(model) + " " +
                                    to_string(proto) + " " + to_string(pf) + " " +
                                    (spec ? "spec" : "nospec");
            out[key] = counter_pin(pw, cfg);
          }
        }
      }
    }
  }
  return out;
}

TEST(CounterPins, EveryCounterOfTheCorpusGridIsPinned) {
  const std::map<std::string, std::string> observed = run_counter_pins();
  const std::string path = std::string(MCSIM_PIN_GOLDEN_DIR) + "/counter_pins.txt";
  if (std::getenv("MCSIM_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << path;
    out << "# workload model protocol prefetch spec cycles stats_hash\n";
    for (const auto& [key, pin] : observed) out << key << " " << pin << "\n";
    GTEST_SKIP() << "golden file regenerated: " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing " << path << " (regenerate with MCSIM_UPDATE_GOLDEN=1)";
  std::map<std::string, std::string> golden;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string f[7];
    for (std::string& x : f) ASSERT_TRUE(static_cast<bool>(ls >> x)) << "bad line: " << line;
    golden[f[0] + " " + f[1] + " " + f[2] + " " + f[3] + " " + f[4]] = f[5] + " " + f[6];
  }
  ASSERT_EQ(golden.size(), observed.size()) << "golden table and pin grid disagree";
  for (const auto& [key, pin] : observed) {
    auto it = golden.find(key);
    ASSERT_NE(it, golden.end()) << "no golden entry for " << key;
    EXPECT_EQ(pin, it->second) << key << ": cycles or counters drifted";
  }
}

// ---- trace-frontend campaigns -----------------------------------------

// 10^5 trace ops in Release; the Debug slice (which also runs under
// the MCSIM_AUDIT lockstep shadow machine in CI) keeps the same shape
// at a size the audited naive loop can afford.
#ifdef NDEBUG
constexpr std::uint64_t kCampaignOps = 100'000;
#else
constexpr std::uint64_t kCampaignOps = 4'000;
#endif

Workload campaign_workload() {
  WorkloadGenSpec spec;
  spec.kind = WorkloadKind::kProducerConsumer;
  spec.nprocs = 4;
  spec.ops = kCampaignOps;
  spec.seed = 17;
  return trace_to_workload(generate_trace(spec));
}

std::vector<Addr> expect_addrs(const Workload& w) {
  std::vector<Addr> addrs;
  for (const auto& [a, v] : w.expected) addrs.push_back(a);
  return addrs;
}

TEST(FastForwardEquivalence, LargeTraceWorkloadMatchesNaive) {
  // The acceptance campaign's determinism half: a generated trace at
  // campaign scale is cycle-identical between the fast-forward
  // scheduler and the naive per-cycle loop, on the paper's crossbar
  // and on the contended mesh.
  const Workload w = campaign_workload();
  const std::vector<Addr> watch = expect_addrs(w);
  for (Topology topo : {Topology::kCrossbar, Topology::kMesh2D}) {
    SystemConfig cfg = SystemConfig::realistic(4, ConsistencyModel::kRC);
    cfg.core.speculative_loads = true;
    cfg.core.prefetch = PrefetchMode::kNonBinding;
    cfg.mem.topology = topo;
    cfg.mem.mem_bytes = std::max<std::uint64_t>(cfg.mem.mem_bytes, w.min_mem_bytes);
    cfg.max_cycles = 1'000'000'000;
    Fingerprint ff = run_one(w.programs, w.preload_shared, cfg, watch, true);
    Fingerprint naive = run_one(w.programs, w.preload_shared, cfg, watch, false);
    ASSERT_FALSE(ff.result.deadlocked) << to_string(topo);
    expect_identical(ff, naive, std::string("trace campaign ") + to_string(topo));
  }
}

TEST(FastForwardEquivalence, TraceSweepIsWorkerCountInvariant) {
  // The other half: the same campaign trace through the
  // ExperimentRunner is bit-identical with 1 and 4 workers, across the
  // whole model grid.
  const Workload w = campaign_workload();
  ExperimentGrid grid("trace-campaign-invariance");
  for (ConsistencyModel m : {ConsistencyModel::kSC, ConsistencyModel::kPC,
                             ConsistencyModel::kWC, ConsistencyModel::kRC}) {
    SystemConfig cfg = SystemConfig::realistic(4, m);
    cfg.core.speculative_loads = true;
    cfg.core.prefetch = PrefetchMode::kNonBinding;
    cfg.max_cycles = 1'000'000'000;
    grid.add(w, cfg, "+both");
    grid.cell(grid.size() - 1).watch = expect_addrs(w);
  }
  std::vector<CellResult> serial = ExperimentRunner(1).run(grid);
  std::vector<CellResult> parallel = ExperimentRunner(4).run(grid);
  ASSERT_EQ(serial.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ASSERT_TRUE(serial[i].ok()) << serial[i].cell_label << ": " << serial[i].error;
    ASSERT_TRUE(parallel[i].ok()) << parallel[i].error;
    EXPECT_EQ(serial[i].stats.cycles, parallel[i].stats.cycles) << i;
    EXPECT_EQ(serial[i].stats.ticks, parallel[i].stats.ticks) << i;
    EXPECT_EQ(serial[i].stats.retired, parallel[i].stats.retired) << i;
    EXPECT_EQ(serial[i].watch_values, parallel[i].watch_values) << i;
    EXPECT_EQ(serial[i].trace_meta, parallel[i].trace_meta) << i;
  }
}

}  // namespace
}  // namespace mcsim
