// mcsim_perf: the host-time benchmark driver. Runs one named workload
// (a fixed list of simulation cells) through mcsim's public API on one
// thread and prints one JSON record with every metric it measured.
//
//   mcsim_perf --workload dense_p8|scale_p64_p256 --seed N
//              --seconds S --trace 0|1
//
// A cell is (generator kind, processors, model, technique, machine).
// One pass runs every cell once, in a seed-shuffled order, through
// the same calls a user makes:
//
//   generate_trace -> trace_to_workload -> Machine(...) + preload_shared
//   -> Machine::run() -> stat harvest and final-state checks
//
// Passes repeat until --seconds have elapsed, at least three. The
// reported run() time is the sum over cells of each cell's fastest
// pass: other tenants of the host only ever add time, so the fastest
// of many short repeats is the steadiest estimate of the program's
// own cost. Set-up times are sums of per-cell medians. Between cells
// the driver pins itself to the least-contended CPU (see CpuPicker).
//
// --trace 1 adds the traced pass over the workload's traced cells: the
// naive loop (fastforward off) run through Machine::run(), then the
// same loop driven from here, one stage at a time in Machine::step()'s
// order, with a clock read around each stage. That loop must reproduce
// run()'s drain cycles, stall breakdowns and checked final memory, or
// the record is marked incorrect.
//
// Every cell is checked: no deadlock, the trace's expected final memory,
// and sum(stall) == ticks on every core. Failed cells are counted, and
// the record carries a fingerprint of every cell's exact statistics so
// two result sets can be compared for cycle identity.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <initializer_list>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "isa/builder.hpp"
#include "sim/machine.hpp"
#include "trace/trace_core.hpp"
#include "trace/workload_gen.hpp"

using namespace mcsim;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- cells ----------------------------------------------------------

struct CellSpec {
  WorkloadKind kind = WorkloadKind::kZipfian;
  std::uint32_t procs = 8;
  std::uint64_t ops = 0;  ///< total trace ops across processors
  ConsistencyModel model = ConsistencyModel::kSC;
  bool both = true;  ///< prefetch + speculative loads, else baseline
  Topology topology = Topology::kCrossbar;
  std::uint32_t link_bw = 1;
  DirScheme dir_scheme = DirScheme::kFullMap;
  std::uint32_t dir_banks = 1;
  CoherenceKind coherence = CoherenceKind::kInvalidation;
  std::uint32_t sharing = 0;  ///< WorkloadGenSpec::sharing (0 = kind default)
  /// Which of a configuration's independent traces this is; part k > 0
  /// generates from a seed derived from the run's seed and k.
  std::uint32_t part = 0;

  std::string label() const {
    std::string s = std::string(to_string(kind)) + "/P" + std::to_string(procs) + "/" +
                    to_string(model) + "/" + (both ? "+both" : "baseline");
    if (coherence == CoherenceKind::kUpdate) s += "/update";
    if (sharing != 0) s += "/sharing" + std::to_string(sharing);
    if (part != 0) s += "/part" + std::to_string(part);
    return s;
  }
};

const ConsistencyModel kModels[] = {ConsistencyModel::kSC, ConsistencyModel::kPC,
                                    ConsistencyModel::kWC, ConsistencyModel::kRC};

struct WorkloadDef {
  std::vector<CellSpec> timed;
  /// Cells of the traced pass (a shorter or smaller set where the
  /// naive loop would take minutes; see BENCHMARK.json).
  std::vector<CellSpec> traced;
};

// The P=256 cells of scale_p64_p256: few ops per core, so most cores
// sleep most of the time and lazy stall-charge replays, busy-flip
// flushes and Machine construction weigh most.
void add_wide_cells(WorkloadDef& def) {
  // barrier_tree and lock_convoy take one to two seconds a cell
  // whatever the op count (one barrier or lock round per core at
  // least), so they run under SC and RC only: that keeps a pass short
  // enough for every cell to repeat several times in a run.
  std::vector<CellSpec> wide;
  for (WorkloadKind kind : all_workload_kinds()) {
    const bool heavy = kind == WorkloadKind::kBarrierTree || kind == WorkloadKind::kLockConvoy;
    for (ConsistencyModel m : kModels) {
      if (heavy && m != ConsistencyModel::kSC && m != ConsistencyModel::kRC) continue;
      CellSpec c;
      c.kind = kind;
      c.procs = 256;
      c.ops = 8ull * 256;
      c.model = m;
      c.dir_scheme = DirScheme::kCoarseVector;
      c.dir_banks = 4;
      wide.push_back(c);
    }
  }
  def.timed.insert(def.timed.end(), wide.begin(), wide.end());
  // The naive loop ticks all 256 cores every cycle: trace the SC and
  // RC cells, except lock_convoy, whose 256-core convoy on 2 locks
  // takes about a minute per cell there. One shorter lock_convoy cell
  // (16 locks, so 16 cores per convoy) stands in for it.
  for (const CellSpec& c : wide) {
    if (c.kind != WorkloadKind::kLockConvoy &&
        (c.model == ConsistencyModel::kSC || c.model == ConsistencyModel::kRC))
      def.traced.push_back(c);
  }
  CellSpec convoy = wide.front();
  convoy.kind = WorkloadKind::kLockConvoy;
  convoy.model = ConsistencyModel::kSC;
  convoy.sharing = 16;
  def.traced.push_back(convoy);
}

// The P=64 cells of scale_p64_p256: a routed mesh with one-flit links,
// a limited-pointer directory and 8 banks, where network, caches and
// directory banks carry the load. Update beside invalidation drives
// the same code with pushed writes instead of re-read misses. 64 ops
// per core keeps cells short; zipfian's cycle count varies with the
// trace, so each of its configurations runs two independent traces,
// which halves the variance this adds to the total.
void add_mesh_cells(WorkloadDef& def) {
  for (WorkloadKind kind : {WorkloadKind::kZipfian, WorkloadKind::kProducerConsumer}) {
    const std::uint32_t parts = kind == WorkloadKind::kZipfian ? 2 : 1;
    for (std::uint32_t part = 0; part < parts; ++part) {
      for (ConsistencyModel m : {ConsistencyModel::kSC, ConsistencyModel::kRC}) {
        for (CoherenceKind coh : {CoherenceKind::kInvalidation, CoherenceKind::kUpdate}) {
          CellSpec c;
          c.kind = kind;
          c.procs = 64;
          c.ops = 64ull * 64;
          c.model = m;
          c.topology = Topology::kMesh2D;
          c.link_bw = 1;
          c.dir_scheme = DirScheme::kLimitedPtr;
          c.dir_banks = 8;
          c.coherence = coh;
          c.part = part;
          def.timed.push_back(c);
          def.traced.push_back(c);
        }
      }
    }
  }
}

// The two workloads. Each one loads a different part of the
// simulator; BENCHMARK.json records why each was chosen.
bool make_workload(const std::string& name, WorkloadDef& def) {
  if (name == "dense_p8") {
    // At P=8 on a crossbar the live core and LSU tick carries about 90%
    // of the host time; baseline beside +both runs the core with and
    // without prefetch and speculation. 1000 ops per trace keeps every
    // cell under about 0.3 s, so a run repeats each one many times.
    for (WorkloadKind kind : all_workload_kinds()) {
      for (ConsistencyModel m : kModels) {
        for (bool both : {false, true}) {
          CellSpec c;
          c.kind = kind;
          c.procs = 8;
          c.ops = 1000;
          c.model = m;
          c.both = both;
          def.timed.push_back(c);
        }
      }
    }
    def.traced = def.timed;
    return true;
  }
  if (name == "scale_p64_p256") {
    // The machines past P=64 in one workload, so that a run of the
    // benchmark's length covers both: a P=256 crossbar whose cores
    // mostly sleep, and a P=64 mesh whose network carries the load.
    add_wide_cells(def);
    add_mesh_cells(def);
    return true;
  }
  return false;
}

SystemConfig cell_config(const CellSpec& c, const Workload& w) {
  SystemConfig cfg = SystemConfig::realistic(c.procs, c.model);
  cfg.core.prefetch = c.both ? PrefetchMode::kNonBinding : PrefetchMode::kOff;
  cfg.core.speculative_loads = c.both;
  cfg.mem.topology = c.topology;
  cfg.mem.link_bw = c.link_bw;
  cfg.mem.dir_scheme = c.dir_scheme;
  cfg.mem.dir_banks = c.dir_banks;
  cfg.mem.coherence = c.coherence;
  if (w.min_mem_bytes > cfg.mem.mem_bytes) {
    const std::uint64_t line = cfg.cache.line_bytes;
    cfg.mem.mem_bytes = (w.min_mem_bytes + line - 1) / line * line;
  }
  // Deadlock watchdog with headroom for the op count (as workload_sweep).
  const std::uint64_t bound = 1000 * c.ops + (10u << 20);
  if (bound > cfg.max_cycles) cfg.max_cycles = bound;
  return cfg;
}

// ---- one cell -------------------------------------------------------

/// Exact statistics of one cell run, identical on every pass.
struct CellCounts {
  std::uint64_t retired = 0, fetched = 0, squashed_instructions = 0;
  std::uint64_t branch_mispredicts = 0, squashes = 0;
  std::uint64_t prefetch_issued = 0, prefetch_useful = 0;
  std::uint64_t spec_reissue = 0, spec_squash = 0;
  std::uint64_t cache_accesses = 0, cache_misses = 0, dir_deferred = 0;
  std::uint64_t messages = 0;
  LogHistogram hops, queuing;
  std::uint64_t guest_cycles = 0, ticks = 0;
  StallBreakdown stall{};  ///< summed over cores
  std::uint64_t fingerprint = 0;

  /// Accumulate another cell's counts (fingerprint excepted).
  void add(const CellCounts& c) {
    retired += c.retired;
    fetched += c.fetched;
    squashed_instructions += c.squashed_instructions;
    branch_mispredicts += c.branch_mispredicts;
    squashes += c.squashes;
    prefetch_issued += c.prefetch_issued;
    prefetch_useful += c.prefetch_useful;
    spec_reissue += c.spec_reissue;
    spec_squash += c.spec_squash;
    cache_accesses += c.cache_accesses;
    cache_misses += c.cache_misses;
    dir_deferred += c.dir_deferred;
    messages += c.messages;
    hops.merge(c.hops);
    queuing.merge(c.queuing);
    guest_cycles += c.guest_cycles;
    ticks += c.ticks;
    for (std::size_t k = 0; k < kNumStallCauses; ++k) stall[k] += c.stall[k];
  }
};

/// What the traced pass must reproduce.
struct CellOutcome {
  Cycle ticks = 0;
  std::vector<Cycle> drain;
  std::vector<StallBreakdown> stall;
  std::vector<Word> checked;  ///< final values at the trace's expected addresses
};

struct PhaseTimes {
  double gen = 0, compile = 0, construct = 0, run = 0, harvest = 0;
};

struct CellResult {
  bool ok = false;
  std::string error;
  PhaseTimes t;
  CellCounts counts;
  CellOutcome outcome;
};

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t sum_stats(const StatSet& s, std::initializer_list<const char*> names) {
  std::uint64_t n = 0;
  for (const char* name : names) n += s.get(name);
  return n;
}

/// Final-state and accounting checks shared by every way a cell runs.
/// Returns "" when the cell is correct.
std::string check_cell(const Workload& w, const Machine& m, bool deadlocked, Cycle ticks,
                       const std::vector<StallBreakdown>& stall) {
  if (deadlocked) return "deadlocked after " + std::to_string(ticks) + " cycles";
  for (const auto& [addr, value] : w.expected) {
    const Word got = m.read_word(addr);
    if (got != value) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "wrong result: [0x%llx]=%u != %u",
                    static_cast<unsigned long long>(addr), got, value);
      return buf;
    }
  }
  for (std::size_t p = 0; p < stall.size(); ++p) {
    std::uint64_t sum = 0;
    for (std::uint64_t v : stall[p]) sum += v;
    if (sum != ticks) return "core " + std::to_string(p) + ": sum(stall) != ticks";
  }
  return "";
}

/// "" when `mine` reproduces `ref`, else what differs.
std::string compare_outcome(const CellOutcome& mine, const CellOutcome& ref) {
  if (mine.ticks != ref.ticks) return "ticks differ from the fast-forward run()";
  if (mine.drain != ref.drain) return "drain cycles differ from the fast-forward run()";
  if (mine.stall != ref.stall) return "stall breakdown differs from the fast-forward run()";
  if (mine.checked != ref.checked) return "final memory differs from the fast-forward run()";
  return "";
}

CellOutcome outcome_of(const Workload& w, const Machine& m, Cycle ticks,
                       std::vector<Cycle> drain, std::vector<StallBreakdown> stall) {
  CellOutcome o;
  o.ticks = ticks;
  o.drain = std::move(drain);
  o.stall = std::move(stall);
  for (const auto& e : w.expected) o.checked.push_back(m.read_word(e.first));
  return o;
}

void harvest(Machine& m, const RunResult& r, CellCounts& c) {
  const std::uint32_t P = m.config().num_procs;
  for (ProcId p = 0; p < P; ++p) {
    const StatSet& cs = m.core(p).stats();
    const StatSet& ls = m.core(p).lsu().stats();
    const StatSet& ch = m.cache(p).stats();
    c.retired += r.retired[p];
    c.fetched += cs.get("fetched");
    c.squashed_instructions += cs.get("squashed_instructions");
    c.branch_mispredicts += cs.get("branch_mispredicts");
    c.squashes += cs.get("squashes");
    c.spec_reissue += ls.get("spec_reissue");
    c.spec_squash += ls.get("spec_squash");
    c.prefetch_issued += sum_stats(ch, {"prefetch_read_issued", "prefetch_ex_issued"});
    c.prefetch_useful += sum_stats(ch, {"prefetch_useful_hit", "prefetch_useful_merge"});
    // Demand accesses the cache accepted; a miss is one that found no
    // usable line and sent a request to the directory.
    const std::uint64_t misses =
        sum_stats(ch, {"load_miss", "loadex_miss", "store_miss", "store_upgrade_miss",
                       "rmw_miss", "store_miss_update"});
    c.cache_misses += misses;
    c.cache_accesses +=
        misses + sum_stats(ch, {"load_hit", "load_merged", "loadex_hit", "loadex_merged",
                                "store_hit", "store_merged", "store_hit_update",
                                "rmw_hit", "rmw_merged", "rmw_update"});
    for (std::size_t k = 0; k < kNumStallCauses; ++k) c.stall[k] += r.stall[p][k];
  }
  for (std::uint32_t b = 0; b < m.directory().num_banks(); ++b)
    c.dir_deferred += m.directory().bank(b).stats().get("deferred");
  const StatSet& ns = m.network().stats();
  c.messages = ns.get("messages_sent");
  if (const LogHistogram* h = ns.histogram("msg_hops")) c.hops = *h;
  if (const LogHistogram* h = ns.histogram("msg_queuing")) c.queuing = *h;
  c.guest_cycles = r.cycles;
  c.ticks = r.ticks;

  std::uint64_t f = 0xcbf29ce484222325ull;
  f = fnv(f, r.cycles);
  f = fnv(f, r.ticks);
  for (ProcId p = 0; p < P; ++p) {
    f = fnv(f, r.retired[p]);
    for (std::uint64_t v : r.stall[p]) f = fnv(f, v);
  }
  f = fnv(f, c.squashes);
  f = fnv(f, c.spec_reissue);
  f = fnv(f, c.prefetch_issued);
  c.fingerprint = f;
}

struct Built {
  Workload w;
  SystemConfig cfg;
};

Built build_inputs(const CellSpec& c, std::uint64_t seed, PhaseTimes* t) {
  WorkloadGenSpec spec;
  spec.kind = c.kind;
  spec.nprocs = c.procs;
  spec.ops = c.ops;
  spec.seed = c.part == 0 ? seed : derive_child_seed(seed, c.part);
  spec.sharing = c.sharing;
  auto t0 = Clock::now();
  TraceFile trace = generate_trace(spec);
  if (t) t->gen = seconds_since(t0);
  t0 = Clock::now();
  Built b;
  b.w = trace_to_workload(trace);
  if (t) t->compile = seconds_since(t0);
  b.cfg = cell_config(c, b.w);
  return b;
}

void preload(Machine& m, const Workload& w) {
  for (const auto& [proc, addr] : w.preload_shared) m.preload_shared(proc, addr);
}

/// One timed cell: the user-visible call sequence, every phase clocked.
CellResult run_timed(const CellSpec& c, std::uint64_t seed) {
  CellResult out;
  try {
    Built b = build_inputs(c, seed, &out.t);
    auto t0 = Clock::now();
    Machine m(b.cfg, b.w.programs);
    preload(m, b.w);
    out.t.construct = seconds_since(t0);
    t0 = Clock::now();
    RunResult r = m.run();
    out.t.run = seconds_since(t0);
    t0 = Clock::now();
    harvest(m, r, out.counts);
    out.error = check_cell(b.w, m, r.deadlocked, r.ticks, r.stall);
    out.outcome = outcome_of(b.w, m, r.ticks, r.drain_cycle, r.stall);
    out.t.harvest = seconds_since(t0);
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  out.ok = out.error.empty();
  return out;
}

// ---- traced pass ----------------------------------------------------

struct LayerTimes {
  double deliver = 0, dir = 0, cache = 0, core = 0, total = 0;
  std::uint64_t cycles = 0, cache_calls = 0, core_calls = 0;
};

/// Machine::step()'s stage order driven from outside, one clock read
/// per stage boundary. Returns "" when the loop reproduced `ref`.
std::string traced_loop(const CellSpec& c, std::uint64_t seed, const CellOutcome& ref,
                        LayerTimes& lt) {
  Built b = build_inputs(c, seed, nullptr);
  b.cfg.fastforward = false;
  Machine m(b.cfg, b.w.programs);
  preload(m, b.w);
  const std::uint32_t P = b.cfg.num_procs;
  std::vector<Cycle> drain(P, 0);
  std::vector<bool> drained(P, false);
  std::uint32_t undrained = P;
  auto done = [&] {
    if (undrained != 0 || !m.network().idle() || !m.directory().idle()) return false;
    for (ProcId p = 0; p < P; ++p)
      if (!m.cache(p).idle()) return false;
    return true;
  };
  Cycle cycle = 0;
  const auto start = Clock::now();
  while (!done() && cycle < b.cfg.max_cycles) {
    const auto t0 = Clock::now();
    m.network().deliver(cycle);
    const auto t1 = Clock::now();
    m.directory().tick(cycle);
    const auto t2 = Clock::now();
    for (ProcId p = 0; p < P; ++p) m.cache(p).tick(cycle);
    const auto t3 = Clock::now();
    for (ProcId p = 0; p < P; ++p) {
      m.core(p).tick(cycle);
      if (!drained[p] && m.core(p).drained()) {
        drained[p] = true;
        drain[p] = cycle;
        --undrained;
      }
    }
    const auto t4 = Clock::now();
    lt.deliver += std::chrono::duration<double>(t1 - t0).count();
    lt.dir += std::chrono::duration<double>(t2 - t1).count();
    lt.cache += std::chrono::duration<double>(t3 - t2).count();
    lt.core += std::chrono::duration<double>(t4 - t3).count();
    ++cycle;
  }
  lt.total += seconds_since(start);
  lt.cycles += cycle;
  lt.cache_calls += cycle * P;
  lt.core_calls += cycle * P;

  std::vector<StallBreakdown> stall;
  for (ProcId p = 0; p < P; ++p) {
    m.core(p).flush_stall_episode(cycle);
    stall.push_back(m.core(p).stall_cycles());
  }
  std::string err = check_cell(b.w, m, !done(), cycle, stall);
  if (!err.empty()) return err;
  return compare_outcome(outcome_of(b.w, m, cycle, drain, stall), ref);
}

/// The naive loop through the public run(), untraced. Returns "" when
/// it reproduced `ref`.
std::string naive_run(const CellSpec& c, std::uint64_t seed, const CellOutcome& ref,
                      double& secs) {
  Built b = build_inputs(c, seed, nullptr);
  b.cfg.fastforward = false;
  Machine m(b.cfg, b.w.programs);
  preload(m, b.w);
  const auto t0 = Clock::now();
  RunResult r = m.run();
  secs += seconds_since(t0);
  std::string err = check_cell(b.w, m, r.deadlocked, r.ticks, r.stall);
  if (!err.empty()) return err;
  return compare_outcome(outcome_of(b.w, m, r.ticks, r.drain_cycle, r.stall), ref);
}

// ---- Figure 2 reference -----------------------------------------------

// The paper's two Example programs (§3.3), as bench/fig2_example1.cpp
// and bench/fig2_example2.cpp build them, with the ten hand-derived
// cycle counts those files quote.
constexpr Addr kLock = 0x1000;

Program fig2_example1() {
  ProgramBuilder b;
  b.tas(31, ProgramBuilder::abs(kLock), SyncKind::kAcquire);
  b.store(0, ProgramBuilder::abs(0x2000));
  b.store(0, ProgramBuilder::abs(0x3000));
  b.unlock(kLock);
  b.halt();
  return b.build();
}

constexpr Addr kExampleD = 0x3000;

Program fig2_example2() {
  ProgramBuilder b;
  b.data(kExampleD, 5);
  b.tas(31, ProgramBuilder::abs(kLock), SyncKind::kAcquire);
  b.load(1, ProgramBuilder::abs(0x2000));
  b.load(2, ProgramBuilder::abs(kExampleD));
  b.load(3, ProgramBuilder::indexed(0x4000, 2, 2));
  b.unlock(kLock);
  b.halt();
  return b.build();
}

struct Fig2Entry {
  int example;
  ConsistencyModel model;
  bool prefetch, spec;
  Cycle paper;
};

const Fig2Entry kFig2[] = {
    {1, ConsistencyModel::kSC, false, false, 301},
    {1, ConsistencyModel::kRC, false, false, 202},
    {1, ConsistencyModel::kSC, true, false, 103},
    {1, ConsistencyModel::kRC, true, false, 103},
    {2, ConsistencyModel::kSC, false, false, 302},
    {2, ConsistencyModel::kRC, false, false, 203},
    {2, ConsistencyModel::kSC, true, false, 203},
    {2, ConsistencyModel::kRC, true, false, 202},
    {2, ConsistencyModel::kSC, true, true, 104},
    {2, ConsistencyModel::kRC, true, true, 104},
};

/// Sum of |simulated - paper| cycles, and how many entries match.
void fig2_error(std::uint64_t& err, std::uint64_t& matched) {
  err = 0;
  matched = 0;
  for (const Fig2Entry& e : kFig2) {
    SystemConfig cfg = SystemConfig::paper_default(1, e.model);
    cfg.core.prefetch = e.prefetch ? PrefetchMode::kNonBinding : PrefetchMode::kOff;
    cfg.core.speculative_loads = e.spec;
    Machine m(cfg, {e.example == 1 ? fig2_example1() : fig2_example2()});
    if (e.example == 2) m.preload_shared(0, kExampleD);
    const RunResult r = m.run();
    const Cycle got = r.deadlocked ? 0 : r.cycles;
    err += got > e.paper ? got - e.paper : e.paper - got;
    if (got == e.paper) ++matched;
  }
}

// ---- statistics -------------------------------------------------------

double fastest(std::vector<double> v) { return *std::min_element(v.begin(), v.end()); }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// CPUs this process may run on.
std::vector<int> allowed_cpus() {
  std::vector<int> out;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return out;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) out.push_back(c);
  return out;
}

void pin(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

/// Picks the least-contended CPU for the next cell runs. The host's
/// CPUs are shared with other tenants, and a CPU whose core is busy
/// with someone else's work runs the simulator up to twice as slowly,
/// for seconds at a time. Every `interval` seconds, each allowed CPU
/// runs a fixed probe (a dependent walk over an L2-sized ring, about
/// 0.2 ms) and the fastest one is kept.
class CpuPicker {
 public:
  CpuPicker() : cpus_(allowed_cpus()), ring_(1u << 14) {
    // One random cycle through every slot (Sattolo's algorithm).
    for (std::uint32_t i = 0; i < ring_.size(); ++i) ring_[i] = i;
    Pcg32 rng(1);
    for (std::uint32_t i = static_cast<std::uint32_t>(ring_.size()) - 1; i > 0; --i)
      std::swap(ring_[i], ring_[rng.next_below(i)]);
  }

  void maybe_repin() {
    if (cpus_.empty() || (picked_ && seconds_since(last_) < kInterval)) return;
    double best = 0;
    int best_cpu = cpus_.front();
    for (int c : cpus_) {
      pin(c);
      const double t = probe();
      if (best == 0 || t < best) {
        best = t;
        best_cpu = c;
      }
    }
    pin(best_cpu);
    picked_ = true;
    last_ = Clock::now();
  }

 private:
  static constexpr double kInterval = 0.25;

  double probe() {
    const auto t0 = Clock::now();
    std::uint32_t x = 0;
    for (int i = 0; i < 50000; ++i) x = ring_[x];
    sink_ += x;
    return seconds_since(t0);
  }

  std::vector<int> cpus_;
  std::vector<std::uint32_t> ring_;
  bool picked_ = false;
  Clock::time_point last_;
  std::uint64_t sink_ = 0;
};

int usage() {
  std::fprintf(stderr,
               "usage: mcsim_perf --workload dense_p8|scale_p64_p256 --seed N "
               "--seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      seed = std::strtoull(v, &end, 10);
    } else if (k == "--seconds") {
      seconds = std::strtod(v, &end);
    } else if (k == "--trace") {
      trace = static_cast<int>(std::strtol(v, &end, 10));
    } else {
      return usage();
    }
    if (end != nullptr && *end != '\0') return usage();
  }
  if (argc % 2 != 1 || seconds <= 0 || (trace != 0 && trace != 1)) return usage();
  WorkloadDef def;
  if (!make_workload(workload, def)) return usage();

  const std::size_t n = def.timed.size();
  std::vector<std::string> errors;
  std::uint64_t attempted = 0, failed = 0;
  auto record = [&](const std::string& label, const std::string& err) {
    ++attempted;
    if (err.empty()) return;
    ++failed;
    if (errors.size() < 20) errors.push_back(label + ": " + err);
  };

  // The Figure 2 check runs first and doubles as the warm-up of code
  // and allocator.
  std::uint64_t fig2_err = 0, fig2_matched = 0;
  fig2_error(fig2_err, fig2_matched);

  // Timed passes, at least three, until --seconds have elapsed. Pass 0
  // is the reference for the exact counts and fingerprints that every
  // later pass must reproduce.
  std::vector<CellResult> ref(n);
  std::vector<std::vector<PhaseTimes>> times(n);
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  Pcg32 shuffle_rng(derive_child_seed(seed, 0x5eed));
  CpuPicker cpu;
  const auto measure_start = Clock::now();
  std::size_t passes = 0;
  while (passes < 3 || seconds_since(measure_start) < seconds) {
    for (std::size_t i = n; i > 1; --i)
      std::swap(order[i - 1], order[shuffle_rng.next_below(static_cast<std::uint32_t>(i))]);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = order[k];
      cpu.maybe_repin();
      CellResult r = run_timed(def.timed[i], seed);
      std::string err = r.error;
      times[i].push_back(r.t);
      if (passes == 0)
        ref[i] = r;
      else if (err.empty() && r.counts.fingerprint != ref[i].counts.fingerprint)
        err = "statistics differ between passes";
      record(def.timed[i].label(), err);
      // Hand freed memory back, so peak_rss_mb is the largest cell's
      // footprint rather than whatever fragmentation the order left.
      malloc_trim(0);
    }
    ++passes;
  }
  const double measured_s = seconds_since(measure_start);

  // Per cell across timed passes: the fastest run(), the median of
  // every other phase; each summed over cells.
  std::vector<PhaseTimes> cell_t(n);
  PhaseTimes sum;
  for (std::size_t i = 0; i < n; ++i) {
    auto phase = [&](double PhaseTimes::*f, double (*summary)(std::vector<double>)) {
      std::vector<double> v;
      for (const PhaseTimes& t : times[i]) v.push_back(t.*f);
      cell_t[i].*f = summary(v);
      sum.*f += cell_t[i].*f;
    };
    phase(&PhaseTimes::gen, median);
    phase(&PhaseTimes::compile, median);
    phase(&PhaseTimes::construct, median);
    phase(&PhaseTimes::run, fastest);
    phase(&PhaseTimes::harvest, median);
  }
  // The typical run() time beside the fastest, for comparison.
  double run_median = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> v;
    for (const PhaseTimes& t : times[i]) v.push_back(t.run);
    run_median += median(v);
  }

  CellCounts tot;
  std::uint64_t fingerprint = 0xcbf29ce484222325ull;
  std::uint64_t core_ticks = 0;  // sum over cells of procs * ticks
  for (std::size_t i = 0; i < n; ++i) {
    const CellCounts& c = ref[i].counts;
    tot.add(c);
    core_ticks += static_cast<std::uint64_t>(def.timed[i].procs) * c.ticks;
    fingerprint = fnv(fingerprint, c.fingerprint);
  }

  auto frac = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  Json metrics = Json::object();
  auto put = [&](const std::string& k, double v) { metrics.set(k, Json::number(v)); };
  // End to end.
  put("run_s", sum.run);
  put("setup_s", sum.gen + sum.compile + sum.construct);
  put("guest_mips", frac(static_cast<double>(tot.retired), sum.run) / 1e6);
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  put("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
  put("ok_frac", frac(static_cast<double>(attempted - failed), static_cast<double>(attempted)));
  put("fig2_match_frac", static_cast<double>(fig2_matched) / std::size(kFig2));
  // Phase spans.
  put("trace.gen_s", sum.gen);
  put("trace.compile_s", sum.compile);
  put("sim.construct_s", sum.construct);
  put("sim.run_s", sum.run);
  put("sim.run_median_s", run_median);
  put("sim.harvest_s", sum.harvest);
  // Exact counts.
  put("cpu.retired", static_cast<double>(tot.retired));
  put("cpu.fetched", static_cast<double>(tot.fetched));
  put("cpu.retire_per_fetch", frac(static_cast<double>(tot.retired), static_cast<double>(tot.fetched)));
  put("cpu.squashed_instructions", static_cast<double>(tot.squashed_instructions));
  put("cpu.branch_mispredicts", static_cast<double>(tot.branch_mispredicts));
  put("consistency.prefetch_issued", static_cast<double>(tot.prefetch_issued));
  put("consistency.prefetch_useful_frac",
      frac(static_cast<double>(tot.prefetch_useful), static_cast<double>(tot.prefetch_issued)));
  put("consistency.spec_reissue", static_cast<double>(tot.spec_reissue));
  put("consistency.spec_squash", static_cast<double>(tot.spec_squash));
  put("coherence.cache_accesses", static_cast<double>(tot.cache_accesses));
  put("coherence.cache_miss_frac",
      frac(static_cast<double>(tot.cache_misses), static_cast<double>(tot.cache_accesses)));
  put("coherence.dir_deferred", static_cast<double>(tot.dir_deferred));
  put("interconnect.messages", static_cast<double>(tot.messages));
  put("interconnect.hops_mean", tot.hops.mean());
  put("interconnect.queuing_p99", static_cast<double>(tot.queuing.p99()));
  put("sim.guest_cycles", static_cast<double>(tot.guest_cycles));
  put("sim.ticks", static_cast<double>(tot.ticks));
  for (std::size_t k = 0; k < kNumStallCauses; ++k)
    put(std::string("sim.stall_frac.") + to_string(static_cast<StallCause>(k)),
        frac(static_cast<double>(tot.stall[k]), static_cast<double>(core_ticks)));
  put("sim.fig2_err_cycles", static_cast<double>(fig2_err));

  double traced_s = 0;
  if (trace == 1) {
    // The fast-forward reference of each traced cell comes from the
    // timed passes when the cell is one of them, else from a fresh run.
    LayerTimes lt;
    double naive_s = 0, ff_s = 0;
    const auto traced_start = Clock::now();
    for (const CellSpec& c : def.traced) {
      const std::string label = c.label();
      cpu.maybe_repin();
      std::size_t i = 0;
      while (i < n && def.timed[i].label() != label) ++i;
      CellResult fresh;
      if (i == n) {
        fresh = run_timed(c, seed);
        record(label, fresh.error);
      }
      const CellResult& ff = i < n ? ref[i] : fresh;
      ff_s += i < n ? cell_t[i].run : fresh.t.run;
      if (!ff.ok) continue;  // already counted as failed
      try {
        record(label + " (naive run)", naive_run(c, seed, ff.outcome, naive_s));
        record(label + " (traced loop)", traced_loop(c, seed, ff.outcome, lt));
      } catch (const std::exception& e) {
        record(label + " (traced pass)", e.what());
      }
    }
    traced_s = seconds_since(traced_start);
    put("interconnect.deliver_s", lt.deliver);
    put("interconnect.deliver_ns", frac(lt.deliver * 1e9, static_cast<double>(lt.cycles)));
    put("coherence.dir_tick_s", lt.dir);
    put("coherence.dir_tick_ns", frac(lt.dir * 1e9, static_cast<double>(lt.cycles)));
    put("coherence.cache_tick_s", lt.cache);
    put("coherence.cache_tick_ns", frac(lt.cache * 1e9, static_cast<double>(lt.cache_calls)));
    put("cpu.core_tick_s", lt.core);
    put("cpu.core_tick_ns", frac(lt.core * 1e9, static_cast<double>(lt.core_calls)));
    put("sim.naive_s", naive_s);
    put("sim.active_set_gain", frac(naive_s, ff_s));
    put("traced.overhead_frac", frac(lt.total - naive_s, naive_s));
  }

  Json out = Json::object();
  out.set("workload", Json::string(workload));
  out.set("seed", Json::number(seed));
  out.set("trace", Json::number(static_cast<std::int64_t>(trace)));
  out.set("cells", Json::number(static_cast<std::uint64_t>(n)));
  out.set("traced_cells", Json::number(static_cast<std::uint64_t>(trace == 1 ? def.traced.size() : 0)));
  out.set("timed_passes", Json::number(static_cast<std::uint64_t>(passes)));
  out.set("measured_s", Json::number(measured_s));
  out.set("traced_s", Json::number(traced_s));
  out.set("attempted", Json::number(attempted));
  out.set("failed", Json::number(failed));
  out.set("correct", Json::boolean(failed == 0));
  Json errs = Json::array();
  for (const std::string& e : errors) errs.push_back(Json::string(e));
  out.set("errors", std::move(errs));
  out.set("fingerprint", Json::string(hex(fingerprint)));
  Json cells = Json::object();
  for (std::size_t i = 0; i < n; ++i) {
    Json c = Json::object();
    c.set("fingerprint", Json::string(hex(ref[i].counts.fingerprint)));
    c.set("run_s", Json::number(cell_t[i].run));
    cells.set(def.timed[i].label(), std::move(c));
  }
  out.set("cell_results", std::move(cells));
  out.set("metrics", std::move(metrics));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}
