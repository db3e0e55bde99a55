// Machine: N dynamically-scheduled cores with private coherent caches,
// a directory/memory module, and the interconnect — the whole
// multiprocessor of the paper, driven by a single deterministic clock.
//
// This is the top-level public API:
//
//   SystemConfig cfg = SystemConfig::paper_default(2, ConsistencyModel::kSC);
//   cfg.core.prefetch = PrefetchMode::kNonBinding;
//   Machine m(cfg, {producer_program, consumer_program});
//   RunResult r = m.run();
//   // r.cycles, m.read_word(addr), m.core(0).reg(3), ...
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/config.hpp"
#include "common/json.hpp"
#include "common/stall.hpp"
#include "common/trace_event.hpp"
#include "coherence/cache.hpp"
#include "coherence/directory.hpp"
#include "cpu/core.hpp"
#include "interconnect/network.hpp"
#include "isa/program.hpp"
#include "sim/sched.hpp"

namespace mcsim {

struct RunResult {
  Cycle cycles = 0;        ///< cycle at which the last processor drained
  Cycle ticks = 0;         ///< machine cycles actually stepped (>= cycles:
                           ///< the clock runs on while memory quiesces)
  bool deadlocked = false; ///< hit cfg.max_cycles before completion
  std::vector<std::uint64_t> retired;     ///< instructions per processor
  std::vector<Cycle> drain_cycle;         ///< per-processor completion time
  /// Per-processor cycles-by-cause; each entry sums to `ticks` exactly
  /// (every machine cycle is charged to one cause per core, by its live
  /// tick or, for a sleeping core, by the flush of its frozen span).
  std::vector<StallBreakdown> stall;
};

class Machine {
 public:
  /// One program per processor; programs.size() must equal cfg.num_procs.
  /// Every program's data initializers are applied to memory up front.
  Machine(const SystemConfig& cfg, std::vector<Program> programs);

  /// Run to completion (all processors drained, memory system quiet).
  /// With cfg.fastforward (the default) the active-set scheduler ticks
  /// only components armed for the current cycle and jumps over cycles
  /// where none is; the result is cycle-identical to the naive
  /// per-cycle loop (pinned by tests/integration/fastforward_equivalence
  /// and, with MCSIM_AUDIT=1, checked by a lockstep shadow machine).
  RunResult run();

  /// Advance a single cycle (benches and the Figure-5 trace use this).
  void step();

  /// Earliest cycle at which any component can make progress: the min
  /// of every component's next_event(). A value <= now() means the
  /// next tick must run live; a larger value proves every tick before
  /// it is a no-op; kCycleNever means the machine is permanently
  /// quiescent (done, or deadlocked until max_cycles). An O(P) sweep:
  /// run() never calls it (its active-set loop reads the scheduler heap
  /// top, see sim/sched.hpp); it is the ground truth behind the heap's
  /// arming contract, for tests and benches.
  Cycle next_event_cycle() const;

  Cycle now() const { return cycle_; }
  /// O(1): undrained-core and busy-cache counters plus the network's
  /// and directory's own O(1) idle checks. Checked against the full
  /// scan on every 1024th call when MCSIM_AUDIT is on.
  bool done() const;

  Core& core(ProcId p) { return *cores_.at(p); }
  const Core& core(ProcId p) const { return *cores_.at(p); }
  CoherentCache& cache(ProcId p) { return *caches_.at(p); }
  const CoherentCache& cache(ProcId p) const { return *caches_.at(p); }
  DirectoryGroup& directory() { return dir_; }
  const DirectoryGroup& directory() const { return dir_; }
  Network& network() { return net_; }
  /// The trace-event stream (Chrome JSON and Figure-5 text renderers);
  /// call .enable() before run() to record.
  TraceEventSink& trace_events() { return events_; }
  const TraceEventSink& trace_events() const { return events_; }
  const SystemConfig& config() const { return cfg_; }

  /// Coherent value of a word after (or during) a run: an exclusive
  /// cached copy wins over memory.
  Word read_word(Addr a) const;

  /// Experiment setup: warm `p`'s cache with the line containing `a`
  /// (contents from memory), shared or exclusive, keeping the
  /// directory consistent. Call before run()/step().
  void preload_shared(ProcId p, Addr a);
  void preload_exclusive(ProcId p, Addr a);

  /// Aggregated stats from every component, one line per counter,
  /// followed by per-core stall-cause breakdowns.
  std::string stats_report() const;

  /// Structured snapshot of all in-flight state (ROBs, LSU queues,
  /// network messages, directory transactions) for deadlock reports.
  Json post_mortem() const;

  /// Per-processor architectural access logs (cfg.record_accesses).
  std::vector<std::vector<AccessRecord>> access_logs() const;

 private:
  /// Replayed preload_* call, so the audit's shadow machine can be
  /// constructed into the same initial state.
  struct PreloadRecord {
    bool shared = false;
    ProcId proc = 0;
    Addr addr = 0;
  };

  // --- active-set scheduling (see docs/INTERNALS.md §2) --------------
  //
  // Component-id scheme, chosen so the heap's (cycle, id) pop order IS
  // the naive loop's stage order within a cycle:
  //   0                    network (deliver)
  //   1 .. B               directory banks
  //   B+1 .. B+P           caches
  //   B+P+1 .. B+2P        cores
  Scheduler::CompId net_comp() const { return 0; }
  Scheduler::CompId bank_comp(std::uint32_t b) const { return 1 + b; }
  Scheduler::CompId cache_comp(ProcId p) const { return 1 + dir_.num_banks() + p; }
  Scheduler::CompId core_comp(ProcId p) const {
    return 1 + dir_.num_banks() + cfg_.num_procs + p;
  }

  /// Arm every component for the current machine state and mark the
  /// scheduler live (run()'s fast-forward loop entry).
  void init_scheduler();
  /// Run every component armed at cycle_ in stage order, then advance
  /// the clock. The active-set replacement for step(): per-cycle cost
  /// is proportional to the number of armed components, not P.
  void step_active();
  /// Core p's live tick plus its drain bookkeeping and the re-arming
  /// of itself and its cache (the only arm sites for either).
  void tick_core_live(ProcId p);
  /// Charge core p's lazily-deferred stall span [charged_until_[p],
  /// cycle_) with one stall classification times the span: exactly
  /// what the naive loop's per-cycle ticks would have charged.
  void flush_core_charges(ProcId p);
  void flush_all_core_charges();
  /// Network delivery hook: arm the receiving cache/bank for this cycle.
  void on_delivery(EndpointId ep);
  /// Directory busy-bit pre-flip hook: flush stall charges for every
  /// sleeping core whose classification watches `line`.
  void on_dir_busy_flip(Addr line);
  /// Maintain the line -> sleeping-watchers map (kNoWatch clears).
  void set_core_watch(ProcId p, Addr line);

  /// Ground truth behind done()'s counters (audit + cold paths).
  bool done_scan() const;
  /// Architectural state plus stats_report(): what the audit compares.
  std::string audit_fingerprint() const;

  SystemConfig cfg_;
  TraceEventSink events_;
  std::vector<Program> programs_;
  Network net_;
  DirectoryGroup dir_;
  std::vector<std::unique_ptr<CoherentCache>> caches_;
  std::vector<std::unique_ptr<Core>> cores_;
  std::vector<Cycle> drain_cycle_;
  std::vector<bool> drained_;
  std::vector<PreloadRecord> preload_log_;
  std::uint64_t undrained_cores_ = 0;  ///< cores with drained_[p] false
  std::uint64_t busy_caches_ = 0;      ///< caches with pending work
  Cycle cycle_ = 0;

  // --- active-set scheduler state (live only inside run()'s ff loop) -
  static constexpr Addr kNoWatch = ~static_cast<Addr>(0);
  Scheduler sched_;
  bool sched_live_ = false;
  /// First cycle whose stall charge core p has NOT yet received;
  /// the naive loop charges every tick eagerly, the active-set loop
  /// defers a sleeping core's identical per-cycle charges and flushes
  /// them in one step (flush_core_charges).
  std::vector<Cycle> charged_until_;
  /// Line whose directory busy bit core p's sleeping stall
  /// classification depends on (kDirPending vs kCacheMiss), kNoWatch
  /// when none; watchers_ is the inverse map.
  std::vector<Addr> watch_line_;
  std::unordered_map<Addr, std::vector<ProcId>> watchers_;
  /// Last address the mem classifier probed for core p, valid only for
  /// classifications made since the flag was cleared (the live tick
  /// clears it, so a stale probe from a flush is never reused).
  std::vector<Addr> classifier_addr_;
  std::vector<bool> classifier_probe_valid_;
  const bool audit_ = audit_enabled();
  mutable std::uint64_t done_calls_ = 0;  ///< done()-audit sampling counter
};

}  // namespace mcsim
