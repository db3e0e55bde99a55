// Dynamically scheduled processor core, modeled after Johnson's design
// (paper Figure 3): in-order fetch with branch prediction, decode with
// register renaming into a reorder buffer, out-of-order execution,
// in-order retirement with precise interrupts, and the load/store unit
// of Figure 4.
//
// The reorder buffer implements the paper's store policies: a store is
// released to the store buffer when it reaches the ROB head; under SC
// it additionally stays at the head until it performs, so stores issue
// one at a time. RMWs always retire only once performed (Appendix A).
// Loads with a live speculative-load buffer entry cannot retire — they
// are still squashable.
//
// The reorder buffer is a fixed ring of rob_entries slots whose entries
// never move; an entry is named by its (slot, seq) tag. Renamed operands
// register on their producer's slot and are woken from there, and a
// bitmask over slots marks the ALU/branch entries ready to execute (see
// docs/INTERNALS.md §6).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/json.hpp"
#include "common/stall.hpp"
#include "common/stats.hpp"
#include "common/trace_event.hpp"
#include "common/types.hpp"
#include "coherence/cache.hpp"
#include "cpu/branch_predictor.hpp"
#include "cpu/lsu.hpp"
#include "cpu/operand.hpp"
#include "isa/program.hpp"

namespace mcsim {

class Core : public LsuHost, public LineEventObserver {
 public:
  Core(ProcId id, const SystemConfig& cfg, const Program& program, CoherentCache& cache,
       TraceEventSink& events);

  /// Advance one cycle. The cache must have ticked already.
  void tick(Cycle now);

  /// Earliest future cycle at which tick() could change any state,
  /// for the fast-forward scheduler. `now` when the previous tick made
  /// progress (the pipeline is live, so the next tick may act too);
  /// otherwise the core is frozen until either a pending store-to-load
  /// forwarding result matures (its ready_at) or an external event
  /// arrives (cache response or coherence transaction — covered by the
  /// cache's and network's own next_event). kCycleNever when neither.
  Cycle next_event(Cycle now) const {
    if (progress_ || lsu_.progressed()) return now;
    return lsu_.next_local_completion();
  }

  /// Charge `span` frozen ticks starting at `now` in one step: the
  /// stall cause classify_stall() gives now, times `span`, plus the
  /// stall-episode transition the first of those ticks would make. For
  /// a core whose last tick made no progress, and that nothing has
  /// touched since, this is exactly what ticking it `span` times
  /// charges: a frozen tick changes no state and bumps no counter, so
  /// its stall charge is its only effect, identical every cycle.
  void charge_frozen_span(Cycle now, std::uint64_t span);

  bool halted() const { return halted_; }
  /// Halted and every buffered access has performed.
  bool drained() const { return halted_ && rob_count_ == 0 && lsu_.empty(); }
  Cycle halt_cycle() const { return halt_cycle_; }

  Word reg(RegId r) const { return regfile_[r]; }
  std::uint64_t instructions_retired() const { return retired_; }

  LoadStoreUnit& lsu() { return lsu_; }
  const LoadStoreUnit& lsu() const { return lsu_; }

  // --- LsuHost --------------------------------------------------------
  void mem_completed(std::uint64_t seq, Word value, Cycle now) override;
  void rmw_spec_value(std::uint64_t seq, Word value, Cycle now) override;
  void request_squash_refetch(std::uint64_t seq, Cycle now,
                              TraceEventSink::NameId reason) override;

  // --- LineEventObserver (wired to this core's cache) -----------------
  void on_line_event(LineEventKind kind, Addr line, Cycle now) override;

  /// Figure-5 rendering of the reorder buffer, head first.
  std::string rob_dump() const;

  /// Per-cause cycle counts; kBusy counts retiring cycles, so the
  /// entries sum to exactly the number of tick() calls plus the cycles
  /// charged through charge_frozen_span().
  const StallBreakdown& stall_cycles() const { return stall_; }

  /// Close the open stall episode at end-of-run so its duration event
  /// reaches the trace. Safe to call when tracing is off.
  void flush_stall_episode(Cycle now);

  /// Structured ROB + LSU state for deadlock post-mortems.
  Json snapshot_json() const;

  const StatSet& stats() const { return stats_; }
  StatSet& stats() { return stats_; }

 private:
  /// A ROB operand as a waiter-list node: slot * 2 + (0 for op1, 1 for
  /// op2). resolve() takes kLsuOperand for the operands of the LSU.
  static constexpr std::uint32_t kNoWaiter = ~std::uint32_t{0};
  static constexpr std::uint32_t kLsuOperand = kNoWaiter - 1;

  struct RobEntry {
    std::uint64_t seq = 0;
    const Instruction* inst = nullptr;  ///< into program_, which outlives the core
    std::size_t pc = 0;
    Operand op1, op2;         ///< ALU/branch sources
    Word result = 0;
    bool executed = false;    ///< ALU/branch has been executed
    bool value_ready = false; ///< rd value available (speculative for RMW)
    bool performed = false;   ///< memory access performed
    bool released = false;    ///< store/RMW released to the store buffer
    bool spec_value = false;  ///< result is an Appendix-A speculative RMW value
    bool predicted_taken = false;
    bool lsu_waits = false;   ///< some LSU operand was tagged on this entry
    /// Head of the list of ROB operands tagged on this entry, youngest
    /// consumer first; linked through the consumers' next_waiter.
    std::uint32_t waiters = kNoWaiter;
    std::uint32_t next_waiter[2] = {kNoWaiter, kNoWaiter};  ///< per operand
  };

  static std::uint32_t waiter(std::size_t slot, std::uint32_t operand) {
    return static_cast<std::uint32_t>(2 * slot + operand);
  }

  struct FetchedInst {
    std::size_t pc = 0;
    bool predicted_taken = false;
  };

  void do_commit(Cycle now);
  void do_execute(Cycle now);
  /// Execute the ready ALU/branch entry in `slot`. False when it was a
  /// mispredicted branch, which squashed everything younger.
  bool execute(std::size_t slot, Cycle now);
  void do_dispatch(Cycle now);
  void do_fetch(Cycle now);
  /// Why is the ROB head not retiring this cycle? (const; no side effects)
  StallCause classify_stall() const;
  /// Add `cycles` to cause `c` and open a new trace episode at `now`
  /// if the cause changed.
  void charge_stall(StallCause c, std::uint64_t cycles, Cycle now);
  void squash_from(std::uint64_t seq, std::size_t refetch_pc, Cycle now,
                   TraceEventSink::NameId why,
                   SquashOrigin origin = SquashOrigin::kPipeline);

  /// Slot of the i-th entry from the head.
  std::size_t rob_slot_at(std::size_t i) const {
    const std::size_t s = rob_head_ + i;
    return s < rob_.size() ? s : s - rob_.size();
  }
  /// Slot holding `seq`, or kNoSlot when it is not in the ROB.
  static constexpr std::size_t kNoSlot = ~std::size_t{0};
  std::size_t rob_find(std::uint64_t seq) const;
  void rob_pop_front();
  /// Rename `reg` for the consumer operand `w` (a waiter() node, or
  /// kLsuOperand); a tagged result is registered on its producer.
  Operand resolve(RegId reg, std::uint32_t w);
  void writeback(const RobEntry& e);
  /// The entry in `slot` produced `value`: wake the operands tagged on it.
  void broadcast(std::size_t slot, Word value);
  void set_ready(std::size_t slot) { ready_[slot / 64] |= std::uint64_t{1} << (slot % 64); }
  void clear_ready(std::size_t slot) {
    ready_[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
  }
  /// First ready slot in [from, end), or `end`.
  std::size_t next_ready(std::size_t from, std::size_t end) const;
  /// Mark an in-tick state mutation (see next_event()).
  void note_progress() { progress_ = true; }

  ProcId id_;
  /// This core's resolved configuration: the machine-wide settings
  /// with any per_core override for this processor already applied.
  SystemConfig cfg_;
  const Program& program_;
  TraceEventSink& events_;

  /// The reorder buffer: rob_count_ entries from rob_head_, oldest
  /// first, wrapping around. Seqs ascend along the ring but have gaps
  /// (a squash discards a suffix; seqs are never reused).
  std::vector<RobEntry> rob_;
  std::size_t rob_head_ = 0;
  std::size_t rob_count_ = 0;
  /// Bit per slot: an ALU/branch entry, not executed, both operands ready.
  std::vector<std::uint64_t> ready_;
  /// do_execute() scratch: slots of this cycle's ALU results, which
  /// sit in their entries' `result` until published.
  std::vector<std::size_t> results_;

  std::array<Word, kNumArchRegs> regfile_{};
  /// rename_[r]: the youngest in-flight producer of r, or seq kNoProducer.
  struct Producer {
    std::uint64_t seq;
    std::size_t slot;
  };
  static constexpr std::uint64_t kNoProducer = ~0ull;
  std::array<Producer, kNumArchRegs> rename_;

  BranchPredictor predictor_;
  LoadStoreUnit lsu_;

  std::deque<FetchedInst> fetch_buf_;
  std::size_t fetch_pc_ = 0;
  bool fetch_stopped_ = false;   ///< fetched past a halt
  bool dispatch_stopped_ = false;///< dispatched a halt
  bool halted_ = false;          ///< halt retired
  Cycle halt_cycle_ = 0;

  std::uint64_t next_seq_ = 1;
  std::uint64_t retired_ = 0;

  /// Core state mutated this tick; starts armed (the constructor may
  /// pre-fill the pipeline, and the first tick must always run live).
  bool progress_ = true;

  StallBreakdown stall_{};
  StallCause episode_cause_ = StallCause::kBusy;
  Cycle episode_start_ = 0;

  StatSet stats_;
};

}  // namespace mcsim
