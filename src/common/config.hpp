// System configuration: one struct tree describing the whole machine.
//
// SystemConfig::paper_default() reproduces the machine the paper's §3.3
// examples assume: 1-cycle cache hits, 100-cycle clean misses, a memory
// system that accepts an access every cycle, lockup-free caches, and a
// dynamically scheduled processor with branch prediction.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace mcsim {

/// The consistency model the hardware enforces (paper §2, Figure 1).
enum class ConsistencyModel : std::uint8_t {
  kSC,  ///< sequential consistency (Lamport)
  kPC,  ///< processor consistency (Goodman): loads may bypass earlier stores
  kWC,  ///< weak consistency (Dubois et al.), WCsc variant
  kRC,  ///< release consistency (Gharachorloo et al.), RCpc variant
};

/// Cache-coherence protocol family (paper §3.1 discusses both).
enum class CoherenceKind : std::uint8_t {
  kInvalidation,  ///< DASH-like directory invalidation protocol
  kUpdate,        ///< update protocol: writes push new values to sharers
};

/// Hardware prefetch behaviour for consistency-delayed accesses (§3, §6).
enum class PrefetchMode : std::uint8_t {
  kOff,         ///< no hardware prefetch
  kNonBinding,  ///< the paper's technique: line fetched into the coherent cache
  kBinding,     ///< related-work strawman (§6): value bound at prefetch time,
                ///< so the prefetch may not issue before the access itself is
                ///< allowed to perform — modeled for the ablation bench
};

/// Interconnect topology. The paper evaluates a fixed-latency,
/// unlimited-bandwidth network (crossbar here, the default); ring and
/// 2D mesh route hop-by-hop through per-link FIFO queues with finite
/// link bandwidth and back-pressure, so delivery latency becomes
/// hop-count plus queuing instead of a constant.
enum class Topology : std::uint8_t {
  kCrossbar,  ///< flat point-to-point, fixed one-way latency (paper §5)
  kRing,      ///< bidirectional ring, shortest-direction routing
  kMesh2D,    ///< 2D mesh, deterministic XY routing
};

/// Directory sharer-set encoding (DASH lineage). Every scheme tracks a
/// CONSERVATIVE SUPERSET of the true sharers — spurious invalidations
/// and updates are protocol-safe because caches acknowledge them for
/// non-resident lines — so correctness is scheme-independent and only
/// fan-out traffic changes.
enum class DirScheme : std::uint8_t {
  kFullMap,      ///< one bit per processor (exact; arbitrary P via word array)
  kLimitedPtr,   ///< Dir_i_B: i pointers, broadcast to all on overflow
  kCoarseVector, ///< one bit per cluster of `dir_cluster` processors
};

const char* to_string(ConsistencyModel m);
const char* to_string(CoherenceKind k);
const char* to_string(PrefetchMode m);
const char* to_string(Topology t);
const char* to_string(DirScheme s);

/// Hard machine-size ceiling: trace formats, endpoint ids, and trace
/// tracks all assume processor counts below this (the binary trace
/// reader rejects nprocs > 4096 as implausible). validate() turns any
/// larger --procs into a clear error instead of silent wraparound.
constexpr std::uint32_t kMaxProcs = 4096;

/// Per-core microarchitecture parameters (paper Figures 3 and 4).
struct CoreConfig {
  std::uint32_t fetch_width = 4;    ///< instructions fetched per cycle
  std::uint32_t decode_width = 4;   ///< instructions renamed/dispatched per cycle
  std::uint32_t commit_width = 4;   ///< instructions retired per cycle
  std::uint32_t rob_entries = 64;   ///< reorder buffer capacity
  std::uint32_t ls_rs_entries = 16; ///< load/store reservation station
  std::uint32_t store_buffer_entries = 16;
  std::uint32_t spec_load_buffer_entries = 16;  ///< paper Fig. 4 speculative-load buffer
  std::uint32_t prefetch_buffer_entries = 16;   ///< §3.2 prefetch buffer
  std::uint32_t num_alus = 2;
  std::uint32_t btb_entries = 64;   ///< branch target buffer (2-bit counters)

  /// When true, the front end is ideal: the whole program is decoded
  /// and placed in the reorder buffer before cycle 0, exactly the
  /// assumption of the paper's Figure 5 walkthrough ("the instructions
  /// are assumed to be decoded and placed in the reorder buffer").
  /// Used by the figure-reproduction benches; realistic mode is default.
  bool ideal_frontend = false;

  // --- the paper's two techniques -----------------------------------
  bool speculative_loads = false;          ///< §4 technique
  PrefetchMode prefetch = PrefetchMode::kOff;  ///< §3 technique
};

/// Private-cache geometry. Caches are lockup-free [Kroft 81] with
/// `mshrs` simultaneously outstanding misses.
struct CacheConfig {
  std::uint32_t line_bytes = 16;
  std::uint32_t num_sets = 256;
  std::uint32_t ways = 4;
  std::uint32_t mshrs = 16;
};

/// Directory/memory and interconnect timing.
struct MemConfig {
  std::uint32_t net_latency = 49;  ///< one-way message latency, cycles
  std::uint32_t dir_latency = 2;   ///< directory/memory service time
  /// Messages deliverable per endpoint per cycle; 0 = unlimited (the
  /// paper's assumption — §3.2 notes the techniques need "a
  /// high-bandwidth pipelined memory system").
  std::uint32_t deliver_bw = 0;
  /// Interconnect topology; crossbar (default) is the paper's
  /// fixed-latency network and ignores link_bw/link_queue.
  Topology topology = Topology::kCrossbar;
  /// Ring/mesh: messages a link may forward per cycle (0 = unlimited).
  std::uint32_t link_bw = 1;
  /// Ring/mesh: per-link FIFO capacity; a full downstream queue
  /// back-pressures the upstream link (injection queues are unbounded
  /// so send() never fails).
  std::uint32_t link_queue = 8;
  CoherenceKind coherence = CoherenceKind::kInvalidation;
  std::uint64_t mem_bytes = 1u << 20;  ///< simulated physical memory size
  /// Sharer-set encoding in every directory bank (--dir-scheme).
  /// Full-map is exact and, at <= 64 processors with one bank, is
  /// cycle-identical to the historical uint64_t bit-vector.
  DirScheme dir_scheme = DirScheme::kFullMap;
  /// Limited-pointer scheme: pointers per entry before the entry
  /// degrades to broadcast (Dir_i_B's "i"; --dir-ptrs).
  std::uint32_t dir_pointers = 4;
  /// Coarse-vector scheme: processors per sharer bit (--dir-cluster).
  std::uint32_t dir_cluster = 4;
  /// Directory banks (--dir-banks). Lines spread across banks by a
  /// hash of the line number (home_bank_of_line — a plain modulo would
  /// resonate with strided layouts); bank b is network endpoint
  /// num_procs + b, so on a
  /// ring/mesh each bank is a distinct home NODE and home distance is
  /// real. 1 bank = the historical centralized directory.
  std::uint32_t dir_banks = 1;

  bool operator==(const MemConfig&) const = default;
};

struct SystemConfig {
  std::uint32_t num_procs = 1;
  ConsistencyModel model = ConsistencyModel::kSC;
  CoreConfig core;
  CacheConfig cache;
  MemConfig mem;

  /// Optional per-processor overrides of `core` (empty = homogeneous;
  /// otherwise exactly one entry per processor). Lets experiments
  /// deploy the paper's techniques on a subset of the machine.
  std::vector<CoreConfig> per_core;

  /// The core configuration processor `p` actually runs with.
  const CoreConfig& core_for(std::uint32_t p) const {
    return per_core.empty() ? core : per_core.at(p);
  }
  std::uint64_t max_cycles = 10'000'000;  ///< watchdog against deadlock bugs

  /// Active-set fast-forward: Machine::run() ticks only the components
  /// armed in its scheduler heap for the current cycle and jumps over
  /// cycles where none is; a sleeping core's skipped cycles are charged
  /// later with the one stall cause the naive loop would have charged
  /// each of them. Cycle-identical to stepping one cycle at
  /// a time (pinned by tests/integration/fastforward_equivalence_test
  /// and the MCSIM_AUDIT lockstep audit); disable to force
  /// the naive loop (--no-fastforward).
  bool fastforward = true;

  /// Record every performed (and committed) memory access per
  /// processor, for the sva race/SC-violation analysis and for tests.
  bool record_accesses = false;

  /// Technique-efficacy profiler (--profile): per-prefetch outcome
  /// attribution, rollback-cause breakdown, and the directory's
  /// per-line sharing ledger (src/common/profile.hpp). Off by default;
  /// when off every hook is a single branch. Results are
  /// cycle-identical either way and identical under fast-forward.
  bool profile = false;
  /// Rows in the contended-lines table (--profile-top-lines=N) emitted
  /// by Machine::post_mortem and the bench JSON.
  std::uint32_t profile_top_lines = 8;

  /// Clean-miss latency implied by the timing parameters: probe cycle
  /// + request flight + directory service + reply flight, with the
  /// access completing on reply arrival.
  std::uint32_t clean_miss_latency() const {
    return 2 * mem.net_latency + mem.dir_latency;
  }

  /// Set net/dir latencies so a clean miss costs exactly `cycles`
  /// (must be even and >= 4; the paper uses 100).
  SystemConfig& with_clean_miss_latency(std::uint32_t cycles);

  /// The machine of the paper's examples: hit 1 cycle, miss 100,
  /// invalidation-based coherence, ideal front end.
  static SystemConfig paper_default(std::uint32_t nprocs, ConsistencyModel m);

  /// A realistic default: 4-wide core, non-ideal front end.
  static SystemConfig realistic(std::uint32_t nprocs, ConsistencyModel m);

  /// Validate invariants (power-of-two geometry, nonzero widths...);
  /// returns an error description or empty string when valid.
  std::string validate() const;
};

/// The lockstep-audit switch (docs/INTERNALS.md §2), read once from the
/// MCSIM_AUDIT environment variable: "1" is on; unset, empty or "0" is
/// off; any other value throws std::invalid_argument on every call.
bool audit_enabled();

}  // namespace mcsim
