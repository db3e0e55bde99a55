// Property suite for the workload generator: byte-identical
// reproducibility from (kind, params, seed), lossless text<->binary
// round-trips, FIFO handoff order under SC replay, zipfian skew within
// statistical tolerance, and end-to-end validation of every kind
// through the real machine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "sim/experiment.hpp"
#include "trace/trace_core.hpp"
#include "trace/workload_gen.hpp"

namespace mcsim {
namespace {

WorkloadGenSpec small_spec(WorkloadKind kind, std::uint64_t seed = 1) {
  WorkloadGenSpec spec;
  spec.kind = kind;
  spec.nprocs = 4;
  spec.ops = 600;
  spec.seed = seed;
  return spec;
}

TEST(WorkloadGen, SameSpecIsByteIdentical) {
  for (WorkloadKind kind : all_workload_kinds()) {
    const WorkloadGenSpec spec = small_spec(kind, 42);
    const TraceFile a = generate_trace(spec);
    const TraceFile b = generate_trace(spec);
    EXPECT_EQ(a, b) << to_string(kind);
    EXPECT_EQ(write_trace_text(a), write_trace_text(b)) << to_string(kind);
    EXPECT_EQ(write_trace_binary(a), write_trace_binary(b)) << to_string(kind);
    // ... and the seed actually matters.
    const TraceFile c = generate_trace(small_spec(kind, 43));
    EXPECT_NE(write_trace_binary(a), write_trace_binary(c))
        << to_string(kind) << ": seed ignored";
  }
}

TEST(WorkloadGen, TextBinaryRoundTripIsLossless) {
  for (WorkloadKind kind : all_workload_kinds()) {
    const TraceFile t = generate_trace(small_spec(kind, 9));
    EXPECT_EQ(parse_trace(write_trace_text(t)), t) << to_string(kind) << " text";
    EXPECT_EQ(parse_trace(write_trace_binary(t)), t) << to_string(kind) << " binary";
    // Cross-encoding: text -> TraceFile -> binary -> TraceFile.
    EXPECT_EQ(parse_trace(write_trace_binary(parse_trace(write_trace_text(t)))), t)
        << to_string(kind) << " text->binary chain";
  }
}

TEST(WorkloadGen, EveryTraceCarriesProvenanceAndExpectedFinals) {
  for (WorkloadKind kind : all_workload_kinds()) {
    const TraceFile t = generate_trace(small_spec(kind, 5));
    EXPECT_EQ(t.kind, to_string(kind));
    EXPECT_EQ(t.params.at("seed"), "5");
    EXPECT_FALSE(t.expect.empty()) << to_string(kind) << ": nothing to validate";
    EXPECT_GT(t.total_ops(), 0u);
    EXPECT_GT(t.mem_bytes, 0u);
  }
}

TEST(WorkloadGen, RejectsInvalidSpecs) {
  WorkloadGenSpec odd = small_spec(WorkloadKind::kProducerConsumer);
  odd.nprocs = 3;
  EXPECT_THROW(generate_trace(odd), TraceError);
  WorkloadGenSpec lonely = small_spec(WorkloadKind::kBarrierTree);
  lonely.nprocs = 1;
  EXPECT_THROW(generate_trace(lonely), TraceError);
  WorkloadGenSpec skewed = small_spec(WorkloadKind::kZipfian);
  skewed.zipf_s = 100.0;
  EXPECT_THROW(generate_trace(skewed), TraceError);
  WorkloadGenSpec none = small_spec(WorkloadKind::kLockConvoy);
  none.nprocs = 0;
  EXPECT_THROW(generate_trace(none), TraceError);
}

TEST(WorkloadGen, ProducerConsumerHandoffIsFifoUnderScReplay) {
  WorkloadGenSpec spec;
  spec.kind = WorkloadKind::kProducerConsumer;
  spec.nprocs = 2;
  spec.ops = 240;  // -> 40 items through the 8-slot ring
  spec.seed = 11;
  const TraceFile t = generate_trace(spec);
  const std::uint64_t items = std::stoull(t.params.at("items_per_pair"));
  ASSERT_GE(items, 16u);

  ExperimentCell cell;
  cell.workload = trace_to_workload(t);
  cell.config = SystemConfig::paper_default(2, ConsistencyModel::kSC);
  cell.config.record_accesses = true;
  CellResult r = run_cell(cell);
  ASSERT_EQ(r.status, CellStatus::kOk) << r.error;
  ASSERT_EQ(r.access_logs.size(), 2u);

  // The consumer's data loads (buffer slots live in the first 8 lines
  // of the pair region at 0x40000; flag spins live 0x8000 above) must
  // observe the produced values in exact production order — that IS the
  // FIFO handoff property the per-slot full/empty protocol guarantees.
  const Addr buf_base = 0x40000, buf_end = buf_base + 8 * 0x40;
  std::vector<Word> consumed;
  for (const AccessRecord& a : r.access_logs[1]) {
    if (a.kind == AccessKind::kLoad && a.addr >= buf_base && a.addr < buf_end)
      consumed.push_back(a.value);
  }
  ASSERT_EQ(consumed.size(), items);
  for (std::uint64_t i = 0; i < items; ++i) {
    const Word expected = static_cast<Word>(
        1 * 1000003u + static_cast<Word>(i) * 2654435761u);
    EXPECT_EQ(consumed[i], expected) << "item " << i << " out of FIFO order";
  }
}

TEST(WorkloadGen, ZipfianSkewMatchesTheDistribution) {
  WorkloadGenSpec spec;
  spec.kind = WorkloadKind::kZipfian;
  spec.nprocs = 2;
  spec.ops = 20000;
  spec.seed = 21;
  spec.zipf_s = 1.2;
  const TraceFile t = generate_trace(spec);

  const std::uint32_t pool = 64;
  std::vector<std::uint64_t> count(pool, 0);
  std::uint64_t total = 0;
  for (const auto& stream : t.ops) {
    for (const TraceOp& op : stream) {
      if (!op.has_addr()) continue;
      const std::uint32_t rank = static_cast<std::uint32_t>((op.addr - 0x40000) / 0x40);
      ASSERT_LT(rank, pool);
      ++count[rank];
      ++total;
    }
  }
  double harmonic = 0.0;
  for (std::uint32_t r = 1; r <= pool; ++r) harmonic += std::pow(r, -1.2);
  // Rank-0 share within 15% of the theoretical zipf(1.2) mass (the
  // ~19k samples put the 3-sigma band well inside that), and the skew
  // is visibly monotone across decades of rank.
  const double p0 = 1.0 / harmonic;
  const double observed = static_cast<double>(count[0]) / static_cast<double>(total);
  EXPECT_NEAR(observed, p0, 0.15 * p0);
  EXPECT_GT(count[0], 2 * count[8]);
  EXPECT_GT(count[8], count[32]);

  // s = 0 degenerates to uniform: no bin may stray far from the mean.
  spec.zipf_s = 0.0;
  const TraceFile u = generate_trace(spec);
  std::vector<std::uint64_t> ucount(pool, 0);
  for (const auto& stream : u.ops)
    for (const TraceOp& op : stream)
      if (op.has_addr()) ++ucount[(op.addr - 0x40000) / 0x40];
  const auto [lo, hi] = std::minmax_element(ucount.begin(), ucount.end());
  EXPECT_GT(*lo, 0u);
  EXPECT_LT(static_cast<double>(*hi) / static_cast<double>(*lo), 1.6)
      << "uniform (s=0) pool access counts too lopsided";
}

TEST(WorkloadGen, EveryKindScalesToTheCampaignProcessorCounts) {
  // The P=64/128/256 scaling campaign feeds on these generators: every
  // kind must produce a structurally valid trace (validate() runs in
  // finish()) with one non-empty stream per processor and expected
  // finals to check, at every campaign size.
  for (WorkloadKind kind : all_workload_kinds()) {
    for (std::uint32_t procs : {64u, 128u, 256u}) {
      WorkloadGenSpec spec;
      spec.kind = kind;
      spec.nprocs = procs;
      spec.ops = 4 * procs;  // a few ops per processor keeps this fast
      spec.seed = 7;
      const TraceFile t = generate_trace(spec);
      ASSERT_EQ(t.ops.size(), procs) << to_string(kind) << " P=" << procs;
      for (std::uint32_t p = 0; p < procs; ++p)
        EXPECT_FALSE(t.ops[p].empty())
            << to_string(kind) << " P=" << procs << ": processor " << p << " idle";
      EXPECT_FALSE(t.expect.empty()) << to_string(kind) << " P=" << procs;
      EXPECT_EQ(t.params.at("procs"), std::to_string(procs));
    }
  }
  // The barrier tree's address layout runs out at 480 processors: the
  // slice region would overlap the arrive flags, so the generator must
  // refuse rather than emit a silently-corrupt trace.
  WorkloadGenSpec big;
  big.kind = WorkloadKind::kBarrierTree;
  big.nprocs = 512;
  EXPECT_THROW(generate_trace(big), TraceError);
  big.nprocs = 480;
  EXPECT_NO_THROW(generate_trace(big));
}

TEST(WorkloadGen, EveryKindValidatesEndToEndOnTheRealMachine) {
  // The generators' replayed expected finals must hold on an actual
  // simulation, under both the strictest and the most relaxed model
  // with the paper's two techniques on.
  for (WorkloadKind kind : all_workload_kinds()) {
    const TraceFile t = generate_trace(small_spec(kind, 3));
    const Workload w = trace_to_workload(t);
    for (ConsistencyModel m : {ConsistencyModel::kSC, ConsistencyModel::kRC}) {
      ExperimentCell cell;
      cell.workload = w;
      cell.config = SystemConfig::realistic(1, m);
      cell.config.core.speculative_loads = true;
      cell.config.core.prefetch = PrefetchMode::kNonBinding;
      CellResult r = run_cell(cell);
      EXPECT_EQ(r.status, CellStatus::kOk)
          << to_string(kind) << " under " << to_string(m) << ": " << r.error;
    }
  }
}

}  // namespace
}  // namespace mcsim
