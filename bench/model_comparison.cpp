// The simulation study the paper calls for in §5: four synthetic
// workloads, four consistency models, four technique combinations.
// Reports total cycles and the normalized slowdown of each model
// relative to RC — the paper predicts the techniques (a) speed up
// every model and (b) equalize the models (SC/RC ratio -> ~1.0).
//
// All cells are submitted to one ExperimentRunner sweep: they execute
// in parallel across worker threads (MCSIM_JOBS or all cores), results
// are collected in submission order, and the whole study is emitted as
// machine-readable BENCH_models.json for perf-trajectory tracking.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"

using namespace mcsim;
using namespace mcsim::bench;

namespace {

struct TechCombo {
  const char* name;
  bool prefetch;
  bool spec;
};

const TechCombo kCombos[] = {
    {"baseline", false, false},
    {"+prefetch", true, false},
    {"+speculation", false, true},
    {"+both", true, true},
};

const ConsistencyModel kModels[] = {ConsistencyModel::kSC, ConsistencyModel::kPC,
                                    ConsistencyModel::kWC, ConsistencyModel::kRC};

constexpr std::size_t kNumCombos = sizeof(kCombos) / sizeof(kCombos[0]);
constexpr std::size_t kNumModels = sizeof(kModels) / sizeof(kModels[0]);

void print_table(const Workload& w, const std::vector<CellResult>& results,
                 std::size_t first) {
  std::printf("\n=== workload: %s (%zu processors) ===\n", w.name.c_str(),
              w.programs.size());
  std::printf("%-14s", "technique");
  for (ConsistencyModel m : kModels) std::printf("%12s", to_string(m));
  std::printf("%14s\n", "SC/RC ratio");
  for (std::size_t t = 0; t < kNumCombos; ++t) {
    std::printf("%-14s", kCombos[t].name);
    Cycle sc = 0, rc = 0;
    for (std::size_t mi = 0; mi < kNumModels; ++mi) {
      const CellResult& r = results[first + t * kNumModels + mi];
      if (kModels[mi] == ConsistencyModel::kSC) sc = r.stats.cycles;
      if (kModels[mi] == ConsistencyModel::kRC) rc = r.stats.cycles;
      if (r.ok()) {
        std::printf("%12llu", static_cast<unsigned long long>(r.stats.cycles));
      } else {
        std::printf("%12s", to_string(r.status));
      }
    }
    std::printf("%14.3f\n", rc == 0 ? 0.0 : static_cast<double>(sc) / rc);
  }
  // Technique-efficacy counters under SC (the model with most to gain);
  // the baseline and +both SC cells are rows 0 and 3 of this block.
  const RunStats& base = results[first + 0 * kNumModels + 0].stats;
  const RunStats& both = results[first + 3 * kNumModels + 0].stats;
  std::printf("  [SC +both] prefetches=%llu useful=%llu squashes=%llu reissues=%llu\n",
              static_cast<unsigned long long>(both.prefetches),
              static_cast<unsigned long long>(both.prefetch_useful),
              static_cast<unsigned long long>(both.squashes),
              static_cast<unsigned long long>(both.reissues));
  // Note: this is occupancy (address-ready -> performed), so a load
  // issued speculatively far ahead of its gate shows a LONGER window
  // even though the processor stalls less; stores show latency hiding
  // directly (they cannot issue early, only their lines can arrive early).
  std::printf("  [SC] mean access occupancy (addr-ready -> performed), base -> +both:\n");
  std::printf("        loads %.1f -> %.1f cycles, stores %.1f -> %.1f cycles\n",
              base.load_latency_mean, both.load_latency_mean, base.store_latency_mean,
              both.store_latency_mean);
}

}  // namespace

int main(int argc, char** argv) {
  std::uint32_t procs = 4;
  MemConfig mem;  // memory-system flags, applied to every cell
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string err;
    if (!(num_flag(arg, "--procs=", procs, err) || str_flag(arg, "--trace-out=", trace_out) ||
          apply_mem_flag(arg, mem, err)))
      err = "unknown flag: " + arg;
    if (err.empty() && (procs < 2 || procs % 2 != 0))
      err = "--procs must be even and >= 2 (producer/consumer pairs)";
    if (!err.empty()) {
      std::fprintf(stderr,
                   "model_comparison: %s\n"
                   "usage: model_comparison [--procs=N] [--trace-out=PATH]\n       %s\n",
                   err.c_str(), kMemFlagsUsage);
      return 1;
    }
  }

  std::printf("Model comparison study (paper §5: \"extensive simulation experiments\")\n");
  std::printf("cycles to completion; miss latency 100, hit 1; realistic 4-wide cores\n");
  if (!mem_flags(mem).empty()) std::printf("memory system: %s\n", mem_flags(mem).c_str());

  // Per-processor work shrinks as the machine grows so the P=64..256
  // campaign cells stay bounded; at the historical default (P=4) the
  // parameters are the original study's.
  const bool big = procs > 8;
  const std::vector<Workload> workloads = {
      make_producer_consumer(procs, big ? 4 : 8),
      make_critical_sections(procs, big ? 3 : 6, 2),
      make_barrier_phases(procs, big ? 2 : 3, 4),
      make_random_mix(procs, big ? 20 : 40, 12345),
      make_dependent_chain(std::min<std::uint32_t>(procs, 2), 4, 3),
  };

  ExperimentGrid grid("models");
  std::vector<std::size_t> first_cell;
  for (const Workload& w : workloads) {
    first_cell.push_back(grid.size());
    for (const TechCombo& t : kCombos) {
      for (ConsistencyModel m : kModels) {
        SystemConfig cfg = tech_config(m, t.prefetch, t.spec);
        cfg.mem = mem;
        grid.add(w, std::move(cfg), t.name);
      }
    }
  }

  apply_trace_out(grid, trace_out);

  ExperimentRunner runner;
  std::vector<CellResult> results = runner.run(grid);

  for (std::size_t i = 0; i < workloads.size(); ++i) {
    print_table(workloads[i], results, first_cell[i]);
  }

  const SweepInfo& sweep = runner.last_sweep();
  std::printf("\n[sweep] %zu cells, %u workers, %.0f ms wall, %.0f guest cycles/sec\n",
              grid.size(), sweep.workers, sweep.wall_ms,
              sweep.wall_ms > 0.0
                  ? static_cast<double>(sweep.guest_cycles) / (sweep.wall_ms / 1000.0)
                  : 0.0);
  if (!write_json("BENCH_models.json", grid, results, sweep)) {
    std::fprintf(stderr, "WARNING: could not write BENCH_models.json\n");
  } else {
    std::printf("[sweep] wrote BENCH_models.json\n");
  }

  std::printf(
      "\nExpected shape (paper §5): baseline SC/RC ratio well above 1; with\n"
      "both techniques every model speeds up and the ratio approaches 1.0.\n");
  return report_failures(results) == 0 ? 0 : 1;
}
