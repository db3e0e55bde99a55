// workload_sweep: run the generated large-workload suite across the
// model grid — the §5 "extensive simulation experiments" driver, fed by
// the trace frontend instead of hand-written litmus programs.
//
//   workload_sweep [--smoke | --million | --scale] [--seed=N] [--workers=N]
//                  [--procs=N] [--profile] [--budget-ms=N]
//                  [--protocol= --topology= --link-bw= --link-queue=
//                   --dir-scheme= --dir-ptrs= --dir-cluster= --dir-banks=]
//                  [--trace=FILE]... [--trace-dir=DIR] [--out=PATH]
//
// Default: every generator kind x every model x {baseline, +both} at
// ~2*10^4 ops per trace. --smoke shrinks that to CI scale (~2*10^3 ops,
// +both only); --million is the acceptance campaign: a 10^6-op
// producer/consumer trace on 8 processors across all four models with
// fast-forward on. --scale is the beyond-the-64-processor-wall
// campaign: producer/consumer and zipfian traces at P=64/128/256 under
// all four models (+both), op counts scaled with P. --procs overrides
// the suite/smoke processor count; the memory-system flags (the
// ones run_asm takes, parsed by apply_mem_flag) apply to every cell.
// --trace / --trace-dir run external trace files instead of the
// generated suite (a malformed file fails its cell, not the sweep). JSON report: BENCH_workload_sweep.json
// (mcsim-bench-v7, per-cell "trace" provenance; --profile adds the
// per-cell technique-efficacy and per-bank directory breakdowns).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "trace/trace_core.hpp"
#include "trace/workload_gen.hpp"

using namespace mcsim;
using namespace mcsim::bench;

namespace {

const ConsistencyModel kModels[] = {ConsistencyModel::kSC, ConsistencyModel::kPC,
                                    ConsistencyModel::kWC, ConsistencyModel::kRC};

unsigned long long ull(std::uint64_t v) { return static_cast<unsigned long long>(v); }

// Memory system and profiling shared by every cell (set from the
// command line in main).
MemConfig g_mem;
bool g_profile = false;

SystemConfig cell_config(ConsistencyModel m, bool both, std::uint64_t total_ops) {
  SystemConfig cfg = tech_config(m, both, both);
  cfg.mem = g_mem;
  cfg.profile = g_profile;
  // Large traces outgrow the 10M-cycle deadlock watchdog: give every
  // cell generous headroom scaled to its op count (fast-forward makes
  // the quiescent spans free, so this only guards real deadlock).
  const std::uint64_t bound = 1000 * total_ops + (10u << 20);
  if (bound > cfg.max_cycles) cfg.max_cycles = bound;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false, million = false, scale = false;
  std::uint64_t seed = 1;
  std::uint64_t budget_ms = 0;  // 0 = no wall-clock budget
  unsigned workers = 0;
  std::uint32_t procs = 0;  // 0 = mode default
  std::string out_path = "BENCH_workload_sweep.json";
  std::vector<std::string> trace_in;
  std::string trace_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v, err;
    if (arg == "--smoke") smoke = true;
    else if (arg == "--million") million = true;
    else if (arg == "--scale") scale = true;
    else if (arg == "--profile") g_profile = true;
    else if (str_flag(arg, "--trace=", v)) trace_in.push_back(v);
    else if (!(num_flag(arg, "--seed=", seed, err) || num_flag(arg, "--workers=", workers, err) ||
               num_flag(arg, "--procs=", procs, err) ||
               num_flag(arg, "--budget-ms=", budget_ms, err) ||
               str_flag(arg, "--out=", out_path) || str_flag(arg, "--trace-dir=", trace_dir) ||
               apply_mem_flag(arg, g_mem, err)))
      err = "unknown flag: " + arg;
    if (!err.empty()) {
      std::fprintf(stderr,
                   "workload_sweep: %s\n"
                   "usage: workload_sweep [--smoke|--million|--scale] [--seed=N] "
                   "[--workers=N] [--procs=N] [--profile] [--budget-ms=N]\n"
                   "       [--trace=FILE]... [--trace-dir=DIR] [--out=PATH]\n       %s\n",
                   err.c_str(), kMemFlagsUsage);
      return 1;
    }
  }

  ExperimentGrid grid("workload_sweep");

  if (!trace_dir.empty()) {
    try {
      for (std::string& path : list_trace_files(trace_dir))
        trace_in.push_back(std::move(path));
    } catch (const TraceError& e) {
      std::fprintf(stderr, "workload_sweep: %s\n", e.what());
      return 1;
    }
  }

  if (!trace_in.empty()) {
    // External traces: lazy-loaded per cell so a malformed file is a
    // per-cell error, and the sweep still reports every other cell.
    for (const std::string& path : trace_in) {
      for (ConsistencyModel m : kModels) {
        Workload w;
        w.name = "trace-file";
        w.trace_path = path;
        grid.add(std::move(w), cell_config(m, true, 0), "+both",
                 {{"table", "external"}, {"trace_file", path}});
      }
    }
  } else if (million) {
    WorkloadGenSpec spec;
    spec.kind = WorkloadKind::kProducerConsumer;
    spec.nprocs = 8;
    spec.ops = 1000000;
    spec.seed = seed;
    const TraceFile t = generate_trace(spec);
    std::printf("million campaign: %s, %u procs, %llu ops\n", t.kind.c_str(),
                t.num_procs(), ull(t.total_ops()));
    for (ConsistencyModel m : kModels) {
      Workload w = trace_to_workload(t);
      grid.add(std::move(w), cell_config(m, true, t.total_ops()), "+both",
               {{"table", "million"}});
    }
  } else if (scale) {
    // The P=64/128/256 scaling campaign: op counts grow with P so every
    // processor has real work, and all four models must complete with
    // fast-forward on (the default).
    for (std::uint32_t P : {64u, 128u, 256u}) {
      for (WorkloadKind kind :
           {WorkloadKind::kProducerConsumer, WorkloadKind::kZipfian}) {
        WorkloadGenSpec spec;
        spec.kind = kind;
        spec.nprocs = procs != 0 ? procs : P;
        spec.ops = 32ull * spec.nprocs;
        spec.seed = seed;
        const TraceFile t = generate_trace(spec);
        Workload w = trace_to_workload(t);
        w.name += "/P" + std::to_string(spec.nprocs);
        for (ConsistencyModel m : kModels) {
          grid.add(w, cell_config(m, true, t.total_ops()), "+both",
                   {{"table", "scale"}, {"procs", std::to_string(spec.nprocs)}});
        }
      }
      if (procs != 0) break;  // explicit --procs: one size, not the ladder
    }
  } else {
    const std::uint64_t ops = smoke ? 2000 : 20000;
    const std::uint32_t nprocs = procs != 0 ? procs : (smoke ? 4u : 8u);
    for (WorkloadKind kind : all_workload_kinds()) {
      WorkloadGenSpec spec;
      spec.kind = kind;
      spec.nprocs = nprocs;
      spec.ops = std::max<std::uint64_t>(ops, 4ull * nprocs);
      spec.seed = seed;
      TraceFile t;
      try {
        t = generate_trace(spec);
      } catch (const TraceError& e) {
        std::fprintf(stderr, "workload_sweep: %s\n", e.what());
        return 1;
      }
      const Workload w = trace_to_workload(t);
      for (ConsistencyModel m : kModels) {
        if (!smoke)
          grid.add(w, cell_config(m, false, t.total_ops()), "baseline",
                   {{"table", "suite"}});
        grid.add(w, cell_config(m, true, t.total_ops()), "+both",
                 {{"table", "suite"}});
      }
    }
  }

  ExperimentRunner runner(workers);
  std::vector<CellResult> results = runner.run(grid);

  std::printf("%-28s %-6s %-9s %-10s %14s %12s\n", "workload", "model", "tech",
              "status", "cycles", "wall_ms");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ExperimentCell& cell = grid.cells()[i];
    const CellResult& r = results[i];
    std::printf("%-28s %-6s %-9s %-10s %14llu %12.1f\n", cell.workload.name.c_str(),
                to_string(cell.config.model), cell.technique.c_str(),
                to_string(r.status), ull(r.stats.cycles), r.wall_ms);
  }

  if (!write_json(out_path, grid, results, runner.last_sweep())) {
    std::fprintf(stderr, "workload_sweep: cannot write '%s'\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s (%zu cells)\n", out_path.c_str(), results.size());

  // CI regression tripwire (--budget-ms): the whole sweep's simulation
  // wall clock must fit the budget, so an O(P) slip in the active-set
  // scheduler (ISSUE 10) fails the job instead of silently returning.
  if (budget_ms != 0) {
    double total_ms = 0.0;
    for (const CellResult& r : results) total_ms += r.wall_ms;
    if (total_ms > static_cast<double>(budget_ms)) {
      std::fprintf(stderr,
                   "workload_sweep: wall-clock budget exceeded: %.1f ms simulated "
                   "> %llu ms budget\n",
                   total_ms, ull(budget_ms));
      return 1;
    }
    std::printf("wall-clock budget: %.1f ms of %llu ms\n", total_ms, ull(budget_ms));
  }
  return report_failures(results) == 0 ? 0 : 1;
}
