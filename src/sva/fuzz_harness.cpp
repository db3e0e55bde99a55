#include "sva/fuzz_harness.hpp"

#include <filesystem>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"
#include "sim/experiment.hpp"
#include "sva/model_checker.hpp"

namespace mcsim {
namespace sva {

const char* to_string(FuzzFailureKind k) {
  switch (k) {
    case FuzzFailureKind::kCellFailed: return "cell-failed";
    case FuzzFailureKind::kCheckerViolation: return "checker-violation";
    case FuzzFailureKind::kScOutcomeEscape: return "sc-outcome-escape";
  }
  return "?";
}

namespace {

constexpr std::uint64_t kMemBytes = 1u << 20;

Workload litmus_workload(const LitmusProgram& lp) {
  Workload w;
  w.name = "litmus-" + std::to_string(lp.seed);
  w.programs = lp.programs;
  w.preload_shared = lp.preload_shared;
  return w;
}

SystemConfig config_for(const LitmusProgram& lp, const FuzzCell& cell) {
  SystemConfig cfg = SystemConfig::paper_default(
      static_cast<std::uint32_t>(lp.programs.size()), cell.model);
  cfg.core.prefetch = cell.tech.prefetch;
  cfg.core.speculative_loads = cell.tech.speculative_loads;
  cfg.mem = cell.mem;
  // Litmus programs finish in a few thousand cycles; a tight watchdog
  // turns a deadlock bug into a fast cell failure instead of a hang.
  cfg.max_cycles = 1'000'000;
  return cfg;
}

std::string outcome_key(const CellResult& res) {
  std::ostringstream os;
  for (const auto& regs : res.final_regs) {
    for (Word w : regs) os << w << ',';
    os << ';';
  }
  os << '|';
  for (Word w : res.watch_values) os << w << ',';
  return os.str();
}

CellCheck check_cell_result(const LitmusProgram& lp, const FuzzCell& cell,
                            const CellResult& res, const EnumerationResult* sc) {
  CellCheck out;
  out.outcome = outcome_key(res);
  if (!res.ok()) {
    out.failed = true;
    out.kind = FuzzFailureKind::kCellFailed;
    out.detail = std::string(to_string(res.status)) +
                 (res.error.empty() ? "" : ": " + res.error);
    return out;
  }
  CheckResult cr = check_execution(cell.model, lp.programs, res.access_logs);
  out.arcs_checked = cr.arcs_checked;
  out.reads_checked = cr.reads_checked;
  if (!cr.ok()) {
    out.failed = true;
    out.kind = FuzzFailureKind::kCheckerViolation;
    out.detail = cr.describe();
    return out;
  }
  if (cell.model == ConsistencyModel::kSC && sc != nullptr && sc->complete) {
    ScOutcome o{res.final_regs, res.watch_values};
    if (sc->outcomes.count(o) == 0) {
      out.failed = true;
      out.kind = FuzzFailureKind::kScOutcomeEscape;
      out.detail = "final state is not among the " +
                   std::to_string(sc->outcomes.size()) + " enumerated SC outcomes";
    }
  }
  return out;
}

/// Does (lp, cell) still exhibit a failure? Used by the shrinker; an SC
/// enumeration that goes incomplete on a candidate rejects the deletion
/// (conservative: never "reproduces" through an inconclusive oracle).
bool still_fails(const LitmusProgram& lp, const FuzzCell& cell,
                 std::uint64_t sc_max_states) {
  EnumerationResult sc;
  const EnumerationResult* scp = nullptr;
  if (cell.model == ConsistencyModel::kSC) {
    try {
      sc = enumerate_sc_outcomes(lp.programs, kMemBytes, lp.addrs, sc_max_states);
    } catch (const std::exception&) {
      return false;
    }
    if (!sc.complete) return false;
    scp = &sc;
  }
  return verify_litmus_cell(lp, cell, scp).failed;
}

LitmusProgram remove_thread(const LitmusProgram& lp, std::size_t t) {
  LitmusProgram out = lp;
  std::vector<DataInit> moved = out.programs[t].data();
  out.programs.erase(out.programs.begin() + static_cast<std::ptrdiff_t>(t));
  if (!out.programs.empty()) {
    // Keep the removed thread's initial-memory image alive.
    for (const DataInit& d : moved) out.programs[0].add_data(d.addr, d.value);
  }
  out.preload_shared.clear();
  for (const auto& [p, a] : lp.preload_shared) {
    if (p == t) continue;
    out.preload_shared.push_back({p > t ? static_cast<ProcId>(p - 1) : p, a});
  }
  return out;
}

LitmusProgram remove_inst(const LitmusProgram& lp, std::size_t t, std::size_t k) {
  LitmusProgram out = lp;
  auto& insts = out.programs[t].instructions();
  insts.erase(insts.begin() + static_cast<std::ptrdiff_t>(k));
  return out;
}

}  // namespace

CellCheck verify_litmus_cell(const LitmusProgram& lp, const FuzzCell& cell,
                             const EnumerationResult* sc) {
  ExperimentCell ec;
  ec.workload = litmus_workload(lp);
  ec.config = config_for(lp, cell);
  ec.technique = cell.tech.label();
  ec.config.record_accesses = true;
  ec.watch = lp.addrs;
  ec.seed = lp.seed;
  return check_cell_result(lp, cell, run_cell(ec), sc);
}

std::size_t count_insts(const LitmusProgram& lp) {
  std::size_t n = 0;
  for (const Program& p : lp.programs) {
    for (const Instruction& i : p.instructions()) {
      if (i.op != Opcode::kHalt) ++n;
    }
  }
  return n;
}

Reproducer shrink_failure(const LitmusProgram& lp, const FuzzCell& cell,
                          std::uint64_t sc_max_states) {
  LitmusProgram cur = lp;
  bool changed = true;
  while (changed) {
    changed = false;
    // Whole threads first: the biggest deletions shrink fastest.
    for (std::size_t t = 0; cur.programs.size() > 1 && t < cur.programs.size();) {
      LitmusProgram cand = remove_thread(cur, t);
      if (still_fails(cand, cell, sc_max_states)) {
        cur = std::move(cand);
        changed = true;
      } else {
        ++t;
      }
    }
    // Then single instructions (halt stays; branchy threads are left
    // alone — deleting into a branch target would change semantics).
    for (std::size_t t = 0; t < cur.programs.size(); ++t) {
      bool branchy = false;
      for (const Instruction& i : cur.programs[t].instructions()) {
        branchy = branchy || i.is_branch();
      }
      if (branchy) continue;
      for (std::size_t k = 0; k < cur.programs[t].size();) {
        if (cur.programs[t].at(k).op == Opcode::kHalt) {
          ++k;
          continue;
        }
        LitmusProgram cand = remove_inst(cur, t, k);
        if (still_fails(cand, cell, sc_max_states)) {
          cur = std::move(cand);
          changed = true;
        } else {
          ++k;
        }
      }
    }
  }
  return {cur, cell, {}};
}

std::string FuzzReport::summary() const {
  std::ostringstream os;
  os << "fuzz: " << programs << " programs, " << cells << " cells, " << arcs_checked
     << " arcs, " << reads_checked << " reads, " << sc_outcomes_checked
     << " SC outcome checks, " << inconclusive_sc << " inconclusive, " << divergences
     << " divergences, " << violations.size() << " violations";
  for (const FuzzViolation& v : violations) {
    os << "\n  [" << to_string(v.kind) << "] program " << v.program_index << " seed "
       << v.seed << " cell " << v.cell.label() << " (shrunk to " << v.shrunk_insts
       << " insts";
    if (!v.repro_path.empty()) os << ", " << v.repro_path;
    os << "): " << v.detail;
  }
  for (const std::string& e : errors) os << "\n  error: " << e;
  return os.str();
}

std::vector<FuzzCell> FuzzConfig::cells() const {
  std::vector<FuzzCell> out;
  for (ConsistencyModel m : models) {
    for (const TechniqueKnobs& t : techniques) out.push_back({m, t, mem});
  }
  return out;
}

FuzzReport run_fuzz(const FuzzConfig& cfg) {
  FuzzReport rep;
  ExperimentRunner runner(cfg.workers);
  if (!cfg.repro_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(cfg.repro_dir, ec);
    if (ec)
      rep.errors.push_back("cannot create reproducer directory " + cfg.repro_dir + ": " +
                           ec.message());
  }

  const std::vector<FuzzCell> cells = cfg.cells();

  for (std::uint64_t i = 0; i < cfg.programs; ++i) {
    if (rep.violations.size() >= cfg.max_failures) break;
    const std::uint64_t child = derive_child_seed(cfg.seed, i);
    const LitmusProgram lp = generate_litmus(cfg.gen, child);

    EnumerationResult sc;
    bool have_sc = false;
    try {
      sc = enumerate_sc_outcomes(lp.programs, kMemBytes, lp.addrs, cfg.sc_max_states);
      have_sc = true;
    } catch (const std::exception&) {
      // Backward branches etc.: no SC oracle for this program.
    }
    if (!have_sc || !sc.complete) ++rep.inconclusive_sc;

    ExperimentGrid grid("fuzz");
    for (const FuzzCell& c : cells) {
      std::size_t idx = grid.add(litmus_workload(lp), config_for(lp, c), c.tech.label());
      ExperimentCell& ec = grid.cell(idx);
      ec.config.record_accesses = true;
      ec.watch = lp.addrs;
      ec.seed = child;
    }
    const std::vector<CellResult> results = runner.run(grid);
    ++rep.programs;
    rep.cells += results.size();

    // Pass 1: validate every cell; remember the techniques-OFF outcome
    // per model. Pass 2 counts informational ON-vs-OFF divergences.
    std::vector<CellCheck> checks(cells.size());
    std::map<int, std::string> base_outcome;
    for (std::size_t ci = 0; ci < cells.size(); ++ci) {
      checks[ci] = check_cell_result(lp, cells[ci], results[ci], have_sc ? &sc : nullptr);
      rep.arcs_checked += checks[ci].arcs_checked;
      rep.reads_checked += checks[ci].reads_checked;
      if (cells[ci].model == ConsistencyModel::kSC && have_sc && sc.complete &&
          results[ci].ok()) {
        ++rep.sc_outcomes_checked;
      }
      const TechniqueKnobs& t = cells[ci].tech;
      if (t.prefetch == PrefetchMode::kOff && !t.speculative_loads && results[ci].ok())
        base_outcome[static_cast<int>(cells[ci].model)] = checks[ci].outcome;
    }
    std::size_t failing_cells = 0;
    const FuzzCell* first_cell = nullptr;
    const CellCheck* first_check = nullptr;
    for (std::size_t ci = 0; ci < cells.size(); ++ci) {
      const TechniqueKnobs& t = cells[ci].tech;
      const bool is_base = t.prefetch == PrefetchMode::kOff && !t.speculative_loads;
      if (!is_base && results[ci].ok()) {
        auto it = base_outcome.find(static_cast<int>(cells[ci].model));
        if (it != base_outcome.end() && it->second != checks[ci].outcome)
          ++rep.divergences;
      }
      if (checks[ci].failed) {
        ++failing_cells;
        if (first_cell == nullptr) {
          first_cell = &cells[ci];
          first_check = &checks[ci];
        }
      }
    }

    if (first_cell != nullptr) {
      FuzzViolation v;
      v.program_index = i;
      v.seed = child;
      v.cell = *first_cell;
      v.kind = first_check->kind;
      v.detail = first_check->detail;
      if (failing_cells > 1)
        v.detail += " (+" + std::to_string(failing_cells - 1) + " more failing cells)";
      v.repro = cfg.shrink ? shrink_failure(lp, *first_cell, cfg.sc_max_states)
                           : Reproducer{lp, *first_cell, {}};
      v.repro.note = std::string(to_string(v.kind)) + ": " + first_check->detail;
      v.shrunk_insts = count_insts(v.repro.litmus);
      if (!cfg.repro_dir.empty()) {
        v.repro_path = cfg.repro_dir + "/repro-" + std::to_string(child) + "-" +
                       to_string(v.cell.model) + "-" + v.cell.tech.label() + ".litmus";
        if (!write_reproducer(v.repro_path, v.repro)) {
          rep.errors.push_back("cannot write reproducer " + v.repro_path);
          v.repro_path.clear();
        }
      }
      rep.violations.push_back(std::move(v));
    }
  }
  return rep;
}

}  // namespace sva
}  // namespace mcsim
