// Named litmus corpus: the classic shapes, each run through the whole
// model × technique grid. Every cell must satisfy its model's checker
// (and the SC oracle under SC), and each litmus carries a per-model
// expected-outcome invariant probed on the machine's actual registers —
// e.g. message passing through a release/acquire flag must work under
// every model, while only SC and WC forbid the store-buffering (0,0).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <string>
#include <vector>

#include "sim/machine.hpp"
#include "sva/fuzz_harness.hpp"
#include "sva/model_checker.hpp"
#include "sva/reproducer.hpp"
#include "sva/sc_enumerator.hpp"

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

Reproducer corpus(const std::string& name) {
  return load_reproducer(std::string(MCSIM_CORPUS_DIR) + "/" + name);
}

/// Final r1..r3 per processor from one detailed-machine run of the cell.
std::vector<std::array<Word, 4>> machine_regs(const LitmusProgram& lp, CM model,
                                              const TechniqueKnobs& tech) {
  SystemConfig cfg = SystemConfig::paper_default(
      static_cast<std::uint32_t>(lp.programs.size()), model);
  cfg.core.prefetch = tech.prefetch;
  cfg.core.speculative_loads = tech.speculative_loads;
  cfg.max_cycles = 1'000'000;
  Machine m(cfg, lp.programs);
  for (const auto& [p, a] : lp.preload_shared) m.preload_shared(p, a);
  RunResult r = m.run();
  EXPECT_FALSE(r.deadlocked);
  std::vector<std::array<Word, 4>> regs(lp.programs.size());
  for (ProcId p = 0; p < lp.programs.size(); ++p)
    for (RegId i = 0; i < 4; ++i) regs[p][i] = m.core(p).reg(i);
  return regs;
}

/// Every grid cell of `lp` must pass its model checker (and the SC
/// oracle when the enumeration completes); `invariant` is additionally
/// evaluated on the machine's final registers for each cell.
template <typename Fn>
void check_corpus(const std::string& name, Fn&& invariant) {
  Reproducer r = corpus(name);
  EnumerationResult sc =
      enumerate_sc_outcomes(r.litmus.programs, 1u << 20, r.litmus.addrs, 2'000'000);
  ASSERT_TRUE(sc.complete) << name << ": corpus litmus must stay enumerable";
  for (CM model : kModels) {
    for (const TechniqueKnobs& tech : kTechs) {
      FuzzCell cell{model, tech};
      CellCheck c = verify_litmus_cell(r.litmus, cell, &sc);
      EXPECT_FALSE(c.failed) << name << " " << cell.label() << ": " << c.detail;
      invariant(model, tech, machine_regs(r.litmus, model, tech));
    }
  }
}

TEST(Corpus, DekkerScForbidsMutualZero) {
  Reproducer r = corpus("dekker.litmus");
  auto sc = enumerate_sc_outcomes(r.litmus.programs, 1u << 20, r.litmus.addrs);
  ASSERT_TRUE(sc.complete);
  for (const ScOutcome& o : sc.outcomes)
    EXPECT_FALSE(o.regs[0][2] == 0 && o.regs[1][2] == 0)
        << "SC admits the forbidden Dekker outcome";
  check_corpus("dekker.litmus", [](CM model, const TechniqueKnobs&,
                                   const std::vector<std::array<Word, 4>>& regs) {
    if (model == CM::kSC) {
      EXPECT_FALSE(regs[0][2] == 0 && regs[1][2] == 0)
          << "SC machine exhibited the forbidden Dekker outcome";
    }
  });
}

TEST(Corpus, StoreBufferingReleasesOrderedUnderScAndWc) {
  // st.rel ; ld — WC orders the pair through the sync store, PC/RCpc
  // do not. The machine must respect that split for every technique.
  check_corpus("store_buffering.litmus",
               [](CM model, const TechniqueKnobs& tech,
                  const std::vector<std::array<Word, 4>>& regs) {
                 if (model == CM::kSC || model == CM::kWC) {
                   EXPECT_FALSE(regs[0][2] == 0 && regs[1][2] == 0)
                       << to_string(model) << "/" << tech.label()
                       << " exhibited (0,0) despite release ordering";
                 }
               });
}

TEST(Corpus, MessagePassingFlagImpliesData) {
  check_corpus("message_passing.litmus",
               [](CM model, const TechniqueKnobs& tech,
                  const std::vector<std::array<Word, 4>>& regs) {
                 if (regs[1][1] == 1) {
                   EXPECT_EQ(regs[1][2], 42u)
                       << to_string(model) << "/" << tech.label()
                       << ": reader saw the flag but stale data";
                 }
               });
}

TEST(Corpus, IriwLiteRereadIsMonotonic) {
  check_corpus("iriw_lite.litmus",
               [](CM model, const TechniqueKnobs& tech,
                  const std::vector<std::array<Word, 4>>& regs) {
                 if (regs[2][1] == 1) {
                   EXPECT_EQ(regs[2][3], 1u)
                       << to_string(model) << "/" << tech.label()
                       << ": same-word re-read travelled back in time";
                 }
               });
}

TEST(Corpus, LockHandoffTasAtomicity) {
  check_corpus("lock_handoff.litmus",
               [](CM model, const TechniqueKnobs& tech,
                  const std::vector<std::array<Word, 4>>& regs) {
                 EXPECT_TRUE(regs[0][1] == 0 || regs[1][1] == 0)
                     << to_string(model) << "/" << tech.label()
                     << ": both tas found the lock taken (lost the free lock)";
               });
}

// Shrunk reproducers the bounded fuzz slices wrote while
// LoadStoreUnit::retire_spec_entries restamped every retired load to
// its retirement cycle. Each has an RMW and a later load whose
// speculative-load buffer entry was nonspec: detection skipped it, an
// invalidation made its value stale before it retired, and the
// restamp made the checker judge that value at the later cycle
// (`[read-value]`). Each replays on the cell its file records, memory
// system included (the mesh2d one passes on a crossbar even with the
// bug).
TEST(Corpus, FuzzReproducersOfNonspecRestampPass) {
  std::vector<std::filesystem::path> files;
  for (const auto& e :
       std::filesystem::directory_iterator(std::string(MCSIM_CORPUS_DIR) + "/fuzz"))
    files.push_back(e.path());
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());
  for (const std::filesystem::path& f : files) {
    Reproducer r = load_reproducer(f.string());
    CellCheck c = verify_litmus_cell(r.litmus, r.cell, nullptr);
    EXPECT_FALSE(c.failed) << f.filename() << " " << r.cell.label() << ": " << c.detail;
  }
}

}  // namespace
}  // namespace mcsim
