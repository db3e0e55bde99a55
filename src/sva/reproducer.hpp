// Minimal-reproducer files for the differential fuzzer.
//
// When the fuzz harness finds (and shrinks) a failing litmus program it
// writes a single self-contained text file: assembler-format program
// text per thread (isa/assembler grammar, so the file re-assembles
// byte-for-byte into the failing programs) plus `;;`-prefixed metadata
// lines carrying everything else needed to replay the cell — the
// generator seed, the consistency model, the technique knobs, the
// memory system when it is not the default (one `;; mem` line of the
// flags apply_mem_flag parses), the cache preloads, and the violation
// that was observed. `;` starts an assembler comment, so the file is
// also a valid input for each per-thread section in isolation.
#pragma once

#include <string>

#include "common/config.hpp"
#include "sva/litmus_gen.hpp"

namespace mcsim {
namespace sva {

/// One technique combination to exercise.
struct TechniqueKnobs {
  PrefetchMode prefetch = PrefetchMode::kOff;
  bool speculative_loads = false;
  /// Short label: "base", "pf", "sp", "both".
  std::string label() const;
};

/// One grid cell of the fuzzer: model, techniques and memory system.
/// The memory system is part of the cell so shrinking and reproducers
/// replay a failure under the exact interconnect timing and directory
/// that exposed it. The litmus checkers are oblivious to topology,
/// sharer encoding and banking: the consistency axioms must hold for
/// any memory-system timing, so every cell reuses the same oracles.
struct FuzzCell {
  ConsistencyModel model = ConsistencyModel::kSC;
  TechniqueKnobs tech{};
  MemConfig mem{};
  std::string label() const;  ///< "SC/base", "RC/both@mesh2d", "SC/pf#coarsex2", ...
};

/// Everything needed to replay one failing fuzz cell.
struct Reproducer {
  LitmusProgram litmus;
  FuzzCell cell;     ///< the cell it failed on
  std::string note;  ///< one-line description of the observed violation
};

/// Render one program back into isa/assembler-accepted text (the
/// disassembler's listing is for humans and does not round-trip).
/// Branch targets become `Lk:` labels; `.data` lines carry the
/// program's initial-memory image.
std::string program_to_asm(const Program& prog);

/// Full reproducer file text / its inverse. parse throws
/// std::runtime_error on malformed input.
std::string to_reproducer_text(const Reproducer& r);
Reproducer parse_reproducer(const std::string& text);

/// Write/read a reproducer file. write returns false on I/O failure;
/// load throws std::runtime_error when the file cannot be read.
bool write_reproducer(const std::string& path, const Reproducer& r);
Reproducer load_reproducer(const std::string& path);

}  // namespace sva
}  // namespace mcsim
