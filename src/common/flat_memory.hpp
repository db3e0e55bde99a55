// Flat word-addressed backing store for the simulated physical memory.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace mcsim {

class FlatMemory {
 public:
  explicit FlatMemory(std::uint64_t bytes) : words_(bytes / kWordBytes, 0) {}

  Word read(Addr a) const { return words_[index(a)]; }
  void write(Addr a, Word v) { words_[index(a)] = v; }
  std::uint64_t size_bytes() const { return words_.size() * kWordBytes; }

 private:
  std::size_t index(Addr a) const {
    const std::size_t i = a / kWordBytes;
    if (i >= words_.size()) {
      throw std::out_of_range("memory access at byte address " + std::to_string(a) +
                              " is beyond mem_bytes " + std::to_string(size_bytes()));
    }
    return i;
  }

  std::vector<Word> words_;
};

}  // namespace mcsim
