#include "core/suite.hpp"

namespace ccmm {

const char* suite_bit_name(std::uint32_t bit) {
  switch (bit) {
    case kSuiteSC:
      return "SC";
    case kSuiteLC:
      return "LC";
    case kSuiteNN:
      return "NN";
    case kSuiteNW:
      return "NW";
    case kSuiteWN:
      return "WN";
    case kSuiteWW:
      return "WW";
    case kSuiteWNPlus:
      return "WN+";
    case kSuiteNNPlus:
      return "NN+";
    case kSuiteFresh:
      return "FRESH";
  }
  return "?";
}

}  // namespace ccmm
