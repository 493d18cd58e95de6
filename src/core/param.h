// Non-decreasing graph parameters (paper Section 2). The oracle evaluation
// is used (a) by benches/tests to obtain the *correct* values p* and (b) to
// hand correct guesses to baseline non-uniform runs. Uniform algorithms
// produced by the transformers never call the oracle — enforced by tests
// that run them with a poisoned oracle.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/runtime/instance.h"

namespace unilocal {

enum class Param {
  kNumNodes,    // n
  kMaxDegree,   // Delta
  kArboricity,  // degeneracy proxy: a <= degeneracy <= 2a-1 (README)
  kMaxIdentity, // m
};

using ParamSet = std::vector<Param>;

std::string param_name(Param p);

/// Oracle evaluation p(G, x); every supported parameter is a non-decreasing
/// graph parameter (value never grows when passing to a subinstance).
std::int64_t eval_param(Param p, const Instance& instance);

/// Correct guesses Gamma*(G, x), aligned with `params`.
std::vector<std::int64_t> correct_guesses(const ParamSet& params,
                                          const Instance& instance);

}  // namespace unilocal
