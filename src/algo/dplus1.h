// The composed non-uniform (deg+1)-coloring: Linial's log*-round shrink to
// O(Delta~^2) colors followed by the one-class-per-round reduction into each
// node's palette [1, deg(v)+1]. Gamma = Lambda = {Delta, m};
// f = O(Delta~^2) + O(log* m~), additive. Stand-in for the Table 1 row-1
// (Delta+1)-coloring algorithms (README, Substitutions).
#pragma once

#include <memory>

#include "src/core/nonuniform.h"
#include "src/runtime/local.h"

namespace unilocal {

/// Runnable pipeline for explicit guesses.
std::unique_ptr<Algorithm> make_deg_plus_one_algorithm(std::int64_t delta_guess,
                                                       std::int64_t m_guess);

/// The A_Gamma wrapper.
std::unique_ptr<NonUniformAlgorithm> make_deg_plus_one_coloring();

}  // namespace unilocal
