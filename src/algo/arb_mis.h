// MIS for bounded-arboricity graphs: the O(a~^2)-coloring pipeline of
// arb_coloring.h followed by the color-class sweep. Substitute for the
// Barenboim-Elkin'10 sublogarithmic MIS (Table 1 rows 3-4; README,
// Substitutions):
// f = O(a~^2) + O(log n~) + O(log* m~) — on bounded-arboricity families the
// measured rounds are dominated by the O(log n) peeling, reproducing the
// "o(log n) / O(log n / log log n)" shape of the paper's rows.
//
// Gamma = Lambda = {a, n, m}. Feeding this through the Theorem 3 wrapper
// with the domination a <= n exercises exactly the situation the paper
// highlights for [6]: correctness needs a, but the time bound is stated
// in n.
#pragma once

#include <memory>

#include "src/core/nonuniform.h"
#include "src/runtime/local.h"

namespace unilocal {

std::unique_ptr<Algorithm> make_arb_mis_algorithm(std::int64_t arboricity_guess,
                                                  std::int64_t n_guess,
                                                  std::int64_t m_guess);

std::unique_ptr<NonUniformAlgorithm> make_arb_mis();

}  // namespace unilocal
