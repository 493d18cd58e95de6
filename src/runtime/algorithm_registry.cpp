#include "src/runtime/algorithm_registry.h"

#include <algorithm>
#include <queue>
#include <stdexcept>

#include "src/algo/arb_coloring.h"
#include "src/algo/arb_mis.h"
#include "src/algo/cole_vishkin.h"
#include "src/algo/color_reduce.h"
#include "src/algo/dplus1.h"
#include "src/algo/edge_color_mm.h"
#include "src/algo/greedy_mis.h"
#include "src/algo/lambda_coloring.h"
#include "src/algo/linial.h"
#include "src/algo/luby.h"
#include "src/algo/mis_from_coloring.h"
#include "src/algo/ruling_set_mc.h"
#include "src/core/coloring_transform.h"
#include "src/core/fastest.h"
#include "src/core/mc_to_lv.h"
#include "src/core/product_coloring.h"
#include "src/core/transformer.h"
#include "src/core/weak_domination.h"
#include "src/problems/registry.h"
#include "src/prune/matching_prune.h"
#include "src/prune/ruling_set_prune.h"
#include "src/util/math.h"

namespace unilocal {

// --- registry ---------------------------------------------------------------

bool algorithm_key_glob_match(const std::string& pattern,
                              const std::string& name) {
  // Iterative '*' backtracking (one star position is enough: later stars
  // reset the backtrack point).
  std::size_t p = 0, s = 0, star = std::string::npos, star_s = 0;
  while (s < name.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '?' || pattern[p] == name[s])) {
      ++p;
      ++s;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      star_s = s;
    } else if (star != std::string::npos) {
      p = star + 1;
      s = ++star_s;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

void AlgorithmRegistry::add(AlgorithmSpec spec) {
  if (spec.name.empty())
    throw std::runtime_error("algorithm registration needs a name");
  if (!spec.run)
    throw std::runtime_error("algorithm needs a factory: " + spec.name);
  if (entries_.count(spec.name) != 0)
    throw std::runtime_error("duplicate algorithm registration: " +
                             spec.name);
  // Resolve the validator eagerly so a bad problem key fails here, not in
  // the middle of a campaign. make_problem throws on unknown specs.
  std::shared_ptr<const Problem> problem = make_problem(spec.problem);
  const std::string name = spec.name;
  entries_[name] = Entry{std::move(spec), std::move(problem)};
}

bool AlgorithmRegistry::contains(const std::string& name) const {
  return entries_.count(name) != 0;
}

std::vector<std::string> AlgorithmRegistry::names() const {
  std::vector<std::string> result;
  result.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) result.push_back(name);
  return result;
}

const AlgorithmSpec& AlgorithmRegistry::spec(const std::string& name) const {
  const auto it = entries_.find(name);
  if (it == entries_.end())
    throw std::runtime_error("unknown algorithm: " + name);
  return it->second.spec;
}

const Problem& AlgorithmRegistry::problem(const std::string& name) const {
  const auto it = entries_.find(name);
  if (it == entries_.end())
    throw std::runtime_error("unknown algorithm: " + name);
  return *it->second.problem;
}

CellOutcome AlgorithmRegistry::run(const std::string& name,
                                   const Instance& instance,
                                   const AlgorithmRunContext& context) const {
  const auto it = entries_.find(name);
  if (it == entries_.end())
    throw std::runtime_error("unknown algorithm: " + name);
  return it->second.spec.run(instance, context);
}

std::vector<std::string> AlgorithmRegistry::resolve(
    const std::vector<std::string>& patterns) const {
  std::vector<std::string> selected;
  std::string unmatched;
  for (const std::string& pattern : patterns) {
    if (pattern == "all") {
      for (const auto& [name, entry] : entries_) selected.push_back(name);
      continue;
    }
    bool any = false;
    if (pattern.find('*') != std::string::npos ||
        pattern.find('?') != std::string::npos) {
      for (const auto& [name, entry] : entries_) {
        if (algorithm_key_glob_match(pattern, name)) {
          selected.push_back(name);
          any = true;
        }
      }
    } else if (entries_.count(pattern) != 0) {
      selected.push_back(pattern);
      any = true;
    }
    if (!any) {
      if (!unmatched.empty()) unmatched += ", ";
      unmatched += pattern;
    }
  }
  if (!unmatched.empty())
    throw std::runtime_error("no algorithms match: " + unmatched);
  std::sort(selected.begin(), selected.end());
  selected.erase(std::unique(selected.begin(), selected.end()),
                 selected.end());
  return selected;
}

// --- default table ----------------------------------------------------------

namespace {

UniformRunOptions uniform_options(const AlgorithmRunContext& context) {
  UniformRunOptions options{context};
  options.seed = context.seed;
  return options;
}

RunOptions local_options(const AlgorithmRunContext& context) {
  RunOptions options{context};
  options.seed = context.seed;
  return options;
}

CellOutcome from_uniform(UniformRunResult result) {
  return {std::move(result.outputs), result.total_rounds, result.solved,
          result.engine_stats};
}

CellOutcome from_local(RunResult result) {
  return {std::move(result.outputs), result.rounds_used, result.all_finished,
          result.stats};
}

/// The "non-uniform baseline told the truth" configuration: instantiate
/// with the oracle's correct guesses and run once. Deterministic in
/// (instance, seed) because the oracle is a pure function of the instance.
CellOutcome run_correct_guess_baseline(const NonUniformAlgorithm& wrapped,
                                       const Instance& instance,
                                       const AlgorithmRunContext& context) {
  const auto algorithm = instantiate_with_correct_guesses(wrapped, instance);
  return from_local(run_local(instance, *algorithm, local_options(context)));
}

/// Theorem 3 wrapper that leaves Lambda = {n}: eliminates the arboricity
/// via 2^a <= n and the identity range via m <= n (exact under the
/// campaign's default permuted identities; under sparse identities the
/// doubling still reaches a good guess, only later).
std::shared_ptr<const NonUniformAlgorithm> dominated_arb_mis() {
  auto inner = std::shared_ptr<const NonUniformAlgorithm>(make_arb_mis());
  return std::shared_ptr<const NonUniformAlgorithm>(apply_weak_domination(
      inner,
      {Domination{Param::kArboricity, Param::kNumNodes,
                  [](std::int64_t a) {
                    return static_cast<double>(
                        sat_pow(2, static_cast<int>(std::min<std::int64_t>(
                                       a, 62))));
                  },
                  "2^a<=n"},
       Domination{Param::kMaxIdentity, Param::kNumNodes,
                  [](std::int64_t m) { return static_cast<double>(m); },
                  "m<=n"}}));
}

/// BFS parent ports rooted at each component's minimum-identity node —
/// the make_rooted_forest_instance convention on the campaign's own
/// instance (identities preserved). Returns false when the graph is not a
/// forest (a cole-vishkin cell on the wrong family reports unsolved
/// instead of handing the checker an improper coloring).
bool rooted_forest_inputs(const Instance& instance, Instance& rooted) {
  const NodeId n = instance.num_nodes();
  std::vector<NodeId> parent(static_cast<std::size_t>(n), -1);
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  std::vector<NodeId> order(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) order[static_cast<std::size_t>(v)] = v;
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return instance.identities[static_cast<std::size_t>(a)] <
           instance.identities[static_cast<std::size_t>(b)];
  });
  std::int64_t components = 0;
  for (NodeId root : order) {
    if (seen[static_cast<std::size_t>(root)]) continue;
    ++components;
    seen[static_cast<std::size_t>(root)] = true;
    std::queue<NodeId> frontier;
    frontier.push(root);
    while (!frontier.empty()) {
      const NodeId v = frontier.front();
      frontier.pop();
      for (NodeId u : instance.graph.neighbors(v)) {
        if (!seen[static_cast<std::size_t>(u)]) {
          seen[static_cast<std::size_t>(u)] = true;
          parent[static_cast<std::size_t>(u)] = v;
          frontier.push(u);
        }
      }
    }
  }
  if (instance.graph.num_edges() != static_cast<std::int64_t>(n) - components)
    return false;  // a non-tree edge exists somewhere
  rooted = instance;
  for (NodeId v = 0; v < n; ++v) {
    std::int64_t port = -1;
    const NodeId p = parent[static_cast<std::size_t>(v)];
    if (p >= 0) {
      const auto& nbrs = instance.graph.neighbors(v);
      port = std::lower_bound(nbrs.begin(), nbrs.end(), p) - nbrs.begin();
    }
    rooted.inputs[static_cast<std::size_t>(v)] = {port};
  }
  return true;
}

AlgorithmRegistry make_default_registry() {
  AlgorithmRegistry table;

  // --- MIS -----------------------------------------------------------------
  table.add(
      {"mis-uniform", "mis",
       "Theorem 1 over the Linial->(deg+1)->sweep MIS (Table 1 row 1)",
       {},
       {"gnp", "power-law", "caterpillar", "bounded-degree"},
       [](const Instance& instance, const AlgorithmRunContext& context) {
         const auto algorithm = make_coloring_mis();
         const RulingSetPruning pruning(1);
         return from_uniform(run_uniform_transformer(
             instance, *algorithm, pruning, uniform_options(context)));
       }});
  table.add(
      {"mis-global-uniform", "mis",
       "Theorem 1 over greedy-by-identity MIS as A_n (Table 1 row 2)",
       {},
       {"gnp", "geometric", "caterpillar"},
       [](const Instance& instance, const AlgorithmRunContext& context) {
         const auto algorithm = make_global_mis();
         const RulingSetPruning pruning(1);
         return from_uniform(run_uniform_transformer(
             instance, *algorithm, pruning, uniform_options(context)));
       }});
  table.add(
      {"arb-mis", "mis",
       "Theorems 3+1: arboricity MIS with a and m dominated away "
       "(Table 1 rows 3-4, Corollary 4)",
       {},
       {"layered-forest", "tree", "caterpillar"},
       [algorithm = dominated_arb_mis()](
           const Instance& instance, const AlgorithmRunContext& context) {
         const RulingSetPruning pruning(1);
         return from_uniform(run_uniform_transformer(
             instance, *algorithm, pruning, uniform_options(context)));
       }});
  table.add(
      {"mis-fastest", "mis",
       "Theorem 4 combinator of greedy-as-A_n and the coloring MIS",
       {},
       {"gnp", "power-law", "geometric"},
       [](const Instance& instance, const AlgorithmRunContext& context) {
         const auto pruning = std::make_shared<RulingSetPruning>(1);
         const auto greedy =
             make_local_executable(std::make_shared<GreedyMis>());
         const auto colored = make_transformed_executable(
             std::shared_ptr<const NonUniformAlgorithm>(make_coloring_mis()),
             pruning);
         return from_uniform(run_fastest(instance,
                                         {greedy.get(), colored.get()},
                                         *pruning,
                                         uniform_options(context)));
       }});
  table.add(
      {"mis-fastest-arb", "mis",
       "Corollary 1(i): Theorem 4 over greedy, the coloring MIS, and the "
       "dominated arboricity MIS",
       {},
       {"layered-forest", "tree", "gnp"},
       [arb = dominated_arb_mis()](const Instance& instance,
                                   const AlgorithmRunContext& context) {
         const auto pruning = std::make_shared<RulingSetPruning>(1);
         const auto greedy =
             make_local_executable(std::make_shared<GreedyMis>());
         const auto colored = make_transformed_executable(
             std::shared_ptr<const NonUniformAlgorithm>(make_coloring_mis()),
             pruning);
         const auto arb_exec = make_transformed_executable(arb, pruning);
         return from_uniform(run_fastest(
             instance, {greedy.get(), colored.get(), arb_exec.get()},
             *pruning, uniform_options(context)));
       }});
  table.add(
      {"mis-lv", "mis",
       "Theorem 2 (MC->LV) over Luby truncated to its n-guess budget",
       {},
       {"gnp", "geometric"},
       [](const Instance& instance, const AlgorithmRunContext& context) {
         const auto algorithm = make_truncated_luby_mis();
         const RulingSetPruning pruning(1);
         return from_uniform(run_las_vegas_transformer(
             instance, *algorithm, pruning, uniform_options(context)));
       }});
  table.add(
      {"luby-mis", "mis",
       "plain Las Vegas Luby baseline (Table 1 last row)",
       {},
       {"gnp", "power-law"},
       [](const Instance& instance, const AlgorithmRunContext& context) {
         const LubyMis luby;
         RunOptions options = local_options(context);
         options.max_rounds = std::int64_t{1} << 24;
         return from_local(run_local(instance, luby, options));
       }});

  // --- coloring ------------------------------------------------------------
  const auto theorem5 = [](std::int64_t lambda) {
    return [lambda](const Instance& instance,
                    const AlgorithmRunContext& context) {
      const auto algorithm = make_lambda_gdelta_coloring(lambda);
      ColoringTransformResult result = run_uniform_coloring_transform(
          instance, *algorithm, uniform_options(context));
      return CellOutcome{std::move(result.colors), result.total_rounds,
                         result.solved, result.engine_stats};
    };
  };
  table.add(
      {"coloring-theorem5", "coloring",
       "Theorem 5 uniform coloring transform of the lambda(Delta+1) black "
       "box, lambda=1 (Corollary 1(iii))",
       {{"lambda", 1.0}},
       {"gnp", "bounded-degree", "power-law"},
       theorem5(1)});
  table.add(
      {"coloring-theorem5-lambda4", "coloring",
       "Theorem 5 transform with palette slack lambda=4 (shorter "
       "reduction tail, 4x colors)",
       {{"lambda", 4.0}},
       {"bounded-degree", "gnp"},
       theorem5(4)});
  table.add(
      {"arb-coloring", "coloring",
       "H-partition -> out-Linial O(a^2)-coloring with correct guesses "
       "(Barenboim-Elkin route)",
       {},
       {"layered-forest", "tree", "caterpillar"},
       [algorithm = std::shared_ptr<const NonUniformAlgorithm>(
            make_arb_coloring())](const Instance& instance,
                                  const AlgorithmRunContext& context) {
         return run_correct_guess_baseline(*algorithm, instance, context);
       }});
  table.add(
      {"product-coloring", "coloring:deg+1",
       "Section 5.1: uniform MIS on the clique product pulled back as a "
       "(deg+1)-coloring (Corollary 1(ii))",
       {},
       {"tree", "caterpillar"},
       [](const Instance& instance, const AlgorithmRunContext& context) {
         const auto mis = make_coloring_mis();
         ProductColoringResult result = run_uniform_deg_plus_one_coloring(
             instance, *mis, uniform_options(context));
         return CellOutcome{std::move(result.colors), result.total_rounds,
                            result.solved, result.engine_stats};
       }});
  table.add(
      {"linial-coloring", "coloring",
       "Linial's iterated reduction to O(Delta^2) colors with correct "
       "guesses (log* m rounds)",
       {},
       {"bounded-degree", "gnp"},
       [algorithm = std::shared_ptr<const NonUniformAlgorithm>(
            make_linial_coloring())](const Instance& instance,
                                     const AlgorithmRunContext& context) {
         return run_correct_guess_baseline(*algorithm, instance, context);
       }});
  table.add(
      {"dplus1-coloring", "coloring:deg+1",
       "Linial shrink -> one-class-per-round reduction into [1, deg+1] "
       "with correct guesses",
       {},
       {"bounded-degree", "gnp"},
       [algorithm = std::shared_ptr<const NonUniformAlgorithm>(
            make_deg_plus_one_coloring())](const Instance& instance,
                                           const AlgorithmRunContext& context) {
         return run_correct_guess_baseline(*algorithm, instance, context);
       }});
  table.add(
      {"lambda4-coloring", "coloring",
       "lambda(Delta+1)-coloring with correct guesses, lambda=4 "
       "(Table 1 row 5 baseline)",
       {{"lambda", 4.0}},
       {"bounded-degree", "power-law"},
       [algorithm = std::shared_ptr<const NonUniformAlgorithm>(
            make_lambda_coloring(4))](const Instance& instance,
                                      const AlgorithmRunContext& context) {
         return run_correct_guess_baseline(*algorithm, instance, context);
       }});
  table.add(
      {"color-reduce", "coloring:deg+1",
       "classic chain: identities as the initial proper coloring, reduced "
       "one class per round into [1, deg+1]",
       {},
       {"caterpillar", "gnp"},
       [](const Instance& instance, const AlgorithmRunContext& context) {
         Instance seeded = instance;
         for (NodeId v = 0; v < instance.num_nodes(); ++v)
           seeded.inputs[static_cast<std::size_t>(v)] = {
               instance.identities[static_cast<std::size_t>(v)]};
         const ColorReduce algorithm(
             std::max<std::int64_t>(instance.max_identity(), 1), 0);
         return from_local(
             run_local(seeded, algorithm, local_options(context)));
       }});
  table.add(
      {"cole-vishkin", "coloring:3",
       "Cole-Vishkin 3-coloring of rooted forests (reports unsolved on "
       "non-forest cells)",
       {},
       {"forest", "tree"},
       [](const Instance& instance, const AlgorithmRunContext& context) {
         Instance rooted;
         if (!rooted_forest_inputs(instance, rooted)) {
           return CellOutcome{
               std::vector<std::int64_t>(
                   static_cast<std::size_t>(instance.num_nodes()), 0),
               0, false, EngineStats{}};
         }
         const ColeVishkin algorithm(
             std::max<std::int64_t>(rooted.max_identity(), 2));
         return from_local(
             run_local(rooted, algorithm, local_options(context)));
       }});

  // --- matching ------------------------------------------------------------
  table.add(
      {"matching-uniform", "matching",
       "Theorem 1 over the colored proposal matching (Table 1 row 8)",
       {},
       {"gnp", "power-law", "geometric"},
       [](const Instance& instance, const AlgorithmRunContext& context) {
         const auto algorithm = make_colored_matching();
         const MatchingPruning pruning;
         return from_uniform(run_uniform_transformer(
             instance, *algorithm, pruning, uniform_options(context)));
       }});

  // --- ruling sets ---------------------------------------------------------
  const auto ruling_set = [&table](int beta,
                                   std::vector<std::string> scenarios) {
    table.add(
        {"rulingset" + std::to_string(beta) + "-lv",
         "rulingset:" + std::to_string(beta),
         "Theorem 2 (MC->LV) over the distance-" + std::to_string(beta) +
             " Luby (2," + std::to_string(beta) + ")-ruling set "
             "(Table 1 row 9)",
         {{"beta", static_cast<double>(beta)}},
         std::move(scenarios),
         [beta](const Instance& instance,
                const AlgorithmRunContext& context) {
           const auto algorithm = make_mc_ruling_set(beta);
           const RulingSetPruning pruning(beta);
           return from_uniform(run_las_vegas_transformer(
               instance, *algorithm, pruning, uniform_options(context)));
         }});
  };
  ruling_set(2, {"gnp", "power-law"});
  ruling_set(3, {"gnp", "geometric"});

  return table;
}

}  // namespace

const AlgorithmRegistry& default_algorithm_registry() {
  static const AlgorithmRegistry table = make_default_registry();
  return table;
}

}  // namespace unilocal
