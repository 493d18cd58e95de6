// First-class algorithm registry: the string-keyed table of runnable paper
// pipelines, symmetric with the scenario registry
// (src/graph/scenario_registry.h).
//
// An AlgorithmSpec names one pipeline, the problem key its outputs are
// scored against (src/problems/registry.h), the knob values baked into it
// (e.g. ruling-set beta, coloring slack lambda), the scenario families its
// Table 1 row is stated over, and the factory that actually runs it. Every
// factory must be deterministic in (instance, seed) and issue every engine
// run under the context's ExecPolicy. Threads, kernel mode and the lent
// workspace never change an output — that is what makes campaign results
// bit-identical for any worker count.
//
// Note on layering: like src/runtime/campaign.*, this is the orchestration
// layer of the library — its default table wires up core/algo/prune — so
// nothing below it may include it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/problems/problem.h"
#include "src/runtime/instance.h"
#include "src/runtime/runner.h"

namespace unilocal {

/// What one registry entry produced on an instance.
struct CellOutcome {
  std::vector<std::int64_t> outputs;
  std::int64_t rounds = 0;
  bool solved = false;
  EngineStats stats;
};

/// Everything a factory run needs beyond the instance: the seed, and the
/// execution policy every engine run of the entry follows.
struct AlgorithmRunContext : ExecPolicy {
  std::uint64_t seed = 1;
};

struct AlgorithmSpec {
  /// Registry key (unique; duplicates are registration errors).
  std::string name;
  /// Problem key for the centralized checker, in make_problem() syntax
  /// (src/problems/registry.h), e.g. "mis", "coloring:deg+1".
  std::string problem;
  /// One-line documentation (theorem/pipeline provenance).
  std::string describe;
  /// Named knob values baked into the factory (ruling-set beta, transformer
  /// slack lambda, ...); introspection for listings and sweeps.
  std::map<std::string, double> knobs;
  /// Scenario-registry keys of the families this entry's Table 1 row is
  /// stated over — what `unilocal_cli table1` pairs it with.
  std::vector<std::string> table1_scenarios;
  std::function<CellOutcome(const Instance&, const AlgorithmRunContext&)> run;
  /// Whether every engine run inside the factory executes through the flat
  /// step-kernel tier under KernelMode::kOn (i.e. the whole pipeline is
  /// lowered). Campaigns validate this up front when kernel_mode is kOn —
  /// one error naming every unlowered key — instead of N per-cell
  /// failures. All built-in entries are lowered.
  bool kernel_lowered = true;
};

/// Simple key glob: '*' matches any run (including empty), '?' any one
/// character; everything else is literal.
bool algorithm_key_glob_match(const std::string& pattern,
                              const std::string& name);

class AlgorithmRegistry {
 public:
  /// Registers a spec. Throws std::runtime_error on duplicate names, empty
  /// names, missing factories, and problem keys make_problem() rejects (the
  /// validator is resolved eagerly so a bad key fails at registration, not
  /// mid-campaign).
  void add(AlgorithmSpec spec);

  bool contains(const std::string& name) const;
  /// Registered keys, sorted.
  std::vector<std::string> names() const;
  /// Throws std::runtime_error on unknown names.
  const AlgorithmSpec& spec(const std::string& name) const;
  /// The entry's validator (never null); throws on unknown names.
  const Problem& problem(const std::string& name) const;
  CellOutcome run(const std::string& name, const Instance& instance,
                  const AlgorithmRunContext& context) const;

  /// Expands selection patterns into sorted, deduplicated keys: "all"
  /// selects everything, '*'/'?' glob against the keys, anything else must
  /// match a key exactly. Throws one std::runtime_error naming every
  /// pattern that selected nothing.
  std::vector<std::string> resolve(
      const std::vector<std::string>& patterns) const;

 private:
  struct Entry {
    AlgorithmSpec spec;
    std::shared_ptr<const Problem> problem;
  };
  std::map<std::string, Entry> entries_;
};

/// The built-in table — the full pipeline zoo (>= 18 entries):
///
///   MIS        mis-uniform, mis-global-uniform, arb-mis, mis-fastest,
///              mis-fastest-arb, mis-lv, luby-mis
///   coloring   coloring-theorem5, coloring-theorem5-lambda4, arb-coloring,
///              product-coloring, linial-coloring, dplus1-coloring,
///              lambda4-coloring, color-reduce, cole-vishkin
///   matching   matching-uniform
///   ruling set rulingset2-lv, rulingset3-lv
///
/// See each entry's describe() for the theorem/pipeline provenance.
const AlgorithmRegistry& default_algorithm_registry();

}  // namespace unilocal
