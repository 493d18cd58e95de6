#include "src/runtime/chain.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/runtime/kernel.h"

namespace unilocal {

namespace {

class ChainProcess final : public Process {
 public:
  ChainProcess(const std::vector<ChainStage>* stages, const NodeInit& init)
      : stages_(stages), degree_(init.degree), identity_(init.identity),
        original_input_(init.input.begin(), init.input.end()) {}

  void step(Context& ctx) override {
    // Advance past completed stages (budgets are cumulative).
    while (stage_ < stages_->size() &&
           ctx.round() >= stage_start_ + (*stages_)[stage_].rounds) {
      close_stage();
    }
    if (stage_ >= stages_->size()) {
      ctx.finish(carry_);
      return;
    }
    if (inner_ == nullptr && !inner_done_) spawn_stage();
    if (!inner_done_) {
      Context sub = ctx.derived(ctx.round() - stage_start_, stage_input());
      inner_->step(sub);
      if (sub.finished()) {
        carry_ = sub.output();
        inner_done_ = true;
        inner_.reset();
      }
    }
    // Last stage finished and budget also over? The loop above handles the
    // boundary on the *next* round; if this was the final round of the last
    // stage, finish right away to avoid one idle round.
    if (stage_ + 1 == stages_->size() &&
        ctx.round() + 1 >= stage_start_ + (*stages_)[stage_].rounds) {
      ctx.finish(inner_done_ ? carry_ : 0);
    }
  }

 private:
  std::span<const std::int64_t> stage_input() const {
    if (stage_ == 0) return original_input_;
    return {&carry_in_, 1};
  }

  void spawn_stage() {
    NodeInit init;
    init.degree = degree_;
    init.identity = identity_;
    init.input = stage_input();
    inner_ = (*stages_)[stage_].algorithm->spawn(init);
  }

  void close_stage() {
    if (!inner_done_) carry_ = 0;  // stage cut off: arbitrary carry
    carry_in_ = carry_;
    stage_start_ += (*stages_)[stage_].rounds;
    ++stage_;
    inner_.reset();
    inner_done_ = false;
  }

  const std::vector<ChainStage>* stages_;
  NodeId degree_;
  std::int64_t identity_;
  std::vector<std::int64_t> original_input_;
  std::size_t stage_ = 0;
  std::int64_t stage_start_ = 0;
  std::unique_ptr<Process> inner_;
  bool inner_done_ = false;
  std::int64_t carry_ = 0;
  std::int64_t carry_in_ = 0;
};

// --- composite flat-kernel lowering (mirrors ChainProcess bit-for-bit) ------
//
// Per-node state is a small header (carry of the last finished stage, the
// carry frozen as the current stage's input word, and a done latch) followed
// by ONE inner state region sized/aligned for the widest stage — stages run
// strictly in sequence, so they can share the slot; each stage entry
// re-zeroes it (and the per-port words) exactly as a fresh spawn would.
// The stage index is derived from the round via the cumulative schedule, so
// it needs no state of its own. Idle rounds (stage finished early, budget
// not yet elapsed) send nothing and draw no randomness, matching the
// process path's skipped inner step.

struct ChainKernelHeader {
  std::int64_t carry;       // output of the most recently finished stage
  std::int64_t carry_in;    // previous stage's carry, the current stage input
  std::int64_t inner_done;  // current stage finished before its budget
};

struct ChainKernelStage {
  std::shared_ptr<const StepKernel> kernel;
  std::int64_t start = 0;   // cumulative first round of this stage
  std::int64_t rounds = 0;  // budget
};

struct ChainKernelConfig {
  std::vector<ChainKernelStage> stages;
  std::int64_t total = 0;          // sum of budgets
  std::size_t inner_offset = 0;    // byte offset of the inner state region
  std::size_t inner_size = 0;      // bytes to re-zero on stage entry
  std::int64_t port_words = 0;     // composite per-port width
};

enum : std::uint16_t {
  kChainEnter = 0,  // first round of a stage: reset + init + inner round 0
  kChainRun = 1,    // stage in progress: forward to the inner kernel
  kChainIdle = 2,   // stage finished early: wait out the budget
  kChainDone = 3,   // past the whole schedule
};

std::size_t chain_stage_of(const ChainKernelConfig& cfg, std::int64_t round) {
  std::size_t k = 0;
  while (k < cfg.stages.size() &&
         round >= cfg.stages[k].start + cfg.stages[k].rounds)
    ++k;
  return k;
}

std::uint16_t chain_kernel_select(std::int64_t round, const std::byte* state,
                                  const void* config) {
  const auto* cfg = static_cast<const ChainKernelConfig*>(config);
  if (round >= cfg->total) return kChainDone;
  const std::size_t k = chain_stage_of(*cfg, round);
  if (round == cfg->stages[k].start) return kChainEnter;
  const auto* h = reinterpret_cast<const ChainKernelHeader*>(state);
  return h->inner_done != 0 ? kChainIdle : kChainRun;
}

// Runs the active stage's round: swaps the ctx to the inner kernel's view
// (stage-relative round, stage input, inner config/state), dispatches the
// inner phase, restores, and folds an inner finish into the header instead
// of the engine latch. Applies the process path's early finish on the final
// round of the last stage.
void chain_forward(KernelCtx& ctx, const ChainKernelConfig& cfg, std::size_t k,
                   std::span<const std::int64_t> stage_input) {
  auto& h = ctx.state_as<ChainKernelHeader>();
  const StepKernel& inner = *cfg.stages[k].kernel;
  const std::int64_t round = ctx.round;
  const auto saved_input = ctx.input;
  const void* saved_config = ctx.config;
  std::byte* saved_state = ctx.state;
  ctx.round = round - cfg.stages[k].start;
  ctx.input = stage_input;
  ctx.config = inner.config.get();
  ctx.state = saved_state + cfg.inner_offset;
  inner.phases[kernel_phase_index(inner, ctx.round, ctx.state)].fn(ctx);
  ctx.round = round;
  ctx.input = saved_input;
  ctx.config = saved_config;
  ctx.state = saved_state;
  if (ctx.finished) {
    h.carry = ctx.output;
    h.inner_done = 1;
    ctx.finished = false;
    ctx.output = 0;
  }
  if (k + 1 == cfg.stages.size() &&
      round + 1 >= cfg.stages[k].start + cfg.stages[k].rounds)
    ctx.finish(h.inner_done != 0 ? h.carry : 0);
}

void chain_kernel_enter(KernelCtx& ctx) {
  const auto& cfg = *static_cast<const ChainKernelConfig*>(ctx.config);
  auto& h = ctx.state_as<ChainKernelHeader>();
  const std::size_t k = chain_stage_of(cfg, ctx.round);
  if (k > 0) {
    // close_stage(): a stage cut off by its budget carries the arbitrary 0.
    if (h.inner_done == 0) h.carry = 0;
    h.carry_in = h.carry;
    h.inner_done = 0;
    std::memset(ctx.state + cfg.inner_offset, 0, cfg.inner_size);
    if (ctx.port_state != nullptr)
      std::fill_n(ctx.port_state,
                  static_cast<std::size_t>(ctx.degree) *
                      static_cast<std::size_t>(cfg.port_words),
                  std::int64_t{0});
  }
  const std::span<const std::int64_t> stage_input =
      k == 0 ? ctx.input : std::span<const std::int64_t>(&h.carry_in, 1);
  const StepKernel& inner = *cfg.stages[k].kernel;
  if (inner.init_fn != nullptr) {
    NodeInit init;
    init.degree = ctx.degree;
    init.identity = ctx.identity;
    init.input = stage_input;
    inner.init_fn(ctx.state + cfg.inner_offset, init, inner.config.get());
  }
  chain_forward(ctx, cfg, k, stage_input);
}

void chain_kernel_run(KernelCtx& ctx) {
  const auto& cfg = *static_cast<const ChainKernelConfig*>(ctx.config);
  auto& h = ctx.state_as<ChainKernelHeader>();
  const std::size_t k = chain_stage_of(cfg, ctx.round);
  const std::span<const std::int64_t> stage_input =
      k == 0 ? ctx.input : std::span<const std::int64_t>(&h.carry_in, 1);
  chain_forward(ctx, cfg, k, stage_input);
}

void chain_kernel_idle(KernelCtx& ctx) {
  const auto& cfg = *static_cast<const ChainKernelConfig*>(ctx.config);
  auto& h = ctx.state_as<ChainKernelHeader>();
  if (ctx.round + 1 >= cfg.total) ctx.finish(h.carry);
}

void chain_kernel_done(KernelCtx& ctx) {
  auto& h = ctx.state_as<ChainKernelHeader>();
  if (h.inner_done == 0) h.carry = 0;
  ctx.finish(h.carry);
}

// Wake rule: a node acts at the next stage's entry and in the final round
// (total - 1, where the last stage finishes); while the current stage's
// inner kernel runs, also at that kernel's own wake, shifted to chain
// rounds. Idle rounds and quiet inner rounds change nothing, so every
// other round is a no-op without mail.
std::int64_t chain_kernel_wake(std::int64_t round, const std::byte* state,
                               const void* config) {
  const auto& cfg = *static_cast<const ChainKernelConfig*>(config);
  std::int64_t wake = cfg.total - 1;
  if (round < wake) {
    const std::size_t k = chain_stage_of(cfg, round);
    if (k + 1 < cfg.stages.size())
      wake = std::min(wake, cfg.stages[k + 1].start);
    const auto* h = reinterpret_cast<const ChainKernelHeader*>(state);
    if (h->inner_done == 0) {
      const ChainKernelStage& stage = cfg.stages[k];
      wake = std::min(wake, stage.start + kernel_wake(*stage.kernel,
                                                      round - stage.start,
                                                      state + cfg.inner_offset));
    }
  }
  return std::max(wake, round + 1);
}

// Batched forms: loop the bucket over the scalar phase bodies (the chain
// phases keep per-stage input/config handling, so the composite does not
// forward whole buckets to inner batch fns — the win here is one dispatch
// per bucket with the stage bookkeeping inlined).
void chain_batch_enter(const KernelBatchCtx& b) {
  for (std::size_t i = 0; i < b.count; ++i) {
    KernelCtx ctx = b.node_ctx(i);
    chain_kernel_enter(ctx);
    b.latch(i, ctx);
  }
}

void chain_batch_run(const KernelBatchCtx& b) {
  for (std::size_t i = 0; i < b.count; ++i) {
    KernelCtx ctx = b.node_ctx(i);
    chain_kernel_run(ctx);
    b.latch(i, ctx);
  }
}

void chain_batch_idle(const KernelBatchCtx& b) {
  for (std::size_t i = 0; i < b.count; ++i) {
    KernelCtx ctx = b.node_ctx(i);
    chain_kernel_idle(ctx);
    b.latch(i, ctx);
  }
}

std::shared_ptr<const StepKernel> make_chain_kernel(
    const std::string& name, const std::vector<ChainStage>& stages) {
  auto cfg = std::make_shared<ChainKernelConfig>();
  std::uint32_t max_align = alignof(ChainKernelHeader);
  std::uint32_t max_size = 0;
  std::uint32_t port_words = 0;
  std::int64_t start = 0;
  for (const auto& stage : stages) {
    std::shared_ptr<const StepKernel> inner = stage.algorithm->kernel();
    if (inner == nullptr) return nullptr;  // some stage is not lowered
    max_align = std::max(max_align, inner->state_align);
    max_size = std::max(max_size, inner->state_size);
    if (inner->port_state_words != 0) {
      // Stages share one per-port lane; widths must agree (or be 0).
      if (port_words != 0 && port_words != inner->port_state_words)
        return nullptr;
      port_words = inner->port_state_words;
    }
    cfg->stages.push_back({std::move(inner), start, stage.rounds});
    start += stage.rounds;
  }
  cfg->total = start;
  cfg->inner_offset =
      (sizeof(ChainKernelHeader) + max_align - 1) / max_align * max_align;
  cfg->inner_size = max_size;
  cfg->port_words = port_words;

  auto kernel = std::make_shared<StepKernel>();
  kernel->name = "chain:" + name;
  kernel->state_size =
      static_cast<std::uint32_t>(cfg->inner_offset) + max_size;
  kernel->state_align = max_align;
  kernel->port_state_words = port_words;
  kernel->phases = {{"enter", chain_kernel_enter, chain_batch_enter},
                    {"run", chain_kernel_run, chain_batch_run},
                    {"idle", chain_kernel_idle, chain_batch_idle},
                    {"done", chain_kernel_done}};
  kernel->select_fn = chain_kernel_select;
  kernel->wake_fn = chain_kernel_wake;
  kernel->config = std::shared_ptr<const void>(std::move(cfg));
  return kernel;
}

}  // namespace

ChainAlgorithm::ChainAlgorithm(std::string name, std::vector<ChainStage> stages)
    : name_(std::move(name)), stages_(std::move(stages)) {
  assert(!stages_.empty());
  for (const auto& stage : stages_) {
    assert(stage.rounds >= 1);
    total_rounds_ += stage.rounds;
  }
  kernel_ = make_chain_kernel(name_, stages_);
}

std::unique_ptr<Process> ChainAlgorithm::spawn(const NodeInit& init) const {
  return std::make_unique<ChainProcess>(&stages_, init);
}

std::shared_ptr<const StepKernel> ChainAlgorithm::kernel() const {
  return kernel_;
}

}  // namespace unilocal
