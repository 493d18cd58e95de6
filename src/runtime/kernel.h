// Step kernels: algorithms compiled to flat, devirtualized round functions.
//
// A StepKernel is the lowered form of an Algorithm: instead of one
// heap-allocated Process (vtable + private members) per node, the engine
// keeps every node's state as a fixed-size POD record packed into one
// engine-owned arena, and runs each local round by calling a free function
// through a plain function pointer. Receives hand out zero-copy spans into
// the engine's message arenas and sends write them directly — no
// Process::step virtual call, no ContextBackend virtual hops, and no
// per-port Message materialization on the hot path. The engine loops,
// frontier lists, message arenas, RNG streams, and round accounting are
// exactly the ones the vtable path uses, so a kernel run is bit-identical
// to the Process run of the same algorithm (tests/kernel_test.cpp enforces
// this against both engine modes and the seed reference engine).
//
// The shape follows the classic runtime-graph lowering (flat node records,
// a phase table, function-pointer callbacks over a scratchpad): a kernel
// declares its per-node state layout (state_size/state_align), an optional
// per-port state width (port_state_words, for degree-sized caches such as
// color_reduce's neighbour palette), an optional spawn-time initializer,
// and a phase/state-machine table — one KernelStepFn per phase with a
// selector mapping the local round (and state/config) to the phase to run.
//
// Lowering contract (what "bit-identical" requires of a kernel):
//   - consume the node RNG in exactly the order the Process does;
//   - send the same words to the same ports in the same order;
//   - read all messages BEFORE the first send of a step: in the
//     synchronizer mode recv() spans point into the history arena, which a
//     send may grow (the vtable path pays a defensive copy instead);
//   - skip a receive scan on !has_mail only when every port being absent
//     leaves the scan without effect (e.g. a cache that keeps its entries
//     for silent ports). has_mail is exact in the simultaneous mode and
//     always true in the other two, so a skip there is never taken;
//   - a wake_fn (optional) declares, after a step of local round r, the
//     first later round w in which the node acts when no message reaches
//     it. Every step of a round in (r, w) with an empty inbox must then be
//     a no-op: no send, no RNG draw, no write to state or port state, and
//     no finish. Returning r+1 is always correct, and a kernel without a
//     wake_fn behaves that way. The simultaneous loop counts such a quiet
//     step without calling the kernel (see kernel_wake).
//
// In the simultaneous mode recv() reads the node's receive slots in place:
// KernelCtx::inbox points at its contiguous run in the synchronous arena and
// read_slot (src/runtime/network.h) decodes a slot inline, with no call into
// the engine.
//
// Selection is ExecPolicy::kernel_mode (off / auto / on): `auto` uses the
// kernel whenever Algorithm::kernel() provides one and falls back to the
// vtable path otherwise — composed pipelines thereby pick up kernels
// stage-by-stage; `on` requires one and throws when the algorithm has no
// lowering.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/runtime/local.h"
#include "src/runtime/network.h"
#include "src/util/rng.h"

namespace unilocal {

/// Engine path selection, plumbed from the CLI (--kernel=) through
/// CampaignOptions / UniformRunOptions / RunOptions.
enum class KernelMode {
  kOff,   // always the Process vtable path
  kAuto,  // kernel when the algorithm is lowered, vtable otherwise
  kOn,    // kernel required; run_local throws when there is no lowering
};

/// Stable names ("off", "auto", "on"); parse throws std::runtime_error on
/// anything else.
const char* kernel_mode_name(KernelMode mode);
KernelMode parse_kernel_mode(const std::string& name);

struct KernelCtx;

/// One phase of a kernel's state machine: a plain function, one local
/// round.
using KernelStepFn = void (*)(KernelCtx&);
/// Spawn-time state initializer; `state` is zero-filled before the call.
using KernelInitFn = void (*)(std::byte* state, const NodeInit& init,
                              const void* config);
/// Maps (local round, node state, config) to the phase index to run.
using KernelSelectFn = std::uint16_t (*)(std::int64_t round,
                                         const std::byte* state,
                                         const void* config);
/// Maps (local round just stepped, node state after it, config) to the
/// first later round in which the node acts without mail (see the wake rule
/// in the lowering contract above).
using KernelWakeFn = std::int64_t (*)(std::int64_t round,
                                      const std::byte* state,
                                      const void* config);

/// Engine transport installed into every KernelCtx: non-virtual free
/// functions over the engine's arenas (one perfectly-predicted indirect
/// call per send/receive instead of two virtual hops and a Message copy).
/// KernelRecvFn serves only the synchronizer and delayed modes: their
/// message windows are keyed by the sender's round, with no per-receiver run
/// of slots to hand out, so the simultaneous mode's in-place inbox cannot
/// serve them.
using KernelRecvFn = std::span<const std::int64_t> (*)(void* engine, int tid,
                                                       NodeId node,
                                                       NodeId port,
                                                       bool* present);
using KernelSendFn = void (*)(void* engine, int tid, NodeId node, NodeId port,
                              const std::int64_t* data, std::size_t words);

/// Per-step view handed to a KernelStepFn — the devirtualized counterpart
/// of Context. Built by the engine per node step; valid only for the call.
struct KernelCtx {
  // What the node knows (mirrors Context::degree/id/input/round).
  NodeId node = 0;
  NodeId degree = 0;
  std::int64_t identity = 0;
  std::int64_t round = 0;
  std::span<const std::int64_t> input;
  /// Private randomness stream of this node (same split-by-identity stream
  /// the vtable path hands out).
  Rng* rng = nullptr;

  /// This node's packed state record (StepKernel::state_size bytes,
  /// zero-filled at spawn unless init_fn wrote it).
  std::byte* state = nullptr;
  /// This node's per-port words (degree * StepKernel::port_state_words
  /// int64s, zero-filled at spawn); null when port_state_words == 0.
  std::int64_t* port_state = nullptr;
  /// The kernel's algorithm-wide read-only config blob.
  const void* config = nullptr;
  /// Per-thread reusable int64 scratch (capacity persists across steps).
  std::vector<std::int64_t>* scratch = nullptr;

  // Finish latch (mirrors Context::finish).
  bool finished = false;
  std::int64_t output = 0;

  /// Whether any port has a message: exact in the simultaneous mode, always
  /// true in the synchronizer and delayed modes.
  bool has_mail = true;

  // Engine transport; filled by the engine, opaque to kernels. In the
  // simultaneous mode inbox is this node's run of receive slots (one per
  // port) and overflow the arena's per-thread overflow buffers; elsewhere
  // inbox is null and receives go through recv_fn.
  const Slot* inbox = nullptr;
  const std::vector<std::int64_t>* overflow = nullptr;
  void* engine = nullptr;
  int tid = 0;
  KernelRecvFn recv_fn = nullptr;
  KernelSendFn send_fn = nullptr;

  /// The node's state record viewed as T (sizeof(T) == state_size).
  template <typename T>
  T& state_as() {
    return *reinterpret_cast<T*>(state);
  }

  /// Message from neighbour port j sent in the previous round; empty and
  /// absent when none arrived. Zero-copy: in the synchronizer mode the span
  /// is invalidated by this step's first send — read before sending.
  std::span<const std::int64_t> recv(NodeId j, bool* present) const {
    if (inbox != nullptr)
      return read_slot(inbox[static_cast<std::size_t>(j)], overflow, present);
    return recv_fn(engine, tid, node, j, present);
  }

  /// Sends the words to port j (delivered next round; last write wins).
  void send(NodeId j, const std::int64_t* data, std::size_t words) {
    send_fn(engine, tid, node, j, data, words);
  }
  void send(NodeId j, std::initializer_list<std::int64_t> words) {
    send_fn(engine, tid, node, j, words.begin(), words.size());
  }

  /// Sends the same words to every neighbour, ports in ascending order
  /// (matching Context::broadcast).
  void broadcast(std::initializer_list<std::int64_t> words) {
    for (NodeId j = 0; j < degree; ++j)
      send_fn(engine, tid, node, j, words.begin(), words.size());
  }

  void finish(std::int64_t out) {
    finished = true;
    output = out;
  }
};

/// Batched counterpart of KernelCtx: one bucket of same-phase nodes per
/// call. The engine groups the round's live/frontier list by resolved
/// kernel_phase_index and hands each bucket to the phase's KernelBatchFn
/// (when it has one) instead of making one indirect call per node — the
/// batch fn loops the bucket itself over the strided state arena. The
/// per-node phase body is not guaranteed to inline into that loop (the
/// GCC 12 -O3 Release build still calls color_reduce_kernel_eliminate out
/// of line from color_reduce_batch_eliminate), so the saving is the
/// dispatch, not a fused loop. Aliasing: records of distinct nodes never
/// overlap (stride >= state_size), and within a bucket every node owns its
/// own RNG stream and per-edge send slots, so nodes may be stepped in any
/// order — but each node must still read all of its messages before its
/// first send (the synchronizer-mode span invalidation applies per node
/// exactly as in the scalar contract above).
struct KernelBatchCtx {
  /// The bucket: count node ids, with rounds[i] the local round nodes[i]
  /// is stepping (uniform in simultaneous mode; per-node under the
  /// synchronizer).
  const NodeId* nodes = nullptr;
  const std::int64_t* rounds = nullptr;
  std::size_t count = 0;

  /// The packed state arena: node v's record lives at
  /// state_base + v * stride.
  std::byte* state_base = nullptr;
  std::size_t stride = 0;

  /// Per-port lane (null / 0 when the kernel declares none): node v's words
  /// start at port_state_base + csr_offsets[v] * port_words.
  std::int64_t* port_state_base = nullptr;
  std::int64_t port_words = 0;

  /// Engine-side per-NodeId tables: CSR adjacency offsets (degree(v) =
  /// csr_offsets[v+1] - csr_offsets[v]), identities, spawn inputs, private
  /// RNG streams, and the finish/output latches.
  const std::int64_t* csr_offsets = nullptr;
  const std::int64_t* identities = nullptr;
  const std::vector<std::int64_t>* inputs = nullptr;
  Rng* rngs = nullptr;
  char* finished = nullptr;
  std::int64_t* outputs = nullptr;

  /// Shared per-thread scratch and the kernel's config blob.
  std::vector<std::int64_t>* scratch = nullptr;
  const void* config = nullptr;

  // Engine transport (identical to the scalar path). inbox is the default
  // view (mail null) outside the simultaneous mode.
  InboxView inbox;
  void* engine = nullptr;
  int tid = 0;
  KernelRecvFn recv_fn = nullptr;
  KernelSendFn send_fn = nullptr;

  /// The scalar view of bucket slot i — batch fns that share their body
  /// with the scalar KernelStepFn build one of these per node and call the
  /// phase body directly (a plain call instead of the engine's per-node
  /// indirect dispatch). Keep it branch-free per node: it runs for every
  /// batched step, and the engine filters quiet nodes before bucketing.
  KernelCtx node_ctx(std::size_t i) const {
    const NodeId v = nodes[i];
    KernelCtx ctx;
    ctx.node = v;
    ctx.degree = static_cast<NodeId>(csr_offsets[v + 1] - csr_offsets[v]);
    ctx.identity = identities[v];
    ctx.round = rounds[i];
    ctx.input = std::span<const std::int64_t>(
        inputs[v].data(), inputs[v].size());
    ctx.rng = &rngs[v];
    ctx.state = state_base + static_cast<std::size_t>(v) * stride;
    ctx.port_state =
        port_words > 0 ? port_state_base + csr_offsets[v] * port_words
                       : nullptr;
    ctx.config = config;
    ctx.scratch = scratch;
    if (inbox.mail != nullptr) {
      ctx.inbox = inbox.slots + csr_offsets[v];
      ctx.overflow = inbox.overflow;
      ctx.has_mail = inbox.has_mail(v);
    }
    ctx.engine = engine;
    ctx.tid = tid;
    ctx.recv_fn = recv_fn;
    ctx.send_fn = send_fn;
    return ctx;
  }

  /// Latches a stepped node's finish/output into the engine arrays (what
  /// the engine does after a scalar step).
  void latch(std::size_t i, const KernelCtx& ctx) const {
    if (ctx.finished) {
      finished[nodes[i]] = 1;
      outputs[nodes[i]] = ctx.output;
    }
  }
};

/// One phase over one bucket of same-phase nodes. Must be bit-identical to
/// running the phase's scalar fn over the bucket in order (the engine's
/// batched-vs-scalar tests enforce this on every family / thread count /
/// network model).
using KernelBatchFn = void (*)(const KernelBatchCtx&);

/// One row of a kernel's phase/state-machine table.
struct KernelPhase {
  std::string name;
  KernelStepFn fn = nullptr;
  /// Optional batched form of `fn`; phases without one run the scalar
  /// per-node loop.
  KernelBatchFn batch = nullptr;
};

/// The lowered algorithm descriptor. Like spawned Processes, a kernel (and
/// its config blob) must stay valid for the lifetime of the Algorithm that
/// produced it.
struct StepKernel {
  std::string name;
  /// POD per-node state layout; the engine packs n records of this shape
  /// into one arena (stride = state_size rounded up to state_align).
  std::uint32_t state_size = 0;
  std::uint32_t state_align = 1;
  /// int64 words of per-port state per directed edge (0 = none); addressed
  /// through KernelCtx::port_state.
  std::uint32_t port_state_words = 0;
  /// Optional spawn-time initializer (state is zero-filled either way).
  KernelInitFn init_fn = nullptr;
  /// The state-machine table; local round r runs
  /// phases[select_fn(r, state, config)], or phases[r % phases.size()]
  /// when select_fn is null. Must be non-empty with non-null fns.
  std::vector<KernelPhase> phases;
  KernelSelectFn select_fn = nullptr;
  /// Optional wake rule (see the lowering contract); null = every round.
  KernelWakeFn wake_fn = nullptr;
  /// Algorithm-wide read-only parameters (schedules, palettes, budgets)
  /// shared by every node; exposed as KernelCtx::config.
  std::shared_ptr<const void> config;
};

/// Resolves which phase of `kernel` local round `round` runs — the exact
/// dispatch rule both engine loops use (shared so composed kernels such as
/// the truncation wrapper forward to their inner kernel identically).
inline std::size_t kernel_phase_index(const StepKernel& kernel,
                                      std::int64_t round,
                                      const std::byte* state) {
  if (kernel.select_fn != nullptr)
    return kernel.select_fn(round, state, kernel.config.get());
  const std::size_t n = kernel.phases.size();
  return n == 1 ? 0
               : static_cast<std::size_t>(round % static_cast<std::int64_t>(n));
}

/// The first round after `round` in which a node of `kernel` whose step of
/// `round` left `state` acts without mail: the kernel's wake_fn, or round+1
/// without one. Shared by the engine and the composite kernels, which
/// forward to their inner kernels through it.
inline std::int64_t kernel_wake(const StepKernel& kernel, std::int64_t round,
                                const std::byte* state) {
  return kernel.wake_fn != nullptr
             ? kernel.wake_fn(round, state, kernel.config.get())
             : round + 1;
}

/// One registry row: a key (matching the algorithm-registry building block
/// the kernel lowers), documentation, and the Algorithm -> StepKernel
/// adapter (returns null when the algorithm is not an instance the key
/// lowers — e.g. asking the "luby" row to lower a ColorReduce).
struct KernelSpec {
  std::string name;
  std::string describe;
  std::function<std::shared_ptr<const StepKernel>(const Algorithm&)> lower;
};

/// String-keyed table of kernel lowerings, symmetric with
/// AlgorithmRegistry. The engine itself resolves kernels through
/// Algorithm::kernel(); the registry is the introspectable index of what
/// is lowered (CLI listings, tests, docs).
class KernelRegistry {
 public:
  /// Throws std::runtime_error on duplicate/empty names or missing adapters.
  void add(KernelSpec spec);

  bool contains(const std::string& name) const;
  /// Registered keys, sorted.
  std::vector<std::string> names() const;
  /// Throws std::runtime_error on unknown names.
  const KernelSpec& spec(const std::string& name) const;
  /// Lowers `algorithm` through the named row. Throws std::runtime_error on
  /// unknown kernel keys; returns null when the algorithm is not an
  /// instance this row can lower.
  std::shared_ptr<const StepKernel> lower(const std::string& name,
                                          const Algorithm& algorithm) const;

 private:
  std::map<std::string, KernelSpec> entries_;
};

/// The built-in table — every registry building block is lowered: luby,
/// linial, color-reduce, greedy-mis, cole-vishkin, beta-luby, hpartition,
/// out-linial, mis-color-sweep, proposal-matching, plus the composite
/// rows (chain, truncated, slc-adapter) that forward to their inner
/// kernels. With these, every default_algorithm_registry() pipeline runs
/// end to end under --kernel=on.
const KernelRegistry& default_kernel_registry();

}  // namespace unilocal
