// Pluggable message-delivery layer of the arena engine.
//
// The engine (src/runtime/runner.cpp) decides WHO steps; a network model
// decides WHEN and WHETHER a sent message reaches its receiver:
//
//   SynchronousNetwork — the round-exact double-buffered slot arena,
//     indexed by receiving port with small payloads inline: everything sent
//     in round r is available in round r+1, nothing is lost. This is the
//     default and stays bit-identical to the seed reference engine.
//
//   DelayedNetwork — an event-queue transport for the asynchronous regime
//     the paper's synchronizer exists to tame: every transmission of a
//     directed edge gets a latency drawn from a per-edge stream (uniform,
//     per-edge-weighted, or heavy-tail presets), with fault knobs for
//     message drops (lost transmissions retransmitted after a timeout),
//     duplication, fail-stop crashed nodes, and late joiners. All draws
//     derive from the run seed through dedicated streams consumed in
//     sender-schedule order, so a run is bit-repeatable for any engine
//     thread count and shards merge byte-identically.
//
// A NetworkOptions value travels with RunOptions (and through the campaign
// and shard layers as a grid dimension); parsing/naming helpers here back
// the `--network=` / fault-knob CLI flags and the manifest round trip.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/graph/csr.h"
#include "src/util/rng.h"

namespace unilocal {

/// Which delivery layer a run executes through.
enum class NetworkKind : std::uint8_t {
  kSynchronous,  // round-exact arena (the default)
  kDelayed,      // seeded event-queue transport with latency + faults
};

/// Latency family of the DelayedNetwork, per directed edge and message.
enum class DelayPreset : std::uint8_t {
  kUniform,    // fresh uniform draw in [1, max_delay] per transmission
  kWeighted,   // fixed per-edge latency drawn once in [1, max_delay]
  kHeavyTail,  // integer Pareto-like: ~half the messages take 1-2 ticks,
               // a 2^-k tail reaches ~2^16 ticks
};

struct NetworkOptions {
  NetworkKind kind = NetworkKind::kSynchronous;
  /// Latency preset (DelayedNetwork only).
  DelayPreset preset = DelayPreset::kUniform;
  /// Probability that one transmission is lost. Lost transmissions are
  /// retransmitted after a timeout of 2*max_delay ticks (so moderate drop
  /// rates delay delivery instead of changing outputs); a transmission
  /// abandoned after 64 consecutive losses — or any transmission when
  /// drop >= 1 — is never delivered and stalls its receiver at the cutoff.
  double drop = 0.0;
  /// Probability that a delivered message arrives a second time (the copy
  /// lands strictly later; receivers ignore it).
  double duplicate = 0.0;
  /// Fraction of nodes that fail-stop before their first step: they never
  /// run, never send, and are finalized as cut off with default_output.
  double crash = 0.0;
  /// Fraction of nodes that join late: their wake is delayed by a per-node
  /// draw in [1, late_by] ticks on top of any RunOptions::wake_rounds.
  double late = 0.0;
  /// Latency ceiling of the uniform/weighted presets (>= 1, in ticks);
  /// also sets the retransmission timeout (2*max_delay) for every preset.
  std::int64_t max_delay = 8;
  /// Ceiling of a late joiner's extra wake delay (>= 1, in ticks).
  std::int64_t late_by = 64;

  friend bool operator==(const NetworkOptions&,
                         const NetworkOptions&) = default;
};

/// Stable preset names ("uniform", "weighted", "heavytail").
const char* delay_preset_name(DelayPreset preset);

/// Canonical spec string: "sync", or "delay:<preset>". Used by the CSV/JSON
/// writers and the shard manifest round trip.
std::string network_spec_name(const NetworkOptions& options);

/// Parses a spec string ("sync" | "delay:uniform" | "delay:weighted" |
/// "delay:heavytail") into kind + preset, leaving every knob at its
/// default. Throws std::runtime_error naming the valid specs otherwise.
NetworkOptions parse_network_spec(const std::string& spec);

/// Validates knob ranges (probabilities in [0, 1], ticks >= 1); throws
/// std::runtime_error on the first violation. run_local calls this, so a
/// malformed NetworkOptions fails fast instead of mid-run.
void validate_network_options(const NetworkOptions& options);

/// Descriptor of one message in a word buffer: its offset and length.
/// words < 0 means no message. The delayed network's payload arena and the
/// synchronizer's history arena index their buffers with it.
struct Span {
  std::int64_t offset = 0;
  std::int64_t words = -1;
};

/// Owner-tagged word offset of a synchronous-arena message too long for
/// its slot: bits [kOwnerShift, 63) = writer thread, low bits = offset into
/// that thread's overflow buffer. The live list is re-chunked across threads
/// every round, so a sender's thread cannot be derived from its node id.
/// Word buffers stay far below 2^48 entries; the engine clamps thread counts
/// to 2^14.
constexpr int kOwnerShift = 48;
constexpr std::int64_t kOffsetMask = (std::int64_t{1} << kOwnerShift) - 1;

inline std::int64_t pack_offset(int owner, std::size_t offset) {
  return (static_cast<std::int64_t>(owner) << kOwnerShift) |
         static_cast<std::int64_t>(offset);
}

/// Payload words a synchronous-arena slot holds inline, so most receives
/// read the slot and nothing else. Three words make a 32-byte slot, two per
/// cache line. Measured on perfbench `dense`, 3 ran faster than 4 or 7,
/// whose larger slots move more memory, and kept peak memory below 2,
/// which sends more messages to the overflow buffers.
inline constexpr std::size_t kInlineWords = 3;

/// One directed edge's message in the synchronous arena (words < 0: none).
/// Up to kInlineWords words sit in w; a longer message keeps its
/// pack_offset in w[0] and its words in the writer thread's overflow buffer.
/// Aligned so that no slot straddles two cache lines.
struct alignas(32) Slot {
  std::int64_t words = -1;
  std::array<std::int64_t, kInlineWords> w{};
};

/// The message in `slot`: its inline words, or its words in the writer
/// thread's buffer of `overflow` (indexed by thread); empty and absent when
/// the slot holds none. The one slot decoder, shared by
/// SynchronousNetwork::recv and the kernels' in-place KernelCtx::recv.
inline std::span<const std::int64_t> read_slot(
    const Slot& slot, const std::vector<std::int64_t>* overflow,
    bool* present) {
  if (slot.words < 0) {
    *present = false;
    return {};
  }
  *present = true;
  const std::size_t words = static_cast<std::size_t>(slot.words);
  if (words <= kInlineWords) return {slot.w.data(), words};
  const auto& buf =
      overflow[static_cast<std::size_t>(slot.w[0] >> kOwnerShift)];
  return {buf.data() + (slot.w[0] & kOffsetMask), words};
}

/// Read-only view of the synchronous arena's receive half while round
/// `round` steps: what the previous round sent. Node v's receives are the
/// contiguous run slots[offset(v) .. offset(v) + degree(v)), one slot per
/// port. mail holds two round stamps per node, indexed by round parity:
/// mail[2 * v + (r & 1)] == r says some neighbour sent to v in round r. One
/// stamp per node would not do: a neighbour stepped earlier in this round
/// would overwrite the previous round's stamp before v reads it. A
/// default view (mail null) stands for the other modes; slots alone cannot
/// say so, since a graph without edges has an empty slot table.
struct InboxView {
  const Slot* slots = nullptr;
  const std::vector<std::int64_t>* overflow = nullptr;
  const std::int64_t* mail = nullptr;
  std::int64_t round = 0;

  /// Whether any of v's ports holds a message this round.
  bool has_mail(NodeId v) const {
    const std::int64_t prev = round - 1;
    return mail[2 * static_cast<std::size_t>(v) +
                static_cast<std::size_t>(prev & 1)] == prev;
  }
};

/// The round-exact delivery layer. Slots are indexed by the RECEIVING port:
/// a send on (v, j) writes slot in_edge_index(v, j) and a receive on (v, j)
/// reads slot edge_index(v, j), so a node's receives walk one contiguous run
/// of slots and the one random access is the sender's store. The slot table
/// is double-buffered between a send half and a receive half that swap at
/// each round barrier. Slots are reset lazily through per-thread dirty lists
/// (only the slots written two rounds ago) with an adaptive fallback to a
/// linear fill on dense rounds; the all-clean exit invariant keeps reused
/// workspaces O(m)-init-free. Each first write of a slot in a round also
/// stamps the receiver's mail (see InboxView), so a kernel can tell an empty
/// inbox without reading its ports. Owned by EngineWorkspaceState so
/// capacity survives across runs. send() may be called from concurrent
/// stepping threads as long as each thread passes its own tid and writes its
/// own slots; mail stamps shared between threads are atomic stores.
class SynchronousNetwork {
 public:
  /// Per-run preparation for `slots` receive slots and `nodes` receivers.
  /// The slot tables are grow-only: growth appends clean slots, and only a
  /// run that exited dirty (a thrown step) refills them. The mail stamps are
  /// reset, O(nodes).
  void begin_run(std::size_t slots, NodeId nodes, int threads);

  /// Resets the send half (strategy it was written under) and picks this
  /// round's write strategy: a round whose predecessor moved at least a
  /// quarter of the slot space writes in bulk mode (no dirty recording,
  /// reset by linear fill), because a sequential sweep beats per-slot
  /// indirection when nearly everything was written.
  void begin_round(std::int64_t round, std::int64_t prev_round_messages);

  /// The round barrier: what was sent becomes receivable.
  void end_round();

  /// Restores the all-clean invariant (both halves reset under the strategy
  /// they were written with).
  void end_run();

  /// Writes data[0..words) as this round's message into slot `slot` of
  /// node `receiver`; a later send to the same slot in the round replaces it
  /// (last write wins). `first` says whether this is the slot's first write
  /// this round. The sender knows that from its own ports, so the store
  /// never waits on a read of the randomly placed slot.
  void send(int tid, NodeId receiver, std::int64_t slot,
            const std::int64_t* data, std::size_t words, bool first) {
    Slot& s = send_slots_[static_cast<std::size_t>(slot)];
    if (first) {
      // Senders on several threads may stamp one receiver; they all store
      // the same round.
      std::atomic_ref<std::int64_t>(
          mail_[2 * static_cast<std::size_t>(receiver) +
                static_cast<std::size_t>(round_ & 1)])
          .store(round_, std::memory_order_relaxed);
      if (!send_bulk_)
        send_dirty_[static_cast<std::size_t>(tid)].push_back(slot);
    }
    s.words = static_cast<std::int64_t>(words);
    if (words <= kInlineWords) {
      std::copy_n(data, words, s.w.data());
    } else {
      auto& buf = send_words_[static_cast<std::size_t>(tid)];
      s.w[0] = pack_offset(tid, buf.size());
      buf.insert(buf.end(), data, data + words);
    }
  }

  /// Length of this round's message in receiver slot `slot` (-1: none).
  std::int64_t sent_words(std::int64_t slot) const {
    return send_slots_[static_cast<std::size_t>(slot)].words;
  }

  /// What the previous round sent into receiver slot `slot`. The returned
  /// span points into the receive half, which no send of the current round
  /// can touch, so it stays valid for the whole step.
  std::span<const std::int64_t> recv(std::int64_t slot, bool* present) const {
    return read_slot(recv_slots_[static_cast<std::size_t>(slot)],
                     recv_words_.data(), present);
  }

  /// The receive half as this round's kernels read it. The end_round swap
  /// moves the halves, so take a fresh view every round.
  InboxView inbox() const {
    return {recv_slots_.data(), recv_words_.data(), mail_.data(), round_};
  }

  /// Slots lazily reset through the dirty lists this run (the clearing-work
  /// stat; bulk fills are not counted).
  std::int64_t dirty_cleared() const { return dirty_cleared_; }

  /// Capacity held by the arena (slot tables, overflow buffers and dirty
  /// lists).
  std::int64_t arena_bytes() const;

 private:
  void reset_half(std::vector<Slot>& slots,
                  std::vector<std::vector<std::int64_t>>& dirty_lists,
                  bool bulk);

  std::vector<Slot> send_slots_, recv_slots_;
  // Slots this run uses: a prefix of the grow-only tables. Everything past
  // it is clean, so bulk resets stop here.
  std::size_t active_ = 0;
  // Two round stamps per receiver, indexed by round parity (see InboxView).
  std::vector<std::int64_t> mail_;
  std::int64_t round_ = 0;
  std::vector<std::vector<std::int64_t>> send_words_, recv_words_;
  std::vector<std::vector<std::int64_t>> send_dirty_, recv_dirty_;
  // Whether each half was written in bulk mode; travels with the buffer
  // across the per-round swaps so the reset strategy always matches how the
  // half was written.
  bool send_bulk_ = false, recv_bulk_ = false;
  // Whether the all-clean invariant held when the last run exited (a thrown
  // step leaves it false and the next begin_run rebuilds both halves).
  bool clean_ = false;
  std::int64_t bulk_threshold_ = 0;
  std::int64_t dirty_cleared_ = 0;
};

/// One scheduled pulse delivery on a directed edge.
struct DeliveryEvent {
  std::int64_t time = 0;
  std::int64_t edge = 0;
  std::int64_t round = 0;  // sender-local round of the pulse
  Span payload;            // into the network's word arena; words < 0 = silent
  std::int64_t sent_at = 0;
  std::uint64_t seq = 0;  // push order: the last tie-breaker
  NodeId receiver = 0;
  bool final_round = false;
};

/// The delayed network's event queue: pops DeliveryEvents in (time, edge,
/// round, seq) order, where seq is push order. It is a radix heap keyed on
/// the integer time, which is sound because the queue is monotone — every
/// push lands strictly later than the last pop. The delayed network keeps
/// that promise: every latency is >= 1 tick, and the engine never steps a
/// node ahead of a pending delivery.
///
/// Bucket b >= 1 holds the events whose time first differs from the last
/// popped time in bit b-1, so every event in bucket b is earlier than every
/// event in bucket b+1. Bucket 0 holds the events at exactly the last popped
/// time. When it runs dry, pop() redistributes the lowest non-empty bucket
/// around that bucket's earliest time, and sorts the new bucket 0 once by
/// (edge, round, seq). next_time() only reads: the base moves in pop() alone,
/// so a push earlier than a peeked time (but later than the last pop) stays
/// legal and pops first.
class DeliveryQueue {
 public:
  /// Empties the queue and restarts push order; keeps bucket capacity.
  void clear();
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  /// Earliest pending time. The queue must not be empty.
  std::int64_t next_time() const {
    return min_time_[static_cast<std::size_t>(std::countr_zero(occupied_))];
  }
  /// Queues `event`, stamping its seq. Throws std::logic_error unless
  /// event.time is later than the last pop (before any pop: not negative).
  void push(DeliveryEvent event);
  /// Removes and returns the least event. The queue must not be empty.
  DeliveryEvent pop();
  /// Capacity held by the buckets.
  std::int64_t capacity_bytes() const;

 private:
  static constexpr int kBuckets = 64;
  std::size_t bucket_of(std::int64_t time) const;
  void place(const DeliveryEvent& event);
  void refill();

  std::array<std::vector<DeliveryEvent>, kBuckets> buckets_;
  std::array<std::int64_t, kBuckets> min_time_{};  // per occupied bucket
  std::uint64_t occupied_ = 0;  // bit b set = buckets_[b] is not empty
  std::int64_t last_ = -1;      // time of the last pop (-1 before the first)
  std::size_t size_ = 0;
  std::uint64_t seq_ = 0;
};

/// How many rounds of one in-edge a receiver can still need. Take an
/// unfinished receiver u whose next local round is L. Its step L reads round
/// L-1 of every in-edge, and its step L+1 reads round L; every older round
/// was read already. Nothing newer can be in flight: a sender w cannot start
/// round L+1 until u's round-L pulse has reached it, and u sends that pulse
/// only when it steps round L. And every round below L-1 is in the edge's
/// contiguous prefix, because u's step L-1 waited for it. So each pulse u
/// can still receive and has not read is round L-1 or L, and two slots
/// indexed by round mod 2 hold them all.
inline constexpr std::int64_t kRoundWindow = 2;
static_assert(std::has_single_bit(static_cast<std::uint64_t>(kRoundWindow)));

/// The asynchronous delivery layer: a seeded deterministic event queue.
///
/// Every (sender, local round, port) transmission is one "pulse" — silence
/// included, because under the alpha synchronizer the arrival of round-r
/// traffic IS the signal that the neighbour performed round r (paper,
/// "Synchronicity and time complexity"). Each pulse gets a latency from the
/// owning edge's private stream, may be lost (retransmitted after a
/// timeout) or duplicated, and lands in its edge's window of the last
/// kRoundWindow rounds; the receiver's contiguous delivered prefix
/// generalizes the synchronizer's dependency-lag counters from round stamps
/// to delivery timestamps. Deliveries to a finished or crashed receiver are
/// never read, so they skip the window (they still count toward max_skew).
///
/// Determinism contract: all draws happen at SEND time in sender-schedule
/// order from per-edge streams split off a network-tagged base seed (never
/// the per-node algorithm streams), and the event queue breaks timestamp
/// ties by (edge, round, push sequence) — so the delivery order is a pure
/// function of (topology, seed, options), independent of engine thread
/// count, shard count, and queue implementation.
class DelayedNetwork {
 public:
  /// One delivered pulse, popped in deterministic timestamp order.
  struct Delivery {
    std::int64_t time = 0;
    std::int64_t edge = 0;  // directed-edge slot it was delivered on
    NodeId receiver = 0;
    std::int64_t round = 0;  // sender-local round of the pulse
    bool payload = false;    // carried words (vs a silent round pulse)
    // Receiver-side bookkeeping around this delivery, for the engine's
    // eligibility update: the contiguous delivered prefix of the edge and
    // whether the edge is saturated (sender finished, everything it ever
    // sent delivered — nothing further to wait for).
    std::int64_t prefix_before = 0, prefix_after = 0;
    bool saturated_before = false, saturated_after = false;
  };

  struct FlushDelta {
    std::int64_t messages = 0;  // payload pulses (parity with sync totals)
    std::int64_t max_words = 0;
  };

  /// Per-run preparation: derives edge/fault streams from `seed`, draws the
  /// crash/late-joiner sets, and clears the edge windows and the queue.
  /// Capacity is kept across runs (workspace reuse).
  void begin_run(const CsrGraph& csr, std::uint64_t seed,
                 const NetworkOptions& options);

  bool crashed(NodeId v) const {
    return crashed_[static_cast<std::size_t>(v)] != 0;
  }
  /// Extra wake delay of a late joiner (0 for punctual nodes).
  std::int64_t wake_delay(NodeId v) const {
    return wake_extra_[static_cast<std::size_t>(v)];
  }

  /// Sender side. stage() buffers the stepping node's outgoing message for
  /// one of its ports (a resend overwrites: last write wins, as in the
  /// synchronous arena); flush_node() — called once after every step, with
  /// the round the step performed — draws latency/fault decisions for every
  /// port's pulse, silent ports included, and schedules the deliveries.
  /// sender_finished marks the pulses as the sender's final round so
  /// receivers saturate instead of waiting forever, and stops the sender's
  /// own in-edges from landing anything further.
  void stage(NodeId port, const std::int64_t* data, std::size_t words);
  FlushDelta flush_node(NodeId v, std::int64_t round, std::int64_t now,
                        bool sender_finished);

  /// Earliest pending delivery timestamp; false when the queue is empty
  /// (either done or stalled on undeliverable dependencies). Only peeks: a
  /// step that runs before that time may still schedule earlier deliveries.
  bool next_delivery_time(std::int64_t* time) const {
    if (queue_.empty()) return false;
    *time = queue_.next_time();
    return true;
  }
  /// Pops the next delivery, lands it in the edge window of a receiver that
  /// still reads, and advances the edge's contiguous prefix. A duplicate of
  /// an already-delivered pulse is a no-op (prefix_before == prefix_after).
  /// Throws std::logic_error if a pulse for a reading receiver falls
  /// outside its window or would overwrite a pulse at or above the prefix.
  bool pop_delivery(Delivery* out);

  std::int64_t prefix(std::int64_t edge) const {
    return edges_[static_cast<std::size_t>(edge)].prefix;
  }
  /// Sender finished and every round it ever pulsed has been delivered.
  bool saturated(std::int64_t edge) const {
    const EdgeState& state = edges_[static_cast<std::size_t>(edge)];
    return state.final_round >= 0 && state.prefix > state.final_round;
  }

  /// What `edge` delivered for the sender's local round `round`, which must
  /// be inside the receiver's window; absent for rounds never pulsed (the
  /// sender finished earlier) or silent. The span stays valid for a whole
  /// step: the payload arena only grows in flush_node, which runs between
  /// steps.
  std::span<const std::int64_t> recv(std::int64_t edge, std::int64_t round,
                                     bool* present) const {
    const Slot& slot = edges_[static_cast<std::size_t>(edge)].slot(round);
    if (round < 0 || slot.round != round || slot.payload.words < 0) {
      *present = false;
      return {};
    }
    *present = true;
    return {words_.data() + slot.payload.offset,
            static_cast<std::size_t>(slot.payload.words)};
  }

  std::int64_t dropped() const { return dropped_; }
  std::int64_t duplicated() const { return duplicated_; }
  /// Max over delivered pulses of (arrival - send - 1): the worst latency
  /// in excess of the synchronous network's exactly-one-tick delivery.
  std::int64_t max_skew() const { return max_skew_; }
  /// Capacity held by the payload arena, the edge windows, the queue, the
  /// edge streams and the outbox.
  std::int64_t arena_bytes() const;

 private:
  /// A delivered pulse of one round (round < 0: empty).
  struct Slot {
    std::int64_t round = -1;
    Span payload;
  };
  /// Receiver-side state of one directed edge: the contiguous delivered
  /// prefix (rounds 0..prefix-1 have all landed), the sender's last round
  /// once its final pulse landed (-1 before), and the window.
  struct EdgeState {
    std::int64_t prefix = 0;
    std::int64_t final_round = -1;
    std::array<Slot, kRoundWindow> slots;

    /// The slot `round` maps to (it holds `round` only if its tag says so).
    const Slot& slot(std::int64_t round) const {
      return slots[static_cast<std::size_t>(round & (kRoundWindow - 1))];
    }
    Slot& slot(std::int64_t round) {
      return slots[static_cast<std::size_t>(round & (kRoundWindow - 1))];
    }
  };

  std::int64_t draw_delay(std::int64_t edge);
  void transmit(std::int64_t edge, NodeId receiver, std::int64_t round,
                std::int64_t now, Span payload, bool final_round);
  void land(EdgeState& state, const DeliveryEvent& event);

  const CsrGraph* csr_ = nullptr;
  NetworkOptions opts_;
  std::int64_t retransmit_after_ = 0;

  std::vector<Rng> edge_rngs_;
  std::vector<std::int64_t> edge_base_;  // kWeighted per-edge latency
  std::vector<char> crashed_;
  std::vector<std::int64_t> wake_extra_;

  // Per receiver: its next local round (the window guard's reference) and
  // whether it still reads (neither crashed nor finished).
  std::vector<std::int64_t> next_round_;
  std::vector<char> reading_;

  std::vector<EdgeState> edges_;
  // Payload words of every pulse sent this run (grow-only).
  std::vector<std::int64_t> words_;

  DeliveryQueue queue_;

  // Per-step staging (outbox): spans per port into outbox_words_, flushed
  // and cleared by flush_node.
  std::vector<Span> outbox_;
  std::vector<std::int64_t> outbox_words_;

  std::int64_t dropped_ = 0;
  std::int64_t duplicated_ = 0;
  std::int64_t max_skew_ = 0;
};

}  // namespace unilocal
