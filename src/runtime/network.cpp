#include "src/runtime/network.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <tuple>

namespace unilocal {

namespace {

/// A transmission lost this many consecutive times is abandoned — the
/// receiver stalls and the run ends at the cutoff instead of spinning. At
/// drop=0.05 abandonment has probability 0.05^64: never; it only bites at
/// adversarial drop rates.
constexpr int kMaxRetransmits = 64;

/// Stream-tag salts separating the network's RNG bases from each other and
/// from the per-node algorithm streams (which split Rng(seed) by identity).
constexpr std::uint64_t kEdgeStreamSalt = 0x6e6574776f726b31ULL;   // "network1"
constexpr std::uint64_t kFaultStreamSalt = 0x6e6574776f726b32ULL;  // "network2"

/// Heavy-tail level cap: delays span [1, 2^17).
constexpr int kHeavyTailMaxLevel = 16;

}  // namespace

const char* delay_preset_name(DelayPreset preset) {
  switch (preset) {
    case DelayPreset::kUniform:
      return "uniform";
    case DelayPreset::kWeighted:
      return "weighted";
    case DelayPreset::kHeavyTail:
      return "heavytail";
  }
  return "uniform";
}

std::string network_spec_name(const NetworkOptions& options) {
  if (options.kind == NetworkKind::kSynchronous) return "sync";
  return std::string("delay:") + delay_preset_name(options.preset);
}

NetworkOptions parse_network_spec(const std::string& spec) {
  NetworkOptions options;
  if (spec == "sync") return options;
  options.kind = NetworkKind::kDelayed;
  if (spec == "delay:uniform") {
    options.preset = DelayPreset::kUniform;
    return options;
  }
  if (spec == "delay:weighted") {
    options.preset = DelayPreset::kWeighted;
    return options;
  }
  if (spec == "delay:heavytail") {
    options.preset = DelayPreset::kHeavyTail;
    return options;
  }
  throw std::runtime_error(
      "unknown network model '" + spec +
      "' (expected sync, delay:uniform, delay:weighted, or delay:heavytail)");
}

void validate_network_options(const NetworkOptions& options) {
  const auto check_unit = [](const char* name, double value) {
    if (!(value >= 0.0) || !(value <= 1.0))
      throw std::runtime_error(std::string("NetworkOptions::") + name +
                               " must be in [0, 1]");
  };
  check_unit("drop", options.drop);
  check_unit("duplicate", options.duplicate);
  check_unit("crash", options.crash);
  check_unit("late", options.late);
  if (options.max_delay < 1)
    throw std::runtime_error("NetworkOptions::max_delay must be >= 1");
  if (options.late_by < 1)
    throw std::runtime_error("NetworkOptions::late_by must be >= 1");
}

// --- SynchronousNetwork ----------------------------------------------------

void SynchronousNetwork::begin_run(std::size_t slots, int threads) {
  if (!clean_ || send_slots_.size() != slots || recv_slots_.size() != slots) {
    send_slots_.assign(slots, Slot{});
    recv_slots_.assign(slots, Slot{});
  }
  clean_ = false;
  const std::size_t nthreads = static_cast<std::size_t>(threads);
  send_words_.resize(nthreads);
  recv_words_.resize(nthreads);
  for (auto& buf : recv_words_) buf.clear();
  send_dirty_.resize(nthreads);
  recv_dirty_.resize(nthreads);
  for (auto& dirty : send_dirty_) dirty.clear();
  for (auto& dirty : recv_dirty_) dirty.clear();
  send_bulk_ = recv_bulk_ = false;
  bulk_threshold_ = static_cast<std::int64_t>(slots) / 4;
  dirty_cleared_ = 0;
}

void SynchronousNetwork::begin_round(std::int64_t prev_round_messages) {
  // Reset the slots written two rounds ago (stale in the send half after
  // the end_round swaps) using the strategy they were written under.
  reset_half(send_slots_, send_dirty_, send_bulk_);
  send_bulk_ = prev_round_messages >= bulk_threshold_;
  for (auto& buf : send_words_) buf.clear();
}

void SynchronousNetwork::end_round() {
  std::swap(send_slots_, recv_slots_);
  std::swap(send_words_, recv_words_);
  std::swap(send_dirty_, recv_dirty_);
  std::swap(send_bulk_, recv_bulk_);
}

void SynchronousNetwork::end_run() {
  // Both halves still hold the last two rounds' slots, each reset under the
  // strategy it was written with.
  reset_half(send_slots_, send_dirty_, send_bulk_);
  reset_half(recv_slots_, recv_dirty_, recv_bulk_);
  send_bulk_ = recv_bulk_ = false;
  clean_ = true;
}

void SynchronousNetwork::reset_half(
    std::vector<Slot>& slots,
    std::vector<std::vector<std::int64_t>>& dirty_lists, bool bulk) {
  if (bulk) {
    for (Slot& s : slots) s.words = -1;
    for (auto& dirty : dirty_lists) dirty.clear();  // empty by invariant
    return;
  }
  for (auto& dirty : dirty_lists) {
    dirty_cleared_ += static_cast<std::int64_t>(dirty.size());
    for (const std::int64_t slot : dirty)
      slots[static_cast<std::size_t>(slot)].words = -1;
    dirty.clear();
  }
}

std::int64_t SynchronousNetwork::arena_bytes() const {
  std::int64_t bytes = 0;
  for (const auto& buf : send_words_)
    bytes += static_cast<std::int64_t>(buf.capacity()) * 8;
  for (const auto& buf : recv_words_)
    bytes += static_cast<std::int64_t>(buf.capacity()) * 8;
  for (const auto& dirty : send_dirty_)
    bytes += static_cast<std::int64_t>(dirty.capacity()) * 8;
  for (const auto& dirty : recv_dirty_)
    bytes += static_cast<std::int64_t>(dirty.capacity()) * 8;
  bytes += static_cast<std::int64_t>(
      (send_slots_.capacity() + recv_slots_.capacity()) * sizeof(Slot));
  return bytes;
}

// --- DeliveryQueue ---------------------------------------------------------

void DeliveryQueue::clear() {
  for (auto& bucket : buckets_) bucket.clear();
  occupied_ = 0;
  last_ = -1;
  size_ = 0;
  seq_ = 0;
}

std::size_t DeliveryQueue::bucket_of(std::int64_t time) const {
  // Times shifted by one so the "nothing popped yet" base of -1 is 0: the
  // highest bit in which a time differs from the base picks the bucket.
  const auto key = [](std::int64_t t) {
    return static_cast<std::uint64_t>(t) + 1;
  };
  return static_cast<std::size_t>(std::bit_width(key(time) ^ key(last_)));
}

void DeliveryQueue::place(const DeliveryEvent& event) {
  const std::size_t b = bucket_of(event.time);
  const std::uint64_t bit = std::uint64_t{1} << b;
  if ((occupied_ & bit) == 0 || event.time < min_time_[b])
    min_time_[b] = event.time;
  occupied_ |= bit;
  buckets_[b].push_back(event);
}

void DeliveryQueue::push(DeliveryEvent event) {
  if (event.time <= last_)
    throw std::logic_error(
        "DeliveryQueue: push at time " + std::to_string(event.time) +
        " is not later than the last pop at " + std::to_string(last_));
  event.seq = seq_++;
  place(event);
  ++size_;
}

void DeliveryQueue::refill() {
  // Bucket 0 is empty, so the lowest occupied bucket holds the earliest
  // events; its minimum becomes the new base and every event in it moves
  // to a lower bucket, the ones at the base itself to bucket 0.
  const std::size_t b = static_cast<std::size_t>(std::countr_zero(occupied_));
  last_ = min_time_[b];
  occupied_ &= ~(std::uint64_t{1} << b);
  std::vector<DeliveryEvent>& source = buckets_[b];
  for (const DeliveryEvent& event : source) place(event);
  source.clear();
  // Descending, so the least (edge, round, seq) pops off the back.
  std::sort(buckets_[0].begin(), buckets_[0].end(),
            [](const DeliveryEvent& a, const DeliveryEvent& b) {
              return std::tie(a.edge, a.round, a.seq) >
                     std::tie(b.edge, b.round, b.seq);
            });
}

DeliveryEvent DeliveryQueue::pop() {
  if ((occupied_ & 1) == 0) refill();
  std::vector<DeliveryEvent>& front = buckets_[0];
  const DeliveryEvent event = front.back();
  front.pop_back();
  if (front.empty()) occupied_ &= ~std::uint64_t{1};
  --size_;
  return event;
}

std::int64_t DeliveryQueue::capacity_bytes() const {
  std::int64_t bytes = 0;
  for (const auto& bucket : buckets_)
    bytes += static_cast<std::int64_t>(bucket.capacity() *
                                       sizeof(DeliveryEvent));
  return bytes;
}

// --- DelayedNetwork --------------------------------------------------------

void DelayedNetwork::begin_run(const CsrGraph& csr, std::uint64_t seed,
                               const NetworkOptions& options) {
  csr_ = &csr;
  opts_ = options;
  retransmit_after_ = 2 * opts_.max_delay;
  const std::size_t slots = static_cast<std::size_t>(csr.num_directed_edges());
  const std::size_t nn = static_cast<std::size_t>(csr.num_nodes());

  // One private stream per directed edge, consumed only at that edge's send
  // times — the draw sequence is a function of the sender's schedule alone.
  const Rng edge_base(splitmix64(seed ^ kEdgeStreamSalt));
  edge_rngs_.clear();
  edge_rngs_.reserve(slots);
  for (std::size_t e = 0; e < slots; ++e)
    edge_rngs_.push_back(edge_base.split(static_cast<std::uint64_t>(e)));
  if (opts_.preset == DelayPreset::kWeighted) {
    edge_base_.resize(slots);
    for (std::size_t e = 0; e < slots; ++e)
      edge_base_[e] = edge_rngs_[e].next_in(1, opts_.max_delay);
  }

  // Crash/late-joiner draws from one node-order pass over a dedicated
  // stream, so the fault sets depend only on (seed, n, knobs).
  crashed_.assign(nn, 0);
  wake_extra_.assign(nn, 0);
  if (opts_.crash > 0.0 || opts_.late > 0.0) {
    Rng fault_rng(splitmix64(seed ^ kFaultStreamSalt));
    for (std::size_t v = 0; v < nn; ++v) {
      crashed_[v] = fault_rng.next_bool(opts_.crash) ? 1 : 0;
      if (fault_rng.next_bool(opts_.late))
        wake_extra_[v] = fault_rng.next_in(1, opts_.late_by);
    }
  }

  next_round_.assign(nn, 0);
  reading_.resize(nn);
  for (std::size_t v = 0; v < nn; ++v) reading_[v] = crashed_[v] == 0;
  edges_.assign(slots, EdgeState{});
  words_.clear();
  queue_.clear();

  NodeId max_degree = 0;
  for (NodeId v = 0; v < csr.num_nodes(); ++v)
    max_degree = std::max(max_degree, csr.degree(v));
  outbox_.assign(static_cast<std::size_t>(max_degree), Span{});
  outbox_words_.clear();

  dropped_ = duplicated_ = 0;
  max_skew_ = 0;
}

std::int64_t DelayedNetwork::draw_delay(std::int64_t edge) {
  Rng& rng = edge_rngs_[static_cast<std::size_t>(edge)];
  switch (opts_.preset) {
    case DelayPreset::kUniform:
      return rng.next_in(1, opts_.max_delay);
    case DelayPreset::kWeighted:
      // The per-edge latency was drawn once in begin_run; transmissions on
      // this edge all take the same time (a "distance matrix").
      return edge_base_[static_cast<std::size_t>(edge)];
    case DelayPreset::kHeavyTail: {
      // Integer Pareto-like tail without libm (std::pow is not
      // bit-portable across libm builds): level t has probability
      // 2^-(t+1), the delay is uniform in [2^t, 2^(t+1)).
      const int level = std::min(std::countr_one(rng.next()),
                                 kHeavyTailMaxLevel);
      const std::int64_t lo = std::int64_t{1} << level;
      return lo + static_cast<std::int64_t>(
                      rng.next_below(static_cast<std::uint64_t>(lo)));
    }
  }
  return 1;
}

void DelayedNetwork::transmit(std::int64_t edge, NodeId receiver,
                              std::int64_t round, std::int64_t now,
                              Span payload, bool final_round) {
  std::int64_t delay = draw_delay(edge);
  if (opts_.drop >= 1.0) {
    // Degenerate knob: nothing is ever delivered; receivers stall and the
    // run drains cleanly instead of retrying forever.
    ++dropped_;
    return;
  }
  if (opts_.drop > 0.0) {
    Rng& rng = edge_rngs_[static_cast<std::size_t>(edge)];
    int attempts = 0;
    while (rng.next_bool(opts_.drop)) {
      ++dropped_;
      if (++attempts >= kMaxRetransmits) return;  // abandoned
      // Lost transmission: the sender retries after a timeout, so the pulse
      // arrives late rather than never (outputs stay those of the
      // synchronous run; only timestamps move).
      delay += retransmit_after_ + draw_delay(edge);
    }
  }
  DeliveryEvent event;
  event.time = now + delay;
  event.edge = edge;
  event.round = round;
  event.payload = payload;
  event.sent_at = now;
  event.receiver = receiver;
  event.final_round = final_round;
  queue_.push(event);
  if (opts_.duplicate > 0.0 &&
      edge_rngs_[static_cast<std::size_t>(edge)].next_bool(opts_.duplicate)) {
    ++duplicated_;
    event.time += draw_delay(edge);  // the copy lands strictly later
    queue_.push(event);
  }
}

void DelayedNetwork::stage(NodeId port, const std::int64_t* data,
                           std::size_t words) {
  Span& s = outbox_[static_cast<std::size_t>(port)];
  s.offset = static_cast<std::int64_t>(outbox_words_.size());
  s.words = static_cast<std::int64_t>(words);
  outbox_words_.insert(outbox_words_.end(), data, data + words);
}

DelayedNetwork::FlushDelta DelayedNetwork::flush_node(NodeId v,
                                                      std::int64_t round,
                                                      std::int64_t now,
                                                      bool sender_finished) {
  FlushDelta delta;
  const std::int64_t base = csr_->offset(v);
  const NodeId deg = csr_->degree(v);
  for (NodeId j = 0; j < deg; ++j) {
    Span payload = outbox_[static_cast<std::size_t>(j)];
    if (payload.words >= 0) {
      ++delta.messages;
      delta.max_words = std::max(delta.max_words, payload.words);
      // Persist the payload: outbox words only live until the next step,
      // delivery may be arbitrarily later.
      const std::int64_t offset = static_cast<std::int64_t>(words_.size());
      words_.insert(
          words_.end(), outbox_words_.begin() + payload.offset,
          outbox_words_.begin() + payload.offset + payload.words);
      payload.offset = offset;
      outbox_[static_cast<std::size_t>(j)] = Span{};
    }
    transmit(base + j, csr_->neighbor(v, j), round, now, payload,
             sender_finished);
  }
  outbox_words_.clear();
  next_round_[static_cast<std::size_t>(v)] = round + 1;
  if (sender_finished) reading_[static_cast<std::size_t>(v)] = 0;
  return delta;
}

bool DelayedNetwork::pop_delivery(Delivery* out) {
  if (queue_.empty()) return false;
  const DeliveryEvent event = queue_.pop();
  EdgeState& state = edges_[static_cast<std::size_t>(event.edge)];
  out->time = event.time;
  out->edge = event.edge;
  out->receiver = event.receiver;
  out->round = event.round;
  out->payload = event.payload.words >= 0;
  out->prefix_before = state.prefix;
  out->saturated_before = saturated(event.edge);
  max_skew_ = std::max(max_skew_, event.time - event.sent_at - 1);
  if (reading_[static_cast<std::size_t>(event.receiver)] != 0)
    land(state, event);
  out->prefix_after = state.prefix;
  out->saturated_after = saturated(event.edge);
  return true;
}

void DelayedNetwork::land(EdgeState& state, const DeliveryEvent& event) {
  const std::int64_t round = event.round;
  if (round < state.prefix) return;  // a duplicate of a delivered pulse
  const std::int64_t oldest =
      next_round_[static_cast<std::size_t>(event.receiver)] - 1;
  if (round < oldest || round >= oldest + kRoundWindow)
    throw std::logic_error(
        "DelayedNetwork: round " + std::to_string(round) + " on edge " +
        std::to_string(event.edge) + " is outside receiver " +
        std::to_string(event.receiver) + "'s window [" +
        std::to_string(oldest) + ", " +
        std::to_string(oldest + kRoundWindow) + ")");
  Slot& slot = state.slot(round);
  if (slot.round == round) return;  // a duplicate of an early arrival
  if (slot.round >= state.prefix)
    throw std::logic_error(
        "DelayedNetwork: round " + std::to_string(round) + " on edge " +
        std::to_string(event.edge) + " would overwrite arrived round " +
        std::to_string(slot.round) + " at or above the prefix " +
        std::to_string(state.prefix));
  slot.round = round;
  slot.payload = event.payload;
  if (event.final_round) state.final_round = round;
  while (state.slot(state.prefix).round == state.prefix) ++state.prefix;
}

std::int64_t DelayedNetwork::arena_bytes() const {
  std::int64_t bytes = 0;
  bytes += static_cast<std::int64_t>(words_.capacity()) * 8;
  bytes += static_cast<std::int64_t>(edges_.capacity() * sizeof(EdgeState));
  bytes += queue_.capacity_bytes();
  bytes += static_cast<std::int64_t>(edge_rngs_.capacity() * sizeof(Rng));
  bytes += static_cast<std::int64_t>(edge_base_.capacity()) * 8;
  bytes += static_cast<std::int64_t>(outbox_words_.capacity()) * 8;
  return bytes;
}

}  // namespace unilocal
