// The 64-lane bitplane kernel (BitplaneMedium) and its one-slice backend
// (BitsliceMedium). One CSR traversal resolves a round for up to 64
// independent Monte-Carlo lanes.
//
// The kernel runs over one SLICE: a listener interval [lo, hi) plus the
// row segments of this round's transmitters that fall inside it. Per
// listener it keeps a two-word block [ one | two ] — the ">= 1 tx" /
// ">= 2 tx" saturation planes, updated with a bitwise saturating add
// (two |= one & m; one |= m). A round takes one of two shapes:
//
//   gather  — listener-centric (transmitters cover at least half of all
//             adjacency): each listener ORs its row's transmit masks in
//             registers (simd::gather_row) and is emitted at once
//   scatter — transmitter-centric: segments saturate into the planes,
//             then a drain emits and re-zeroes every touched listener
//             (dense slices scan the interval instead of keeping a
//             touched list)
//
// Emission writes the delivered/collided lane sets and, on a round that
// needs senders, recovers them right there: a row scan of the winning
// listener against the transmit masks (each won lane has exactly one
// transmitting neighbour), or — for a max-fold where the prologue proved
// every transmitter carries one payload value — a constant fold with no
// sender identification. A scatter also notes the last transmitter it saw
// at each listener; when that one transmits in every won lane it is their
// sender and the row scan is skipped (on one lane, always).
// Masks-only rounds recover nothing.
//
// BitsliceMedium runs the kernel inline as one slice whose segments are
// the transmitters' whole rows; ShardedMedium (radio/medium_sharded.hpp)
// runs it over many slices on a work-stealing pool.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "obs/metrics.hpp"
#include "radio/lane_counter.hpp"
#include "radio/medium.hpp"

namespace radiocast::radio {

class BitplaneMedium : public Medium {
 public:
  /// Single-instance rounds run through the batch kernel with one lane, so
  /// the facade path and the batch path exercise the same code.
  void resolve(std::span<const graph::NodeId> transmitters,
               std::span<const Payload> tx_payload,
               SparseOutcome& out) override;

  void resolve_batch(std::span<const std::uint64_t> tx_mask,
                     PayloadPlanes payload, int lanes, BatchOutcome& out,
                     bool with_senders = true) override;

  /// Fold path: every recovered (listener, lane, sender) max-combines the
  /// sender's payload straight into the best knowledge planes (any
  /// KnowledgePlanes layout) — no per-delivery records at all.
  void resolve_batch_max(std::span<const std::uint64_t> tx_mask,
                         PayloadPlanes payload, int lanes,
                         KnowledgePlanes best, BatchOutcome& out) override;

 protected:
  /// `round_histogram` names the metrics histogram of whole-round times.
  BitplaneMedium(const graph::Graph& g, CollisionModel model,
                 const char* round_histogram);

  /// One transmitter's row segment: row indices [begin, end) of u's
  /// adjacency.
  struct Segment {
    graph::NodeId u;
    std::uint32_t begin;
    std::uint32_t end;
  };

  /// What emission does with each won lane.
  enum class FoldMode : std::uint8_t { kMasksOnly, kSenders, kMaxFold };

  /// Resolves this round's slices into `out` once the shared prologue has
  /// filled the round context below and out.transmitter_count. Must leave
  /// every plane word zero again.
  virtual void run_round(BatchOutcome& out) = 0;

  /// Resolves one slice, appending to `out` and adding to its counts.
  /// Touches only planes and knowledge rows of listeners in
  /// [lo, hi), so disjoint slices may run concurrently. With `timers`, the
  /// scatter traversal and the drain are split into traverse_ns and
  /// output_ns; a gather slice counts as traverse.
  void run_slice(graph::NodeId lo, graph::NodeId hi,
                 std::span<const Segment> segments, std::uint64_t volume,
                 std::vector<graph::NodeId>& touched, BatchOutcome& out,
                 PhaseTimers* timers);

  // Round context: written by the prologue, read-only in run_round.
  const std::uint64_t* mask_ = nullptr;
  std::uint64_t live_ = 0;  // lane_mask(lanes)
  int lanes_ = 1;
  PayloadPlanes payload_{std::span<const Payload>{}};
  KnowledgePlanes best_{std::span<Payload>{}};
  FoldMode fold_ = FoldMode::kMasksOnly;
  bool const_fold_ = false;
  Payload const_value_ = kNoPayload;
  bool gather_ = false;
  std::uint64_t work_ = 0;  // sum of transmitter degrees
  // The round's transmitters as whole-row segments, in node order.
  std::vector<Segment> txsegs_;

 private:
  /// `listed`, when given, holds every node with a nonzero mask word in
  /// ascending order, so the prologue visits |T| nodes instead of n.
  void run_batch(std::span<const std::uint64_t> tx_mask, PayloadPlanes payload,
                 int lanes, BatchOutcome& out, FoldMode mode,
                 KnowledgePlanes best,
                 const std::vector<graph::NodeId>* listed = nullptr);
  template <bool kRecover>
  void run_slice_as(graph::NodeId lo, graph::NodeId hi,
                    std::span<const Segment> segments, std::uint64_t volume,
                    std::vector<graph::NodeId>& touched, BatchOutcome& out,
                    PhaseTimers* timers);
  /// Sender recovery for v's won lanes `win` (see the file comment).
  /// `last` is the last transmitter the scatter saw at v (kInvalidNode on
  /// gather rounds).
  void recover(graph::NodeId v, std::uint64_t win, graph::NodeId last,
               BatchOutcome& out) const;

  // Per-listener [one, two] blocks (2 * node_count words). Invariant
  // between rounds: all zero — a nonzero `one` marks the listener as
  // touched this round (transmit masks are never empty), so no epoch
  // stamps are needed; each drain re-zeroes exactly what it emitted.
  std::vector<std::uint64_t> planes_;
  // Last transmitter seen at each listener, written by scatters on rounds
  // that recover senders (allocated on the first such round).
  std::vector<graph::NodeId> last_tx_;
  LaneCounter tx_tally_;
  obs::Histogram& round_ns_;

  // Scratch for the single-instance resolve() adapter.
  std::vector<std::uint64_t> mask1_;
  std::vector<Payload> payload1_;
  std::vector<graph::NodeId> tx1_;  // mask1_'s set nodes, ascending
  BatchOutcome batch_out_;
};

class BitsliceMedium final : public BitplaneMedium {
 public:
  BitsliceMedium(const graph::Graph& g, CollisionModel model);

  std::string_view name() const override { return "bitslice"; }

 private:
  void run_round(BatchOutcome& out) override;

  std::vector<graph::NodeId> touched_;
};

}  // namespace radiocast::radio
