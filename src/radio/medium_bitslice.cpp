#include "radio/medium_bitslice.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "obs/trace.hpp"
#include "radio/simd.hpp"

namespace radiocast::radio {

BitplaneMedium::BitplaneMedium(const graph::Graph& g, CollisionModel model,
                               const char* round_histogram)
    : Medium(g, model),
      round_ns_(obs::Metrics::global().histogram(round_histogram)) {
  const auto n = g.node_count();
  planes_.assign(static_cast<std::size_t>(n) * 2, 0);
}

void BitplaneMedium::recover(graph::NodeId v, std::uint64_t win,
                             graph::NodeId last, BatchOutcome& out) const {
  // Max-folds one (listener, sender) group: prow is the sender's lane run
  // (stride pls; 0 for a lane-invariant or constant payload).
  auto fold = [&](const Payload* prow, std::size_t pls, std::uint64_t hit) {
    Payload* const brow = best_.row(v);
    const std::size_t bls = best_.lane_stride();
    do {
      const int lane = std::countr_zero(hit);
      Payload& b = brow[static_cast<std::size_t>(lane) * bls];
      const Payload p = prow[static_cast<std::size_t>(lane) * pls];
      if (b == kNoPayload || p > b) b = p;
      hit &= hit - 1;
    } while (hit != 0);
  };
  if (const_fold_) {
    fold(&const_value_, 0, win);
    return;
  }
  // Credits lanes `hit` to their sender u.
  const std::size_t pls = payload_.lane_stride();
  auto credit = [&](graph::NodeId u, std::uint64_t hit) {
    const Payload* const prow = payload_.row(u);
    if (fold_ == FoldMode::kMaxFold) {
      fold(prow, pls, hit);
      return;
    }
    do {
      const int lane = std::countr_zero(hit);
      out.deliveries.push_back({v, static_cast<std::uint8_t>(lane), u,
                                prow[static_cast<std::size_t>(lane) * pls]});
      hit &= hit - 1;
    } while (hit != 0);
  };
  // A transmitting neighbour that covers every won lane is their unique
  // sender: same deliveries, in the same order, as the row scan finds.
  // With one lane, a listener that won heard exactly one transmitter, so
  // the scatter's last one is it.
  if (last != graph::kInvalidNode &&
      (live_ == 1 || (win & ~mask_[last]) == 0)) {
    credit(last, win);
    return;
  }
  // Clearing row scan: each won lane's unique sender is the only
  // transmitting neighbour in it, so lanes clear as senders are found and
  // the row is left as soon as every won lane names its sender.
  for (const graph::NodeId u : graph_->neighbors(v)) {
    const std::uint64_t hit = win & mask_[u];
    if (hit == 0) continue;
    win &= ~hit;
    credit(u, hit);
    if (win == 0) break;
  }
}

void BitplaneMedium::run_slice(graph::NodeId lo, graph::NodeId hi,
                               std::span<const Segment> segments,
                               std::uint64_t volume,
                               std::vector<graph::NodeId>& touched,
                               BatchOutcome& out, PhaseTimers* timers) {
  // Masks-only rounds get their own instantiation, so the hot loops carry
  // no recovery call at all.
  if (fold_ == FoldMode::kMasksOnly) {
    run_slice_as<false>(lo, hi, segments, volume, touched, out, timers);
  } else {
    run_slice_as<true>(lo, hi, segments, volume, touched, out, timers);
  }
}

template <bool kRecover>
void BitplaneMedium::run_slice_as(graph::NodeId lo, graph::NodeId hi,
                                  std::span<const Segment> segments,
                                  std::uint64_t volume,
                                  std::vector<graph::NodeId>& touched,
                                  BatchOutcome& out, PhaseTimers* timers) {
  const std::uint64_t t0 = timers != nullptr ? now_ns() : 0;
  const std::uint64_t* const mask = mask_;
  const std::uint64_t live = live_;
  std::uint64_t* const planes = planes_.data();
  graph::NodeId* const last_tx = last_tx_.data();
  const bool detection = model_ == CollisionModel::kDetection;
  LaneCounter delivered;
  LaneCounter collided;
  std::uint32_t active = 0;
  // Emits one listener with saturation words (one, two): a lane delivers
  // iff exactly one neighbour transmitted and the listener was silent.
  // Every listener with a nonzero `one` passes through here exactly once
  // per round, so the call count IS the active set.
  auto emit = [&](graph::NodeId v, std::uint64_t one, std::uint64_t two,
                  graph::NodeId last) {
    ++active;
    const std::uint64_t not_tx = ~mask[v];
    const std::uint64_t win = one & ~two & not_tx;
    const std::uint64_t coll = two & not_tx & live;
    if (coll != 0) {
      if (detection) out.collisions.push_back({v, coll});
      collided.add(coll);
    }
    if (win == 0) return;
    out.delivered.push_back({v, win});
    delivered.add(win);
    if constexpr (kRecover) recover(v, win, last, out);
  };
  if (gather_) {
    // Accumulation in registers; the row a winning listener's senders are
    // recovered from was read one loop iteration ago, so it is L1-hot.
    for (graph::NodeId v = lo; v < hi; ++v) {
      std::uint64_t one = 0;
      std::uint64_t two = 0;
      const auto row = graph_->neighbors(v);
      simd::gather_row(row.data(), row.size(), mask, live, one, two);
      if (one != 0) emit(v, one, two, graph::kInvalidNode);
    }
    if (timers != nullptr) timers->traverse_ns += now_ns() - t0;
  } else {
    // Scatter: "one == 0" doubles as the untouched test. A dense slice
    // (segment volume at least half its listeners) drops even that
    // branch: its drain scans the whole interval anyway.
    const bool dense = 2 * volume >= hi - lo;
    auto scatter = [&]<bool kDense>() {
      for (const Segment& s : segments) {
        const std::uint64_t m = mask[s.u] & live;
        const graph::NodeId* const row = graph_->neighbors(s.u).data();
        for (std::uint32_t i = s.begin; i < s.end; ++i) {
          const graph::NodeId v = row[i];
          std::uint64_t* const blk = planes + 2 * static_cast<std::size_t>(v);
          if constexpr (!kDense) {
            if (blk[0] == 0) touched.push_back(v);
          }
          if constexpr (kRecover) last_tx[v] = s.u;
          blk[1] |= blk[0] & m;
          blk[0] |= m;
        }
      }
    };
    touched.clear();
    if (dense) {
      scatter.template operator()<true>();
    } else {
      scatter.template operator()<false>();
    }
    const std::uint64_t t1 = timers != nullptr ? now_ns() : 0;
    if (timers != nullptr) timers->traverse_ns += t1 - t0;

    // Drain: emit and re-zero (the next round's invariant) in one sweep.
    auto drain = [&](const graph::NodeId v, const graph::NodeId last) {
      std::uint64_t* const blk = planes + 2 * static_cast<std::size_t>(v);
      const std::uint64_t one = blk[0];
      const std::uint64_t two = blk[1];
      blk[0] = 0;
      blk[1] = 0;
      emit(v, one, two, last);
    };
    if (dense) {
      for (graph::NodeId v = lo; v < hi; ++v) {
        if (planes[2 * static_cast<std::size_t>(v)] != 0) {
          drain(v, kRecover ? last_tx[v] : graph::kInvalidNode);
        }
      }
    } else {
      for (const graph::NodeId v : touched) {
        drain(v, kRecover ? last_tx[v] : graph::kInvalidNode);
      }
    }
    if (timers != nullptr) timers->output_ns += now_ns() - t1;
  }
  delivered.extract(out.delivered_count, lanes_);
  collided.extract(out.collided_count, lanes_);
  out.active_listeners += active;
}

void BitplaneMedium::run_batch(std::span<const std::uint64_t> tx_mask,
                               PayloadPlanes payload, int lanes,
                               BatchOutcome& out, FoldMode mode,
                               KnowledgePlanes best,
                               const std::vector<graph::NodeId>* listed) {
  const graph::NodeId n = graph_->node_count();
  if (tx_mask.size() != n || payload.plane_size() != n) {
    throw std::invalid_argument(std::string(name()) + ": size mismatch");
  }
  if (lanes < 1 || lanes > kMaxLanes || lanes > payload.lane_capacity()) {
    throw std::invalid_argument(std::string(name()) +
                                ": lanes out of range");
  }
  const std::uint64_t live = radio::lane_mask(lanes);
  out.clear();
  tx_tally_.reset();
  if (mode != FoldMode::kMasksOnly && last_tx_.size() != n) {
    last_tx_.assign(n, graph::kInvalidNode);
  }

  const std::uint64_t t0 = now_ns();
  // Prologue: transmitter segments, per-lane tallies, and the
  // traversal-volume estimate that picks the gather/scatter shape. For a
  // lane-invariant max-fold it also checks whether every transmitter
  // carries one payload value — a fixed-value relay folds with no sender
  // identification at all. The check is gated on kAuto so kRowScan keeps
  // the row scan as the reference the shortcut is tested against.
  txsegs_.clear();
  std::uint64_t work = 0;
  bool const_plane = mode == FoldMode::kMaxFold && payload.lane_invariant() &&
                     recovery_ == RecoveryStrategy::kAuto;
  Payload const_value = kNoPayload;
  bool const_seen = false;
  auto visit = [&](const graph::NodeId u) {
    const std::uint64_t m = tx_mask[u] & live;
    if (m == 0) return;
    tx_tally_.add(m);
    const auto degree = static_cast<std::uint32_t>(graph_->degree(u));
    txsegs_.push_back({u, 0, degree});
    work += degree;
    if (const_plane) {
      const Payload p = payload.at(0, u);
      if (!const_seen) {
        const_value = p;
        const_seen = true;
      } else if (p != const_value) {
        const_plane = false;
      }
    }
  };
  if (listed != nullptr) {
    for (const graph::NodeId u : *listed) visit(u);
  } else {
    for (graph::NodeId u = 0; u < n; ++u) visit(u);
  }
  tx_tally_.extract(out.transmitter_count, lanes);
  timers_.traverse_ns += now_ns() - t0;

  mask_ = tx_mask.data();
  live_ = live;
  lanes_ = lanes;
  payload_ = payload;
  best_ = best;
  fold_ = mode;
  const_fold_ = const_plane;
  const_value_ = const_value;
  // Listener-centric gather once transmitters cover at least half of all
  // adjacency: it reads every row once (2m entries), the scatter reads
  // the transmitters' rows plus a drain.
  gather_ = work >= graph_->edge_count();
  work_ = work;
  run_round(out);

  timers_.active_listeners += out.active_listeners;
  if (mode != FoldMode::kMasksOnly) {
    if (const_plane) {
      ++timers_.constfold_rounds;
    } else {
      ++timers_.rowscan_rounds;
    }
  }
  ++timers_.rounds;
  round_ns_.record(now_ns() - t0);
}

void BitplaneMedium::resolve_batch(std::span<const std::uint64_t> tx_mask,
                                   PayloadPlanes payload, int lanes,
                                   BatchOutcome& out, bool with_senders) {
  run_batch(tx_mask, payload, lanes, out,
            with_senders ? FoldMode::kSenders : FoldMode::kMasksOnly,
            KnowledgePlanes(std::span<Payload>{}));
}

void BitplaneMedium::resolve_batch_max(std::span<const std::uint64_t> tx_mask,
                                       PayloadPlanes payload, int lanes,
                                       KnowledgePlanes best,
                                       BatchOutcome& out) {
  if (best.plane_size() < graph_->node_count() ||
      lanes > best.lane_capacity()) {
    throw std::invalid_argument(std::string(name()) +
                                "::resolve_batch_max: best too small");
  }
  run_batch(tx_mask, payload, lanes, out, FoldMode::kMaxFold, best);
}

void BitplaneMedium::resolve(std::span<const graph::NodeId> transmitters,
                             std::span<const Payload> tx_payload,
                             SparseOutcome& out) {
  if (transmitters.size() != tx_payload.size()) {
    throw std::invalid_argument(std::string(name()) +
                                "::resolve: size mismatch");
  }
  // Materialise a one-lane mask; cleared sparsely afterwards so repeated
  // rounds stay proportional to the transmitter set. Allocated on first
  // use: batch-only callers never pay for it.
  const graph::NodeId n = graph_->node_count();
  if (mask1_.size() != n) {
    mask1_.assign(n, 0);
    payload1_.assign(n, kNoPayload);
  }
  // The prologue walks the deduplicated list, not all n mask words, so a
  // sparse round costs O(|T| + sum of transmitter degrees).
  tx1_.clear();
  for (std::size_t i = 0; i < transmitters.size(); ++i) {
    const graph::NodeId u = transmitters[i];
    if (mask1_[u] != 0) continue;  // duplicate: first payload wins
    mask1_[u] = 1;
    payload1_[u] = tx_payload[i];
    tx1_.push_back(u);
  }
  // Node order, as a mask scan would visit them (callers usually pass
  // sorted lists, so this is one linear check).
  if (!std::is_sorted(tx1_.begin(), tx1_.end())) {
    std::sort(tx1_.begin(), tx1_.end());
  }
  run_batch(mask1_, payload1_, 1, batch_out_, FoldMode::kSenders,
            KnowledgePlanes(std::span<Payload>{}), &tx1_);
  for (const graph::NodeId u : tx1_) {
    // Clear the payload alongside the mask: a stale payload1_ entry must
    // never survive into a later round's plane view (pinned by the
    // repeated-round duplicate-transmitter regression test).
    mask1_[u] = 0;
    payload1_[u] = kNoPayload;
  }

  out.deliveries.clear();
  out.collided_nodes.clear();
  out.transmitter_count = batch_out_.transmitter_count[0];
  out.collided_count = batch_out_.collided_count[0];
  out.active_listeners = batch_out_.active_listeners;
  for (const auto& d : batch_out_.deliveries) {
    out.deliveries.push_back({d.node, d.from, d.payload});
  }
  for (const auto& c : batch_out_.collisions) {
    out.collided_nodes.push_back(c.node);
  }
}

BitsliceMedium::BitsliceMedium(const graph::Graph& g, CollisionModel model)
    : BitplaneMedium(g, model, "radio.bitslice.round_ns") {
  touched_.reserve(g.node_count());
}

void BitsliceMedium::run_round(BatchOutcome& out) {
  const obs::TraceSpan trace_span("bitslice.round", "lanes",
                                  static_cast<std::uint64_t>(lanes_), "work",
                                  work_);
  run_slice(0, graph_->node_count(), txsegs_, work_, touched_, out, &timers_);
}

}  // namespace radiocast::radio
