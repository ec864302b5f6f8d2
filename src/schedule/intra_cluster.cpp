#include "schedule/intra_cluster.hpp"

#include <algorithm>
#include <cassert>

#include "schedule/decay.hpp"
#include "util/math.hpp"

namespace radiocast::schedule {

namespace {

using graph::NodeId;
using radio::Payload;

/// Nodes bucketed by tree depth, up to max_hops inclusive.
std::vector<std::vector<NodeId>> bucket_by_depth(const TreeSchedule& sched,
                                                 NodeId n,
                                                 std::uint32_t max_hops) {
  std::vector<std::vector<NodeId>> by_depth(
      static_cast<std::size_t>(max_hops) + 1);
  for (NodeId v = 0; v < n; ++v) {
    if (!sched.in_scope(v)) continue;
    const std::uint32_t d = sched.depth(v);
    if (d <= max_hops) by_depth[d].push_back(v);
  }
  return by_depth;
}

/// Shared scratch for one window run.
struct WindowScratch {
  std::vector<std::uint8_t> reached;
  std::vector<Payload> upval;
  std::vector<Payload> snap;              // centre snapshot (keyed by centre)
  std::vector<std::uint32_t> foreign_at;  // round stamp of foreign blocking
  std::vector<std::uint8_t> transmit;
  std::vector<Payload> payload;
  std::uint32_t round_stamp = 0;
};

}  // namespace

IcpStats run_icp_window(radio::Network& net, const TreeSchedule& sched,
                        std::vector<Payload>& best, const IcpParams& params,
                        util::Rng& rng) {
  const graph::Graph& g = net.topology();
  const NodeId n = g.node_count();
  IcpStats stats;
  const std::uint32_t ell = std::max<std::uint32_t>(1, params.pass_hops);
  const std::uint32_t span = std::min(ell, sched.max_depth());
  const auto by_depth = bucket_by_depth(sched, n, span);

  WindowScratch s;
  s.reached.assign(n, 0);
  s.upval.assign(n, radio::kNoPayload);
  s.snap.assign(n, radio::kNoPayload);
  s.foreign_at.assign(n, static_cast<std::uint32_t>(-1));
  s.transmit.assign(n, 0);
  s.payload.assign(n, radio::kNoPayload);

  DecayBackground bg(sched, params.seed);
  bg.rebind(sched, params.window_id);

  // Centre snapshots (Algorithm 3's "highest message known by the centre").
  for (NodeId v = 0; v < n; ++v) {
    if (sched.in_scope(v) && sched.center(v) == v) s.snap[v] = best[v];
  }

  auto interleave_background = [&]() {
    if (!params.with_background) return;
    stats.rescued += bg.step(net, best, s.reached, rng);
    ++stats.rounds;
  };

  const bool colored = sched.mode() == ScheduleMode::kColored;
  const std::uint32_t period = sched.period();

  // ---- Outward wave (passes 1 and 3) ------------------------------------
  auto outward = [&]() {
    std::fill(s.reached.begin(), s.reached.end(), std::uint8_t{0});
    for (NodeId v = 0; v < n; ++v) {
      if (sched.in_scope(v) && sched.center(v) == v &&
          best[v] != radio::kNoPayload) {
        s.reached[v] = 1;
      }
    }
    if (!colored) {
      // Pipelined: wave time t; depth-t reached nodes transmit, children
      // receive unless a foreign-cluster transmitter is in range (the
      // Lemma 4.2 risky failure). Intra-cluster interference is resolved
      // by the Lemma 2.3 schedule (DESIGN.md fidelity note 2).
      for (std::uint32_t t = 0; t < span; ++t) {
        ++s.round_stamp;
        for (NodeId u : by_depth[t]) {
          if (!s.reached[u]) continue;
          for (NodeId w : g.neighbors(u)) {
            if (!sched.in_scope(w) || sched.center(w) != sched.center(u)) {
              s.foreign_at[w] = s.round_stamp;
            }
          }
        }
        for (NodeId u : by_depth[t]) {
          if (!s.reached[u]) continue;
          for (NodeId v : sched.children(u)) {
            if (sched.depth(v) > span) continue;
            if (s.foreign_at[v] == s.round_stamp) {
              ++stats.blocked;
              continue;
            }
            if (!s.reached[v]) {
              s.reached[v] = 1;
              ++stats.deliveries;
            }
            if (best[v] == radio::kNoPayload || best[u] > best[v]) {
              best[v] = best[u];
            }
          }
        }
        ++stats.rounds;
        interleave_background();
      }
    } else {
      // Colored: fully physical. Reached nodes at depth <= span transmit
      // their best in their colour slot; all receptions resolved by the
      // medium's exact collision rule.
      for (std::uint32_t r = 0; r < span * period; ++r) {
        const std::uint32_t slot = r % period;
        std::fill(s.transmit.begin(), s.transmit.end(), std::uint8_t{0});
        for (NodeId v = 0; v < n; ++v) {
          if (s.reached[v] && sched.in_scope(v) && sched.depth(v) <= span &&
              sched.color(v) == slot && best[v] != radio::kNoPayload) {
            s.transmit[v] = 1;
            s.payload[v] = best[v];
          }
        }
        const radio::RoundOutcome out = net.step(s.transmit, s.payload);
        for (NodeId v = 0; v < n; ++v) {
          if (out.reception[v] != radio::Reception::kMessage) continue;
          const Payload got = out.received_payload[v];
          if (best[v] == radio::kNoPayload || got > best[v]) best[v] = got;
          // Same-cluster reached transmitter in range => v holds the wave.
          if (sched.in_scope(v) && !s.reached[v]) {
            for (NodeId u : g.neighbors(v)) {
              if (s.transmit[u] && sched.center(u) == sched.center(v)) {
                s.reached[v] = 1;
                ++stats.deliveries;
                break;
              }
            }
          }
        }
        ++stats.rounds;
        interleave_background();
      }
    }
  };

  // ---- Inward wave (pass 2) ---------------------------------------------
  auto inward = [&]() {
    for (NodeId v = 0; v < n; ++v) {
      s.upval[v] = radio::kNoPayload;
      if (!sched.in_scope(v) || sched.depth(v) > span) continue;
      const Payload csnap = s.snap[sched.center(v)];
      if (best[v] != radio::kNoPayload &&
          (csnap == radio::kNoPayload || best[v] > csnap)) {
        s.upval[v] = best[v];
      }
    }
    if (!colored) {
      for (std::uint32_t t = 0; t < span; ++t) {
        const std::uint32_t d = span - t;  // transmitting depth this round
        ++s.round_stamp;
        for (NodeId u : by_depth[d]) {
          if (s.upval[u] == radio::kNoPayload) continue;
          for (NodeId w : g.neighbors(u)) {
            if (!sched.in_scope(w) || sched.center(w) != sched.center(u)) {
              s.foreign_at[w] = s.round_stamp;
            }
          }
        }
        for (NodeId u : by_depth[d]) {
          if (s.upval[u] == radio::kNoPayload) continue;
          const NodeId p = sched.parent(u);
          if (p == u) continue;
          if (s.foreign_at[p] == s.round_stamp) {
            ++stats.blocked;
            continue;
          }
          if (s.upval[p] == radio::kNoPayload || s.upval[u] > s.upval[p]) {
            s.upval[p] = s.upval[u];
            ++stats.deliveries;
          }
        }
        ++stats.rounds;
        interleave_background();
      }
    } else {
      for (std::uint32_t r = 0; r < span * period; ++r) {
        const std::uint32_t slot = r % period;
        std::fill(s.transmit.begin(), s.transmit.end(), std::uint8_t{0});
        for (NodeId v = 0; v < n; ++v) {
          if (sched.in_scope(v) && sched.depth(v) <= span &&
              sched.depth(v) > 0 && s.upval[v] != radio::kNoPayload &&
              sched.color(v) == slot) {
            s.transmit[v] = 1;
            s.payload[v] = s.upval[v];
          }
        }
        const radio::RoundOutcome out = net.step(s.transmit, s.payload);
        for (NodeId v = 0; v < n; ++v) {
          if (out.reception[v] != radio::Reception::kMessage) continue;
          const Payload got = out.received_payload[v];
          if (best[v] == radio::kNoPayload || got > best[v]) best[v] = got;
          if (!sched.in_scope(v)) continue;
          // Accept the convergecast value from a same-cluster child-side
          // transmitter (the physical message carries the cluster id).
          for (NodeId u : g.neighbors(v)) {
            if (s.transmit[u] && sched.center(u) == sched.center(v) &&
                sched.depth(u) == sched.depth(v) + 1) {
              if (s.upval[v] == radio::kNoPayload || got > s.upval[v]) {
                s.upval[v] = got;
                ++stats.deliveries;
              }
              break;
            }
          }
        }
        ++stats.rounds;
        interleave_background();
      }
    }
    // Centres adopt the aggregated maximum.
    for (NodeId v = 0; v < n; ++v) {
      if (sched.in_scope(v) && sched.center(v) == v &&
          s.upval[v] != radio::kNoPayload) {
        if (best[v] == radio::kNoPayload || s.upval[v] > best[v]) {
          best[v] = s.upval[v];
        }
      }
    }
  };

  outward();
  inward();
  outward();
  return stats;
}

DecayBackground::DecayBackground(const TreeSchedule& sched, std::uint64_t seed)
    : sched_(&sched),
      seed_(seed),
      lambda_(decay_round_length(
          static_cast<std::uint32_t>(sched.partition().node_count()))) {}

void DecayBackground::rebind(const TreeSchedule& sched,
                             std::uint64_t window_id) {
  sched_ = &sched;
  window_id_ = window_id;
}

std::uint32_t DecayBackground::step(radio::Network& net,
                                    std::vector<Payload>& best,
                                    std::vector<std::uint8_t>& reached,
                                    util::Rng& rng) {
  const NodeId n = net.node_count();
  // Clock decomposition: epochs of lambda iterations, each iteration i
  // (1-based) being one Decay round of lambda steps, run by a cluster with
  // the coordinated probability 2^-i (Algorithm 4).
  const std::uint64_t iter_len = lambda_;
  const std::uint64_t epoch_len = static_cast<std::uint64_t>(lambda_) * lambda_;
  const std::uint64_t epoch = clock_ / epoch_len;
  const std::uint32_t i =
      static_cast<std::uint32_t>((clock_ % epoch_len) / iter_len) + 1;
  const std::uint32_t step_in_round =
      static_cast<std::uint32_t>(clock_ % iter_len) + 1;
  ++clock_;

  participate_scratch_.assign(n, 0);
  payload_scratch_.assign(n, radio::kNoPayload);
  const double coin_p = decay_probability(i);
  // Coordinated per-cluster coin: deterministic hash of
  // (seed, window, epoch, i, centre) -> [0,1).
  const std::uint64_t round_key =
      util::mix_seed(util::mix_seed(seed_, window_id_), epoch * 64 + i);
  for (NodeId v = 0; v < n; ++v) {
    if (!reached[v] || !sched_->in_scope(v)) continue;
    if (best[v] == radio::kNoPayload) continue;
    const std::uint64_t h = util::mix_seed(round_key, sched_->center(v));
    const double u01 =
        static_cast<double>(h >> 11) * 0x1.0p-53;  // 53-bit mantissa
    if (u01 >= coin_p) continue;
    participate_scratch_[v] = 1;
    payload_scratch_[v] = best[v];
  }
  const std::uint32_t delivered =
      decay_step(net, participate_scratch_, payload_scratch_, step_in_round,
                 best, rng, &from_scratch_);
  std::uint32_t rescued = 0;
  if (delivered > 0) {
    for (NodeId v = 0; v < n; ++v) {
      const NodeId u = from_scratch_[v];
      if (u == graph::kInvalidNode) continue;
      if (sched_->in_scope(v) && !reached[v] &&
          sched_->center(u) == sched_->center(v)) {
        reached[v] = 1;
        ++rescued;
      }
    }
  }
  return rescued;
}

}  // namespace radiocast::schedule
