#include "core/propagation.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "schedule/decay.hpp"
#include "util/math.hpp"

namespace radiocast::core {

namespace {

/// Rearranges [first, last) so that, for every rank r in the ascending
/// list [r_lo, r_hi), position r - base holds the element a full sort by
/// `less` would put there. Costs O(n log(#ranks)) instead of a sort's
/// O(n log n).
template <typename It, typename Less>
void place_ranks(It first, It last, const std::uint32_t* r_lo,
                 const std::uint32_t* r_hi, std::uint32_t base,
                 const Less& less) {
  if (r_lo == r_hi) return;
  const std::uint32_t* mid = r_lo + (r_hi - r_lo) / 2;
  const It nth = first + (*mid - base);
  std::nth_element(first, nth, last, less);
  place_ranks(first, nth, r_lo, mid, base, less);
  place_ranks(nth + 1, last, mid + 1, r_hi, *mid + 1, less);
}

}  // namespace

PropagationEngine::PropagationEngine(const Config& cfg)
    : g_(cfg.graph),
      regions_(cfg.regions),
      scheds_(cfg.scheds),
      choose_(cfg.choose),
      icp_background_(cfg.icp_background),
      seed_(cfg.seed),
      net_(*cfg.graph),
      lambda_(schedule::decay_round_length(cfg.graph->node_count())) {
  if (g_ == nullptr || regions_ == nullptr || scheds_.empty() || !choose_) {
    throw std::invalid_argument("PropagationEngine: incomplete config");
  }
  for (std::size_t s = 1; s < scheds_.size(); ++s) {
    if (scheds_[s]->mode() != scheds_[0]->mode()) {
      throw std::invalid_argument(
          "PropagationEngine: schedules must share one mode");
    }
  }
  const NodeId n = g_->node_count();
  reached_.assign(n, 0);
  upval_.assign(n, radio::kNoPayload);
  snap_.assign(n, radio::kNoPayload);
  blocked_at_.assign(n, 0);
  head_.assign(n, graph::kInvalidNode);
  next_.assign(n, graph::kInvalidNode);
  seq_.assign(n, 0);
  is_active_.assign(n, 0);

  build_region_structures();
  index_.resize(scheds_.size());
  for (std::size_t s = 0; s < scheds_.size(); ++s) build_sched_index(s);
  rstate_.assign(region_count_, RegionState{});
}

void PropagationEngine::build_region_structures() {
  const NodeId n = g_->node_count();
  const auto dense = regions_->dense_ids();
  region_count_ = static_cast<std::uint32_t>(dense.center_of_id.size());
  region_of_ = dense.id_of_node;
  region_center_ = dense.center_of_id;
  member_off_.assign(region_count_ + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (region_of_[v] != graph::kInvalidNode) ++member_off_[region_of_[v] + 1];
  }
  for (std::size_t i = 1; i < member_off_.size(); ++i) {
    member_off_[i] += member_off_[i - 1];
  }
  member_.resize(member_off_.back());
  std::vector<std::uint32_t> cursor(member_off_.begin(),
                                    member_off_.end() - 1);
  for (NodeId v = 0; v < n; ++v) {
    if (region_of_[v] != graph::kInvalidNode) member_[cursor[region_of_[v]]++] = v;
  }
}

void PropagationEngine::build_sched_index(std::size_t s) {
  const schedule::TreeSchedule& sched = *scheds_[s];
  SchedIndex& idx = index_[s];
  const NodeId n = g_->node_count();

  // Per region: max depth present.
  std::vector<std::uint32_t> max_depth(region_count_, 0);
  for (NodeId v = 0; v < n; ++v) {
    const std::uint32_t r = region_of_[v];
    if (r == graph::kInvalidNode || !sched.in_scope(v)) continue;
    max_depth[r] = std::max(max_depth[r], sched.depth(v));
  }
  idx.region_start.assign(region_count_ + 1, 0);
  idx.depth_start.assign(region_count_ + 1, 0);
  for (std::uint32_t r = 0; r < region_count_; ++r) {
    idx.depth_start[r + 1] = idx.depth_start[r] + max_depth[r] + 2;
  }
  idx.off.assign(idx.depth_start.back(), 0);

  // Counting sort members of each region by depth.
  for (NodeId v = 0; v < n; ++v) {
    const std::uint32_t r = region_of_[v];
    if (r == graph::kInvalidNode || !sched.in_scope(v)) continue;
    ++idx.region_start[r + 1];
    ++idx.off[idx.depth_start[r] + sched.depth(v) + 1];
  }
  for (std::uint32_t r = 0; r < region_count_; ++r) {
    idx.region_start[r + 1] += idx.region_start[r];
    const std::uint32_t base = idx.depth_start[r];
    const std::uint32_t levels = max_depth[r] + 1;
    for (std::uint32_t d = 0; d < levels; ++d) {
      idx.off[base + d + 1] += idx.off[base + d];
    }
  }
  idx.nodes.resize(idx.region_start.back());
  std::vector<std::uint32_t> cursor(idx.off);  // copy as write cursors
  for (NodeId v = 0; v < n; ++v) {
    const std::uint32_t r = region_of_[v];
    if (r == graph::kInvalidNode || !sched.in_scope(v)) continue;
    const std::uint32_t slot =
        idx.region_start[r] + cursor[idx.depth_start[r] + sched.depth(v)]++;
    idx.nodes[slot] = v;
  }

  idx.boundary.assign((n + 63) / 64, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (region_of_[v] == graph::kInvalidNode || !sched.in_scope(v)) continue;
    const NodeId c = sched.center(v);
    for (NodeId w : g_->neighbors(v)) {
      if (sched.center(w) != c) {
        idx.boundary[v >> 6] |= std::uint64_t{1} << (v & 63);
        break;
      }
    }
  }
}

void PropagationEngine::mark_reached(NodeId v, NodeId center) {
  seq_[v] = take_seq();
  reached_[v] = 1;
  link(v, center);
}

void PropagationEngine::reset_reached(NodeId v, bool keep_center) {
  // Every list of a region is headed at one of its members (fine clusters
  // never span regions), so resetting all members empties them all. A
  // centre that restarts the wave stays reached and keeps its sequence
  // number, as the only member of its own list.
  head_[v] = graph::kInvalidNode;
  if (!keep_center) {
    reached_[v] = 0;
  } else if (reached_[v]) {
    link(v, v);
  } else {
    mark_reached(v, v);
  }
}

void PropagationEngine::link(NodeId v, NodeId center) {
  next_[v] = head_[center];
  head_[center] = v;
  if (!is_active_[center]) {
    is_active_[center] = 1;
    active_.push_back(center);
  }
}

std::uint32_t PropagationEngine::take_seq() {
  if (next_seq_ == std::numeric_limits<std::uint32_t>::max()) {
    // Out of sequence numbers: only their order among the reached nodes
    // matters, so renumber those 0..k-1.
    std::vector<NodeId> order;
    for (NodeId v = 0; v < reached_.size(); ++v) {
      if (reached_[v]) order.push_back(v);
    }
    std::sort(order.begin(), order.end(),
              [this](NodeId a, NodeId b) { return seq_[a] < seq_[b]; });
    for (std::uint32_t k = 0; k < order.size(); ++k) seq_[order[k]] = k;
    next_seq_ = static_cast<std::uint32_t>(order.size());
  }
  return next_seq_++;
}

void PropagationEngine::start_window(std::uint32_t region,
                                     const std::vector<Payload>& best) {
  RegionState& st = rstate_[region];
  st.choice = choose_(region_center_[region], st.seq_pos);
  if (st.choice.sched_index >= scheds_.size()) {
    throw std::out_of_range("PropagationEngine: choice.sched_index OOR");
  }
  st.span = std::max<std::uint32_t>(1, st.choice.pass_hops);
  const schedule::TreeSchedule& sched = *scheds_[st.choice.sched_index];
  st.pass_len = sched.mode() == schedule::ScheduleMode::kColored
                    ? st.span * sched.period()
                    : st.span;
  st.phase = Phase::kOutA;
  st.phase_round = 0;
  ++stats_.windows_started;
  begin_phase(region, Phase::kOutA, best);
}

void PropagationEngine::begin_phase(std::uint32_t region, Phase phase,
                                    const std::vector<Payload>& best) {
  RegionState& st = rstate_[region];
  const schedule::TreeSchedule& sched = *scheds_[st.choice.sched_index];
  const auto lo = member_off_[region], hi = member_off_[region + 1];
  switch (phase) {
    case Phase::kOutA:
      // Fresh window: reset wave state, snapshot centre values, seed the
      // wave at the centres (Algorithm 3 step 1).
      for (std::uint32_t i = lo; i < hi; ++i) {
        const NodeId v = member_[i];
        upval_[v] = radio::kNoPayload;
        const bool center = sched.center(v) == v;
        if (center) snap_[v] = best[v];
        reset_reached(v, center && best[v] != radio::kNoPayload);
      }
      break;
    case Phase::kInward:
      // Algorithm 3 step 2: nodes within the hop budget knowing something
      // higher than their centre's snapshot converge-cast it.
      for (std::uint32_t i = lo; i < hi; ++i) {
        const NodeId v = member_[i];
        upval_[v] = radio::kNoPayload;
        if (sched.depth(v) > st.span) continue;
        const Payload csnap = snap_[sched.center(v)];
        if (best[v] != radio::kNoPayload &&
            (csnap == radio::kNoPayload || best[v] > csnap)) {
          upval_[v] = best[v];
        }
      }
      break;
    case Phase::kOutC:
      // Algorithm 3 step 3: fresh outward wave with the updated centre
      // value.
      for (std::uint32_t i = lo; i < hi; ++i) {
        const NodeId v = member_[i];
        reset_reached(v,
                      sched.center(v) == v && best[v] != radio::kNoPayload);
      }
      break;
  }
}

void PropagationEngine::finish_inward(std::uint32_t region,
                                      Knowledge& know) {
  // Centres adopt the converge-cast maximum. Centres are exactly the
  // depth-0 bucket of this region's schedule index.
  const RegionState& st = rstate_[region];
  const SchedIndex& idx = index_[st.choice.sched_index];
  const std::uint32_t base = idx.depth_start[region];
  const std::uint32_t start = idx.region_start[region] + idx.off[base + 0];
  const std::uint32_t end = idx.region_start[region] + idx.off[base + 1];
  for (std::uint32_t i = start; i < end; ++i) {
    const NodeId c = idx.nodes[i];
    if (upval_[c] != radio::kNoPayload) know.learn(c, upval_[c]);
  }
}

void PropagationEngine::wave_round(Knowledge& know) {
  const std::vector<Payload>& best = know.best;
  if (++round_id_ == 0) {  // stamps wrapped: start them over
    std::fill(blocked_at_.begin(), blocked_at_.end(), 0);
    round_id_ = 1;
  }
  tx_nodes_.clear();
  tx_payload_.clear();
  const bool colored =
      scheds_[0]->mode() == schedule::ScheduleMode::kColored;

  // ---- collect transmitters ---------------------------------------------
  for (std::uint32_t r = 0; r < region_count_; ++r) {
    const RegionState& st = rstate_[r];
    const schedule::TreeSchedule& sched = *scheds_[st.choice.sched_index];
    const SchedIndex& idx = index_[st.choice.sched_index];
    const bool inward = st.phase == Phase::kInward;
    if (!colored) {
      // Outward wave time is the transmitting depth; the convergecast runs
      // the deepest curtailed layer first and depth 1 (never the centres)
      // last.
      const std::uint32_t d = inward ? st.span - st.phase_round
                                     : st.phase_round;
      if (d >= idx.levels(r)) continue;
      const std::uint32_t base = idx.depth_start[r];
      const std::uint32_t start = idx.region_start[r] + idx.off[base + d];
      const std::uint32_t end = idx.region_start[r] + idx.off[base + d + 1];
      for (std::uint32_t i = start; i < end; ++i) {
        const NodeId v = idx.nodes[i];
        if (inward) {
          if (upval_[v] != radio::kNoPayload) {
            tx_nodes_.push_back(v);
            tx_payload_.push_back(upval_[v]);
          }
        } else if (reached_[v] && best[v] != radio::kNoPayload) {
          tx_nodes_.push_back(v);
          tx_payload_.push_back(best[v]);
        }
      }
    } else {
      // Colored mode: reached / participating members transmit in their
      // colour slot; physical flooding, one hop per period.
      const std::uint32_t slot = st.phase_round % sched.period();
      for (std::uint32_t i = member_off_[r]; i < member_off_[r + 1]; ++i) {
        const NodeId v = member_[i];
        if (!sched.in_scope(v) || sched.depth(v) > st.span) continue;
        if (sched.color(v) != slot) continue;
        if (inward) {
          if (sched.depth(v) > 0 && upval_[v] != radio::kNoPayload) {
            tx_nodes_.push_back(v);
            tx_payload_.push_back(upval_[v]);
          }
        } else if (reached_[v] && best[v] != radio::kNoPayload) {
          tx_nodes_.push_back(v);
          tx_payload_.push_back(best[v]);
        }
      }
    }
  }

  if (!colored) {
    // ---- pipelined resolution: honest inter-cluster blocking -------------
    for (const NodeId u : tx_nodes_) {
      // Foreign to a neighbour w: a different fine cluster of u's schedule
      // (which also covers a different region: fine clusters never span
      // regions). Interior transmitters have no foreign neighbour.
      const std::uint32_t s = rstate_[region_of_[u]].choice.sched_index;
      if (!index_[s].on_boundary(u)) continue;
      const schedule::TreeSchedule& su = *scheds_[s];
      const NodeId cu = su.center(u);
      for (NodeId w : g_->neighbors(u)) {
        if (su.center(w) != cu) blocked_at_[w] = round_id_;
      }
    }
    for (std::size_t i = 0; i < tx_nodes_.size(); ++i) {
      const NodeId u = tx_nodes_[i];
      const std::uint32_t ru = region_of_[u];
      const RegionState& st = rstate_[ru];
      const schedule::TreeSchedule& sched = *scheds_[st.choice.sched_index];
      if (st.phase == Phase::kInward) {
        const NodeId p = sched.parent(u);
        if (p == u) continue;
        if (blocked_at_[p] == round_id_) {
          ++stats_.wave_blocked;
          continue;
        }
        if (upval_[p] == radio::kNoPayload || tx_payload_[i] > upval_[p]) {
          upval_[p] = tx_payload_[i];
        }
        ++stats_.wave_deliveries;
      } else {
        for (NodeId v : sched.children(u)) {
          if (sched.depth(v) > st.span) continue;
          if (blocked_at_[v] == round_id_) {
            ++stats_.wave_blocked;
            continue;
          }
          know.learn(v, tx_payload_[i]);
          if (!reached_[v]) {
            mark_reached(v, sched.center(v));
            ++stats_.wave_deliveries;
          }
        }
      }
    }
  } else {
    // ---- colored resolution: the physical medium decides ------------------
    net_.resolve(tx_nodes_, tx_payload_, sparse_out_);
    for (const auto& d : sparse_out_.deliveries) {
      const NodeId v = d.node;
      know.learn(v, d.payload);
      const std::uint32_t rv = region_of_[v];
      if (rv == graph::kInvalidNode || region_of_[d.from] != rv) continue;
      const RegionState& st = rstate_[rv];
      const schedule::TreeSchedule& sched = *scheds_[st.choice.sched_index];
      if (sched.center(d.from) != sched.center(v)) continue;
      if (st.phase == Phase::kInward) {
        if (sched.depth(d.from) == sched.depth(v) + 1 &&
            (upval_[v] == radio::kNoPayload || d.payload > upval_[v])) {
          upval_[v] = d.payload;
          ++stats_.wave_deliveries;
        }
      } else if (reached_[d.from] && !reached_[v]) {
        mark_reached(v, sched.center(v));
        ++stats_.wave_deliveries;
      }
    }
  }
  ++stats_.main_rounds;

  // ---- advance window clocks ---------------------------------------------
  for (std::uint32_t r = 0; r < region_count_; ++r) {
    RegionState& st = rstate_[r];
    if (++st.phase_round < st.pass_len) continue;
    st.phase_round = 0;
    switch (st.phase) {
      case Phase::kOutA:
        st.phase = Phase::kInward;
        begin_phase(r, Phase::kInward, best);
        break;
      case Phase::kInward:
        finish_inward(r, know);
        st.phase = Phase::kOutC;
        begin_phase(r, Phase::kOutC, best);
        break;
      case Phase::kOutC:
        ++st.seq_pos;
        start_window(r, best);
        break;
    }
  }
}

void PropagationEngine::background_round(Knowledge& know, util::Rng& rng) {
  const std::vector<Payload>& best = know.best;
  // Algorithm 4 clock: epochs of lambda iterations, iteration i being one
  // Decay round (lambda steps) run by each cluster independently with the
  // coordinated probability 2^-i.
  const std::uint64_t iter_len = lambda_;
  const std::uint64_t epoch_len =
      static_cast<std::uint64_t>(lambda_) * lambda_;
  const std::uint64_t epoch = bg_clock_ / epoch_len;
  const std::uint32_t i =
      static_cast<std::uint32_t>((bg_clock_ % epoch_len) / iter_len) + 1;
  const std::uint32_t step_in_round =
      static_cast<std::uint32_t>(bg_clock_ % iter_len) + 1;
  ++bg_clock_;

  tx_nodes_.clear();
  tx_payload_.clear();
  const double cluster_p = schedule::decay_probability(i);
  const double node_p = schedule::decay_probability(step_in_round);

  // Coordinated coin: one hash of (seed, epoch, i, centre) per cluster
  // holding reached nodes; emptied lists leave the active set here.
  const std::uint64_t round_key = util::mix_seed(seed_, epoch * 64 + i);
  std::size_t kept = 0;
  for (const NodeId c : active_) {
    if (head_[c] == graph::kInvalidNode) {
      is_active_[c] = 0;
      continue;
    }
    active_[kept++] = c;
    ++stats_.bg_coins;
    const std::uint64_t h = util::mix_seed(round_key, c);
    if (static_cast<double>(h >> 11) * 0x1.0p-53 >= cluster_p) continue;
    for (NodeId v = head_[c]; v != graph::kInvalidNode; v = next_[v]) {
      if (best[v] != radio::kNoPayload) tx_nodes_.push_back(v);
    }
  }
  active_.resize(kept);

  // Node coins of the passing clusters' members: the j-th coin drawn is
  // the j-th member's in the order they became reached. A coin does not
  // depend on whose it is, so draw them all first, then bring only the
  // winners' ranks into place; the winners transmit in that order.
  stats_.bg_candidates += tx_nodes_.size();
  wins_.clear();
  for (std::uint32_t j = 0; j < tx_nodes_.size(); ++j) {
    if (rng.bernoulli(node_p)) wins_.push_back(j);
  }
  place_ranks(tx_nodes_.begin(), tx_nodes_.end(), wins_.data(),
              wins_.data() + wins_.size(), 0,
              [this](NodeId a, NodeId b) { return seq_[a] < seq_[b]; });
  for (std::size_t k = 0; k < wins_.size(); ++k) {
    const NodeId v = tx_nodes_[wins_[k]];
    tx_nodes_[k] = v;
    tx_payload_.push_back(best[v]);
  }
  tx_nodes_.resize(wins_.size());

  if (!tx_nodes_.empty()) {
    net_.resolve(tx_nodes_, tx_payload_, sparse_out_);
    stats_.decay_deliveries += sparse_out_.deliveries.size();
    for (const auto& d : sparse_out_.deliveries) {
      const NodeId v = d.node;
      know.learn(v, d.payload);
      const std::uint32_t rv = region_of_[v];
      if (rv == graph::kInvalidNode || region_of_[d.from] != rv) continue;
      const schedule::TreeSchedule& sched =
          *scheds_[rstate_[rv].choice.sched_index];
      if (sched.center(d.from) != sched.center(v)) continue;
      // Same fine cluster: v now holds its cluster's message — the rescue
      // of Lemma 4.2 — and can also relay it up during inward passes.
      if (!reached_[v]) {
        mark_reached(v, sched.center(v));
        ++stats_.rescued;
      }
      if (upval_[v] == radio::kNoPayload || d.payload > upval_[v]) {
        upval_[v] = d.payload;
      }
    }
  }
  ++stats_.background_rounds;
}

void PropagationEngine::round(Knowledge& know, util::Rng& rng) {
  // With the background stream on, a Decay round follows each wave round.
  if (icp_background_ && stats_.background_rounds < stats_.main_rounds) {
    background_round(know, rng);
    return;
  }
  if (!started_) {
    started_ = true;
    for (std::uint32_t r = 0; r < region_count_; ++r) {
      start_window(r, know.best);
    }
  }
  wave_round(know);
}

PropagationStats run_icp_window(const graph::Graph& g,
                                const schedule::TreeSchedule& sched,
                                std::vector<Payload>& best,
                                const IcpParams& params, util::Rng& rng) {
  const std::uint32_t span = std::min(
      std::max<std::uint32_t>(1, params.pass_hops), sched.max_depth());
  if (span == 0) return {};  // every node is a centre: nothing moves
  // Nodes the schedule leaves out of scope stay out of the region too.
  cluster::Partition region = cluster::trivial_partition(g);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (!sched.in_scope(v)) region.center[v] = graph::kInvalidNode;
  }
  PropagationEngine::Config cfg;
  cfg.graph = &g;
  cfg.regions = &region;
  cfg.scheds = {&sched};
  cfg.choose = [span](NodeId, std::uint64_t) { return WindowChoice{0, span}; };
  cfg.icp_background = params.with_background;
  cfg.seed = util::mix_seed(params.seed, params.window_id);
  PropagationEngine engine(cfg);
  const std::uint32_t pass_len =
      sched.mode() == schedule::ScheduleMode::kColored ? span * sched.period()
                                                       : span;
  Knowledge know{std::move(best)};  // no winner: nothing to count
  const std::uint32_t streams = params.with_background ? 2 : 1;
  for (std::uint32_t r = 0; r < 3 * pass_len * streams; ++r) {
    engine.round(know, rng);
  }
  best = std::move(know.best);
  return engine.stats();
}

}  // namespace radiocast::core
