#include "src/protocols/neighbor_graph.hpp"

#include <algorithm>
#include <bit>
#include <iterator>

#include "src/common/bitkernels.hpp"
#include "src/common/workspace.hpp"

namespace colscore {

namespace {

/// Rows per tile: two tiles of z-rows should sit comfortably in L1/L2 while
/// the pair sweep runs, so the inner loop streams words instead of DRAM.
std::size_t tile_rows(std::size_t n, std::size_t row_bytes) {
  constexpr std::size_t kTileBytes = 32 * 1024;
  const std::size_t rows = kTileBytes / std::max<std::size_t>(1, row_bytes);
  return std::clamp<std::size_t>(rows, 8, std::max<std::size_t>(8, n));
}

/// Builds the CSR arrays: edge iff hamming(z[p], z[q]) <= threshold, among
/// alive players only (departed players get empty lists). The tile sweep
/// runs under `policy`; scratch comes from the calling worker's workspace
/// (nb_ group).
void build_csr_neighbors(std::span<const ConstBitRow> z, std::size_t threshold,
                         const ExecPolicy& policy, const BitVector& alive,
                         std::vector<std::uint32_t>& offsets,
                         std::vector<std::uint32_t>& nbrs) {
  const std::size_t n = z.size();
  offsets.assign(n + 1, 0);
  nbrs.clear();
  if (n < 2) return;
  const bool masked = alive.popcount() != n;
  const std::size_t dim_words = bitkernel::word_count(z[0].size());
  const std::size_t tile = tile_rows(n, dim_words * sizeof(std::uint64_t));
  const std::size_t n_tiles = (n + tile - 1) / tile;

  // Upper-triangle pass, one task per p-tile, scanning the q-rows tile by
  // tile so both tiles stay cache-resident. Each task appends (p, q) edges
  // to its own tile list: the list content depends only on the tile index,
  // never on the thread schedule.
  RunWorkspace& ws = policy.workspace();
  ws.nb_tile_edges.resize(std::max(ws.nb_tile_edges.size(), n_tiles));
  policy.par_for(0, n_tiles, [&, threshold](std::size_t ti) {
    auto& edges = ws.nb_tile_edges[ti];
    edges.clear();
    const std::size_t p_begin = ti * tile;
    const std::size_t p_end = std::min(n, p_begin + tile);
    for (std::size_t tj = ti; tj < n_tiles; ++tj) {
      const std::size_t q_tile_begin = tj * tile;
      const std::size_t q_tile_end = std::min(n, q_tile_begin + tile);
      for (std::size_t p = p_begin; p < p_end; ++p) {
        if (masked && !alive.get(p)) continue;
        const ConstBitRow zp = z[p];
        for (std::size_t q = std::max(q_tile_begin, p + 1); q < q_tile_end; ++q) {
          if (masked && !alive.get(q)) continue;
          if (!zp.hamming_exceeds(z[q], threshold))
            edges.emplace_back(static_cast<std::uint32_t>(p),
                               static_cast<std::uint32_t>(q));
        }
      }
    }
  });

  // counts -> offsets -> scatter, all sequential. Walking the tile lists in
  // tile order yields each row's neighbors fully ascending: within a tile
  // list the (tj, p, q) loop order puts a row's mirror entries (p' < r,
  // appended while the middle loop sits at p' < r) before its forward
  // entries (q > r, appended at p = r in ascending q), and earlier tiles
  // only contribute smaller p'.
  ws.nb_degree.assign(n, 0);
  std::size_t total = 0;
  for (std::size_t ti = 0; ti < n_tiles; ++ti) {
    for (const auto& [p, q] : ws.nb_tile_edges[ti]) {
      ++ws.nb_degree[p];
      ++ws.nb_degree[q];
    }
    total += 2 * ws.nb_tile_edges[ti].size();
  }
  CS_ASSERT(total <= static_cast<std::size_t>(UINT32_MAX),
            "csr: adjacency exceeds uint32 index space");
  for (std::size_t p = 0; p < n; ++p)
    offsets[p + 1] = offsets[p] + ws.nb_degree[p];

  nbrs.resize(total);
  ws.nb_cursor.assign(offsets.begin(), offsets.end() - 1);
  for (std::size_t ti = 0; ti < n_tiles; ++ti) {
    for (const auto& [p, q] : ws.nb_tile_edges[ti]) {
      nbrs[ws.nb_cursor[p]++] = q;
      nbrs[ws.nb_cursor[q]++] = p;
    }
  }
}

}  // namespace

NeighborGraph::NeighborGraph(std::span<const ConstBitRow> z,
                             std::size_t threshold, const ExecPolicy& policy,
                             const BitVector* alive)
    : n_(z.size()),
      threshold_(threshold),
      alive_(alive != nullptr ? *alive : BitVector(z.size(), true)) {
  CS_ASSERT(alive == nullptr || alive->size() == n_,
            "NeighborGraph: alive mask size mismatch");
  alive_count_ = alive_.popcount();
  build_csr_neighbors(z, threshold_, policy, alive_, offsets_, nbrs_);
}

NeighborGraph::NeighborGraph(const BitMatrix& z, std::size_t threshold,
                             const ExecPolicy& policy)
    : NeighborGraph(z.row_views(), threshold, policy) {}

NeighborGraph::NeighborGraph(std::span<const BitVector> z, std::size_t threshold,
                             const ExecPolicy& policy)
    : NeighborGraph(std::vector<ConstBitRow>(z.begin(), z.end()), threshold,
                    policy) {}

bool NeighborGraph::has_edge(PlayerId p, PlayerId q) const {
  const std::span<const std::uint32_t> nb = neighbors(p);
  return std::binary_search(nb.begin(), nb.end(), q);
}

GraphDelta NeighborGraph::apply_updates(std::span<const RowUpdate> updates,
                                        std::span<const ConstBitRow> z,
                                        const ExecPolicy& policy) {
  CS_ASSERT(z.size() == n_, "apply_updates: z row count mismatch");
  GraphDelta delta;
  const std::size_t k = updates.size();
  if (k == 0) return delta;

  // Pass 0 (serial): validate the batch and apply the alive transitions.
  // The batch is atomic: every distance below is evaluated against the
  // post-epoch rows and post-epoch alive set.
  if (scratch_.updated.size() != n_) scratch_.updated = BitVector(n_);
  else scratch_.updated.fill(false);
  scratch_.update_index.resize(n_);
  for (std::size_t i = 0; i < k; ++i) {
    const RowUpdate& u = updates[i];
    CS_ASSERT(u.player < n_, "apply_updates: player id out of range");
    CS_ASSERT(!scratch_.updated.get(u.player),
              "apply_updates: player appears twice in one batch");
    scratch_.updated.set(u.player, true);
    scratch_.update_index[u.player] = static_cast<std::uint32_t>(i);
    switch (u.kind) {
      case UpdateKind::kFlip:
        CS_ASSERT(alive_.get(u.player), "apply_updates: flip of a departed player");
        break;
      case UpdateKind::kArrive:
        CS_ASSERT(!alive_.get(u.player),
                  "apply_updates: arrival of a player already present");
        alive_.set(u.player, true);
        ++alive_count_;
        break;
      case UpdateKind::kDepart:
        CS_ASSERT(alive_.get(u.player),
                  "apply_updates: departure of a player not present");
        alive_.set(u.player, false);
        --alive_count_;
        break;
    }
  }

  // Rebuild fallback: past ~n/8 changed rows the per-row sweeps and list
  // splicing cost more than the tiled full build they replace (the tiled
  // sweep halves the pair work via symmetry and streams cache-resident
  // tiles).
  if (k * 8 >= n_) {
    const std::size_t old_edges = nbrs_.size() / 2;
    build_csr_neighbors(z, threshold_, policy, alive_, offsets_, nbrs_);
    const std::size_t new_edges = nbrs_.size() / 2;
    delta.rebuilt = true;
    delta.edges_added = new_edges > old_edges ? new_edges - old_edges : 0;
    delta.edges_removed = old_edges > new_edges ? old_edges - new_edges : 0;
    return delta;
  }

  // Phase 1 (parallel, read-only): each updated row's post-epoch neighbor
  // list, swept against the alive set with the dispatched early-exit kernel.
  // Deterministic: list i depends only on (z, alive, threshold), never on
  // the schedule; update-vs-update pairs agree by Hamming symmetry.
  if (scratch_.new_lists.size() < k) scratch_.new_lists.resize(k);
  policy.par_for(0, k, [&](std::size_t i) {
    std::vector<std::uint32_t>& nb = scratch_.new_lists[i];
    nb.clear();
    if (updates[i].kind == UpdateKind::kDepart) return;
    const PlayerId p = updates[i].player;
    const ConstBitRow zp = z[p];
    const std::span<const std::uint64_t> aw = alive_.words();
    for (std::size_t w = 0; w < aw.size(); ++w) {
      std::uint64_t x = aw[w];
      while (x != 0) {
        const std::size_t q =
            w * bitkernel::kWordBits + static_cast<std::size_t>(std::countr_zero(x));
        x &= x - 1;
        if (q == p) continue;
        if (!zp.hamming_exceeds(z[q], threshold_))
          nb.push_back(static_cast<std::uint32_t>(q));
      }
    }
  });

  // Phase 2 (serial): per-update sorted diffs against the current (pre-epoch)
  // lists drive the post-epoch degrees, the edge-churn counters, and the
  // spillover add/del streams for rows that were not updated themselves. A
  // pair with both endpoints updated shows up in both diffs; it is counted
  // once (from the lower id). The arrays are not touched until phase 3, so
  // every diff reads pre-epoch state.
  std::vector<std::uint32_t>& degrees = scratch_.degrees;
  degrees.resize(n_);
  for (std::size_t p = 0; p < n_; ++p) degrees[p] = offsets_[p + 1] - offsets_[p];
  scratch_.adds.clear();
  scratch_.dels.clear();
  for (std::size_t i = 0; i < k; ++i) {
    const PlayerId p = updates[i].player;
    const std::span<const std::uint32_t> olds = neighbors(p);
    const std::vector<std::uint32_t>& news = scratch_.new_lists[i];
    scratch_.added.clear();
    scratch_.removed.clear();
    std::set_difference(news.begin(), news.end(), olds.begin(), olds.end(),
                        std::back_inserter(scratch_.added));
    std::set_difference(olds.begin(), olds.end(), news.begin(), news.end(),
                        std::back_inserter(scratch_.removed));
    for (const std::uint32_t q : scratch_.removed) {
      if (!scratch_.updated.get(q)) {
        --degrees[q];
        ++delta.edges_removed;
        scratch_.dels.emplace_back(q, static_cast<std::uint32_t>(p));
      } else if (q > p) {
        ++delta.edges_removed;
      }
    }
    for (const std::uint32_t q : scratch_.added) {
      if (!scratch_.updated.get(q)) {
        ++degrees[q];
        ++delta.edges_added;
        scratch_.adds.emplace_back(q, static_cast<std::uint32_t>(p));
      } else if (q > p) {
        ++delta.edges_added;
      }
    }
    degrees[p] = static_cast<std::uint32_t>(news.size());
  }

  // Phase 3: delta-aware counts -> offsets -> flat splice. Updated rows take
  // their fresh lists verbatim; rows with spillover deltas merge their old
  // list against the sorted add/del streams; untouched rows copy their old
  // range unchanged. O(n + total edges) with no re-sorting — the inputs are
  // already ascending.
  std::sort(scratch_.adds.begin(), scratch_.adds.end());
  std::sort(scratch_.dels.begin(), scratch_.dels.end());
  const auto& adds = scratch_.adds;
  const auto& dels = scratch_.dels;
  std::vector<std::uint32_t>& offsets = scratch_.offsets;
  std::vector<std::uint32_t>& nbrs = scratch_.nbrs;
  offsets.assign(n_ + 1, 0);
  std::size_t total = 0;
  for (std::size_t p = 0; p < n_; ++p) {
    total += degrees[p];
    offsets[p + 1] = static_cast<std::uint32_t>(total);
  }
  CS_ASSERT(total <= static_cast<std::size_t>(UINT32_MAX),
            "csr: adjacency exceeds uint32 index space");
  nbrs.resize(total);
  std::size_t ai = 0;  // cursor into adds
  std::size_t di = 0;  // cursor into dels
  for (std::size_t p = 0; p < n_; ++p) {
    std::uint32_t* out = nbrs.data() + offsets[p];
    if (scratch_.updated.get(p)) {
      const std::vector<std::uint32_t>& news =
          scratch_.new_lists[scratch_.update_index[p]];
      std::copy(news.begin(), news.end(), out);
      // Spillover streams never name updated rows; no cursor advance here.
      continue;
    }
    const std::span<const std::uint32_t> olds = neighbors(p);
    const bool has_adds = ai < adds.size() && adds[ai].first == p;
    const bool has_dels = di < dels.size() && dels[di].first == p;
    if (!has_adds && !has_dels) {
      std::copy(olds.begin(), olds.end(), out);
      continue;
    }
    std::size_t oi = 0;
    while (oi < olds.size() || (ai < adds.size() && adds[ai].first == p)) {
      const bool take_add = ai < adds.size() && adds[ai].first == p &&
                            (oi == olds.size() || adds[ai].second < olds[oi]);
      if (take_add) {
        *out++ = adds[ai++].second;
        continue;
      }
      const std::uint32_t q = olds[oi++];
      if (di < dels.size() && dels[di].first == p && dels[di].second == q) {
        ++di;
        continue;
      }
      *out++ = q;
    }
    CS_ASSERT(out == nbrs.data() + offsets[p + 1],
              "csr splice: merged row length disagrees with its degree");
  }
  offsets_.swap(offsets);
  nbrs_.swap(nbrs);
  return delta;
}

std::size_t Clustering::min_cluster_size() const {
  if (clusters.empty()) return 0;
  std::size_t best = clusters.front().size();
  for (const auto& c : clusters) best = std::min(best, c.size());
  return best;
}

std::size_t Clustering::max_cluster_size() const {
  std::size_t best = 0;
  for (const auto& c : clusters) best = std::max(best, c.size());
  return best;
}

Clustering cluster_players(const NeighborGraph& graph, std::size_t min_cluster) {
  const std::size_t n = graph.size();
  CS_ASSERT(min_cluster >= 1, "cluster_players: min_cluster >= 1");
  Clustering out;
  out.cluster_of.assign(n, Clustering::kNoClusterAssigned);

  BitVector alive(n, true);
  // deg[p] = |neighbors(p) ∩ alive|, maintained incrementally as members are
  // absorbed (the previous formulation rescanned an O(n/64)-word popcount —
  // and allocated a temp vector — per candidate per round).
  std::vector<std::size_t> deg(n);
  for (PlayerId p = 0; p < n; ++p) deg[p] = graph.degree(p);

  /// Alive neighbours of p, ascending.
  const auto for_alive_neighbors = [&](PlayerId p, auto&& fn) {
    for (const std::uint32_t q : graph.neighbors(p))
      if (alive.get(q)) fn(static_cast<PlayerId>(q));
  };

  // Peeling pass: pick the max-alive-degree player with degree >=
  // min_cluster - 1, absorb its alive neighbourhood.
  for (;;) {
    PlayerId best = kInvalidPlayer;
    std::size_t best_deg = 0;
    for (PlayerId p = 0; p < n; ++p) {
      if (!alive.get(p)) continue;
      if (deg[p] + 1 >= min_cluster && (best == kInvalidPlayer || deg[p] > best_deg)) {
        best = p;
        best_deg = deg[p];
      }
    }
    if (best == kInvalidPlayer) break;

    const auto cluster_id = static_cast<std::uint32_t>(out.clusters.size());
    std::vector<PlayerId> members;
    members.push_back(best);
    for_alive_neighbors(best, [&](PlayerId q) {
      if (q != best) members.push_back(q);
    });
    for (PlayerId q : members) {
      alive.set(q, false);
      out.cluster_of[q] = cluster_id;
    }
    // Every surviving neighbour of an absorbed member loses one alive-degree
    // per absorbed member it was adjacent to (edge symmetry makes this the
    // exact delta of |row(q) & alive|).
    for (PlayerId m : members)
      for_alive_neighbors(m, [&](PlayerId q) { --deg[q]; });
    out.clusters.push_back(std::move(members));
  }

  /// First neighbour of p (scanning ascending) that already has a cluster,
  /// or kNoClusterAssigned.
  const auto first_assigned_neighbor = [&](PlayerId p) -> std::uint32_t {
    for (const std::uint32_t q : graph.neighbors(p))
      if (out.cluster_of[q] != Clustering::kNoClusterAssigned)
        return out.cluster_of[q];
    return Clustering::kNoClusterAssigned;
  };

  // Leftover pass: attach each survivor to the cluster of any removed
  // neighbour (the paper's V'_j rule).
  std::uint32_t orphan_pool = Clustering::kNoClusterAssigned;
  for (PlayerId p = 0; p < n; ++p) {
    if (!alive.get(p)) continue;
    std::uint32_t target = first_assigned_neighbor(p);
    if (target == Clustering::kNoClusterAssigned) {
      // Orphan: the diameter guess was wrong for this player (it has no
      // n/B-sized D-neighbourhood — e.g. the random background players of
      // the Claim 2 instance). Orphans pool into their own residual cluster
      // rather than joining a real one: attaching them to the nearest seed
      // would pollute that cluster's votes with uncorrelated preferences.
      ++out.orphans;
      if (orphan_pool == Clustering::kNoClusterAssigned) {
        orphan_pool = static_cast<std::uint32_t>(out.clusters.size());
        out.clusters.push_back({});
      }
      target = orphan_pool;
    } else {
      ++out.leftovers;
    }
    alive.set(p, false);
    out.cluster_of[p] = target;
    out.clusters[target].push_back(p);
  }
  return out;
}

}  // namespace colscore
