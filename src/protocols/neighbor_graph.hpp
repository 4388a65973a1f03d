// Neighbor graph and greedy clustering (Fig. 2 step 1.d; Lemmas 7-9).
//
// Players p, q share an edge when their estimated sample vectors z(p), z(q)
// are within the edge threshold. Clusters are peeled greedily: repeatedly
// take a player with >= min_cluster-1 surviving neighbours together with its
// whole neighbourhood; leftovers then attach to the cluster of any previously
// removed neighbour.
//
// Storage is CSR: per-player offsets into one flat, ascending neighbor
// array. It stores exactly the edges, so memory and every neighbor walk
// scale with the edge count, not with n^2 bits.
//
// Hot-path layout: construction computes each unordered pair {p, q} once,
// in cache-sized row tiles, with an early-exit Hamming kernel that abandons
// a pair as soon as its running distance crosses the threshold (far pairs —
// the common case — cost a handful of words instead of a full row scan).
// The kernel itself is SIMD-dispatched (src/common/simd.hpp). Each tile task
// appends its edges to a private list and a sequential scatter walks those
// lists in tile order, so every neighbor list comes out ascending with no
// sort and no dependence on the thread schedule.
#pragma once

#include <span>
#include <vector>

#include "src/common/assert.hpp"
#include "src/common/bitmatrix.hpp"
#include "src/common/bitvector.hpp"
#include "src/common/exec_policy.hpp"
#include "src/common/types.hpp"

namespace colscore {

// ---- Benchmark compatibility (names only; no behaviour) -------------------
// colbench/ still spells the storage-selection API the graph had while it
// kept a second, dense adjacency. These names stay so the benchmark keeps
// building unchanged; the next change to the benchmark deletes them. The
// backend argument of the constructors below is accepted and ignored,
// NeighborGraph::backend() always reports kCsr, and NeighborGraph::row()
// keeps its assert for CSR graphs. Nothing outside colbench/ may use them.
enum class GraphBackend { kAuto, kDense, kCsr };

inline const char* backend_name(GraphBackend backend) noexcept {
  switch (backend) {
    case GraphBackend::kAuto: return "auto";
    case GraphBackend::kDense: return "dense";
    case GraphBackend::kCsr: return "csr";
  }
  return "unknown";
}
// ---- end of benchmark compatibility ----------------------------------------

/// One streaming delta against a player's published row (PR 10). A batch of
/// these describes everything that happened in one churn epoch; the batch
/// applies atomically against the *post-epoch* row contents (the caller
/// mutates rows first, then reports which players changed).
enum class UpdateKind : std::uint8_t {
  kFlip,    ///< alive player's row content changed in place
  kArrive,  ///< previously departed player re-enters with its current row
  kDepart,  ///< alive player leaves; all its edges drop
};

struct RowUpdate {
  PlayerId player = 0;
  UpdateKind kind = UpdateKind::kFlip;
};

/// What one apply_updates() batch did to the edge set. Counts are unordered
/// edges. On a rebuild epoch (see apply_updates) the exact churn is unknown —
/// added/removed collapse to the net totals difference and `rebuilt` is set,
/// so callers must treat `rebuilt` as "assume everything may have changed".
struct GraphDelta {
  std::size_t edges_added = 0;
  std::size_t edges_removed = 0;
  bool rebuilt = false;

  std::size_t edges_changed() const noexcept {
    return edges_added + edges_removed;
  }
  /// True when downstream state derived from the edge set (clusterings,
  /// degree orderings) may differ from the previous epoch's.
  bool dirty() const noexcept { return rebuilt || edges_changed() != 0; }
};

class NeighborGraph {
 public:
  /// Builds the graph over the published sample vectors: edge iff
  /// hamming(z[p], z[q]) <= threshold. Each pair is computed once (symmetry)
  /// in row tiles; the per-pair kernel early-exits past the threshold. The
  /// tile sweep runs under `policy`. A non-null `alive` mask excludes
  /// departed players from the pair sweep (their rows keep zero edges until
  /// a kArrive update readmits them).
  NeighborGraph(std::span<const ConstBitRow> z, std::size_t threshold,
                const ExecPolicy& policy = ExecPolicy::process_default(),
                const BitVector* alive = nullptr);
  NeighborGraph(const BitMatrix& z, std::size_t threshold,
                const ExecPolicy& policy = ExecPolicy::process_default());
  NeighborGraph(std::span<const BitVector> z, std::size_t threshold,
                const ExecPolicy& policy = ExecPolicy::process_default());

  std::size_t size() const noexcept { return n_; }
  std::size_t threshold() const noexcept { return threshold_; }
  /// Binary search in the ascending neighbor list of p.
  bool has_edge(PlayerId p, PlayerId q) const;
  /// O(1): the length of p's neighbor list.
  std::size_t degree(PlayerId p) const { return offsets_[p + 1] - offsets_[p]; }
  /// Neighbours of p as an ascending id list.
  std::span<const std::uint32_t> neighbors(PlayerId p) const {
    return {nbrs_.data() + offsets_[p], nbrs_.data() + offsets_[p + 1]};
  }

  /// Present players (all-true unless built with a mask or updated with
  /// kArrive/kDepart). Departed players always have degree 0 and no edges.
  const BitVector& alive() const noexcept { return alive_; }
  bool is_alive(PlayerId p) const { return alive_.get(p); }
  std::size_t alive_count() const noexcept { return alive_count_; }

  /// Applies one epoch's batch of row deltas incrementally: O(k·n) distance
  /// work (k = batch size, each changed row swept against the alive set with
  /// the dispatched early-exit kernel) plus one O(n + edges) splice of the
  /// neighbor arrays — instead of the O(n²) full rebuild. `z` must be the
  /// same row family the graph was built over, already holding the
  /// post-epoch contents; each player may appear at most once per batch.
  ///
  /// Falls back to a full (alive-masked) rebuild when the batch covers
  /// >= 1/8 of the population — past that point the incremental bookkeeping
  /// costs more than the tiled sweep it avoids. Either path leaves the graph
  /// byte-identical to a fresh build over (z, alive): edge sets, degrees and
  /// downstream clusterings never depend on update history (fuzz-asserted by
  /// tests/test_stream.cpp).
  GraphDelta apply_updates(std::span<const RowUpdate> updates,
                           std::span<const ConstBitRow> z,
                           const ExecPolicy& policy = ExecPolicy::process_default());

  // ---- Benchmark compatibility (see GraphBackend above) --------------------
  NeighborGraph(std::span<const ConstBitRow> z, std::size_t threshold,
                GraphBackend /*ignored*/,
                const ExecPolicy& policy = ExecPolicy::process_default(),
                const BitVector* alive = nullptr)
      : NeighborGraph(z, threshold, policy, alive) {}
  NeighborGraph(const BitMatrix& z, std::size_t threshold,
                GraphBackend /*ignored*/,
                const ExecPolicy& policy = ExecPolicy::process_default())
      : NeighborGraph(z, threshold, policy) {}
  GraphBackend backend() const noexcept { return GraphBackend::kCsr; }
  ConstBitRow row(PlayerId /*p*/) const {
    CS_ASSERT(backend() == GraphBackend::kDense,
              "NeighborGraph::row needs the dense backend, but this graph "
              "resolved to the csr backend; walk neighbors()/has_edge() or "
              "branch on backend() like cluster_players does");
    return {};
  }
  // ---- end of benchmark compatibility --------------------------------------

 private:
  std::size_t n_ = 0;
  std::size_t threshold_ = 0;
  /// offsets_[p] .. offsets_[p+1] index the neighbors of p in nbrs_
  /// (ascending). offsets_ has size n + 1; offsets_[n] == nbrs_.size().
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> nbrs_;
  BitVector alive_;
  std::size_t alive_count_ = 0;

  /// Per-batch scratch, reused across epochs (a streaming session calls
  /// apply_updates thousands of times; reallocating these each epoch would
  /// dominate small batches).
  struct UpdateScratch {
    std::vector<std::vector<std::uint32_t>> new_lists;
    std::vector<std::uint32_t> added, removed;
    BitVector updated;
    std::vector<std::uint32_t> update_index;          // valid where updated
    std::vector<std::uint32_t> degrees;               // post-epoch degrees
    std::vector<std::pair<std::uint32_t, std::uint32_t>> adds, dels;
    std::vector<std::uint32_t> offsets, nbrs;         // spliced arrays
  };
  UpdateScratch scratch_;
};

struct Clustering {
  /// cluster_of[p] = cluster index, or kNoClusterAssigned if the graph was
  /// too sparse even for the leftover-attachment pass.
  static constexpr std::uint32_t kNoClusterAssigned = static_cast<std::uint32_t>(-1);
  std::vector<std::uint32_t> cluster_of;
  std::vector<std::vector<PlayerId>> clusters;
  /// Players attached by the leftover rule (paper's V'_j pass).
  std::size_t leftovers = 0;
  /// Players that had no removed neighbour and were force-attached to the
  /// nearest seed (only happens when the diameter guess was wrong).
  std::size_t orphans = 0;

  std::size_t min_cluster_size() const;
  std::size_t max_cluster_size() const;
};

/// Greedy peeling per Fig. 2 step 1.d with cluster size floor `min_cluster`
/// (= n/B in the paper). Alive-degrees are maintained incrementally as
/// members are absorbed instead of rescanned per probe. Neighbor walks visit
/// ids in ascending order, so the output is a pure function of the edge set.
Clustering cluster_players(const NeighborGraph& graph, std::size_t min_cluster);

}  // namespace colscore
