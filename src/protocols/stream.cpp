#include "src/protocols/stream.hpp"

namespace colscore {

StreamSession::StreamSession(std::span<const ConstBitRow> z,
                             std::size_t threshold, std::size_t min_cluster,
                             const ExecPolicy& policy)
    : z_(z.begin(), z.end()),
      min_cluster_(min_cluster),
      graph_(z_, threshold, policy) {
  clustering_ = cluster_players(graph_, min_cluster_);
}

StreamEpochStats StreamSession::apply_epoch(std::span<const RowUpdate> updates,
                                            const ExecPolicy& policy) {
  for (const RowUpdate& u : updates) {
    switch (u.kind) {
      case UpdateKind::kFlip: ++totals_.flips; break;
      case UpdateKind::kArrive: ++totals_.arrivals; break;
      case UpdateKind::kDepart: ++totals_.departures; break;
    }
  }

  const GraphDelta delta = graph_.apply_updates(updates, z_, policy);

  StreamEpochStats stats;
  stats.edges_added = delta.edges_added;
  stats.edges_removed = delta.edges_removed;
  stats.rebuilt = delta.rebuilt;
  // Epoch-amortized re-clustering: the peel is a pure function of the edge
  // set, so an epoch that changed no edge (flips too small to cross the
  // threshold, churn among already-isolated players) reuses the previous
  // clustering verbatim — provably identical to re-peeling. Any edge churn
  // (or a rebuild, whose churn counters are approximate) re-runs the peel,
  // seeded from the graph's incrementally-maintained degree cache.
  stats.reclustered = delta.dirty();
  if (stats.reclustered) {
    clustering_ = cluster_players(graph_, min_cluster_);
    ++totals_.reclusters;
  }

  ++totals_.epochs;
  totals_.edges_changed += delta.edges_changed();
  if (delta.rebuilt) ++totals_.rebuilds;
  return stats;
}

}  // namespace colscore
