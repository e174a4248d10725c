// Flow networks and Dinic's max-flow algorithm. This is the strongly
// polynomial substrate behind Lemma 2 (two-bag consistency) and the
// minimal-witness construction of §5.3. Capacities and flows are exact
// 64-bit integers; the integrality theorem for max flow then yields integer
// witnesses directly.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "util/result.h"

namespace bagc {

/// \brief Directed flow network with integer capacities.
///
/// Edges live in one flat array of (tail, head, capacity, flow) records
/// with 32-bit endpoints; edge k is seen by Dinic as two half-edges, the
/// forward arc 2k (residual capacity - flow) and the back arc 2k+1
/// (residual flow). The per-vertex adjacency is a CSR index (offsets plus
/// half-edge ids) built on the first Solve after a topology change, stable
/// in insertion order, so every vertex scans its arcs in the order they
/// were added. EdgeIds returned by AddEdge are stable and can be used to
/// read back the flow on specific edges after Solve().
class FlowNetwork {
 public:
  using EdgeId = size_t;

  /// Capacity value treated as "unbounded" (paper: the middle edges of
  /// N(R,S) have very large capacity).
  static constexpr uint64_t kUnbounded = std::numeric_limits<uint64_t>::max() / 4;
  /// Bound on the vertex count and on twice the edge count: endpoints and
  /// CSR entries are 32-bit.
  static constexpr size_t kMaxIndex = std::numeric_limits<uint32_t>::max();

  explicit FlowNetwork(size_t num_vertices);

  /// Clears the network back to `num_vertices` isolated vertices while
  /// retaining every allocation (edge array, CSR index, BFS/DFS scratch).
  /// This is the arena-reuse entry point: repeated solves — the §5.3
  /// suppress/restore loop, the Theorem 6 fold, engine batch queries —
  /// rebuild into the same storage instead of reallocating per solve.
  /// Requires num_vertices <= kMaxIndex.
  void Reset(size_t num_vertices);

  size_t num_vertices() const { return num_vertices_; }
  size_t num_edges() const { return edges_.size(); }

  /// Pre-sizes the edge array for `count` more edges.
  void ReserveEdges(size_t count) { edges_.reserve(edges_.size() + count); }

  /// Adds a directed edge u -> v with the given capacity; returns its id.
  Result<EdgeId> AddEdge(size_t u, size_t v, uint64_t capacity);

  /// AddEdge without validation, for builders whose endpoints are in
  /// range by construction: u, v < num_vertices(), capacity <= kUnbounded
  /// and 2 × (num_edges() + 1) <= kMaxIndex.
  EdgeId AddEdgeUnchecked(size_t u, size_t v, uint64_t capacity) {
    edges_.push_back({static_cast<uint32_t>(u), static_cast<uint32_t>(v), capacity, 0});
    csr_valid_ = false;
    return edges_.size() - 1;
  }

  /// Tail and head of edge `id`.
  uint32_t TailOf(EdgeId id) const { return edges_[id].tail; }
  uint32_t HeadOf(EdgeId id) const { return edges_[id].head; }

  /// Computes a maximum s-t flow (Dinic, O(V^2 E)); returns its value.
  /// Resets any previous flow.
  Result<uint64_t> Solve(size_t s, size_t t);

  /// Flow currently on edge `id` (after Solve).
  uint64_t FlowOn(EdgeId id) const { return edges_[id].flow; }

  /// Capacity of edge `id`.
  uint64_t CapacityOf(EdgeId id) const { return edges_[id].cap; }

  /// Sets the capacity of an edge for the next Solve (used by the
  /// minimal-witness self-reducibility loop, which suppresses middle edges
  /// one at a time). Keeps the CSR index: the topology is unchanged.
  Status SetCapacity(EdgeId id, uint64_t capacity);

 private:
  struct Edge {
    uint32_t tail;
    uint32_t head;
    uint64_t cap;
    uint64_t flow;
  };

  void BuildCsr();
  bool Bfs(uint32_t s, uint32_t t);
  uint64_t Dfs(uint32_t v, uint32_t t, uint64_t limit);

  size_t num_vertices_ = 0;
  std::vector<Edge> edges_;
  // CSR adjacency: vertex v's half-edges are adj_[offsets_[v] ..
  // offsets_[v + 1]), ascending half-edge id. Valid iff csr_valid_.
  std::vector<uint32_t> offsets_;
  std::vector<uint32_t> adj_;
  bool csr_valid_ = false;
  std::vector<int> level_;
  std::vector<uint32_t> iter_;
  std::vector<uint32_t> bfs_queue_;  // scratch, reused across Bfs calls
};

}  // namespace bagc
