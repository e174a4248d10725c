#include "flow/network.h"

#include <algorithm>

#include "util/logging.h"

namespace bagc {

FlowNetwork::FlowNetwork(size_t num_vertices) { Reset(num_vertices); }

void FlowNetwork::Reset(size_t num_vertices) {
  BAGC_CHECK(num_vertices <= kMaxIndex);
  num_vertices_ = num_vertices;
  edges_.clear();
  csr_valid_ = false;
}

Result<FlowNetwork::EdgeId> FlowNetwork::AddEdge(size_t u, size_t v,
                                                 uint64_t capacity) {
  if (u >= num_vertices_ || v >= num_vertices_) {
    return Status::InvalidArgument("flow edge endpoint out of range");
  }
  if (capacity > kUnbounded) {
    return Status::InvalidArgument("capacity exceeds kUnbounded");
  }
  if (2 * (edges_.size() + 1) > kMaxIndex) {
    return Status::ResourceExhausted("flow network edge count out of range");
  }
  return AddEdgeUnchecked(u, v, capacity);
}

void FlowNetwork::BuildCsr() {
  // Counting sort of half-edges by the vertex they leave: the forward arc
  // 2k leaves edge k's tail, the back arc 2k+1 its head. Filling in
  // ascending half-edge order keeps each vertex's list in insertion order.
  offsets_.assign(num_vertices_ + 1, 0);
  for (const Edge& e : edges_) {
    ++offsets_[e.tail + 1];
    ++offsets_[e.head + 1];
  }
  for (size_t v = 0; v < num_vertices_; ++v) offsets_[v + 1] += offsets_[v];
  adj_.resize(2 * edges_.size());
  iter_.assign(offsets_.begin(), offsets_.end() - 1);  // per-vertex fill cursor
  for (size_t k = 0; k < edges_.size(); ++k) {
    adj_[iter_[edges_[k].tail]++] = static_cast<uint32_t>(2 * k);
    adj_[iter_[edges_[k].head]++] = static_cast<uint32_t>(2 * k + 1);
  }
  csr_valid_ = true;
}

bool FlowNetwork::Bfs(uint32_t s, uint32_t t) {
  level_.assign(num_vertices_, -1);
  bfs_queue_.clear();
  bfs_queue_.push_back(s);
  level_[s] = 0;
  for (size_t qi = 0; qi < bfs_queue_.size(); ++qi) {
    uint32_t v = bfs_queue_[qi];
    for (uint32_t k = offsets_[v]; k < offsets_[v + 1]; ++k) {
      uint32_t h = adj_[k];
      const Edge& e = edges_[h >> 1];
      bool back = (h & 1) != 0;
      uint32_t to = back ? e.tail : e.head;
      uint64_t residual = back ? e.flow : e.cap - e.flow;
      if (residual > 0 && level_[to] < 0) {
        level_[to] = level_[v] + 1;
        bfs_queue_.push_back(to);
      }
    }
  }
  return level_[t] >= 0;
}

uint64_t FlowNetwork::Dfs(uint32_t v, uint32_t t, uint64_t limit) {
  if (v == t) return limit;
  for (uint32_t& k = iter_[v]; k < offsets_[v + 1]; ++k) {
    uint32_t h = adj_[k];
    Edge& e = edges_[h >> 1];
    bool back = (h & 1) != 0;
    uint32_t to = back ? e.tail : e.head;
    uint64_t residual = back ? e.flow : e.cap - e.flow;
    if (residual == 0 || level_[to] != level_[v] + 1) continue;
    uint64_t pushed = Dfs(to, t, std::min(limit, residual));
    if (pushed > 0) {
      // Pushing along the back arc cancels flow on the edge.
      if (back) {
        e.flow -= pushed;
      } else {
        e.flow += pushed;
      }
      return pushed;
    }
  }
  return 0;
}

Result<uint64_t> FlowNetwork::Solve(size_t s, size_t t) {
  if (s >= num_vertices_ || t >= num_vertices_ || s == t) {
    return Status::InvalidArgument("invalid source/sink");
  }
  if (!csr_valid_) BuildCsr();
  for (Edge& e : edges_) e.flow = 0;
  uint64_t total = 0;
  while (Bfs(static_cast<uint32_t>(s), static_cast<uint32_t>(t))) {
    iter_.assign(offsets_.begin(), offsets_.end() - 1);
    while (uint64_t pushed = Dfs(static_cast<uint32_t>(s),
                                 static_cast<uint32_t>(t), kUnbounded)) {
      total += pushed;
    }
  }
  return total;
}

Status FlowNetwork::SetCapacity(EdgeId id, uint64_t capacity) {
  if (id >= edges_.size()) {
    return Status::InvalidArgument("edge id out of range");
  }
  if (capacity > kUnbounded) {
    return Status::InvalidArgument("capacity exceeds kUnbounded");
  }
  edges_[id].cap = capacity;
  return Status::OK();
}

}  // namespace bagc
