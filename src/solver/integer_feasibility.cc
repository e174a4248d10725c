#include "solver/integer_feasibility.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"

namespace bagc {

namespace {

// Shared DFS driver. Invokes `on_solution` for every complete assignment;
// stops the whole search when it returns true. The DFS assigns x_0, x_1,
// ... in order and keeps its path in an explicit stack (one Level per
// assigned variable), so its depth is bounded by the heap, not by the
// thread's stack: a P(R1..Rm) with 10^5 variables descends 10^5 levels.
class Search {
 public:
  Search(const ConsistencyLp& lp, const SolveOptions& options, SolveStats* stats)
      : lp_(lp), options_(options), stats_(stats) {
    size_t n = lp.variables.size();
    var_rows_.resize(n);
    residual_.reserve(lp.rows.size());
    remaining_.reserve(lp.rows.size());
    for (size_t ri = 0; ri < lp.rows.size(); ++ri) {
      const LpRow& row = lp_.rows[ri];
      residual_.push_back(row.rhs);
      remaining_.push_back(row.vars.size());
      for (uint32_t v : row.vars) var_rows_[v].push_back(ri);
    }
    assignment_.assign(n, 0);
  }

  // Rows with no variables at all must have rhs == 0.
  bool TriviallyInfeasible() const {
    for (const LpRow& row : lp_.rows) {
      if (row.vars.empty() && row.rhs != 0) return true;
    }
    return false;
  }

  Status Run(const std::function<bool(const std::vector<uint64_t>&)>& on_solution) {
    if (TriviallyInfeasible()) return Status::OK();
    const size_t n = lp_.variables.size();
    std::vector<Level> path;  // path[v] is variable v's level
    path.reserve(n);
    // Each turn either opens the next variable (advance) or moves the
    // deepest open variable to its next value, closing exhausted levels.
    bool advance = true;
    while (true) {
      if (advance) {
        size_t v = path.size();
        if (v == n) {
          // All rows must be exactly satisfied (vars exhausted implies
          // remaining == 0 everywhere, so residual 0 suffices).
          bool satisfied = std::all_of(residual_.begin(), residual_.end(),
                                       [](uint64_t r) { return r == 0; });
          if (satisfied && on_solution(assignment_)) return Status::OK();
          advance = false;
          continue;
        }
        std::optional<Level> level = Open(v);
        if (!level.has_value()) {
          advance = false;  // pruned: no value of x_v can work
          continue;
        }
        path.push_back(*level);
        BAGC_RETURN_NOT_OK(Assign(v, level->value));
        continue;
      }
      if (path.empty()) return Status::OK();
      size_t v = path.size() - 1;
      Level& top = path.back();
      Unassign(v);
      if (top.value == top.last) {
        path.pop_back();
        continue;
      }
      top.value = options_.descend_values ? top.value - 1 : top.value + 1;
      BAGC_RETURN_NOT_OK(Assign(v, top.value));
      advance = true;
    }
  }

 private:
  // The values still to try for one variable: `value` (current) through
  // `last`, stepping down under descend_values and up otherwise. A forced
  // variable has value == last.
  struct Level {
    uint64_t value;
    uint64_t last;
  };

  // The value range of x_v given the current residuals, or nullopt when
  // the node is pruned (two rows force different values, or a forced
  // value exceeds the bound).
  std::optional<Level> Open(size_t v) const {
    // Upper bound for x_v: min residual over its rows.
    uint64_t ub = std::numeric_limits<uint64_t>::max();
    for (size_t ri : var_rows_[v]) ub = std::min(ub, residual_[ri]);
    if (var_rows_[v].empty()) ub = 0;  // unconstrained vars stay 0
    // A row whose last variable this is must be fully paid by x_v.
    std::optional<uint64_t> forced;
    for (size_t ri : var_rows_[v]) {
      if (remaining_[ri] == 1) {
        if (forced.has_value() && *forced != residual_[ri]) return std::nullopt;
        forced = residual_[ri];
      }
    }
    if (forced.has_value()) {
      if (*forced > ub) return std::nullopt;
      return Level{*forced, *forced};
    }
    return options_.descend_values ? Level{ub, 0} : Level{0, ub};
  }

  // Counts a search node and assigns x_v = val. Past the node limit the
  // search unwinds instead, counting one backtrack per open ancestor.
  Status Assign(size_t v, uint64_t val) {
    if (++stats_->nodes > options_.node_limit) {
      stats_->backtracks += v;
      return Status::ResourceExhausted("search node limit exceeded");
    }
    assignment_[v] = val;
    for (size_t ri : var_rows_[v]) {
      residual_[ri] -= val;
      --remaining_[ri];
    }
    return Status::OK();
  }

  void Unassign(size_t v) {
    for (size_t ri : var_rows_[v]) {
      residual_[ri] += assignment_[v];
      ++remaining_[ri];
    }
    assignment_[v] = 0;
  }

  const ConsistencyLp& lp_;
  const SolveOptions& options_;
  SolveStats* stats_;
  std::vector<std::vector<size_t>> var_rows_;
  std::vector<uint64_t> residual_;
  std::vector<size_t> remaining_;
  std::vector<uint64_t> assignment_;
};

}  // namespace

Result<std::optional<std::vector<uint64_t>>> SolveIntegerFeasibility(
    const ConsistencyLp& lp, const SolveOptions& options, SolveStats* stats) {
  SolveStats local;
  if (stats == nullptr) stats = &local;
  Search search(lp, options, stats);
  std::optional<std::vector<uint64_t>> found;
  BAGC_RETURN_NOT_OK(search.Run([&](const std::vector<uint64_t>& x) {
    found = x;
    return true;  // stop at first solution
  }));
  return found;
}

Result<uint64_t> CountIntegerSolutions(const ConsistencyLp& lp, uint64_t count_limit,
                                       const SolveOptions& options,
                                       SolveStats* stats) {
  SolveStats local;
  if (stats == nullptr) stats = &local;
  Search search(lp, options, stats);
  uint64_t count = 0;
  bool over_limit = false;
  BAGC_RETURN_NOT_OK(search.Run([&](const std::vector<uint64_t>&) {
    ++count;
    if (count >= count_limit) {
      over_limit = true;
      return true;
    }
    return false;
  }));
  if (over_limit) {
    return Status::ResourceExhausted("solution count limit reached");
  }
  return count;
}

Result<std::vector<std::vector<uint64_t>>> EnumerateIntegerSolutions(
    const ConsistencyLp& lp, size_t limit, const SolveOptions& options,
    SolveStats* stats) {
  SolveStats local;
  if (stats == nullptr) stats = &local;
  Search search(lp, options, stats);
  std::vector<std::vector<uint64_t>> out;
  bool over_limit = false;
  BAGC_RETURN_NOT_OK(search.Run([&](const std::vector<uint64_t>& x) {
    out.push_back(x);
    if (out.size() >= limit) {
      over_limit = true;
      return true;
    }
    return false;
  }));
  if (over_limit) {
    return Status::ResourceExhausted("enumeration limit reached");
  }
  return out;
}

}  // namespace bagc
