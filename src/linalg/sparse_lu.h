// Sparse LU factorization for the MNA solver core.
//
// Left-looking Gilbert-Peierls factorization with partial pivoting over a
// fixed sparsity pattern.  The lifecycle is split so repeated solves on the
// same structure amortize all symbolic work:
//
//   analyze()      once per pattern: CSR -> CSC mapping plus a greedy
//                  minimum-degree column ordering on the symmetrized
//                  pattern (the usual fill-reducing heuristic for
//                  unsymmetric LU with partial pivoting).
//   factorize()    full numeric factorization with fresh partial pivoting;
//                  records the pivot sequence, the per-column reach in
//                  topological order, and the L/U fill pattern.
//   refactorize()  numeric-only refresh on new values: no DFS, no pivot
//                  search, no allocation -- replays the recorded schedule
//                  and fails out if a pivot degraded past
//                  `refactor_pivot_tol` relative to its column.
//   solve()        permuted forward/back substitution in place, no
//                  allocation.
//
// Callers (spice::SolverWorkspace) fall back to DenseLU below a small-n
// threshold and whenever factorize() reports a singular pivot.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/vector_ops.h"

namespace mivtx::linalg {

class SparseLU {
 public:
  SparseLU() = default;

  // Symbolic analysis of a square CSR pattern (sorted, duplicate-free
  // column indices per row).  Resets any previous factorization.
  void analyze(std::size_t n, const std::vector<std::size_t>& row_ptr,
               const std::vector<std::size_t>& col_idx);
  bool analyzed() const { return n_ != 0; }
  std::size_t size() const { return n_; }

  // Full factorization of the CSR values laid out on the analyzed pattern.
  // Returns false (and clears factorized()) on a structurally or
  // numerically singular pivot.
  bool factorize(const std::vector<double>& csr_values);

  // Numeric-only refactorization reusing the pivot sequence and fill
  // pattern of the last successful factorize().  Returns false if any
  // pivot shrank below refactor_pivot_tol * (max |entry| in its column),
  // in which case the factors are invalidated and the caller should run
  // factorize() to re-pivot.
  bool refactorize(const std::vector<double>& csr_values);
  bool factorized() const { return factorized_; }

  // Solve A x = b in place (b receives x).  Requires factorized().
  void solve(Vector& b);

  // min |pivot| / max |pivot| of the last factorization.
  double pivot_ratio() const { return pivot_ratio_; }
  std::size_t factor_nnz() const { return li_.size() + ui_.size() + n_; }
  const std::vector<std::size_t>& column_order() const { return colperm_; }
  // Factor-size estimate from the symbolic elimination analyze() ran on
  // the symmetrized pattern: sum over pivots of (live degree + 1) L and U
  // entries.  Partial pivoting can exceed it; SolverWorkspace's
  // direct-vs-iterative crossover only needs the order of magnitude.
  std::size_t predicted_factor_nnz() const { return predicted_factor_nnz_; }

  // Relative pivot-degradation bound accepted by refactorize().
  double refactor_pivot_tol = 1e-3;

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  void order_columns(const std::vector<std::size_t>& row_ptr,
                     const std::vector<std::size_t>& col_idx);
  // DFS over the partial L structure; prepends the reach of `start` to
  // xi_[top..n) in topological order and returns the new top.
  std::size_t reach_dfs(std::size_t start, std::size_t top);

  std::size_t n_ = 0;
  bool factorized_ = false;
  double pivot_ratio_ = 0.0;
  std::size_t predicted_factor_nnz_ = 0;

  // CSC view of the analyzed pattern; csc_src_[k] is the index of CSC
  // entry k inside the caller's CSR value array.
  std::vector<std::size_t> col_ptr_, row_idx_, csc_src_;
  std::vector<std::size_t> colperm_;  // pivot step -> original column

  // L strictly lower (unit diagonal implicit), per pivot step, rows kept
  // as ORIGINAL ids.  U strictly upper per pivot step, rows in pivot
  // coordinates, stored in the topological order factorize() visited them
  // (refactorize() replays that exact sequence).
  std::vector<std::size_t> lp_, li_;
  std::vector<double> lx_;
  std::vector<std::size_t> up_, ui_;
  std::vector<double> ux_;
  std::vector<double> udiag_;
  std::vector<std::size_t> pinv_;     // original row -> pivot step
  std::vector<std::size_t> piv_row_;  // pivot step -> original row

  // Reach of every pivot step (original row ids, topological order).
  std::vector<std::size_t> pat_ptr_, pat_row_;

  // Scratch (sized by analyze; hot calls never allocate).
  std::vector<double> work_;
  std::vector<std::size_t> xi_, stack_, pstack_;
  std::vector<char> mark_;
  std::vector<double> xperm_;
};

}  // namespace mivtx::linalg
