//! Bounded-variable revised simplex method.
//!
//! This is the workhorse that replaces CPLEX for the reproduction: a
//! two-phase primal simplex over variables with `[lb, ub]` bounds, with a
//! densely maintained basis inverse (product-form eta updates plus
//! periodic refactorization), Dantzig pricing with a Bland anti-cycling
//! fallback, and support for appending columns to a solved instance and
//! re-optimizing — the operation Dantzig-Wolfe column generation needs.
//!
//! The implementation targets the problem sizes of PLAN-VNE masters
//! (hundreds of rows, thousands of columns). Neither the duals nor the
//! reduced costs are recomputed whole in every iteration: a pivot moves
//! few of them, and a bound flip — more than half the iterations of such
//! a master — none (see the last section and `optimize`).
//!
//! # A dense `B⁻¹` with row patterns
//!
//! `B⁻¹` is one dense row-major `m × m` store, but a master's is only a
//! few percent nonzero (2.6 % on a SLOTOFF master of ≈ 240 rows). Each
//! row carries a bitset of `⌈m/64⌉` words, a superset of its nonzeros:
//! every entry outside it is ±0. `solve` starts the patterns at the
//! diagonal. The eta update scales and subtracts only the pivot row's
//! pattern and ORs it into every row it subtracts from. `btran` and the
//! basic-value recomputation walk the set bits. `refactor` takes the
//! patterns that `invert` keeps while its Gauss–Jordan pivot search and
//! elimination visit only the rows of a column's pattern. Debug builds
//! check the invariant before every refactor. This is not a sparse LU:
//! the factorization, the pivot sequence, the pricing order and every
//! value outside `B⁻¹` are the dense code's, and so is every bit the
//! solver returns:
//!
//! - **The readers of `B⁻¹` cannot see the skipped terms.** Each sums
//!   with `+=` into an accumulator that starts at `+0.0`: `y` in `btran`,
//!   `w` in `ftran`, `v` in `recompute_basic_values`, `piv` in
//!   `evict_artificials`. Under round-to-nearest such a sum is never
//!   `−0.0`, because `x + (−x) = +0.0` and `+0.0 + −0.0 = +0.0`, so adding
//!   a ±0 term leaves it bit-identical. A term whose `B⁻¹` factor is ±0
//!   is itself ±0 when the other factor is finite.
//! - **Inside `B⁻¹` and `invert`'s work matrix, only the sign of a zero
//!   can change.** Skipping `x −= f·(±0)`, or the scaling of a ±0 entry,
//!   can only flip the sign of an entry that is already zero. Such an
//!   entry is only ever read by those accumulators, by `.abs()` in the
//!   pivot search, or by a `!= 0.0` test.
//! - **Finiteness is required**, because `∞·0 = NaN`. [`Problem`] and
//!   [`Simplex::add_column`] refuse a NaN or infinite coefficient,
//!   objective or right-hand side. Infinite bounds stay legal: a nonbasic
//!   variable rests at a finite bound or at 0, so no bound multiplies
//!   `B⁻¹`. Both also refuse a NaN bound and an upper bound below the
//!   lower one: the ratio test reads `ub − lb` as the distance a column
//!   may travel, so a negative one moves it out of its range and a NaN
//!   one reads as unbounded.
//!
//! `colpat` holds the same bits transposed: one bitset per column `k`
//! of `B⁻¹`, the rows whose pattern has `k`. `solve` starts it at the
//! diagonal, the eta update ORs the rows it touched into the column of
//! every bit of the pivot row's pattern, and `refactor` transposes
//! `invert`'s patterns. `ftran` walks `colpat[r]` for each entry `(r, a)`
//! of its column instead of all `m` rows; the rows it skips hold ±0 in
//! column `r`, so by the first point above every `w[i]` keeps its bits.
//!
//! The two `m × m` stores are allocated once per solver, `B⁻¹` when it
//! is built and `invert`'s work matrix at its first refactor (a solver
//! that never refactors never needs it), and never zero-filled whole
//! again. `solve` and `refactor` clear `B⁻¹` along its row
//! patterns, which leaves it all ±0 because the patterns cover its
//! nonzeros. `invert` clears its work matrix along the work matrix's own
//! row patterns before it returns, and on its singular path the inverse
//! it wrote too. A zero left as `−0.0` where a fresh store held `+0.0`
//! changes no bit the solver returns, by the second point above.
//!
//! # Reloading a solver
//!
//! [`Simplex::reload`] rebuilds a solver over a new [`Problem`] without
//! giving back any store: `B⁻¹` and the work matrix, the row and column
//! patterns, the columns (one run of entries per column in one store),
//! costs, bounds, `state` and `x`, and the scratch of the iterations
//! (`ftran`'s column, the recomputed duals, the eta update's copy of the
//! pivot row and its mask of touched rows, `invert`'s bitsets, and the
//! pricing cache with its row index). [`Simplex::with_options`] is a
//! reload of an empty solver, so there is one construction path. A
//! reloaded solver returns a fresh one's bits:
//!
//! - `B⁻¹` is cleared along the patterns that cover it before it takes
//!   the new size, so it is all ±0, as the work matrix always is between
//!   calls (debug builds check both); every other store is refilled to
//!   exactly what a fresh solver holds, by `clear` then `resize` or
//!   `extend`, never read first;
//! - a store whose length changes keeps only ±0 entries, so the
//!   row-major layout of the old size never reaches the new one;
//! - each iteration's scratch is overwritten before it is read: the
//!   accumulators restart at `+0.0` as in a fresh buffer, and `Pricing`
//!   starts every `optimize` call with every reduced cost invalid and
//!   every column dirty, as before.
//!
//! `crates/lp/tests/proptests.rs` holds one solver to this over masters
//! that grow and shrink, one infeasible and one that needs the
//! singular-basis repair. A caller that solves one master after another
//! (SLOTOFF, every slot) therefore allocates none of these stores after
//! the largest master it has seen.
//!
//! # Pricing without a full scan
//!
//! A pivot of a SLOTOFF master moves the bits of ≈ 11 of its ≈ 240
//! duals, and a bound flip moves none, yet Dantzig's rule reads the
//! reduced cost of every nonbasic column. `optimize` therefore keeps
//! three things for the whole call, and every one of them holds exactly
//! the bits a fresh `btran` and a full scan would produce:
//!
//! - **`y` moves only on the pivot row's pattern.** `y[k]` sums
//!   `c_B(pos) · B⁻¹[pos][k]` over the positions whose row pattern has
//!   `k`, in position order. A pivot on row `r` changes `c_B(r)`, the
//!   entries of `B⁻¹` in the columns of `r`'s pattern, and the patterns
//!   of other rows only by ORing in `r`'s; outside `r`'s pattern, row
//!   `r` itself holds ±0. So every `y[k]` with `k` outside it has the same
//!   terms and the same bits, and each `y[k]` inside it is recomputed
//!   with `btran`'s terms in `btran`'s order: down `colpat[k]` when the
//!   pattern is sparse, or across the rows of `B⁻¹` restricted to the
//!   pattern when it is dense (a `plan_build` master's often are), where
//!   scattered reads down the columns cost more than the full `btran`
//!   they replace. The first iteration, and the first after a refactor,
//!   run a full `btran`.
//! - **A cached `d_j = c_j − y·A_j` is valid until a dual it reads
//!   changes a bit.** `cost` and the columns are fixed for the call, so
//!   `d_j` is a function of the `y[r]` of its rows. Each column carries a
//!   validity bit; a `y[k]` whose bits changed clears the bit of every
//!   column with an entry in row `k`. An index built once per call maps
//!   each row to a mask of those columns per 64-column block, explicit
//!   zeros included, so one AND clears a block's. An invalid `d_j` is
//!   recomputed, with the same expression in the same term order, only
//!   when pricing reads it.
//! - **Dantzig's column is the best of 64-column block winners.** Each
//!   block keeps its largest violation, ties to the lowest index, and a
//!   mask of its dirty columns: those that lost their `d_j` or changed
//!   state (a flip, entering, leaving) since its last scan. A clean
//!   column's violation is the one that scan saw, so if the old winner is
//!   clean it still beats every other clean column, and the new winner is
//!   the best of the old one and the dirty columns, scanned together in
//!   index order so that ties still go to the lowest index. Only a block
//!   whose winner is itself dirty is rescanned whole, and after a refactor
//!   (which may repair the basis) every column is dirty. The pick then
//!   takes the largest winner, ties to the lowest block. The maximum of a
//!   sequence is the maximum of its blocks' maxima and the first index to
//!   attain it lies in the first block to attain it, so this is the full
//!   scan's pick. Bland's rule keeps its ordered scan for the first
//!   eligible column, reading the same cache.
//!
//! Debug builds check each of these against its definition in every
//! iteration: `y` against a fresh `btran`, every valid `d_j` against
//! `c_j − y·A_j`, the pick against a full scan, and the sparse `ftran`
//! against the dense loop; and `colpat` against the transpose of the
//! patterns at every refactor.

use crate::problem::{Problem, Relation};
use crate::solution::{LpSolution, SolveStatus};

/// Tunable solver parameters.
#[derive(Debug, Clone)]
pub struct SimplexOptions {
    /// Hard cap on simplex iterations across both phases.
    pub max_iterations: usize,
    /// Primal feasibility tolerance.
    pub feas_tol: f64,
    /// Dual (reduced-cost) optimality tolerance.
    pub opt_tol: f64,
    /// Refactorize the basis inverse every this many pivots.
    pub refactor_every: usize,
    /// Consecutive degenerate pivots before switching to Bland's rule.
    pub bland_trigger: usize,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        Self {
            max_iterations: 200_000,
            feas_tol: 1e-7,
            opt_tol: 1e-7,
            refactor_every: 100,
            bland_trigger: 2000,
        }
    }
}

/// Coefficients smaller than this are treated as zero in pivoting.
const PIVOT_ZERO: f64 = 1e-10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VarState {
    Basic,
    AtLower,
    AtUpper,
    /// Nonbasic free variable resting at value 0.
    FreeZero,
}

/// A bounded-variable revised primal simplex solver.
///
/// The solver owns an expanded copy of the problem: structural columns,
/// then one logical (slack) column per row, then one artificial column
/// per row. It can be queried for duals after solving and accepts new
/// columns via [`Simplex::add_column`] followed by
/// [`Simplex::reoptimize`]. [`Simplex::default`] is an empty solver, to
/// be given a problem by [`Simplex::reload`].
///
/// # Examples
///
/// ```
/// use vne_lp::problem::{Problem, Relation};
/// use vne_lp::simplex::Simplex;
///
/// // minimize -3x - 5y  s.t.  x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 (Dantzig's example)
/// let mut p = Problem::new();
/// let x = p.add_var("x", -3.0, 0.0, f64::INFINITY);
/// let y = p.add_var("y", -5.0, 0.0, f64::INFINITY);
/// let r1 = p.add_row("r1", Relation::Le, 4.0);
/// let r2 = p.add_row("r2", Relation::Le, 12.0);
/// let r3 = p.add_row("r3", Relation::Le, 18.0);
/// p.set_coeff(r1, x, 1.0);
/// p.set_coeff(r2, y, 2.0);
/// p.set_coeff(r3, x, 3.0);
/// p.set_coeff(r3, y, 2.0);
///
/// let mut s = Simplex::from_problem(&p);
/// let sol = s.solve();
/// assert!(sol.status.is_optimal());
/// assert!((sol.objective - (-36.0)).abs() < 1e-6);
/// assert!((sol.x[0] - 2.0).abs() < 1e-6 && (sol.x[1] - 6.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Simplex {
    opts: SimplexOptions,
    m: usize,
    n_struct: usize,
    /// Expanded columns: structural | logical | artificial.
    cols: Columns,
    /// Phase-2 objective (artificials have 0).
    obj: Vec<f64>,
    /// Phase-1 objective: 1 on the artificials, 0 elsewhere.
    phase1_cost: Vec<f64>,
    lb: Vec<f64>,
    ub: Vec<f64>,
    rhs: Vec<f64>,
    /// The right-hand side less the nonbasic columns at their values.
    btilde: Vec<f64>,
    basis: Vec<usize>,
    state: Vec<VarState>,
    /// Current value of every variable.
    x: Vec<f64>,
    /// Dense basis inverse, row-major `m × m`.
    binv: Vec<f64>,
    /// One bitset of `⌈m/64⌉` words per row of `binv`: a superset of
    /// that row's nonzeros, so every entry outside it is ±0.
    pattern: Vec<u64>,
    /// The transpose of `pattern`: per column `k` of `binv`, the rows
    /// whose pattern has `k`.
    colpat: Vec<u64>,
    /// `invert`'s work matrix, row-major `m × m` from the first
    /// refactor on (empty before it), all ±0 between calls.
    work: Vec<f64>,
    /// `invert`'s bitsets and pivot rows.
    invert_scratch: InvertScratch,
    /// The reduced-cost cache one `optimize` call keeps.
    pricing: Pricing,
    /// The buffers the iterations fill.
    scratch: Scratch,
    pivots_since_refactor: usize,
    iterations: usize,
    solved_once: bool,
}

impl Simplex {
    /// Builds a solver instance from a problem (integrality is ignored;
    /// use [`crate::branch_bound`] for MILPs).
    pub fn from_problem(problem: &Problem) -> Self {
        Self::with_options(problem, SimplexOptions::default())
    }

    /// Builds a solver with explicit options: [`Simplex::reload`] of an
    /// empty solver.
    pub fn with_options(problem: &Problem, opts: SimplexOptions) -> Self {
        let mut simplex = Self::default();
        simplex.reload(problem, opts);
        simplex
    }

    /// Rebuilds the solver over `problem` with `opts`, as
    /// [`Simplex::with_options`] would, but into the stores this solver
    /// already holds (the module doc says why a reloaded solver returns
    /// a fresh one's bits). Nothing of the previous problem survives but
    /// capacity, so a caller that solves one master after another — a
    /// SLOTOFF slot after a slot — allocates them once.
    pub fn reload(&mut self, problem: &Problem, opts: SimplexOptions) {
        let (m, n) = (problem.num_rows(), problem.num_vars());
        // Leave `B⁻¹` all ±0 before its rows change length.
        clear_along(&mut self.binv, self.m, &self.pattern);
        debug_assert!(
            self.binv.iter().chain(&self.work).all(|&v| v == 0.0),
            "a reload finds B⁻¹ or the work matrix nonzero"
        );
        self.binv.resize(m * m, 0.0);
        let words = m.div_ceil(64);
        for pattern in [&mut self.pattern, &mut self.colpat] {
            pattern.clear();
            pattern.resize(m * words, 0);
        }
        self.opts = opts;
        self.m = m;
        self.n_struct = n;
        self.cols.clear();
        for j in 0..n {
            self.cols
                .push_with(|entries| problem.consolidate_col_into(j, entries));
        }
        self.obj.clear();
        self.obj.extend_from_slice(&problem.obj);
        self.lb.clear();
        self.lb.extend_from_slice(&problem.lb);
        self.ub.clear();
        self.ub.extend_from_slice(&problem.ub);
        self.rhs.clear();
        // Logical columns: A x + s = b.
        for (i, row) in problem.rows.iter().enumerate() {
            self.cols.push(&[(i, 1.0)]);
            self.obj.push(0.0);
            let (lb, ub) = match row.relation {
                Relation::Le => (0.0, f64::INFINITY),
                Relation::Ge => (f64::NEG_INFINITY, 0.0),
                Relation::Eq => (0.0, 0.0),
            };
            self.lb.push(lb);
            self.ub.push(ub);
            self.rhs.push(row.rhs);
        }
        // Artificial columns (coefficient signs set at solve time).
        for i in 0..m {
            self.cols.push(&[(i, 1.0)]);
            self.obj.push(0.0);
            self.lb.push(0.0);
            self.ub.push(f64::INFINITY);
        }
        let ncols = n + 2 * m;
        self.basis.clear();
        self.state.clear();
        self.state.resize(ncols, VarState::AtLower);
        self.x.clear();
        self.x.resize(ncols, 0.0);
        self.pivots_since_refactor = 0;
        self.iterations = 0;
        self.solved_once = false;
    }

    fn ncols(&self) -> usize {
        self.cols.len()
    }

    fn art_index(&self, row: usize) -> usize {
        self.ncols() - self.m + row
    }

    fn is_artificial(&self, j: usize) -> bool {
        j >= self.ncols() - self.m
    }

    /// The pattern of row `i` of `binv`.
    fn pattern_row(&self, i: usize) -> &[u64] {
        let words = self.m.div_ceil(64);
        &self.pattern[i * words..(i + 1) * words]
    }

    /// The rows of `binv` whose pattern has column `k`.
    fn colpat_col(&self, k: usize) -> &[u64] {
        let words = self.m.div_ceil(64);
        &self.colpat[k * words..(k + 1) * words]
    }

    /// Initial nonbasic resting value for variable `j`.
    fn resting(&self, j: usize) -> (f64, VarState) {
        if self.lb[j].is_finite() {
            (self.lb[j], VarState::AtLower)
        } else if self.ub[j].is_finite() {
            (self.ub[j], VarState::AtUpper)
        } else {
            (0.0, VarState::FreeZero)
        }
    }

    /// Solves the LP from scratch (two phases).
    pub fn solve(&mut self) -> LpSolution {
        self.iterations = 0;
        // Rest every non-artificial variable at a bound.
        for j in 0..self.ncols() - self.m {
            let (v, s) = self.resting(j);
            self.x[j] = v;
            self.state[j] = s;
        }
        // Residual rhs given the resting point.
        self.btilde.clear();
        self.btilde.extend_from_slice(&self.rhs);
        for j in 0..self.ncols() - self.m {
            if self.x[j] != 0.0 {
                for &(r, a) in &self.cols[j] {
                    self.btilde[r] -= a * self.x[j];
                }
            }
        }
        // Artificial basis: coefficient sign(b̃ᵢ) so values are |b̃ᵢ| ≥ 0.
        self.basis.clear();
        for i in 0..self.m {
            let j = self.art_index(i);
            let bt = self.btilde[i];
            let sigma = if bt >= 0.0 { 1.0 } else { -1.0 };
            self.cols.get_mut(j)[0] = (i, sigma);
            self.lb[j] = 0.0;
            self.ub[j] = f64::INFINITY;
            self.state[j] = VarState::Basic;
            self.x[j] = bt.abs();
            self.basis.push(j);
        }
        clear_along(&mut self.binv, self.m, &self.pattern);
        self.pattern.fill(0);
        self.colpat.fill(0);
        let words = self.m.div_ceil(64);
        for i in 0..self.m {
            let sigma = self.cols[self.art_index(i)][0].1;
            self.binv[i * self.m + i] = sigma;
            set_bit(&mut self.pattern[i * words..], i);
            set_bit(&mut self.colpat[i * words..], i);
        }
        self.pivots_since_refactor = 0;

        // Phase 1: minimize the sum of artificials, unless they are all 0.
        let needs_phase1 = (0..self.m).any(|i| self.x[self.art_index(i)] > self.opts.feas_tol);
        if needs_phase1 {
            let mut phase1_cost = std::mem::take(&mut self.phase1_cost);
            phase1_cost.clear();
            phase1_cost.extend((0..self.ncols()).map(|j| {
                if self.is_artificial(j) {
                    1.0
                } else {
                    0.0
                }
            }));
            let status = self.optimize(&phase1_cost, true);
            self.phase1_cost = phase1_cost;
            if status == SolveStatus::Limit {
                return self.make_solution(SolveStatus::Limit);
            }
            let infeas: f64 = (0..self.m)
                .map(|i| self.x[self.art_index(i)])
                .filter(|v| *v > 0.0)
                .sum();
            let scale = 1.0 + self.rhs.iter().map(|b| b.abs()).fold(0.0, f64::max);
            if infeas > self.opts.feas_tol * scale * 10.0 {
                return self.make_solution(SolveStatus::Infeasible);
            }
            self.evict_artificials();
        }
        // Lock artificials to zero for Phase 2.
        for i in 0..self.m {
            let j = self.art_index(i);
            self.ub[j] = 0.0;
            if self.state[j] != VarState::Basic {
                self.state[j] = VarState::AtLower;
                self.x[j] = 0.0;
            }
        }
        let status = self.optimize_phase2();
        self.solved_once = true;
        self.make_solution(status)
    }

    /// Appends a structural column (entering nonbasic at its lower bound)
    /// and returns its index among structural variables.
    ///
    /// Primal feasibility of the current basis is preserved as long as
    /// `lb` is finite (column generation always uses `lb = 0`).
    ///
    /// # Panics
    ///
    /// Panics if `lb` is not finite, `ub` is NaN or below `lb`, `obj` or a
    /// coefficient is NaN or infinite (the module doc says why the solver
    /// needs finite data), a row index is out of range, or a row index
    /// appears twice in `coeffs`
    /// (`ftran` and the reduced cost would sum the two entries while a
    /// refactorization keeps the last one, so the optimum would move at the
    /// first refactor).
    pub fn add_column(&mut self, obj: f64, lb: f64, ub: f64, coeffs: &[(usize, f64)]) -> usize {
        assert!(lb.is_finite(), "new columns must have a finite lower bound");
        assert!(
            lb <= ub,
            "upper bound {ub} of a new column must not be NaN or below its lower bound {lb}"
        );
        assert!(
            obj.is_finite(),
            "objective of a new column must be finite, got {obj}"
        );
        for &(r, a) in coeffs {
            assert!(r < self.m, "row index out of range");
            assert!(
                a.is_finite(),
                "coefficient in row {r} must be finite, got {a}"
            );
        }
        let j = self.n_struct;
        let col = self.cols.insert(j, coeffs);
        col.sort_by_key(|&(r, _)| r);
        assert!(
            col.windows(2).all(|w| w[0].0 != w[1].0),
            "a column lists each row at most once"
        );
        self.obj.insert(j, obj);
        self.lb.insert(j, lb);
        self.ub.insert(j, ub);
        self.state.insert(j, VarState::AtLower);
        self.x.insert(j, lb);
        self.n_struct += 1;
        // Shift basis references to logical/artificial columns.
        for b in &mut self.basis {
            if *b >= j {
                *b += 1;
            }
        }
        if lb != 0.0 {
            // The new column shifts basic values; recompute them.
            self.recompute_basic_values();
        }
        j
    }

    /// Re-optimizes after columns were appended (phase 2 only; the
    /// current basis must be primal feasible, which `add_column`
    /// guarantees).
    ///
    /// # Panics
    ///
    /// Panics if called before [`Simplex::solve`].
    pub fn reoptimize(&mut self) -> LpSolution {
        assert!(self.solved_once, "call solve() before reoptimize()");
        self.iterations = 0;
        let status = self.optimize_phase2();
        self.make_solution(status)
    }

    /// The dual vector `y = c_B B⁻¹` of the last solve.
    pub fn duals(&self) -> Vec<f64> {
        self.btran(&self.obj)
    }

    /// The value of structural variable `j`.
    pub fn value(&self, j: usize) -> f64 {
        self.x[j]
    }

    /// Values of all structural variables.
    pub fn values(&self) -> Vec<f64> {
        self.x[..self.n_struct].to_vec()
    }

    /// Objective value `cᵀx` over structural variables.
    pub fn objective_value(&self) -> f64 {
        (0..self.n_struct).map(|j| self.obj[j] * self.x[j]).sum()
    }

    /// Certifies that the current point is optimal, from the solver's own
    /// copy of the columns, costs, bounds and right-hand sides and the
    /// duals [`Simplex::duals`] reports; nothing in it reads `B⁻¹`. The
    /// problem is read in the solver's form `A x + s = b`, where each
    /// row's logical column `s` carries the row's relation in its bounds
    /// (`≤`: `s ≥ 0`, `≥`: `s ≤ 0`, `=`: `s = 0`) and the artificials
    /// are fixed at 0. With `tol = 1e-6` it checks:
    ///
    /// - every column within its bounds up to `tol`, and every row's
    ///   activity within `tol · (1 + |b_i|)` of `b_i`;
    /// - every reduced cost `d_j = c_j − y·A_j` against the bounds its
    ///   variable sits at: `d_j ≥ −tol` unless `x_j` is at its upper
    ///   bound, `d_j ≤ tol` unless it is at its lower one (for a logical
    ///   column `d_j = −y_i`, so these are the dual sign conditions);
    /// - the duality gap: `Σ c_j x_j` against `y·b + Σ d_j · bound_j`,
    ///   where a positive `d_j` prices `lb_j` and a negative one `ub_j`
    ///   (an infinite bound adds nothing), within `tol · (1 + |cᵀx|)`.
    ///
    /// Meaningful after a solve that returned
    /// [`SolveStatus::Optimal`]; under the `strict-invariants` feature
    /// [`Simplex::solve`] and [`Simplex::reoptimize`] panic when it fails.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first condition that fails.
    pub fn certify(&self) -> Result<(), String> {
        const TOL: f64 = 1e-6;
        let y = self.duals();
        let mut activity = vec![0.0; self.m];
        let (mut primal, mut dual) = (0.0_f64, 0.0);
        for (j, col) in self.cols.iter().enumerate() {
            let (x, lb, ub) = (self.x[j], self.lb[j], self.ub[j]);
            if x < lb - TOL || x > ub + TOL {
                return Err(format!("column {j} = {x} outside [{lb}, {ub}]"));
            }
            primal += self.obj[j] * x;
            let mut d = self.obj[j];
            for &(i, a) in col {
                activity[i] += a * x;
                d -= y[i] * a;
            }
            if x < ub - TOL && d < -TOL {
                return Err(format!(
                    "column {j} = {x} below its upper bound with d = {d}"
                ));
            }
            if x > lb + TOL && d > TOL {
                return Err(format!(
                    "column {j} = {x} above its lower bound with d = {d}"
                ));
            }
            let bound = if d > 0.0 { lb } else { ub };
            if bound.is_finite() {
                dual += d * bound;
            }
        }
        for (i, (&b, &yi)) in self.rhs.iter().zip(&y).enumerate() {
            if (activity[i] - b).abs() > TOL * (1.0 + b.abs()) {
                return Err(format!("row {i}: activity {} ≠ {b}", activity[i]));
            }
            dual += yi * b;
        }
        if (primal - dual).abs() > TOL * (1.0 + primal.abs()) {
            return Err(format!("primal {primal} vs dual {dual}"));
        }
        Ok(())
    }

    /// The solution a solve returns; under `strict-invariants` an optimum
    /// must first pass [`Simplex::certify`].
    fn make_solution(&self, status: SolveStatus) -> LpSolution {
        if cfg!(feature = "strict-invariants") && status.is_optimal() {
            if let Err(failure) = self.certify() {
                panic!("strict-invariants: the simplex optimum fails its certificate: {failure}");
            }
        }
        LpSolution {
            status,
            objective: self.objective_value(),
            x: self.values(),
            duals: self.duals(),
            iterations: self.iterations,
        }
    }

    /// y = c_B^T · B⁻¹ restricted to basic costs of `cost`. Each `y[i]`
    /// still takes its terms in basis-position order; the ones skipped
    /// are ±0.
    fn btran(&self, cost: &[f64]) -> Vec<f64> {
        let mut y = Vec::new();
        self.btran_into(cost, &mut y);
        y
    }

    /// [`Simplex::btran`] into `y`'s buffer.
    fn btran_into(&self, cost: &[f64], y: &mut Vec<f64>) {
        let m = self.m;
        y.clear();
        y.resize(m, 0.0);
        for (pos, &bj) in self.basis.iter().enumerate() {
            let cb = cost[bj];
            if cb != 0.0 {
                let row = &self.binv[pos * m..(pos + 1) * m];
                for_each_bit(self.pattern_row(pos), |i| y[i] += cb * row[i]);
            }
        }
    }

    /// w = B⁻¹ · A_j, into `w`'s buffer. Each `w[i]` takes its terms in
    /// column order; the rows skipped in column `r` of `B⁻¹` hold ±0
    /// there.
    fn ftran(&self, j: usize, w: &mut Vec<f64>) {
        let m = self.m;
        w.clear();
        w.resize(m, 0.0);
        for &(r, a) in &self.cols[j] {
            if a != 0.0 {
                for_each_bit(self.colpat_col(r), |i| w[i] += self.binv[i * m + r] * a);
            }
        }
        debug_assert!(
            same_bits(w, &self.ftran_dense(j)),
            "the sparse ftran differs from the dense loop"
        );
    }

    /// The dense loop `ftran` replaced, kept as its debug oracle.
    fn ftran_dense(&self, j: usize) -> Vec<f64> {
        let m = self.m;
        let mut w = vec![0.0; m];
        for &(r, a) in &self.cols[j] {
            if a != 0.0 {
                for (i, wi) in w.iter_mut().enumerate() {
                    *wi += self.binv[i * m + r] * a;
                }
            }
        }
        w
    }

    /// `c_j − y·A_j`, its terms in column order.
    fn reduced_cost(&self, cost: &[f64], y: &[f64], j: usize) -> f64 {
        let mut red = cost[j];
        for &(r, a) in &self.cols[j] {
            red -= y[r] * a;
        }
        red
    }

    /// Column `j`'s pricing violation and direction under reduced cost
    /// `dj`, or `None` if it is basic or fixed and so never priced.
    fn violation(&self, j: usize, dj: impl FnOnce() -> f64) -> Option<(f64, i8)> {
        match self.state[j] {
            VarState::Basic => None,
            _ if self.lb[j] == self.ub[j] => None,
            VarState::AtLower => Some((-dj(), 1)),
            VarState::AtUpper => Some((dj(), -1)),
            VarState::FreeZero => {
                let dj = dj();
                Some((dj.abs(), if dj < 0.0 { 1 } else { -1 }))
            }
        }
    }

    /// The entering column, its violation and its direction: the first
    /// eligible column under Bland's rule, else Dantzig's largest
    /// violation with ties to the lowest index. Reads and fills the
    /// cached reduced costs; a block with dirty columns rescans only
    /// those and its old winner, unless the winner itself is dirty.
    fn pick(
        &self,
        pricing: &mut Pricing,
        cost: &[f64],
        y: &[f64],
        bland: bool,
    ) -> Option<Candidate> {
        let tol = self.opts.opt_tol;
        let end = pricing.d.len();
        if bland {
            return (0..end).find_map(|j| {
                self.violation(j, || {
                    pricing.reduced_cost(j, || self.reduced_cost(cost, y, j))
                })
                .filter(|&(viol, _)| viol > tol)
                .map(|(viol, dir)| (j, viol, dir))
            });
        }
        let mut entering = None;
        for b in 0..pricing.best.len() {
            let dirty = pricing.dirty[b];
            if dirty != 0 {
                // The clean columns kept their violations, so the old
                // winner still beats every other one of them.
                let scan = match pricing.best[b] {
                    Some((j, ..)) if dirty >> (j % BLOCK) & 1 == 0 => dirty | 1 << (j % BLOCK),
                    Some(_) => pricing.block_mask(b),
                    None => dirty,
                };
                let mut best = None;
                for_each_bit(&[scan], |bit| {
                    let j = b * BLOCK + bit;
                    let dj = || pricing.reduced_cost(j, || self.reduced_cost(cost, y, j));
                    if let Some((viol, dir)) = self.violation(j, dj) {
                        if viol > tol {
                            offer(&mut best, (j, viol, dir));
                        }
                    }
                });
                pricing.best[b] = best;
                pricing.dirty[b] = 0;
            }
            if let Some(winner) = pricing.best[b] {
                offer(&mut entering, winner);
            }
        }
        entering
    }

    /// The debug oracle of the cache and of `pick`, in one pass that
    /// recomputes every reduced cost from its definition: panics if a
    /// valid cached `d_j` differs from `c_j − y·A_j` in any bit, and
    /// returns the pick of a plain full scan.
    fn full_scan_pick(
        &self,
        pricing: &Pricing,
        cost: &[f64],
        y: &[f64],
        bland: bool,
    ) -> Option<Candidate> {
        let mut entering = None;
        let mut first = None;
        for j in 0..pricing.d.len() {
            let dj = self.reduced_cost(cost, y, j);
            assert!(
                !has_bit(&pricing.valid, j) || pricing.d[j].to_bits() == dj.to_bits(),
                "the cached reduced cost of column {j} differs from c_j − y·A_j"
            );
            if let Some((viol, dir)) = self.violation(j, || dj) {
                if viol > self.opts.opt_tol {
                    first = first.or(Some((j, viol, dir)));
                    match entering {
                        Some((_, best, _)) if viol <= best => {}
                        _ => entering = Some((j, viol, dir)),
                    }
                }
            }
        }
        if bland {
            first
        } else {
            entering
        }
    }

    /// Replaces `y` by `btran(cost)`, computed into `fresh`, invalidating
    /// the reduced costs of every row whose dual changed a bit.
    fn refresh_duals(
        &self,
        cost: &[f64],
        y: &mut [f64],
        fresh: &mut Vec<f64>,
        pricing: &mut Pricing,
    ) {
        self.btran_into(cost, fresh);
        for (k, &fresh) in fresh.iter().enumerate() {
            if fresh.to_bits() != y[k].to_bits() {
                y[k] = fresh;
                pricing.invalidate_row(k);
            }
        }
    }

    /// Brings `y` up to date after a pivot on row `r` without a refactor:
    /// only the duals of `r`'s pattern can move. Each is recomputed into
    /// `fresh` from `btran`'s terms in `btran`'s order, ascending basis
    /// position, by whichever walk costs less: down `colpat[k]` for every
    /// `k` of the pattern, one scattered read of `B⁻¹` per term, or across
    /// every row of `B⁻¹` restricted to the pattern, which scans all `m`
    /// row patterns but reads the terms in storage order. Only the entries
    /// of `fresh` on the pattern are written or read.
    fn update_duals(
        &self,
        cost: &[f64],
        y: &mut [f64],
        fresh: &mut [f64],
        r: usize,
        pricing: &mut Pricing,
    ) {
        let (m, words) = (self.m, self.m.div_ceil(64));
        let pattern_r = self.pattern_row(r);
        // The column walk's reads, counted only until the row walk wins.
        let limit = m * words / SCATTERED_READ;
        let mut scattered = 0;
        let sparse = ones(pattern_r).all(|k| {
            scattered += count_ones(self.colpat_col(k));
            scattered <= limit
        });
        for_each_bit(pattern_r, |k| fresh[k] = 0.0);
        if sparse {
            for_each_bit(pattern_r, |k| {
                for_each_bit(self.colpat_col(k), |pos| {
                    let cb = cost[self.basis[pos]];
                    if cb != 0.0 {
                        fresh[k] += cb * self.binv[pos * m + k];
                    }
                });
            });
        } else {
            for (pos, &bj) in self.basis.iter().enumerate() {
                let cb = cost[bj];
                if cb != 0.0 {
                    let row = &self.binv[pos * m..(pos + 1) * m];
                    for (w, (&a, &b)) in self.pattern_row(pos).iter().zip(pattern_r).enumerate() {
                        for_each_bit(&[a & b], |bit| {
                            fresh[w * 64 + bit] += cb * row[w * 64 + bit]
                        });
                    }
                }
            }
        }
        for_each_bit(pattern_r, |k| {
            if fresh[k].to_bits() != y[k].to_bits() {
                y[k] = fresh[k];
                pricing.invalidate_row(k);
            }
        });
        debug_assert!(
            same_bits(y, &self.btran(cost)),
            "the duals differ from a fresh btran"
        );
    }

    /// The primal simplex loop for a given cost vector.
    ///
    /// # Duals and reduced costs across iterations
    ///
    /// `y`, the reduced costs and the block winners live for the whole
    /// call (the module doc says why each keeps the bits a fresh `btran`
    /// and a full scan would give). A bound flip moves `x` and one
    /// nonbasic `state` between `AtLower` and `AtUpper`: it leaves `y`
    /// and every `d_j` alone and marks the flipped column dirty. A pivot
    /// marks the entering and the leaving column dirty and updates `y` on
    /// the pivot row's pattern, which marks dirty every column whose
    /// `d_j` it drops; a refactor rebuilds `B⁻¹` and may repair the
    /// basis, so after one `y` comes from a full `btran` and every
    /// column is dirty. Whether `d_j` is
    /// valid depends on `y` alone, not on the column's state, so a column
    /// that leaves the basis prices from the cache if its rows' duals
    /// kept their bits. The set of columns priced (basic, fixed,
    /// artificial in phase 1 excluded) is read afresh at every rescan.
    /// Nothing but buffers outlives the call: `add_column`, `reoptimize`
    /// and `solve` always start from a fresh `btran` and an empty cache,
    /// in the buffers the solver keeps.
    fn optimize(&mut self, cost: &[f64], phase1: bool) -> SolveStatus {
        let mut pricing = std::mem::take(&mut self.pricing);
        let mut scratch = std::mem::take(&mut self.scratch);
        let status = self.iterate(cost, phase1, &mut pricing, &mut scratch);
        self.pricing = pricing;
        self.scratch = scratch;
        status
    }

    /// [`Simplex::optimize`] under the phase-2 objective, which stays out
    /// of `self` for the call so that it can be read beside `&mut self`.
    fn optimize_phase2(&mut self) -> SolveStatus {
        let obj = std::mem::take(&mut self.obj);
        let status = self.optimize(&obj, false);
        self.obj = obj;
        status
    }

    /// The loop of [`Simplex::optimize`], in the buffers it took out of
    /// the solver.
    fn iterate(
        &mut self,
        cost: &[f64],
        phase1: bool,
        pricing: &mut Pricing,
        scratch: &mut Scratch,
    ) -> SolveStatus {
        let mut consecutive_degenerate = 0usize;
        let mut use_bland = false;
        // Artificials are the last `m` columns and never re-enter in
        // phase 1, so its pricing stops short of them.
        let end = if phase1 {
            self.ncols() - self.m
        } else {
            self.ncols()
        };
        pricing.reset(&self.cols, end, self.m);
        let Scratch { y, w, fresh, pivot } = scratch;
        // Every `d_j` starts invalid, so the rows whose dual stays `+0`
        // have nothing to invalidate.
        y.clear();
        y.resize(self.m, 0.0);
        self.refresh_duals(cost, y, fresh, pricing);
        loop {
            if self.iterations >= self.opts.max_iterations {
                return SolveStatus::Limit;
            }
            self.iterations += 1;

            let oracle =
                cfg!(debug_assertions).then(|| self.full_scan_pick(pricing, cost, y, use_bland));
            let entering = self.pick(pricing, cost, y, use_bland);
            if let Some(oracle) = oracle {
                assert_eq!(entering, oracle, "the block pick differs from a full scan");
            }
            let Some((j, _, dir)) = entering else {
                return SolveStatus::Optimal;
            };
            let dir = f64::from(dir);

            // Ratio test.
            self.ftran(j, w);
            let range = self.ub[j] - self.lb[j];
            let mut t_star = if range.is_finite() {
                range
            } else {
                f64::INFINITY
            };
            let mut leaving: Option<usize> = None;
            let mut leaving_coef: f64 = 0.0;
            for (i, &wi) in w.iter().enumerate() {
                if wi.abs() <= PIVOT_ZERO {
                    continue;
                }
                let bj = self.basis[i];
                let xv = self.x[bj];
                let rate = dir * wi; // x_basic(i) decreases at `rate` per unit t
                let t_i = if rate > 0.0 {
                    if self.lb[bj].is_finite() {
                        ((xv - self.lb[bj]) / rate).max(0.0)
                    } else {
                        continue;
                    }
                } else if self.ub[bj].is_finite() {
                    ((self.ub[bj] - xv) / -rate).max(0.0)
                } else {
                    continue;
                };
                let better = match leaving {
                    None => t_i < t_star - 1e-12,
                    Some(_) => {
                        t_i < t_star - 1e-12
                            || (t_i < t_star + 1e-12 && wi.abs() > leaving_coef.abs())
                    }
                };
                if better {
                    t_star = t_i;
                    leaving = Some(i);
                    leaving_coef = wi;
                }
            }

            if t_star.is_infinite() {
                return SolveStatus::Unbounded;
            }
            if t_star <= 1e-10 {
                consecutive_degenerate += 1;
                if consecutive_degenerate > self.opts.bland_trigger {
                    use_bland = true;
                }
            } else {
                consecutive_degenerate = 0;
                use_bland = false;
            }

            match leaving {
                None => {
                    // Bound flip: j travels to its opposite bound.
                    for (i, &wi) in w.iter().enumerate() {
                        if wi != 0.0 {
                            let bj = self.basis[i];
                            self.x[bj] -= dir * t_star * wi;
                        }
                    }
                    self.x[j] += dir * t_star;
                    self.state[j] = match self.state[j] {
                        VarState::AtLower => VarState::AtUpper,
                        VarState::AtUpper => VarState::AtLower,
                        s => s,
                    };
                    pricing.touch(j);
                }
                Some(r) => {
                    // Update basic values, move j into the basis at row r.
                    for (i, &wi) in w.iter().enumerate() {
                        if wi != 0.0 {
                            let bj = self.basis[i];
                            self.x[bj] -= dir * t_star * wi;
                        }
                    }
                    let out = self.basis[r];
                    // The leaving variable rests at the bound it hit.
                    let out_rate = dir * w[r];
                    if out_rate > 0.0 {
                        self.x[out] = self.lb[out];
                        self.state[out] = VarState::AtLower;
                    } else {
                        self.x[out] = self.ub[out];
                        self.state[out] = VarState::AtUpper;
                    }
                    self.x[j] += dir * t_star;
                    self.state[j] = VarState::Basic;
                    self.basis[r] = j;
                    self.update_binv(r, w, pivot);
                    pricing.touch(j);
                    pricing.touch(out);
                    self.pivots_since_refactor += 1;
                    if self.pivots_since_refactor >= self.opts.refactor_every {
                        self.refactor();
                        pricing.touch_all();
                        self.refresh_duals(cost, y, fresh, pricing);
                    } else {
                        self.update_duals(cost, y, fresh, r, pricing);
                    }
                }
            }
        }
    }

    /// Product-form update of `B⁻¹` after `basis[r]` was replaced; `w` is
    /// the FTRAN of the entering column. Only row `r`'s pattern is
    /// scaled and subtracted; every row it is subtracted from takes that
    /// pattern into its own.
    fn update_binv(&mut self, r: usize, w: &[f64], scratch: &mut PivotRow) {
        let (m, words) = (self.m, self.m.div_ceil(64));
        let pivot = w[r];
        debug_assert!(pivot.abs() > PIVOT_ZERO, "singular pivot");
        let inv = 1.0 / pivot;
        let PivotRow {
            pattern: pattern_r,
            entries: row_r,
            touched,
        } = scratch;
        pattern_r.clear();
        pattern_r.extend_from_slice(self.pattern_row(r));
        row_r.clear();
        for_each_bit(pattern_r, |k| {
            self.binv[r * m + k] *= inv;
            row_r.push((k, self.binv[r * m + k]));
        });
        // Row `r` and every row it is subtracted from.
        touched.clear();
        touched.resize(words, 0);
        set_bit(touched, r);
        for (i, &f) in w.iter().enumerate() {
            if i != r && f != 0.0 {
                let row = &mut self.binv[i * m..(i + 1) * m];
                for &(k, v) in row_r.iter() {
                    row[k] -= f * v;
                }
                let pattern_i = &mut self.pattern[i * words..(i + 1) * words];
                for (dst, &src) in pattern_i.iter_mut().zip(pattern_r.iter()) {
                    *dst |= src;
                }
                set_bit(touched, i);
            }
        }
        // Every touched row's pattern now has each bit of row `r`'s.
        for_each_bit(pattern_r, |k| {
            let column = &mut self.colpat[k * words..(k + 1) * words];
            for (dst, &src) in column.iter_mut().zip(touched.iter()) {
                *dst |= src;
            }
        });
    }

    /// Whether every entry of `binv` outside its row patterns is ±0, and
    /// `colpat` is exactly the transpose of the row patterns.
    fn patterns_cover_binv(&self) -> bool {
        let m = self.m;
        let covered = (0..m).all(|i| {
            let pattern = self.pattern_row(i);
            (0..m).all(|k| has_bit(pattern, k) || self.binv[i * m + k] == 0.0)
        });
        covered && self.colpat == transpose(m, &self.pattern)
    }

    /// Rebuilds `B⁻¹` from the basis by Gauss-Jordan elimination with
    /// partial pivoting, then recomputes basic values. If the basis is
    /// numerically singular, the column the elimination failed at is
    /// replaced by the artificial of a row it had not pivoted on yet,
    /// and the elimination runs again.
    fn refactor(&mut self) {
        let m = self.m;
        debug_assert!(
            self.patterns_cover_binv(),
            "an entry of B⁻¹ outside its row pattern is nonzero, or the \
             column patterns are not the rows' transposed"
        );
        clear_along(&mut self.binv, m, &self.pattern);
        // All ±0, so a store left by a solve of another size serves.
        self.work.resize(m * m, 0.0);
        loop {
            let basis_cols = self.basis.iter().map(|&j| &self.cols[j]);
            let scratch = &mut self.invert_scratch;
            let Err(col) = invert(m, basis_cols, &mut self.binv, &mut self.work, scratch) else {
                std::mem::swap(&mut self.pattern, &mut scratch.inv_rows);
                transpose_into(m, &self.pattern, &mut self.colpat);
                break;
            };
            // Basis repair: the columns before `col` pivoted on the rows
            // `row_order[..col]`, and the artificial of any other row,
            // a unit column, pivots on its own row at step `col`. So the
            // next elimination gets at least one step further and the
            // repairs end within `m`. One such artificial is nonbasic:
            // one at an earlier position would have pivoted its row,
            // the failed column is none of them, and the positions after
            // `col` are one fewer than the rows not pivoted on.
            let j = self.invert_scratch.row_order[col..]
                .iter()
                .map(|&i| self.art_index(i))
                .filter(|j| !self.basis.contains(j))
                .min()
                .expect("a row not pivoted on has a nonbasic artificial");
            let old = self.basis[col];
            self.basis[col] = j;
            // At a bound pricing can move it away from: a `≥` slack
            // rests at its upper bound 0, a free column at `FreeZero`.
            (self.x[old], self.state[old]) = self.resting(old);
            self.state[j] = VarState::Basic;
        }
        self.pivots_since_refactor = 0;
        self.recompute_basic_values();
    }

    /// x_B = B⁻¹ (b − N x_N).
    fn recompute_basic_values(&mut self) {
        let m = self.m;
        self.btilde.clear();
        self.btilde.extend_from_slice(&self.rhs);
        for j in 0..self.ncols() {
            if self.state[j] != VarState::Basic && self.x[j] != 0.0 {
                for &(r, a) in &self.cols[j] {
                    self.btilde[r] -= a * self.x[j];
                }
            }
        }
        for pos in 0..m {
            let mut v = 0.0;
            let row = &self.binv[pos * m..(pos + 1) * m];
            for_each_bit(self.pattern_row(pos), |i| v += row[i] * self.btilde[i]);
            self.x[self.basis[pos]] = v;
        }
    }

    /// After phase 1, pivots remaining basic artificials out where a
    /// non-artificial column with nonzero pivot exists.
    fn evict_artificials(&mut self) {
        let m = self.m;
        let mut scratch = std::mem::take(&mut self.scratch);
        for pos in 0..m {
            let bj = self.basis[pos];
            if !self.is_artificial(bj) {
                continue;
            }
            // ρ = row `pos` of B⁻¹; candidate pivot element is ρ·A_j.
            let rho = &self.binv[pos * m..(pos + 1) * m];
            let mut found = None;
            for j in 0..self.ncols() - self.m {
                if self.state[j] == VarState::Basic || self.lb[j] == self.ub[j] {
                    continue;
                }
                let mut piv = 0.0;
                for &(r, a) in &self.cols[j] {
                    piv += rho[r] * a;
                }
                if piv.abs() > 1e-7 {
                    found = Some(j);
                    break;
                }
            }
            if let Some(j) = found {
                // Degenerate pivot: artificial leaves at value 0.
                self.ftran(j, &mut scratch.w);
                let out = self.basis[pos];
                self.x[j] = match self.state[j] {
                    VarState::AtLower => self.lb[j],
                    VarState::AtUpper => self.ub[j],
                    _ => 0.0,
                };
                self.state[out] = VarState::AtLower;
                self.x[out] = 0.0;
                self.state[j] = VarState::Basic;
                self.basis[pos] = j;
                self.update_binv(pos, &scratch.w, &mut scratch.pivot);
                self.pivots_since_refactor += 1;
            }
            // Otherwise the row is linearly dependent: the artificial
            // stays basic, fixed to zero by phase-2 bounds.
        }
        self.scratch = scratch;
        if self.pivots_since_refactor >= self.opts.refactor_every {
            self.refactor();
        }
    }
}

/// Columns per block of the Dantzig pick: one word of `Pricing::valid`.
const BLOCK: usize = 64;

/// What one scattered read of `B⁻¹` costs, in pattern words scanned in
/// order: `update_duals` walks the column patterns while they read at
/// most `m·⌈m/64⌉ / SCATTERED_READ` entries. Either walk returns the
/// same bits. Timing both walks on every update of the SLOTOFF
/// (241 rows) and `plan_build` (418 rows) masters on a 2-core x86-64
/// host, seeds 1 and 2: the summed update time is flat for ratios from
/// 2 to 8 and lowest at 3–4. On SLOTOFF it is less than half of either
/// walk alone, because its pivot rows are sparse in some pivots and
/// dense in others. On `plan_build` the column walk alone costs 3×.
const SCATTERED_READ: usize = 3;

/// A column pricing would enter: its index, violation and direction.
type Candidate = (usize, f64, i8);

/// The reduced costs and block winners one `optimize` call keeps across
/// its iterations (the module doc says why they stay exact). The solver
/// keeps the buffers from call to call; [`Pricing::reset`] empties them.
#[derive(Debug, Clone, Default)]
struct Pricing {
    /// Per row, the priced columns with an entry in it: `(block, mask)`
    /// pairs in ascending block order, one mask bit per column. Rows past
    /// the current problem's hold whatever a larger one left.
    row_masks: Vec<Vec<(usize, u64)>>,
    /// `d[j]` is `c_j − y·A_j` under the current `y` if `valid` has bit `j`.
    d: Vec<f64>,
    valid: Vec<u64>,
    /// Per block of `BLOCK` columns: the columns whose `d_j` was dropped
    /// or whose state changed since the block was last scanned, and the
    /// winner of that scan — largest violation, ties to the lowest index.
    dirty: Vec<u64>,
    best: Vec<Option<Candidate>>,
}

impl Pricing {
    /// Empties the cache over the first `end` of `cols` on `m` rows,
    /// every column dirty.
    fn reset(&mut self, cols: &Columns, end: usize, m: usize) {
        if self.row_masks.len() < m {
            self.row_masks.resize_with(m, Vec::new);
        }
        for masks in &mut self.row_masks[..m] {
            masks.clear();
        }
        for j in 0..end {
            let (block, bit) = (j / BLOCK, 1 << (j % BLOCK));
            for &(r, _) in &cols[j] {
                let masks = &mut self.row_masks[r];
                match masks.last_mut() {
                    Some((last, mask)) if *last == block => *mask |= bit,
                    _ => masks.push((block, bit)),
                }
            }
        }
        let blocks = end.div_ceil(BLOCK);
        self.d.clear();
        self.d.resize(end, 0.0);
        for words in [&mut self.valid, &mut self.dirty] {
            words.clear();
            words.resize(blocks, 0);
        }
        self.best.clear();
        self.best.resize(blocks, None);
        self.touch_all();
    }

    /// The mask of every priced column of block `b`.
    fn block_mask(&self, b: usize) -> u64 {
        match self.d.len() - b * BLOCK {
            len if len >= BLOCK => !0,
            len => (1 << len) - 1,
        }
    }

    /// The cached `d_j`, computed by `fresh` first if it is not valid.
    fn reduced_cost(&mut self, j: usize, fresh: impl FnOnce() -> f64) -> f64 {
        if !has_bit(&self.valid, j) {
            self.d[j] = fresh();
            set_bit(&mut self.valid, j);
        }
        self.d[j]
    }

    /// Drops the reduced cost of every column with an entry in row `r`.
    fn invalidate_row(&mut self, r: usize) {
        for &(block, mask) in &self.row_masks[r] {
            self.valid[block] &= !mask;
            self.dirty[block] |= mask;
        }
    }

    /// Marks column `j` dirty after its state changed; a column outside
    /// the priced range has no block.
    fn touch(&mut self, j: usize) {
        if j < self.d.len() {
            self.dirty[j / BLOCK] |= 1 << (j % BLOCK);
        }
    }

    /// Marks every column dirty, so every block is rescanned whole.
    fn touch_all(&mut self) {
        for b in 0..self.dirty.len() {
            self.dirty[b] = self.block_mask(b);
        }
    }
}

/// The solver's columns, each a run of `(row, coefficient)` entries in
/// one store, so that a reload refills it without allocating.
#[derive(Debug, Clone, Default)]
struct Columns {
    entries: Vec<(usize, f64)>,
    /// Per column, its run `start..end` of `entries`.
    spans: Vec<(usize, usize)>,
}

impl Columns {
    fn len(&self) -> usize {
        self.spans.len()
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.spans.clear();
    }

    /// Appends a column of the entries `fill` appends.
    fn push_with(&mut self, fill: impl FnOnce(&mut Vec<(usize, f64)>)) {
        let start = self.entries.len();
        fill(&mut self.entries);
        self.spans.push((start, self.entries.len()));
    }

    fn push(&mut self, col: &[(usize, f64)]) {
        self.push_with(|entries| entries.extend_from_slice(col));
    }

    /// Inserts `col` as column `j` and returns its stored entries.
    fn insert(&mut self, j: usize, col: &[(usize, f64)]) -> &mut [(usize, f64)] {
        let start = self.entries.len();
        self.entries.extend_from_slice(col);
        self.spans.insert(j, (start, self.entries.len()));
        &mut self.entries[start..]
    }

    fn get_mut(&mut self, j: usize) -> &mut [(usize, f64)] {
        let (start, end) = self.spans[j];
        &mut self.entries[start..end]
    }

    fn iter(&self) -> impl Iterator<Item = &[(usize, f64)]> {
        self.spans
            .iter()
            .map(|&(start, end)| &self.entries[start..end])
    }
}

impl std::ops::Index<usize> for Columns {
    type Output = [(usize, f64)];

    fn index(&self, j: usize) -> &[(usize, f64)] {
        let (start, end) = self.spans[j];
        &self.entries[start..end]
    }
}

/// The buffers an `optimize` call fills, kept by the solver so that no
/// iteration allocates them.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// The duals the call keeps.
    y: Vec<f64>,
    /// `ftran`'s column `B⁻¹ A_j`.
    w: Vec<f64>,
    /// The duals `refresh_duals` and `update_duals` recompute.
    fresh: Vec<f64>,
    pivot: PivotRow,
}

/// `update_binv`'s copy of the pivot row's pattern and entries, and the
/// rows it is subtracted from.
#[derive(Debug, Clone, Default)]
struct PivotRow {
    pattern: Vec<u64>,
    entries: Vec<(usize, f64)>,
    touched: Vec<u64>,
}

/// `invert`'s bitsets and pivot rows. After an `invert` that succeeds,
/// `inv_rows` holds the inverse's row patterns.
#[derive(Debug, Clone, Default)]
struct InvertScratch {
    a_rows: Vec<u64>,
    a_cols: Vec<u64>,
    inv_rows: Vec<u64>,
    /// `row_order[k]`: the row of the basis matrix now at row `k` of the
    /// work matrix. After a failure at step `col`, `row_order[col..]`
    /// are the rows not pivoted on.
    row_order: Vec<usize>,
    col_pattern: Vec<u64>,
    union: Vec<u64>,
    pivot_row: Vec<(usize, f64)>,
    pivot_inv_row: Vec<(usize, f64)>,
}

/// Offers `candidate` to a running Dantzig pick: a strictly larger
/// violation replaces the best, so ties stay with the earlier column.
fn offer(best: &mut Option<Candidate>, candidate: Candidate) {
    match best {
        Some((_, viol, _)) if candidate.1 <= *viol => {}
        _ => *best = Some(candidate),
    }
}

/// Whether `a` and `b` hold the same bits.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The column patterns of the `m` row patterns in `pattern`.
fn transpose(m: usize, pattern: &[u64]) -> Vec<u64> {
    let mut colpat = Vec::new();
    transpose_into(m, pattern, &mut colpat);
    colpat
}

/// [`transpose`] into `colpat`'s buffer.
fn transpose_into(m: usize, pattern: &[u64], colpat: &mut Vec<u64>) {
    let words = m.div_ceil(64);
    colpat.clear();
    colpat.resize(m * words, 0);
    for i in 0..m {
        for_each_bit(&pattern[i * words..(i + 1) * words], |k| {
            set_bit(&mut colpat[k * words..], i);
        });
    }
}

fn set_bit(pattern: &mut [u64], k: usize) {
    pattern[k / 64] |= 1 << (k % 64);
}

fn has_bit(pattern: &[u64], k: usize) -> bool {
    pattern[k / 64] >> (k % 64) & 1 == 1
}

/// The set bits of `pattern`, in ascending order.
fn ones(pattern: &[u64]) -> impl Iterator<Item = usize> + '_ {
    pattern.iter().enumerate().flat_map(|(w, &word)| {
        std::iter::successors((word != 0).then_some(word), |&bits| {
            let rest = bits & (bits - 1);
            (rest != 0).then_some(rest)
        })
        .map(move |bits| w * 64 + bits.trailing_zeros() as usize)
    })
}

fn count_ones(pattern: &[u64]) -> usize {
    pattern.iter().map(|w| w.count_ones() as usize).sum()
}

/// Calls `f(k)` for every set bit `k` of `pattern`, in ascending order.
#[inline]
fn for_each_bit(pattern: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in pattern.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            f(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// Inverts the `m × m` matrix whose column `pos` is the `pos`-th of
/// `columns` by Gauss-Jordan with partial pivoting, into `inv` (row-major,
/// all ±0 on entry), with `inv`'s row patterns in `scratch.inv_rows`.
/// Fails, with `inv` all ±0 again, if a pivot smaller than `PIVOT_ZERO`
/// is met: the error is the step (column) it was met at, and
/// `scratch.row_order[step..]` are the rows not pivoted on. `a` is the
/// work matrix the elimination runs in; it must be all ±0 on entry and
/// is handed back so on either path, cleared along its row patterns.
///
/// The work matrix carries row and column patterns and the inverse row
/// patterns, each a superset of the nonzeros, so the pivot search and
/// the elimination visit only the rows of column `col`'s pattern, in
/// ascending order, and a row update only the pivot row's pattern. The
/// rows skipped hold ±0 in column `col`: the strict `>` of the pivot
/// search never takes them and the dense elimination skipped them too,
/// so the pivot sequence and every nonzero are the dense elimination's.
fn invert<'c>(
    m: usize,
    columns: impl Iterator<Item = &'c [(usize, f64)]>,
    inv: &mut [f64],
    a: &mut [f64],
    scratch: &mut InvertScratch,
) -> Result<(), usize> {
    let words = m.div_ceil(64);
    let InvertScratch {
        a_rows,
        a_cols,
        inv_rows,
        row_order,
        col_pattern,
        union,
        pivot_row,
        pivot_inv_row,
    } = scratch;
    for bits in [&mut *a_rows, &mut *a_cols, &mut *inv_rows] {
        bits.clear();
        bits.resize(m * words, 0);
    }
    col_pattern.clear();
    col_pattern.resize(words, 0);
    row_order.clear();
    row_order.extend(0..m);
    for (pos, col) in columns.enumerate() {
        for &(r, v) in col {
            a[r * m + pos] = v;
            set_bit(&mut a_rows[r * words..], pos);
            set_bit(&mut a_cols[pos * words..], r);
        }
    }
    for i in 0..m {
        inv[i * m + i] = 1.0;
        set_bit(&mut inv_rows[i * words..], i);
    }
    let mut singular = None;
    for col in 0..m {
        col_pattern.copy_from_slice(&a_cols[col * words..(col + 1) * words]);
        // Partial pivot.
        let mut best = col;
        let mut best_abs = a[col * m + col].abs();
        for_each_bit(col_pattern, |r| {
            if r > col {
                let v = a[r * m + col].abs();
                if v > best_abs {
                    best = r;
                    best_abs = v;
                }
            }
        });
        if best_abs <= PIVOT_ZERO {
            singular = Some(col);
            break;
        }
        if best != col {
            row_order.swap(col, best);
            // Entries outside both rows' patterns are ±0 in both and stay.
            let union_of = |union: &mut Vec<u64>, rows: &[u64]| {
                union.clear();
                union.extend((0..words).map(|w| rows[col * words + w] | rows[best * words + w]));
            };
            union_of(union, a_rows);
            for_each_bit(union, |k| {
                a.swap(col * m + k, best * m + k);
                let column = &mut a_cols[k * words..(k + 1) * words];
                if has_bit(column, col) != has_bit(column, best) {
                    column[col / 64] ^= 1 << (col % 64);
                    column[best / 64] ^= 1 << (best % 64);
                }
            });
            union_of(union, inv_rows);
            for_each_bit(union, |k| inv.swap(col * m + k, best * m + k));
            for w in 0..words {
                a_rows.swap(col * words + w, best * words + w);
                inv_rows.swap(col * words + w, best * words + w);
            }
            col_pattern.copy_from_slice(&a_cols[col * words..(col + 1) * words]);
        }
        let inv_piv = 1.0 / a[col * m + col];
        pivot_row.clear();
        for_each_bit(&a_rows[col * words..(col + 1) * words], |k| {
            a[col * m + k] *= inv_piv;
            pivot_row.push((k, a[col * m + k]));
        });
        pivot_inv_row.clear();
        for_each_bit(&inv_rows[col * words..(col + 1) * words], |k| {
            inv[col * m + k] *= inv_piv;
            pivot_inv_row.push((k, inv[col * m + k]));
        });
        for_each_bit(col_pattern, |r| {
            if r == col {
                return;
            }
            let f = a[r * m + col];
            if f == 0.0 {
                return;
            }
            for &(k, v) in pivot_row.iter() {
                a[r * m + k] -= f * v;
            }
            for &(k, v) in pivot_inv_row.iter() {
                inv[r * m + k] -= f * v;
            }
            for w in 0..words {
                let fill = a_rows[col * words + w] & !a_rows[r * words + w];
                a_rows[r * words + w] |= fill;
                for_each_bit(&[fill], |b| set_bit(&mut a_cols[(w * 64 + b) * words..], r));
                inv_rows[r * words + w] |= inv_rows[col * words + w];
            }
        });
    }
    clear_along(a, m, a_rows);
    debug_assert!(
        a.iter().all(|&v| v == 0.0),
        "invert hands back a nonzero work matrix"
    );
    match singular {
        Some(col) => {
            clear_along(inv, m, inv_rows);
            Err(col)
        }
        None => Ok(()),
    }
}

/// Zeroes every entry of the row-major `m × m` `store` under its row
/// patterns `pattern`; a store whose other entries are ±0 is all ±0
/// afterwards.
fn clear_along(store: &mut [f64], m: usize, pattern: &[u64]) {
    let words = m.div_ceil(64);
    for i in 0..m {
        let row = &mut store[i * m..(i + 1) * m];
        for_each_bit(&pattern[i * words..(i + 1) * words], |k| row[k] = 0.0);
    }
}

/// Convenience one-shot LP solve.
pub fn solve_lp(problem: &Problem) -> LpSolution {
    Simplex::from_problem(problem).solve()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Problem, Relation};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn dantzig_example() {
        let mut p = Problem::new();
        let x = p.add_var("x", -3.0, 0.0, f64::INFINITY);
        let y = p.add_var("y", -5.0, 0.0, f64::INFINITY);
        let r1 = p.add_row("r1", Relation::Le, 4.0);
        let r2 = p.add_row("r2", Relation::Le, 12.0);
        let r3 = p.add_row("r3", Relation::Le, 18.0);
        p.set_coeff(r1, x, 1.0);
        p.set_coeff(r2, y, 2.0);
        p.set_coeff(r3, x, 3.0);
        p.set_coeff(r3, y, 2.0);
        let sol = solve_lp(&p);
        assert!(sol.status.is_optimal());
        assert_close(sol.objective, -36.0);
        assert_close(sol.x[0], 2.0);
        assert_close(sol.x[1], 6.0);
        // Duals: y1 = 0 (slack), y2 = -3/2, y3 = -1.
        assert_close(sol.duals[0], 0.0);
        assert_close(sol.duals[1], -1.5);
        assert_close(sol.duals[2], -1.0);
    }

    #[test]
    fn equality_rows_need_phase1() {
        // min x + y  s.t. x + y = 10, x - y = 2  → x=6, y=4, obj 10.
        let mut p = Problem::new();
        let x = p.add_var("x", 1.0, 0.0, f64::INFINITY);
        let y = p.add_var("y", 1.0, 0.0, f64::INFINITY);
        let r1 = p.add_row("sum", Relation::Eq, 10.0);
        let r2 = p.add_row("diff", Relation::Eq, 2.0);
        p.set_coeff(r1, x, 1.0);
        p.set_coeff(r1, y, 1.0);
        p.set_coeff(r2, x, 1.0);
        p.set_coeff(r2, y, -1.0);
        let sol = solve_lp(&p);
        assert!(sol.status.is_optimal());
        assert_close(sol.x[0], 6.0);
        assert_close(sol.x[1], 4.0);
        assert_close(sol.objective, 10.0);
    }

    #[test]
    fn ge_rows_and_duals() {
        // min 2x + 3y  s.t. x + y ≥ 4, x ≥ 1 → x=4,y=0? obj: x=4 → 8;
        // candidates: (4,0): 8, (1,3): 11 → optimum (4,0).
        let mut p = Problem::new();
        let x = p.add_var("x", 2.0, 0.0, f64::INFINITY);
        let y = p.add_var("y", 3.0, 0.0, f64::INFINITY);
        let r1 = p.add_row("cover", Relation::Ge, 4.0);
        let r2 = p.add_row("xmin", Relation::Ge, 1.0);
        p.set_coeff(r1, x, 1.0);
        p.set_coeff(r1, y, 1.0);
        p.set_coeff(r2, x, 1.0);
        let sol = solve_lp(&p);
        assert!(sol.status.is_optimal());
        assert_close(sol.objective, 8.0);
        assert_close(sol.x[0], 4.0);
        assert_close(sol.x[1], 0.0);
        // Binding Ge row in a min problem has dual ≥ 0: y1 = 2.
        assert_close(sol.duals[0], 2.0);
        assert_close(sol.duals[1], 0.0);
    }

    #[test]
    fn upper_bounded_variables() {
        // min -x - 2y  s.t. x + y ≤ 4, 0 ≤ x ≤ 3, 0 ≤ y ≤ 2 → y=2, x=2, obj -6.
        let mut p = Problem::new();
        let x = p.add_var("x", -1.0, 0.0, 3.0);
        let y = p.add_var("y", -2.0, 0.0, 2.0);
        let r = p.add_row("r", Relation::Le, 4.0);
        p.set_coeff(r, x, 1.0);
        p.set_coeff(r, y, 1.0);
        let sol = solve_lp(&p);
        assert!(sol.status.is_optimal());
        assert_close(sol.objective, -6.0);
        assert_close(sol.x[0], 2.0);
        assert_close(sol.x[1], 2.0);
    }

    #[test]
    fn bound_flip_only_problem() {
        // min -x - y with 0 ≤ x ≤ 1, 0 ≤ y ≤ 2 and a vacuous row.
        let mut p = Problem::new();
        let _x = p.add_var("x", -1.0, 0.0, 1.0);
        let _y = p.add_var("y", -1.0, 0.0, 2.0);
        let r = p.add_row("r", Relation::Le, 100.0);
        p.set_coeff(r, VarId0(0), 1.0);
        let sol = solve_lp(&p);
        assert!(sol.status.is_optimal());
        assert_close(sol.objective, -3.0);
    }

    // Helper to construct VarId without importing (tests readability).
    #[allow(non_snake_case)]
    fn VarId0(i: usize) -> crate::problem::VarId {
        crate::problem::VarId(i)
    }

    #[test]
    fn infeasible_detection() {
        // x ≤ 1 and x ≥ 3.
        let mut p = Problem::new();
        let x = p.add_var("x", 0.0, 0.0, f64::INFINITY);
        let r1 = p.add_row("le", Relation::Le, 1.0);
        let r2 = p.add_row("ge", Relation::Ge, 3.0);
        p.set_coeff(r1, x, 1.0);
        p.set_coeff(r2, x, 1.0);
        let sol = solve_lp(&p);
        assert_eq!(sol.status, SolveStatus::Infeasible);
    }

    #[test]
    fn unbounded_detection() {
        // min -x, x ≥ 0 free of rows except vacuous.
        let mut p = Problem::new();
        let x = p.add_var("x", -1.0, 0.0, f64::INFINITY);
        let y = p.add_var("y", 0.0, 0.0, 1.0);
        let r = p.add_row("r", Relation::Le, 5.0);
        p.set_coeff(r, y, 1.0);
        let _ = x;
        let sol = solve_lp(&p);
        assert_eq!(sol.status, SolveStatus::Unbounded);
    }

    #[test]
    fn free_variables() {
        // min x  s.t. x ≥ -5 expressed via row (x free).
        let mut p = Problem::new();
        let x = p.add_var("x", 1.0, f64::NEG_INFINITY, f64::INFINITY);
        let r = p.add_row("r", Relation::Ge, -5.0);
        p.set_coeff(r, x, 1.0);
        let sol = solve_lp(&p);
        assert!(sol.status.is_optimal());
        assert_close(sol.x[0], -5.0);
        assert_close(sol.objective, -5.0);
    }

    #[test]
    fn negative_rhs_rows() {
        // min x + y s.t. -x - y ≤ -3 (i.e. x + y ≥ 3), x,y ∈ [0,10].
        let mut p = Problem::new();
        let x = p.add_var("x", 1.0, 0.0, 10.0);
        let y = p.add_var("y", 1.0, 0.0, 10.0);
        let r = p.add_row("r", Relation::Le, -3.0);
        p.set_coeff(r, x, -1.0);
        p.set_coeff(r, y, -1.0);
        let sol = solve_lp(&p);
        assert!(sol.status.is_optimal());
        assert_close(sol.objective, 3.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Multiple redundant constraints through the optimum.
        let mut p = Problem::new();
        let x = p.add_var("x", -1.0, 0.0, f64::INFINITY);
        let y = p.add_var("y", -1.0, 0.0, f64::INFINITY);
        for rhs in [2.0, 2.0, 2.0, 2.0] {
            let r = p.add_row("r", Relation::Le, rhs);
            p.set_coeff(r, x, 1.0);
            p.set_coeff(r, y, 1.0);
        }
        let sol = solve_lp(&p);
        assert!(sol.status.is_optimal());
        assert_close(sol.objective, -2.0);
    }

    #[test]
    fn redundant_equalities_keep_artificial_basic() {
        // x + y = 2 twice (linearly dependent equality rows).
        let mut p = Problem::new();
        let x = p.add_var("x", 1.0, 0.0, f64::INFINITY);
        let y = p.add_var("y", 2.0, 0.0, f64::INFINITY);
        for _ in 0..2 {
            let r = p.add_row("r", Relation::Eq, 2.0);
            p.set_coeff(r, x, 1.0);
            p.set_coeff(r, y, 1.0);
        }
        let sol = solve_lp(&p);
        assert!(sol.status.is_optimal());
        assert_close(sol.objective, 2.0);
        assert_close(sol.x[0], 2.0);
    }

    #[test]
    fn fixed_variables_are_respected() {
        let mut p = Problem::new();
        let x = p.add_var("x", 1.0, 2.0, 2.0); // fixed at 2
        let y = p.add_var("y", 1.0, 0.0, f64::INFINITY);
        let r = p.add_row("r", Relation::Eq, 5.0);
        p.set_coeff(r, x, 1.0);
        p.set_coeff(r, y, 1.0);
        let sol = solve_lp(&p);
        assert!(sol.status.is_optimal());
        assert_close(sol.x[0], 2.0);
        assert_close(sol.x[1], 3.0);
    }

    #[test]
    fn column_generation_workflow() {
        // Cutting-stock-like master: cover demand 7 with pattern columns.
        // Start with a trivial expensive column, add a better one, check
        // the objective improves after reoptimize.
        let mut p = Problem::new();
        let expensive = p.add_var("slack-col", 10.0, 0.0, f64::INFINITY);
        let r = p.add_row("demand", Relation::Ge, 7.0);
        p.set_coeff(r, expensive, 1.0);
        let mut s = Simplex::from_problem(&p);
        let sol1 = s.solve();
        assert!(sol1.status.is_optimal());
        assert_close(sol1.objective, 70.0);
        let duals = s.duals();
        assert_close(duals[0], 10.0);
        // New column with cost 3, coefficient 2: reduced cost 3 - 2·10 < 0.
        let j = s.add_column(3.0, 0.0, f64::INFINITY, &[(0, 2.0)]);
        let sol2 = s.reoptimize();
        assert!(sol2.status.is_optimal());
        assert_close(sol2.objective, 10.5);
        assert_close(s.value(j), 3.5);
    }

    #[test]
    fn larger_random_lp_against_feasibility() {
        // A pseudo-random dense-ish LP; verify the solution is feasible
        // and complementary-slackness-consistent.
        let mut p = Problem::new();
        let n = 12;
        let m = 8;
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        let vars: Vec<_> = (0..n)
            .map(|j| p.add_var(format!("x{j}"), rng() * 2.0 - 1.0, 0.0, 2.0))
            .collect();
        for i in 0..m {
            let r = p.add_row(format!("r{i}"), Relation::Le, 3.0 + rng() * 3.0);
            for &v in &vars {
                if rng() < 0.5 {
                    p.set_coeff(r, v, rng());
                }
            }
        }
        let sol = solve_lp(&p);
        assert!(sol.status.is_optimal());
        assert!(p.is_feasible(&sol.x, 1e-6));
        // Le rows must have non-positive duals.
        for &d in &sol.duals {
            assert!(d <= 1e-7);
        }
    }

    fn xorshift(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// The dense Gauss-Jordan the pattern-driven `invert` replaced; on a
    /// singular matrix, the step it failed at.
    fn dense_invert(a: &mut [f64], m: usize) -> Result<Vec<f64>, usize> {
        let mut inv = vec![0.0; m * m];
        for i in 0..m {
            inv[i * m + i] = 1.0;
        }
        for col in 0..m {
            let mut best = col;
            let mut best_abs = a[col * m + col].abs();
            for r in col + 1..m {
                let v = a[r * m + col].abs();
                if v > best_abs {
                    best = r;
                    best_abs = v;
                }
            }
            if best_abs <= PIVOT_ZERO {
                return Err(col);
            }
            if best != col {
                for k in 0..m {
                    a.swap(col * m + k, best * m + k);
                    inv.swap(col * m + k, best * m + k);
                }
            }
            let inv_piv = 1.0 / a[col * m + col];
            for k in 0..m {
                a[col * m + k] *= inv_piv;
                inv[col * m + k] *= inv_piv;
            }
            for r in 0..m {
                if r != col {
                    let f = a[r * m + col];
                    if f != 0.0 {
                        for k in 0..m {
                            a[r * m + k] -= f * a[col * m + k];
                            inv[r * m + k] -= f * inv[col * m + k];
                        }
                    }
                }
            }
        }
        Ok(inv)
    }

    /// Random sparse bases: a scrambled diagonal (dropped for some
    /// positions, so some bases are singular) plus ≈ 5 % fill, at sizes on
    /// both sides of the 64-bit word boundaries. The pattern-driven
    /// `invert` must fail exactly when the dense one does, leaving the
    /// inverse all ±0, and otherwise return the same values — `==`
    /// forgives only the sign of a zero — with row patterns covering
    /// every nonzero. One work matrix and one scratch serve every basis
    /// of a size, as in the solver, so each call also relies on the last
    /// handing the work matrix back cleared.
    #[test]
    fn pattern_invert_matches_the_dense_gauss_jordan() {
        let mut rng = xorshift(0x5851_f42d_4c95_7f2d);
        let mut singular = 0;
        for m in [1, 2, 5, 63, 64, 65, 127, 130] {
            let mut work = vec![0.0; m * m];
            let mut scratch = InvertScratch::default();
            for _ in 0..6 {
                let mut columns: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
                for (pos, col) in columns.iter_mut().enumerate() {
                    let diag = (pos * 7 + 3) % m;
                    for r in 0..m {
                        let keep = if r == diag {
                            rng() < 0.97
                        } else {
                            rng() < 0.05
                        };
                        if keep {
                            let v = if rng() < 0.3 { 1.0 } else { 4.0 * rng() - 2.0 };
                            col.push((r, v));
                        }
                    }
                }
                let mut dense = vec![0.0; m * m];
                for (pos, col) in columns.iter().enumerate() {
                    for &(r, v) in col {
                        dense[r * m + pos] = v;
                    }
                }
                let expected = dense_invert(&mut dense, m);
                let mut inv = vec![0.0; m * m];
                let got = invert(
                    m,
                    columns.iter().map(Vec::as_slice),
                    &mut inv,
                    &mut work,
                    &mut scratch,
                );
                let expected = match (got, expected) {
                    (Ok(()), Ok(expected)) => expected,
                    (Err(step), Err(dense_step)) => {
                        assert_eq!(step, dense_step, "m = {m}");
                        assert!(inv.iter().all(|&v| v == 0.0), "m = {m}");
                        singular += 1;
                        continue;
                    }
                    (got, expected) => panic!("m = {m}: {got:?} against {:?}", expected.err()),
                };
                assert!(inv.iter().zip(&expected).all(|(a, b)| a == b), "m = {m}");
                let pattern = &scratch.inv_rows;
                let words = m.div_ceil(64);
                for i in 0..m {
                    for k in 0..m {
                        let row = &pattern[i * words..(i + 1) * words];
                        assert!(has_bit(row, k) || inv[i * m + k] == 0.0);
                    }
                }
            }
        }
        assert!(singular > 0, "no singular basis drawn");
    }

    /// A column-generation master: `≤` capacity rows, one `=` convexity
    /// row per class over two `1/2`-bounded rejection quantiles.
    fn small_master(caps: usize, classes: usize, drained: usize) -> Problem {
        let mut rng = xorshift(0x2545_f491_4f6c_dd1d);
        let mut p = Problem::new();
        for i in 0..caps {
            let rhs = if i % drained == 0 {
                0.0
            } else {
                5.0 + 10.0 * rng()
            };
            p.add_row(format!("cap{i}"), Relation::Le, rhs);
        }
        for k in 0..classes {
            let conv = p.add_row(format!("conv{k}"), Relation::Eq, 1.0);
            for q in 1..=2 {
                let v = p.add_var(format!("rej{k}q{q}"), 20.0 * q as f64, 0.0, 0.5);
                p.set_coeff(conv, v, 1.0);
            }
        }
        p
    }

    /// Adds one embedding column per class — a few capacity rows plus
    /// its convexity row — and re-optimizes, three times, checking after
    /// every solve that the patterns still cover `B⁻¹`.
    fn generate_columns(s: &mut Simplex, caps: usize, classes: usize) -> Vec<LpSolution> {
        let mut rng = xorshift(0x9e37_79b9_7f4a_7c15);
        let mut sols = vec![s.solve()];
        assert!(s.patterns_cover_binv());
        for _round in 0..3 {
            for k in 0..classes {
                let first = (rng() * caps as f64) as usize;
                let mut coeffs: Vec<(usize, f64)> = (0..3)
                    .map(|h| ((first + 2 * h) % caps, 0.5 + 2.0 * rng()))
                    .collect();
                coeffs.push((caps + k, 1.0));
                s.add_column(1.0 + 5.0 * rng(), 0.0, f64::INFINITY, &coeffs);
            }
            sols.push(s.reoptimize());
            assert!(s.patterns_cover_binv());
        }
        sols
    }

    /// `refactor_every: 1` rebuilds `B⁻¹` with the pattern-driven
    /// `invert` after every pivot, and debug builds check before each
    /// rebuild that the eta updates kept the patterns a superset of the
    /// nonzeros. The optima agree with the default cadence's.
    #[test]
    fn refactoring_after_every_pivot_keeps_the_optimum() {
        let (caps, classes) = (70, 40);
        let p = small_master(caps, classes, 1000);
        let every = SimplexOptions {
            refactor_every: 1,
            ..SimplexOptions::default()
        };
        let mut eager = Simplex::with_options(&p, every);
        let mut lazy = Simplex::from_problem(&p);
        let eager = generate_columns(&mut eager, caps, classes);
        let lazy = generate_columns(&mut lazy, caps, classes);
        for (a, b) in eager.iter().zip(&lazy) {
            assert!(a.status.is_optimal() && b.status.is_optimal());
            assert!((a.objective - b.objective).abs() < 1e-6 * (1.0 + b.objective.abs()));
        }
        assert!(
            lazy[3].objective < lazy[0].objective,
            "columns should have helped"
        );
    }

    /// Every capacity row drained to 0 and every convexity row doubled:
    /// the generated columns can only enter at value 0, so phase 2 is a
    /// run of degenerate pivots and the doubled rows keep artificials
    /// basic. With `refactor_every: 1` the pattern check and the
    /// pattern-driven `invert` run on every one of those pivots.
    #[test]
    fn degenerate_master_with_refactor_after_every_pivot() {
        let (caps, classes) = (66, 30);
        let mut p = small_master(caps, classes, 1);
        for k in 0..classes {
            let dup = p.add_row(format!("dup{k}"), Relation::Eq, 1.0);
            for q in 0..2 {
                p.set_coeff(dup, crate::problem::VarId(2 * k + q), 1.0);
            }
        }
        let opts = SimplexOptions {
            refactor_every: 1,
            ..SimplexOptions::default()
        };
        let mut s = Simplex::with_options(&p, opts);
        let sols = generate_columns(&mut s, caps, classes);
        for sol in &sols {
            assert!(sol.status.is_optimal());
            // Only rejections carry mass: every class rejects at the
            // cheaper quantile first, 20·0.5 + 40·0.5 per class.
            assert!((sol.objective - 30.0 * classes as f64).abs() < 1e-6);
        }
    }

    /// A basis made singular by a `≥` row's slack parallel to a column
    /// before it: the elimination fails at the slack's position, the
    /// repair swaps the slack for the artificial of the row not pivoted
    /// on (the first), and the slack must rest at its upper bound 0 (its
    /// lower bound is −∞). At
    /// `AtLower` its reduced cost of −1 would let it enter upwards, past
    /// that bound with an infinite range, and leave `u ≥ 2` violated.
    #[test]
    fn singular_basis_repair_rests_a_ge_slack_at_its_upper_bound() {
        // min x + y + u  s.t.  x − y ≤ 0,  u ≥ 2.
        let mut p = Problem::new();
        let x = p.add_var("x", 1.0, 0.0, f64::INFINITY);
        let y = p.add_var("y", 1.0, 0.0, f64::INFINITY);
        let u = p.add_var("u", 1.0, 0.0, f64::INFINITY);
        let r0 = p.add_row("order", Relation::Le, 0.0);
        let r1 = p.add_row("floor", Relation::Ge, 2.0);
        p.set_coeff(r0, x, 1.0);
        p.set_coeff(r0, y, -1.0);
        p.set_coeff(r1, u, 1.0);
        let mut s = Simplex::from_problem(&p);
        assert!(s.solve().status.is_optimal());

        // Force the basis [u, slack of `floor`]: both columns are e₁.
        let slack = s.n_struct + 1;
        for b in s.basis.clone() {
            (s.x[b], s.state[b]) = s.resting(b);
        }
        s.basis = vec![u.0, slack];
        s.state[slack] = VarState::Basic;
        s.state[u.0] = VarState::Basic;
        s.refactor();
        assert_eq!(s.basis, [u.0, s.art_index(0)]);
        assert_eq!(s.state[slack], VarState::AtUpper);
        assert_eq!(s.x[slack], 0.0);
        assert!(s.patterns_cover_binv());

        let sol = s.reoptimize();
        assert!(sol.status.is_optimal());
        assert!(p.is_feasible(&sol.x, 1e-9), "{:?}", sol.x);
        assert_close(sol.objective, 2.0);
    }

    #[test]
    #[should_panic(expected = "objective of a new column must be finite, got inf")]
    fn add_column_rejects_an_infinite_objective() {
        let mut s = Simplex::from_problem(&small_master(3, 1, 1000));
        s.solve();
        s.add_column(f64::INFINITY, 0.0, 1.0, &[(0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "coefficient in row 1 must be finite, got NaN")]
    fn add_column_rejects_a_nan_coefficient() {
        let mut s = Simplex::from_problem(&small_master(3, 1, 1000));
        s.solve();
        s.add_column(1.0, 0.0, 1.0, &[(0, 1.0), (1, f64::NAN)]);
    }

    /// min 5x  s.t.  x ≥ 1,  0 ≤ x ≤ 10, solved (x = 1, objective 5).
    fn one_row_lp() -> Simplex {
        let mut p = Problem::new();
        let x = p.add_var("x", 5.0, 0.0, 10.0);
        let r = p.add_row("floor", Relation::Ge, 1.0);
        p.set_coeff(r, x, 1.0);
        let mut s = Simplex::from_problem(&p);
        assert!(s.solve().status.is_optimal());
        s
    }

    /// Accepted, this column would enter at −1, below its lower bound,
    /// and `reoptimize` would report that point `Optimal` at objective 11.
    #[test]
    #[should_panic(
        expected = "upper bound -1 of a new column must not be NaN or below its lower bound 0"
    )]
    fn add_column_rejects_an_upper_bound_below_the_lower() {
        one_row_lp().add_column(-1.0, 0.0, -1.0, &[(0, 1.0)]);
    }

    /// Accepted, this column's NaN range would read as infinite and the
    /// bounded LP would report `Unbounded`.
    #[test]
    #[should_panic(
        expected = "upper bound NaN of a new column must not be NaN or below its lower bound 0"
    )]
    fn add_column_rejects_a_nan_upper_bound() {
        one_row_lp().add_column(-1.0, 0.0, f64::NAN, &[(0, 1.0)]);
    }

    /// The optimum of the one-row LP passes; a column appended without
    /// `reoptimize` leaves a feasible basis that is no longer optimal: the
    /// new column rests at 0 below its upper bound with `d = −1 − 5`.
    #[test]
    fn certify_rejects_a_feasible_point_that_is_not_optimal() {
        let mut s = one_row_lp();
        assert_eq!(s.certify(), Ok(()));
        s.add_column(-1.0, 0.0, 10.0, &[(0, 1.0)]);
        assert_eq!(
            s.certify(),
            Err("column 1 = 0 below its upper bound with d = -6".into())
        );
    }

    /// With `x`'s cost flipped to −5 the `≥` row's dual is −5, and its
    /// logical column (bounds `[−∞, 0]`, resting at 0) prices at `d = 5`:
    /// a point that could lower the objective by moving the slack down.
    #[test]
    fn certify_rejects_a_negative_dual_on_a_ge_row() {
        let mut s = one_row_lp();
        s.obj[0] = -5.0;
        assert_eq!(
            s.certify(),
            Err("column 1 = 0 above its lower bound with d = 5".into())
        );
    }

    /// A right-hand side moved under a solved basis leaves `x = 1` off
    /// the row `x ≥ 2` as the solver now reads it (an `=` row in its
    /// `A x + s = b` form, with the slack at 0).
    #[test]
    fn certify_rejects_a_row_off_its_right_hand_side() {
        let mut s = one_row_lp();
        s.rhs[0] = 2.0;
        assert_eq!(s.certify(), Err("row 0: activity 1 ≠ 2".into()));
    }

    /// Under `strict-invariants`, `reoptimize` certifies the optimum it
    /// returns: the moved right-hand side leaves the basis optimal to the
    /// pricing, which reads no right-hand side, and the certificate fails.
    #[cfg(feature = "strict-invariants")]
    #[test]
    #[should_panic(expected = "strict-invariants: the simplex optimum fails its certificate")]
    fn reoptimize_panics_on_an_optimum_that_fails_its_certificate() {
        let mut s = one_row_lp();
        s.rhs[0] = 2.0;
        s.reoptimize();
    }

    /// The bits of a solution: status, objective, `x`, duals, iterations.
    fn bits(sol: &LpSolution) -> (SolveStatus, u64, Vec<u64>, Vec<u64>, usize) {
        let words = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        (
            sol.status,
            sol.objective.to_bits(),
            words(&sol.x),
            words(&sol.duals),
            sol.iterations,
        )
    }

    /// One solver through `solve`, `add_column`, `reoptimize` and `solve`
    /// again returns the bits of a fresh solver built over the same
    /// columns: the second `solve` clears `B⁻¹` along the patterns the
    /// first left, and every refactor hands `invert`'s work matrix back
    /// cleared, so nothing of the earlier solves leaks into it. A seven-
    /// pivot refactor cadence makes both solves refactor several times.
    #[test]
    fn a_reused_solver_solves_again_with_a_fresh_ones_bits() {
        let (caps, classes) = (70, 40);
        let opts = SimplexOptions {
            refactor_every: 7,
            ..SimplexOptions::default()
        };
        let mut p = small_master(caps, classes, 5);
        let mut reused = Simplex::with_options(&p, opts.clone());
        let added = generate_columns(&mut reused, caps, classes);
        assert!(added.iter().all(|sol| sol.status.is_optimal()));
        let again = reused.solve();

        // The same structural columns, appended ones last in their order.
        for j in p.num_vars()..reused.n_struct {
            let v = p.add_var("", reused.obj[j], reused.lb[j], reused.ub[j]);
            for &(r, a) in &reused.cols[j] {
                p.set_coeff(crate::problem::RowId(r), v, a);
            }
        }
        let fresh = Simplex::with_options(&p, opts).solve();
        assert!(fresh.status.is_optimal());
        assert!(fresh.iterations > 0);
        assert_eq!(bits(&again), bits(&fresh));
    }
}
