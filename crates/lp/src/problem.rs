//! Linear / mixed-integer program model builder.
//!
//! A [`Problem`] is a minimization program
//!
//! ```text
//!   minimize    cᵀ x
//!   subject to  aᵢ x  {≤,=,≥}  bᵢ       for every row i
//!               lbⱼ ≤ xⱼ ≤ ubⱼ          for every variable j
//!               xⱼ ∈ ℤ                   for integer-flagged variables
//! ```
//!
//! Columns are stored sparsely (column-major), which is what both the
//! revised simplex and Dantzig-Wolfe column generation want.

/// Index of a decision variable in a [`Problem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub usize);

/// Index of a constraint row in a [`Problem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowId(pub usize);

/// Relation of a constraint row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// `aᵢ x ≤ bᵢ`
    Le,
    /// `aᵢ x = bᵢ`
    Eq,
    /// `aᵢ x ≥ bᵢ`
    Ge,
}

#[derive(Debug, Clone)]
pub(crate) struct Row {
    pub relation: Relation,
    pub rhs: f64,
}

/// A linear (or mixed-integer) minimization program.
///
/// # Examples
///
/// ```
/// use vne_lp::problem::{Problem, Relation};
///
/// // minimize -x - 2y  s.t.  x + y ≤ 4,  y ≤ 2,  x,y ≥ 0
/// let mut p = Problem::new();
/// let x = p.add_var("x", -1.0, 0.0, f64::INFINITY);
/// let y = p.add_var("y", -2.0, 0.0, 2.0);
/// let r = p.add_row("cap", Relation::Le, 4.0);
/// p.set_coeff(r, x, 1.0);
/// p.set_coeff(r, y, 1.0);
/// assert_eq!(p.num_vars(), 2);
/// assert_eq!(p.num_rows(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Problem {
    pub(crate) obj: Vec<f64>,
    pub(crate) lb: Vec<f64>,
    pub(crate) ub: Vec<f64>,
    pub(crate) integer: Vec<bool>,
    /// Column-major coefficients: `cols[j] = [(row, coeff), …]` for each
    /// variable `j`; entries past the last variable are empty buffers a
    /// [`Problem::clear`] kept.
    pub(crate) cols: Vec<Vec<(usize, f64)>>,
    pub(crate) rows: Vec<Row>,
    pub(crate) var_names: Vec<String>,
    pub(crate) row_names: Vec<String>,
}

impl Problem {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the program but keeps its buffers, so that refilling it
    /// allocates only where it outgrows what it held before.
    pub fn clear(&mut self) {
        self.obj.clear();
        self.lb.clear();
        self.ub.clear();
        self.integer.clear();
        for col in &mut self.cols {
            col.clear();
        }
        self.rows.clear();
        self.var_names.clear();
        self.row_names.clear();
    }

    /// Adds a continuous variable with objective coefficient `obj` and
    /// bounds `[lb, ub]` (use `f64::NEG_INFINITY` / `f64::INFINITY` for
    /// free directions). Returns the variable id.
    ///
    /// # Panics
    ///
    /// Panics if `lb > ub`, a bound is NaN, or `obj` is NaN or infinite
    /// (the simplex needs finite data, see [`crate::simplex`]).
    pub fn add_var(&mut self, name: impl Into<String>, obj: f64, lb: f64, ub: f64) -> VarId {
        assert!(
            !lb.is_nan() && !ub.is_nan(),
            "variable bounds must not be NaN"
        );
        assert!(lb <= ub, "variable lower bound exceeds upper bound");
        assert!(
            obj.is_finite(),
            "objective coefficient must be finite, got {obj}"
        );
        let id = VarId(self.obj.len());
        self.obj.push(obj);
        self.lb.push(lb);
        self.ub.push(ub);
        self.integer.push(false);
        if self.cols.len() == id.0 {
            self.cols.push(Vec::new());
        }
        self.var_names.push(name.into());
        id
    }

    /// Adds an integer variable (used by branch-and-bound).
    ///
    /// # Panics
    ///
    /// Panics if `lb > ub`, a bound is NaN, or `obj` is not finite.
    pub fn add_int_var(&mut self, name: impl Into<String>, obj: f64, lb: f64, ub: f64) -> VarId {
        let id = self.add_var(name, obj, lb, ub);
        self.integer[id.0] = true;
        id
    }

    /// Adds a binary (0/1 integer) variable.
    pub fn add_binary_var(&mut self, name: impl Into<String>, obj: f64) -> VarId {
        self.add_int_var(name, obj, 0.0, 1.0)
    }

    /// Adds a constraint row `… {relation} rhs` with no coefficients yet.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is NaN or infinite.
    pub fn add_row(&mut self, name: impl Into<String>, relation: Relation, rhs: f64) -> RowId {
        assert!(rhs.is_finite(), "right-hand side must be finite, got {rhs}");
        let id = RowId(self.rows.len());
        self.rows.push(Row { relation, rhs });
        self.row_names.push(name.into());
        id
    }

    /// Sets (accumulates) the coefficient of `var` in `row`.
    ///
    /// Multiple calls for the same `(row, var)` pair add up, which is
    /// convenient when building flow-conservation rows incrementally.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `var` is out of range, or `coeff` is NaN or
    /// infinite.
    pub fn set_coeff(&mut self, row: RowId, var: VarId, coeff: f64) {
        assert!(row.0 < self.rows.len(), "row out of range");
        assert!(var.0 < self.num_vars(), "variable out of range");
        assert!(
            coeff.is_finite(),
            "coefficient of variable {} in row {} must be finite, got {coeff}",
            var.0,
            row.0
        );
        if coeff != 0.0 {
            self.cols[var.0].push((row.0, coeff));
        }
    }

    /// Adds a variable together with its full column of coefficients
    /// (the column-generation entry point).
    ///
    /// # Panics
    ///
    /// Panics where [`Problem::add_var`] or [`Problem::set_coeff`] would.
    pub fn add_var_with_column(
        &mut self,
        name: impl Into<String>,
        obj: f64,
        lb: f64,
        ub: f64,
        coeffs: &[(RowId, f64)],
    ) -> VarId {
        let id = self.add_var(name, obj, lb, ub);
        for &(row, c) in coeffs {
            self.set_coeff(row, id, c);
        }
        id
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.obj.len()
    }

    /// Number of constraint rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Whether any variable is integer-flagged.
    pub fn has_integers(&self) -> bool {
        self.integer.iter().any(|&i| i)
    }

    /// The ids of integer-flagged variables.
    pub fn integer_vars(&self) -> Vec<VarId> {
        self.integer
            .iter()
            .enumerate()
            .filter(|(_, &i)| i)
            .map(|(j, _)| VarId(j))
            .collect()
    }

    /// The objective coefficient of `var`.
    pub fn objective(&self, var: VarId) -> f64 {
        self.obj[var.0]
    }

    /// The bounds of `var`.
    pub fn bounds(&self, var: VarId) -> (f64, f64) {
        (self.lb[var.0], self.ub[var.0])
    }

    /// The name of `var`.
    pub fn var_name(&self, var: VarId) -> &str {
        &self.var_names[var.0]
    }

    /// The name of `row`.
    pub fn row_name(&self, row: RowId) -> &str {
        &self.row_names[row.0]
    }

    /// Appends the column of `var` to `out` consolidated: sorted by row,
    /// the entries of one row summed in the order they were set, exact
    /// zeros dropped. Called by solvers before use.
    pub(crate) fn consolidate_col_into(&self, var: usize, out: &mut Vec<(usize, f64)>) {
        let start = out.len();
        out.extend_from_slice(&self.cols[var]);
        out[start..].sort_by_key(|&(r, _)| r);
        let mut end = start;
        for i in start..out.len() {
            let (r, v) = out[i];
            match out[start..end].last_mut() {
                Some((lr, lv)) if *lr == r => *lv += v,
                _ => {
                    out[end] = (r, v);
                    end += 1;
                }
            }
        }
        out.truncate(end);
        let mut kept = start;
        for i in start..end {
            if out[i].1 != 0.0 {
                out[kept] = out[i];
                kept += 1;
            }
        }
        out.truncate(kept);
    }

    /// Evaluates `cᵀ x` for a candidate solution.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.obj.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Checks primal feasibility of `x` within tolerance `tol`
    /// (row activities and variable bounds).
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.num_vars() {
            return false;
        }
        for (j, &v) in x.iter().enumerate() {
            if v < self.lb[j] - tol || v > self.ub[j] + tol {
                return false;
            }
        }
        let mut activity = vec![0.0; self.num_rows()];
        for (j, col) in self.cols[..self.num_vars()].iter().enumerate() {
            for &(r, a) in col {
                activity[r] += a * x[j];
            }
        }
        for (i, row) in self.rows.iter().enumerate() {
            let ok = match row.relation {
                Relation::Le => activity[i] <= row.rhs + tol,
                Relation::Ge => activity[i] >= row.rhs - tol,
                Relation::Eq => (activity[i] - row.rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every column of `p`, consolidated.
    fn consolidated_cols(p: &Problem) -> Vec<Vec<(usize, f64)>> {
        (0..p.num_vars())
            .map(|j| {
                let mut col = Vec::new();
                p.consolidate_col_into(j, &mut col);
                col
            })
            .collect()
    }

    #[test]
    fn build_small_problem() {
        let mut p = Problem::new();
        let x = p.add_var("x", 1.0, 0.0, 10.0);
        let y = p.add_int_var("y", 2.0, 0.0, 1.0);
        let r = p.add_row("r", Relation::Le, 5.0);
        p.set_coeff(r, x, 1.0);
        p.set_coeff(r, y, 3.0);
        assert_eq!(p.num_vars(), 2);
        assert_eq!(p.num_rows(), 1);
        assert!(p.has_integers());
        assert_eq!(p.integer_vars(), vec![y]);
        assert_eq!(p.objective(x), 1.0);
        assert_eq!(p.bounds(y), (0.0, 1.0));
        assert_eq!(p.var_name(x), "x");
        assert_eq!(p.row_name(r), "r");
    }

    #[test]
    fn coefficients_accumulate() {
        let mut p = Problem::new();
        let x = p.add_var("x", 0.0, 0.0, 1.0);
        let r = p.add_row("r", Relation::Eq, 2.0);
        p.set_coeff(r, x, 1.0);
        p.set_coeff(r, x, 2.0);
        let cols = consolidated_cols(&p);
        assert_eq!(cols[0], vec![(0, 3.0)]);
    }

    #[test]
    fn consolidation_drops_cancelled_terms() {
        let mut p = Problem::new();
        let x = p.add_var("x", 0.0, 0.0, 1.0);
        let r = p.add_row("r", Relation::Eq, 0.0);
        p.set_coeff(r, x, 1.0);
        p.set_coeff(r, x, -1.0);
        let cols = consolidated_cols(&p);
        assert!(cols[0].is_empty());
    }

    #[test]
    fn feasibility_check() {
        let mut p = Problem::new();
        let x = p.add_var("x", -1.0, 0.0, 4.0);
        let y = p.add_var("y", -1.0, 0.0, 4.0);
        let r = p.add_row("r", Relation::Le, 5.0);
        p.set_coeff(r, x, 1.0);
        p.set_coeff(r, y, 1.0);
        assert!(p.is_feasible(&[2.0, 3.0], 1e-9));
        assert!(!p.is_feasible(&[3.0, 3.0], 1e-9)); // row violated
        assert!(!p.is_feasible(&[5.0, 0.0], 1e-9)); // bound violated
        assert!(!p.is_feasible(&[1.0], 1e-9)); // wrong arity
        assert_eq!(p.objective_value(&[2.0, 3.0]), -5.0);
    }

    #[test]
    fn add_var_with_column() {
        let mut p = Problem::new();
        let r1 = p.add_row("r1", Relation::Le, 1.0);
        let r2 = p.add_row("r2", Relation::Eq, 2.0);
        let v = p.add_var_with_column("v", 3.0, 0.0, 1.0, &[(r1, 1.5), (r2, -1.0)]);
        let cols = consolidated_cols(&p);
        assert_eq!(cols[v.0], vec![(0, 1.5), (1, -1.0)]);
    }

    #[test]
    #[should_panic(expected = "lower bound exceeds upper")]
    fn rejects_crossed_bounds() {
        let mut p = Problem::new();
        p.add_var("x", 0.0, 1.0, 0.0);
    }

    #[test]
    fn infinite_bounds_stay_legal() {
        let mut p = Problem::new();
        let x = p.add_var("x", 1.0, f64::NEG_INFINITY, f64::INFINITY);
        assert_eq!(p.bounds(x), (f64::NEG_INFINITY, f64::INFINITY));
    }

    #[test]
    #[should_panic(expected = "objective coefficient must be finite, got NaN")]
    fn rejects_a_nan_objective() {
        Problem::new().add_var("x", f64::NAN, 0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "right-hand side must be finite, got inf")]
    fn rejects_an_infinite_rhs() {
        Problem::new().add_row("r", Relation::Le, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "coefficient of variable 0 in row 0 must be finite, got -inf")]
    fn rejects_an_infinite_coefficient() {
        let mut p = Problem::new();
        let x = p.add_var("x", 0.0, 0.0, 1.0);
        let r = p.add_row("r", Relation::Le, 1.0);
        p.set_coeff(r, x, f64::NEG_INFINITY);
    }

    #[test]
    #[should_panic(expected = "coefficient of variable 0 in row 0 must be finite, got NaN")]
    fn rejects_a_nan_coefficient() {
        let mut p = Problem::new();
        let x = p.add_var("x", 0.0, 0.0, 1.0);
        let r = p.add_row("r", Relation::Le, 1.0);
        p.set_coeff(r, x, f64::NAN);
    }
}
