//! Property-based correctness tests for the simplex and branch-and-bound.
//!
//! * Strong duality on random always-feasible `≤`-form LPs, dense at 5 × 5
//!   and sparse at master size (up to 150 × 300);
//! * `Simplex::certify` on column generation's path: PLAN-VNE masters
//!   with `=` convexity rows (so phase 1 runs), re-optimized after three
//!   rounds of appended columns, each solution also checked for
//!   feasibility and its objective against the test's own copy of the
//!   rows and columns;
//! * `Simplex::reload` against a fresh solver, bit for bit, over
//!   PLAN-VNE-shaped masters that grow and shrink, one of them infeasible
//!   and one that needs the singular-basis repair;
//! * dual sign and reduced-cost optimality conditions;
//! * branch-and-bound vs exhaustive enumeration on random binary MILPs.

use proptest::prelude::*;
use vne_lp::problem::{Problem, Relation};
use vne_lp::simplex::{solve_lp, Simplex, SimplexOptions};
use vne_lp::solution::SolveStatus;
use vne_lp::{solve_mip, BranchBoundOptions};

/// A structural column as the test built it: cost, bounds, and its
/// `(row, coefficient)` entries.
struct Column {
    cost: f64,
    lb: f64,
    ub: f64,
    entries: Vec<(usize, f64)>,
}

/// Checks a solution against the rows and columns as the test built
/// them, apart from the solver's own copy of the data: one value per
/// column and one dual per row, every column within its bounds, every
/// row's activity on its side of `b` up to `1e-6 · (1 + |b|)`, and the
/// reported objective equal to `Σ c·x` up to `1e-6 · (1 + |Σ c·x|)`.
fn check_on_the_data(
    rows: &[(Relation, f64)],
    columns: &[Column],
    sol: &vne_lp::solution::LpSolution,
) -> Result<(), String> {
    let tol = 1e-6;
    if sol.x.len() != columns.len() || sol.duals.len() != rows.len() {
        return Err("solution has the wrong shape".into());
    }
    let mut activity = vec![0.0; rows.len()];
    let mut primal = 0.0;
    for (j, (col, &x)) in columns.iter().zip(&sol.x).enumerate() {
        if x < col.lb - tol || x > col.ub + tol {
            return Err(format!("x{j} = {x} outside [{}, {}]", col.lb, col.ub));
        }
        primal += col.cost * x;
        for &(i, a) in &col.entries {
            activity[i] += a * x;
        }
    }
    for (i, (&(relation, b), &act)) in rows.iter().zip(&activity).enumerate() {
        let (slack, scale) = (b - act, tol * (1.0 + b.abs()));
        let off = match relation {
            Relation::Le => slack < -scale,
            Relation::Ge => slack > scale,
            Relation::Eq => slack.abs() > scale,
        };
        if off {
            return Err(format!("row {i}: activity {act} against {b}"));
        }
    }
    if (primal - sol.objective).abs() > tol * (1.0 + primal.abs()) {
        return Err(format!("objective {} vs Σ c·x = {primal}", sol.objective));
    }
    Ok(())
}

fn xorshift(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A PLAN-VNE-shaped master drawn from `seed`: `caps` `≤` capacity rows
/// (about one in six drained to 0), one `=` convexity row per class over
/// `quantiles` rejection columns bounded by `1/P`, and one to three
/// embedding columns per class, `demand · usage` on up to three capacity
/// rows and 1 on the class's convexity row. With `tiny`, half the classes
/// have demands down to 1e-12, so their columns are nearly zero on the
/// capacity rows; with `infeasible`, one more `=` row that no column has,
/// so phase 1 ends `Infeasible`. Also returns one round of columns to
/// append, in the same shape.
fn drawn_master(
    seed: u64,
    (caps, classes, quantiles): (usize, usize, usize),
    tiny: bool,
    infeasible: bool,
) -> (Problem, Vec<Column>) {
    let mut rng = xorshift(seed);
    let mut p = Problem::new();
    for _ in 0..caps {
        let rhs = if rng() < 0.15 {
            0.0
        } else {
            1.0 + 30.0 * rng()
        };
        p.add_row("", Relation::Le, rhs);
    }
    for _ in 0..classes {
        p.add_row("", Relation::Eq, 1.0);
    }
    if infeasible {
        p.add_row("", Relation::Eq, 1.0);
    }
    let demands: Vec<f64> = (0..classes)
        .map(|_| {
            if tiny && rng() < 0.5 {
                10f64.powf(-12.0 + 12.0 * rng())
            } else {
                1.0 + 9.0 * rng()
            }
        })
        .collect();
    let embedding = |k: usize, rng: &mut dyn FnMut() -> f64| {
        let mut entries: Vec<(usize, f64)> = (0..1 + (rng() * 3.0) as usize)
            .map(|_| ((rng() * caps as f64) as usize, demands[k] * (0.25 + rng())))
            .collect();
        entries.sort_by_key(|&(r, _)| r);
        entries.dedup_by_key(|&mut (r, _)| r);
        entries.push((caps + k, 1.0));
        let cost = 1.0 + 4.0 * rng();
        Column {
            cost,
            lb: 0.0,
            ub: f64::INFINITY,
            entries,
        }
    };
    let mut columns = Vec::new();
    for k in 0..classes {
        for q in 1..=quantiles {
            let ub = 1.0 / quantiles as f64;
            columns.push(Column {
                cost: 3.0 * q as f64,
                lb: 0.0,
                ub,
                entries: vec![(caps + k, 1.0)],
            });
        }
        for _ in 0..1 + (rng() * 3.0) as usize {
            columns.push(embedding(k, &mut rng));
        }
    }
    for col in &columns {
        let v = p.add_var("", col.cost, col.lb, col.ub);
        for &(r, a) in &col.entries {
            p.set_coeff(vne_lp::RowId(r), v, a);
        }
    }
    let round = (0..classes).map(|k| embedding(k, &mut rng)).collect();
    (p, round)
}

/// A master [`drawn_master`] draws with `tiny` demands whose solve at a
/// seven-pivot refactor cadence meets a numerically singular basis at a
/// refactor and repairs it, six times (found by counting the repairs in
/// an instrumented copy of the solver): 20 capacity rows, 8 classes, 3
/// quantiles.
const REPAIR_MASTER: (u64, (usize, usize, usize)) = (39, (20, 8, 3));

/// A master [`drawn_master`] draws with `tiny` demands that, at a
/// refactor after every pivot, meets singular bases whose failing column
/// is not the first position with a nonbasic artificial: 20 capacity
/// rows, 8 classes, 3 quantiles. Repairing the first such position
/// swapped out an independent column and left the dependent one in, so
/// the solve repaired at every refactor and ended `Limit` after 200 000
/// iterations. Repairing the position the elimination failed at, with
/// the artificial of a row it had not pivoted on, ends `Optimal`.
#[test]
fn a_repair_at_the_failed_column_ends_optimal() {
    let (p, round) = drawn_master(134, (20, 8, 3), true, false);
    let opts = SimplexOptions {
        refactor_every: 1,
        ..SimplexOptions::default()
    };
    let mut simplex = Simplex::with_options(&p, opts);
    let sol = simplex.solve();
    assert_eq!(
        sol.status,
        SolveStatus::Optimal,
        "after {} iterations",
        sol.iterations
    );
    simplex.certify().unwrap();
    assert!(p.is_feasible(&sol.x, 1e-6));
    for col in &round {
        simplex.add_column(col.cost, col.lb, col.ub, &col.entries);
    }
    assert_eq!(simplex.reoptimize().status, SolveStatus::Optimal);
    simplex.certify().unwrap();
}

/// The bits of a solution: status, objective, `x`, duals, iterations.
fn bits(sol: &vne_lp::solution::LpSolution) -> (SolveStatus, u64, Vec<u64>, Vec<u64>, usize) {
    let words = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
    (
        sol.status,
        sol.objective.to_bits(),
        words(&sol.x),
        words(&sol.duals),
        sol.iterations,
    )
}

/// Random LP: min c x, A x ≤ b, 0 ≤ x ≤ u with b ≥ 0 (x = 0 feasible).
fn arb_le_lp() -> impl Strategy<Value = (Vec<f64>, Vec<Vec<f64>>, Vec<f64>, Vec<f64>)> {
    (1usize..6, 1usize..6).prop_flat_map(|(n, m)| {
        (
            proptest::collection::vec(-5.0f64..5.0, n),
            proptest::collection::vec(proptest::collection::vec(0.0f64..3.0, n), m),
            proptest::collection::vec(0.5f64..10.0, m),
            proptest::collection::vec(0.5f64..4.0, n),
        )
    })
}

// Default config (64 cases): `PROPTEST_CASES` scales these in the
// nightly job; an explicit `with_cases` would pin the count.
proptest! {
    #[test]
    fn strong_duality_on_le_form_lps((c, a, b, u) in arb_le_lp()) {
        let n = c.len();
        let m = b.len();
        let mut p = Problem::new();
        let vars: Vec<_> = (0..n)
            .map(|j| p.add_var(format!("x{j}"), c[j], 0.0, u[j]))
            .collect();
        let mut rows = Vec::new();
        for i in 0..m {
            let r = p.add_row(format!("r{i}"), Relation::Le, b[i]);
            for j in 0..n {
                if a[i][j] != 0.0 {
                    p.set_coeff(r, vars[j], a[i][j]);
                }
            }
            rows.push(r);
        }
        let sol = solve_lp(&p);
        // x = 0 is feasible and all variables are bounded: must be optimal.
        prop_assert_eq!(sol.status, SolveStatus::Optimal);
        prop_assert!(p.is_feasible(&sol.x, 1e-6));

        // Dual feasibility: y ≤ 0 for ≤ rows in a minimization.
        for &d in &sol.duals {
            prop_assert!(d <= 1e-6);
        }
        // KKT / strong duality with bound duals:
        // obj = y·b + Σ_j min(0, c_j − y·A_j)·u_j  (variables at upper bound
        // contribute their bound dual; reduced costs of basic vars are 0).
        let mut dual_obj: f64 = sol.duals.iter().zip(&b).map(|(y, bi)| y * bi).sum();
        for j in 0..n {
            let mut red = c[j];
            for (y, ai) in sol.duals.iter().zip(&a) {
                red -= y * ai[j];
            }
            if red < 0.0 {
                dual_obj += red * u[j];
            }
        }
        prop_assert!((sol.objective - dual_obj).abs() < 1e-5,
            "primal {} vs dual {}", sol.objective, dual_obj);
    }

    /// The same certificate at master size: up to 150 rows (three bitset
    /// words of a `B⁻¹` row pattern) and 300 columns at ≈ 5 % density,
    /// with some negative coefficients. Feasibility and the dual bound are
    /// computed from the problem data alone, so nothing in it reads `B⁻¹`.
    #[test]
    fn strong_duality_on_sparse_le_form_lps_at_size(
        m in 1usize..=150,
        n in 1usize..=300,
        seed in any::<u64>(),
    ) {
        let mut s = seed | 1;
        let mut rng = move || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let c: Vec<f64> = (0..n).map(|_| 10.0 * rng() - 5.0).collect();
        let u: Vec<f64> = (0..n).map(|_| 0.5 + 3.5 * rng()).collect();
        let b: Vec<f64> = (0..m).map(|_| 0.5 + 9.5 * rng()).collect();
        // Column-major A: row indices ascending within each column.
        let mut a: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for col in &mut a {
            for i in 0..m {
                if rng() < 0.05 {
                    let aij = if rng() < 0.2 { -rng() } else { 3.0 * rng() };
                    col.push((i, aij));
                }
            }
        }
        let mut p = Problem::new();
        let rows: Vec<_> = (0..m)
            .map(|i| p.add_row(format!("r{i}"), Relation::Le, b[i]))
            .collect();
        for j in 0..n {
            let v = p.add_var(format!("x{j}"), c[j], 0.0, u[j]);
            for &(i, aij) in &a[j] {
                p.set_coeff(rows[i], v, aij);
            }
        }
        let sol = solve_lp(&p);
        // x = 0 is feasible and every variable is bounded.
        prop_assert_eq!(sol.status, SolveStatus::Optimal);
        prop_assert!(p.is_feasible(&sol.x, 1e-6));
        for &d in &sol.duals {
            prop_assert!(d <= 1e-6);
        }
        let mut dual_obj: f64 = sol.duals.iter().zip(&b).map(|(y, bi)| y * bi).sum();
        for j in 0..n {
            let red = c[j] - a[j].iter().map(|&(i, aij)| sol.duals[i] * aij).sum::<f64>();
            if red < 0.0 {
                dual_obj += red * u[j];
            }
        }
        prop_assert!((sol.objective - dual_obj).abs() < 1e-6 * (1.0 + sol.objective.abs()),
            "primal {} vs dual {}", sol.objective, dual_obj);
    }

    /// The certificate on the path SLOTOFF and `colgen` take: a
    /// PLAN-VNE-shaped master of up to 150 `≤` capacity rows (about one
    /// in six drained to 0) and 60 `=` convexity rows, each over `P ≤ 10`
    /// rejection quantiles bounded by `1/P`, solved from the artificial
    /// basis (phase 1, then evicting artificials), then three rounds of
    /// up to two embedding columns per class — distinct capacity rows
    /// plus the class's convexity row — each followed by `reoptimize`.
    /// Every solve must be `Optimal` and pass `Simplex::certify`, which
    /// checks the optimum against the solver's own rows and columns,
    /// appended ones included, without reading `B⁻¹`; and the solution
    /// must be feasible, with its reported objective, for the problem as
    /// the test built it (`check_on_the_data`), so a row or column that
    /// `from_problem` or `add_column` stored wrongly cannot certify a
    /// different LP.
    #[test]
    fn certificate_on_column_generation_masters_at_size(
        caps in 1usize..=150,
        classes in 1usize..=60,
        quantiles in 1usize..=10,
        seed in any::<u64>(),
    ) {
        let mut s = seed | 1;
        let mut rng = move || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut p = Problem::new();
        let mut rows = Vec::new();
        for i in 0..caps {
            let rhs = if rng() < 0.15 { 0.0 } else { 10.0 + 30.0 * rng() };
            p.add_row(format!("cap{i}"), Relation::Le, rhs);
            rows.push((Relation::Le, rhs));
        }
        let conv: Vec<_> = (0..classes)
            .map(|k| {
                rows.push((Relation::Eq, 1.0));
                p.add_row(format!("conv{k}"), Relation::Eq, 1.0)
            })
            .collect();
        let mut columns = Vec::new();
        let demands: Vec<f64> = (0..classes).map(|_| 1.0 + 9.0 * rng()).collect();
        for (k, &demand) in demands.iter().enumerate() {
            for q in 1..=quantiles {
                let (cost, ub) = (3.0 * demand * q as f64, 1.0 / quantiles as f64);
                let v = p.add_var(format!("rej{k}q{q}"), cost, 0.0, ub);
                p.set_coeff(conv[k], v, 1.0);
                columns.push(Column { cost, lb: 0.0, ub, entries: vec![(caps + k, 1.0)] });
            }
        }
        let mut simplex = Simplex::from_problem(&p);
        let sol = simplex.solve();
        prop_assert_eq!(sol.status, SolveStatus::Optimal);
        prop_assert!(simplex.certify().is_ok(), "{:?}", simplex.certify());
        let verdict = check_on_the_data(&rows, &columns, &sol);
        prop_assert!(verdict.is_ok(), "{:?}", verdict);
        for round in 0..3 {
            for (k, &demand) in demands.iter().enumerate() {
                for _ in 0..(rng() * 3.0) as usize {
                    let mut entries: Vec<(usize, f64)> = (0..1 + (rng() * 4.0) as usize)
                        .map(|_| ((rng() * caps as f64) as usize, demand * (0.5 + rng())))
                        .collect();
                    entries.sort_by_key(|&(r, _)| r);
                    entries.dedup_by_key(|&mut (r, _)| r);
                    entries.push((caps + k, 1.0));
                    let cost = demand * (1.0 + 4.0 * rng());
                    simplex.add_column(cost, 0.0, f64::INFINITY, &entries);
                    columns.push(Column { cost, lb: 0.0, ub: f64::INFINITY, entries });
                }
            }
            let sol = simplex.reoptimize();
            prop_assert_eq!(sol.status, SolveStatus::Optimal);
            let verdict = simplex.certify();
            prop_assert!(verdict.is_ok(), "round {}: {:?}", round, verdict);
            let verdict = check_on_the_data(&rows, &columns, &sol);
            prop_assert!(verdict.is_ok(), "round {}: {:?}", round, verdict);
        }
    }

    /// `Simplex::reload` keeps the stores of the solver it reloads: `B⁻¹`
    /// and `invert`'s work matrix, the row and column patterns, the
    /// columns, costs, bounds, `state`, `x` and the iterations' scratch.
    /// One solver is reloaded over `steps` masters whose row count grows
    /// and shrinks in turn (up to 150 capacity rows and 60 classes, then
    /// up to 20 and 8), at a refactor cadence of 100, 7 or 1 pivots. One
    /// master of the sequence is infeasible and one is `REPAIR_MASTER`,
    /// which needs the singular-basis repair. After each reload, its
    /// `solve` and, when that is optimal, one round of `add_column` and
    /// `reoptimize` must return a fresh solver's bits: status, objective,
    /// `x`, duals and iterations.
    #[test]
    fn a_reloaded_solver_returns_a_fresh_solvers_bits(
        seed in any::<u64>(),
        steps in 3usize..=6,
    ) {
        let mut rng = xorshift(seed);
        let infeasible_at = (rng() * steps as f64) as usize;
        let repair_at = (infeasible_at + 1 + (rng() * (steps - 1) as f64) as usize) % steps;
        let mut reloaded = Simplex::default();
        for step in 0..steps {
            let (master_seed, shape) = if step == repair_at {
                REPAIR_MASTER
            } else if step % 2 == 0 {
                let caps = 1 + (rng() * 150.0) as usize;
                (rng().to_bits(), (caps, 1 + (rng() * 60.0) as usize, 1 + (rng() * 10.0) as usize))
            } else {
                let caps = 1 + (rng() * 20.0) as usize;
                (rng().to_bits(), (caps, 1 + (rng() * 8.0) as usize, 1 + (rng() * 3.0) as usize))
            };
            let refactor_every = if step == repair_at { 7 } else { [100, 7, 1][step % 3] };
            let opts = SimplexOptions { refactor_every, ..SimplexOptions::default() };
            let (p, round) =
                drawn_master(master_seed, shape, step == repair_at, step == infeasible_at);
            reloaded.reload(&p, opts.clone());
            let mut fresh = Simplex::with_options(&p, opts);
            let sol = reloaded.solve();
            prop_assert_eq!(bits(&sol), bits(&fresh.solve()), "step {}", step);
            prop_assert_eq!(sol.status == SolveStatus::Infeasible, step == infeasible_at);
            if sol.status.is_optimal() {
                for col in &round {
                    reloaded.add_column(col.cost, col.lb, col.ub, &col.entries);
                    fresh.add_column(col.cost, col.lb, col.ub, &col.entries);
                }
                prop_assert_eq!(bits(&reloaded.reoptimize()), bits(&fresh.reoptimize()), "step {}", step);
            }
        }
    }

    #[test]
    fn binary_milp_matches_enumeration(
        (c, a, b, _u) in arb_le_lp(),
    ) {
        let n = c.len();
        let m = b.len();
        let mut p = Problem::new();
        let vars: Vec<_> = (0..n)
            .map(|j| p.add_binary_var(format!("x{j}"), c[j]))
            .collect();
        for i in 0..m {
            let r = p.add_row(format!("r{i}"), Relation::Le, b[i]);
            for j in 0..n {
                if a[i][j] != 0.0 {
                    p.set_coeff(r, vars[j], a[i][j]);
                }
            }
        }
        let sol = solve_mip(&p, BranchBoundOptions::default());
        prop_assert_eq!(sol.status, SolveStatus::Optimal);

        // Exhaustive enumeration of all 2^n assignments.
        let mut best = f64::INFINITY;
        for mask in 0u32..(1 << n) {
            let x: Vec<f64> = (0..n).map(|j| f64::from((mask >> j) & 1)).collect();
            let feas = (0..m).all(|i| {
                let act: f64 = (0..n).map(|j| a[i][j] * x[j]).sum();
                act <= b[i] + 1e-9
            });
            if feas {
                let obj: f64 = (0..n).map(|j| c[j] * x[j]).sum();
                best = best.min(obj);
            }
        }
        prop_assert!((sol.objective - best).abs() < 1e-5,
            "bb {} vs enum {}", sol.objective, best);
        // The reported solution must be integral and feasible.
        prop_assert!(p.is_feasible(&sol.x, 1e-6));
        for &v in &sol.x {
            prop_assert!((v - v.round()).abs() < 1e-6);
        }
    }

    #[test]
    fn equality_lps_solutions_satisfy_rows(
        n in 2usize..5,
        seed in any::<u64>(),
    ) {
        // Build a random feasible equality system by picking a feasible
        // point first: A x0 = b with x0 in [0, 3]^n.
        let mut s = seed | 1;
        let mut rng = move || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let m = n - 1;
        let x0: Vec<f64> = (0..n).map(|_| rng() * 3.0).collect();
        let a: Vec<Vec<f64>> = (0..m)
            .map(|_| (0..n).map(|_| rng() * 2.0).collect())
            .collect();
        let b: Vec<f64> = a.iter().map(|row| {
            row.iter().zip(&x0).map(|(aij, xj)| aij * xj).sum()
        }).collect();

        let mut p = Problem::new();
        let vars: Vec<_> = (0..n)
            .map(|j| p.add_var(format!("x{j}"), 1.0 + rng(), 0.0, 10.0))
            .collect();
        for i in 0..m {
            let r = p.add_row(format!("e{i}"), Relation::Eq, b[i]);
            for j in 0..n {
                p.set_coeff(r, vars[j], a[i][j]);
            }
        }
        let sol = solve_lp(&p);
        prop_assert_eq!(sol.status, SolveStatus::Optimal);
        prop_assert!(p.is_feasible(&sol.x, 1e-5));
        // The optimum can be no worse than the known feasible point.
        let x0_obj = p.objective_value(&x0);
        prop_assert!(sol.objective <= x0_obj + 1e-6);
    }
}
