//! Known-optimum unit tests for the LP/MILP substrate (the CPLEX
//! replacement): a hand-solvable 3-variable LP and a small knapsack
//! MILP whose LP relaxation is fractional, forcing `branch_bound` to
//! actually branch.

use vne_lp::problem::{Problem, Relation};
use vne_lp::simplex::{solve_lp, Simplex};
use vne_lp::{solve_mip, BranchBoundOptions};

const TOL: f64 = 1e-6;

/// min x + y + z  s.t.  x + y ≥ 2,  y + z ≥ 3,  x + z ≥ 4.
///
/// Summing the constraints gives 2(x + y + z) ≥ 9, so the objective is
/// bounded below by 4.5; (1.5, 0.5, 2.5) attains it with every row
/// tight, hence the optimum is exactly 4.5.
#[test]
fn three_variable_lp_hits_known_optimum() {
    let mut p = Problem::new();
    let x = p.add_var("x", 1.0, 0.0, f64::INFINITY);
    let y = p.add_var("y", 1.0, 0.0, f64::INFINITY);
    let z = p.add_var("z", 1.0, 0.0, f64::INFINITY);
    let r1 = p.add_row("xy", Relation::Ge, 2.0);
    let r2 = p.add_row("yz", Relation::Ge, 3.0);
    let r3 = p.add_row("xz", Relation::Ge, 4.0);
    p.set_coeff(r1, x, 1.0);
    p.set_coeff(r1, y, 1.0);
    p.set_coeff(r2, y, 1.0);
    p.set_coeff(r2, z, 1.0);
    p.set_coeff(r3, x, 1.0);
    p.set_coeff(r3, z, 1.0);

    let sol = solve_lp(&p);
    assert!(sol.status.is_optimal(), "status {:?}", sol.status);
    assert!(
        (sol.objective - 4.5).abs() < TOL,
        "objective {} != 4.5",
        sol.objective
    );
    assert!(p.is_feasible(&sol.x, TOL));
    // Every constraint is tight at the unique optimum.
    assert!((sol.x[x.0] - 1.5).abs() < TOL, "x = {}", sol.x[x.0]);
    assert!((sol.x[y.0] - 0.5).abs() < TOL, "y = {}", sol.x[y.0]);
    assert!((sol.x[z.0] - 2.5).abs() < TOL, "z = {}", sol.x[z.0]);
}

/// A bounded LP with an equality row: min 2x + 3y s.t. x + y = 10,
/// x ≤ 6 → optimum at x = 6, y = 4 with objective 24.
#[test]
fn equality_lp_with_upper_bound() {
    let mut p = Problem::new();
    let x = p.add_var("x", 2.0, 0.0, 6.0);
    let y = p.add_var("y", 3.0, 0.0, f64::INFINITY);
    let r = p.add_row("sum", Relation::Eq, 10.0);
    p.set_coeff(r, x, 1.0);
    p.set_coeff(r, y, 1.0);

    let sol = solve_lp(&p);
    assert!(sol.status.is_optimal(), "status {:?}", sol.status);
    assert!(
        (sol.objective - 24.0).abs() < TOL,
        "objective {} != 24",
        sol.objective
    );
    assert!((sol.x[x.0] - 6.0).abs() < TOL);
    assert!((sol.x[y.0] - 4.0).abs() < TOL);
}

/// Knapsack as a MILP: values (10, 6, 4), weights (5, 4, 3), capacity
/// 10. The LP relaxation packs a fractional third item (bound 17.33…),
/// while the best integral pack is items 1 + 2 with value 16 — so
/// branch-and-bound must branch to find min obj = −16.
#[test]
fn knapsack_milp_through_branch_bound() {
    let mut p = Problem::new();
    let items = [(10.0, 5.0), (6.0, 4.0), (4.0, 3.0)];
    let vars: Vec<_> = items
        .iter()
        .enumerate()
        .map(|(i, &(value, _))| p.add_binary_var(format!("x{i}"), -value))
        .collect();
    let cap = p.add_row("capacity", Relation::Le, 10.0);
    for (var, &(_, weight)) in vars.iter().zip(&items) {
        p.set_coeff(cap, *var, weight);
    }

    // The relaxation is fractional: x = (1, 1, 1/3), bound −52/3.
    let relaxed = solve_lp(&p);
    assert!(relaxed.status.is_optimal());
    assert!(
        (relaxed.objective - (-52.0 / 3.0)).abs() < TOL,
        "relaxation {} != -52/3",
        relaxed.objective
    );

    let sol = solve_mip(&p, BranchBoundOptions::default());
    assert!(sol.status.is_optimal(), "status {:?}", sol.status);
    assert!(
        (sol.objective - (-16.0)).abs() < TOL,
        "objective {} != -16",
        sol.objective
    );
    assert!(p.is_feasible(&sol.x, TOL));
    let x: Vec<f64> = vars.iter().map(|v| sol.x[v.0]).collect();
    assert!(
        (x[0] - 1.0).abs() < TOL && (x[1] - 1.0).abs() < TOL && x[2].abs() < TOL,
        "expected pack (1, 1, 0), got {x:?}"
    );
}

/// An infeasible system must not report an optimum.
#[test]
fn infeasible_lp_is_detected() {
    let mut p = Problem::new();
    let x = p.add_var("x", 1.0, 0.0, 1.0);
    let r = p.add_row("impossible", Relation::Ge, 5.0);
    p.set_coeff(r, x, 1.0);
    let sol = solve_lp(&p);
    assert!(!sol.status.is_optimal(), "x ≤ 1 cannot satisfy x ≥ 5");
}

/// A column that names a row twice is refused: the product-form updates
/// would sum the two coefficients and a refactorization keep only the
/// last, so the answer would depend on the pivot count.
#[test]
#[should_panic(expected = "each row at most once")]
fn add_column_rejects_a_repeated_row() {
    let mut p = Problem::new();
    let x = p.add_var("x", 1.0, 0.0, f64::INFINITY);
    let r = p.add_row("cover", Relation::Ge, 1.0);
    p.set_coeff(r, x, 1.0);
    let mut simplex = Simplex::from_problem(&p);
    simplex.solve();
    simplex.add_column(0.5, 0.0, f64::INFINITY, &[(r.0, 1.0), (r.0, 2.0)]);
}
