//! Property-based correctness tests for the simplex and branch-and-bound.
//!
//! * Strong duality on random always-feasible `≤`-form LPs, dense at 5 × 5
//!   and sparse at master size (up to 150 × 300);
//! * dual sign and reduced-cost optimality conditions;
//! * branch-and-bound vs exhaustive enumeration on random binary MILPs.

use proptest::prelude::*;
use vne_lp::problem::{Problem, Relation};
use vne_lp::simplex::solve_lp;
use vne_lp::solution::SolveStatus;
use vne_lp::{solve_mip, BranchBoundOptions};

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
