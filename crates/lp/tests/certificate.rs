//! `Simplex::certify` on a master of the size SLOTOFF solves every slot:
//! 111 `≤` capacity rows and 130 `=` convexity rows (241 in all), each
//! class over 10 rejection quantiles, solved from the artificial basis
//! and then through three rounds of appended embedding columns.

use vne_lp::problem::{Problem, Relation};
use vne_lp::simplex::Simplex;
use vne_lp::solution::SolveStatus;

const CAPS: usize = 111;
const CLASSES: usize = 130;
const QUANTILES: usize = 10;

fn xorshift(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Every solve ends `Optimal` and passes the certificate; each round's
/// columns can only lower the objective, and the first round does.
#[test]
fn a_slotoff_sized_master_is_certified_at_every_solve() {
    let mut rng = xorshift(0x2545_f491_4f6c_dd1d);
    let mut p = Problem::new();
    for _ in 0..CAPS {
        // About one element in eight drained to 0, as churn leaves them.
        let rhs = if rng() < 0.12 {
            0.0
        } else {
            200.0 + 800.0 * rng()
        };
        p.add_row("", Relation::Le, rhs);
    }
    let demands: Vec<f64> = (0..CLASSES).map(|_| 1.0 + 40.0 * rng()).collect();
    for &demand in &demands {
        let conv = p.add_row("", Relation::Eq, 1.0);
        for q in 1..=QUANTILES {
            let cost = 500.0 * demand * q as f64;
            let v = p.add_var("", cost, 0.0, 1.0 / QUANTILES as f64);
            p.set_coeff(conv, v, 1.0);
        }
    }
    let mut simplex = Simplex::from_problem(&p);
    let mut objectives = Vec::new();
    for round in 0..=3 {
        if round > 0 {
            for (k, &demand) in demands.iter().enumerate() {
                // One or two paths per class: a host, up to three hops
                // and a second host, each at `demand` times a unit usage.
                for _ in 0..1 + (rng() * 2.0) as usize {
                    let hops = 1 + (rng() * 3.0) as usize;
                    let first = (rng() * CAPS as f64) as usize;
                    let mut entries: Vec<(usize, f64)> = (0..=hops)
                        .map(|h| ((first + 17 * h) % CAPS, demand * (0.5 + rng())))
                        .collect();
                    entries.push((CAPS + k, 1.0));
                    let cost = demand * (2.0 + 30.0 * rng()) * (hops + 1) as f64;
                    simplex.add_column(cost, 0.0, f64::INFINITY, &entries);
                }
            }
        }
        let sol = if round == 0 {
            simplex.solve()
        } else {
            simplex.reoptimize()
        };
        assert_eq!(sol.status, SolveStatus::Optimal, "round {round}");
        assert!(sol.iterations > 0, "round {round} did not pivot");
        if let Err(failure) = simplex.certify() {
            panic!("round {round}: {failure}");
        }
        objectives.push(sol.objective);
    }
    assert!(
        objectives
            .windows(2)
            .all(|w| w[1] <= w[0] + 1e-9 * w[0].abs()),
        "{objectives:?}"
    );
    assert!(objectives[1] < objectives[0], "{objectives:?}");
}
