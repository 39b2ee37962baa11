//! Stress and regression tests for the simplex beyond the unit suite:
//! larger structured LPs with known optima, repeated column generation,
//! and numerically awkward cases.

use vne_lp::problem::{Problem, Relation};
use vne_lp::simplex::{solve_lp, Simplex, SimplexOptions};
use vne_lp::solution::SolveStatus;

fn assert_close(a: f64, b: f64, tol: f64) {
    assert!((a - b).abs() <= tol, "{a} vs {b}");
}

/// Transportation problem with known optimum: 3 supplies × 4 demands.
#[test]
fn transportation_problem() {
    // Classic instance: supplies [35, 50, 40]; demands [45, 20, 30, 30];
    // costs rows:
    let cost = [
        [8.0, 6.0, 10.0, 9.0],
        [9.0, 12.0, 13.0, 7.0],
        [14.0, 9.0, 16.0, 5.0],
    ];
    let supply = [35.0, 50.0, 40.0];
    let demand = [45.0, 20.0, 30.0, 30.0];
    let mut p = Problem::new();
    let mut vars = [[vne_lp::problem::VarId(0); 4]; 3];
    for i in 0..3 {
        for j in 0..4 {
            vars[i][j] = p.add_var(format!("x{i}{j}"), cost[i][j], 0.0, f64::INFINITY);
        }
    }
    for (i, &s) in supply.iter().enumerate() {
        let r = p.add_row(format!("s{i}"), Relation::Le, s);
        for &var in &vars[i] {
            p.set_coeff(r, var, 1.0);
        }
    }
    for (j, &d) in demand.iter().enumerate() {
        let r = p.add_row(format!("d{j}"), Relation::Ge, d);
        for row in &vars {
            p.set_coeff(r, row[j], 1.0);
        }
    }
    let sol = solve_lp(&p);
    assert_eq!(sol.status, SolveStatus::Optimal);
    // Optimal objective, verified independently by min-cost flow: 1020.
    assert_close(sol.objective, 1020.0, 1e-6);
}

/// A chain of equality rows (tridiagonal system) with bounds.
#[test]
fn tridiagonal_equalities() {
    let n = 40;
    let mut p = Problem::new();
    let vars: Vec<_> = (0..n)
        .map(|j| p.add_var(format!("x{j}"), 1.0, 0.0, 10.0))
        .collect();
    for i in 0..n - 1 {
        let r = p.add_row(format!("e{i}"), Relation::Eq, 3.0);
        p.set_coeff(r, vars[i], 1.0);
        p.set_coeff(r, vars[i + 1], 2.0);
    }
    let sol = solve_lp(&p);
    assert_eq!(sol.status, SolveStatus::Optimal);
    assert!(p.is_feasible(&sol.x, 1e-6));
}

/// Repeated add_column / reoptimize cycles stay consistent (the column
/// generation workload at larger scale).
#[test]
fn repeated_column_generation_cycles() {
    // Covering LP: min Σ c_j x_j s.t. Σ a_ij x_j ≥ b_i.
    let m = 30;
    let mut p = Problem::new();
    // Expensive seed columns (one per row).
    for i in 0..m {
        let v = p.add_var(format!("seed{i}"), 100.0, 0.0, f64::INFINITY);
        let r = p.add_row(format!("r{i}"), Relation::Ge, 1.0 + (i % 5) as f64);
        p.set_coeff(r, v, 1.0);
    }
    let mut s = Simplex::with_options(&p, SimplexOptions::default());
    let first = s.solve();
    assert_eq!(first.status, SolveStatus::Optimal);
    let mut last_obj = first.objective;

    let mut state = 0x853c49e6748fea9bu64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    // 200 generated columns in 20 rounds.
    for _round in 0..20 {
        for _ in 0..10 {
            let nnz = 2 + (rng() * 4.0) as usize;
            let mut coeffs: Vec<(usize, f64)> = (0..nnz)
                .map(|_| ((rng() * m as f64) as usize % m, 0.5 + rng()))
                .collect();
            // A column lists each row once: a row drawn twice keeps its
            // first coefficient.
            coeffs.sort_by_key(|&(r, _)| r);
            coeffs.dedup_by_key(|&mut (r, _)| r);
            s.add_column(1.0 + rng() * 5.0, 0.0, f64::INFINITY, &coeffs);
        }
        let sol = s.reoptimize();
        assert_eq!(sol.status, SolveStatus::Optimal);
        // Objective can only improve as columns are added.
        assert!(
            sol.objective <= last_obj + 1e-6,
            "{} > {}",
            sol.objective,
            last_obj
        );
        last_obj = sol.objective;
    }
    assert!(last_obj < first.objective, "columns should have helped");
}

/// Dual values price equality rows correctly: for `min cᵀx, Ax = b`,
/// strong duality gives `cᵀx* = yᵀb` when all bounds are slack.
#[test]
fn equality_duals_satisfy_strong_duality() {
    let mut p = Problem::new();
    let x = p.add_var("x", 3.0, 0.0, 100.0);
    let y = p.add_var("y", 5.0, 0.0, 100.0);
    let z = p.add_var("z", 4.0, 0.0, 100.0);
    let r1 = p.add_row("r1", Relation::Eq, 5.0);
    let r2 = p.add_row("r2", Relation::Eq, 8.0);
    p.set_coeff(r1, x, 1.0);
    p.set_coeff(r1, y, 1.0);
    p.set_coeff(r2, y, 1.0);
    p.set_coeff(r2, z, 2.0);
    let sol = solve_lp(&p);
    assert_eq!(sol.status, SolveStatus::Optimal);
    let dual_obj = sol.duals[0] * 5.0 + sol.duals[1] * 8.0;
    assert_close(sol.objective, dual_obj, 1e-6);
}

/// Badly scaled coefficients (1e-3 … 1e6) still solve.
#[test]
fn wide_coefficient_range() {
    let mut p = Problem::new();
    let x = p.add_var("x", 1e-3, 0.0, 1e9);
    let y = p.add_var("y", 1e3, 0.0, 1e9);
    let r1 = p.add_row("r1", Relation::Ge, 1e6);
    p.set_coeff(r1, x, 1e-2);
    p.set_coeff(r1, y, 1e4);
    let sol = solve_lp(&p);
    assert_eq!(sol.status, SolveStatus::Optimal);
    assert!(p.is_feasible(&sol.x, 1.0));
    // Cheapest way: x = 1e8 (obj 1e5) vs y = 100 (obj 1e5) — both equal;
    // any convex mix is optimal with objective 1e5.
    assert_close(sol.objective, 1e5, 1e-1);
}

/// Many bound flips: box-constrained LP with a single coupling row.
#[test]
fn box_lp_with_coupling_row() {
    let n = 100;
    let mut p = Problem::new();
    let vars: Vec<_> = (0..n)
        .map(|j| {
            let sign = if j % 2 == 0 { -1.0 } else { 1.0 };
            p.add_var(format!("x{j}"), sign * (1.0 + j as f64), 0.0, 1.0)
        })
        .collect();
    let r = p.add_row("sum", Relation::Le, 30.0);
    for &v in &vars {
        p.set_coeff(r, v, 1.0);
    }
    let sol = solve_lp(&p);
    assert_eq!(sol.status, SolveStatus::Optimal);
    assert!(p.is_feasible(&sol.x, 1e-6));
    // The 30 cheapest (most negative) coefficients are the even indices
    // with largest magnitude: x_98, x_96, … The optimum picks exactly 30
    // of the 50 negative-cost variables.
    let picked: f64 = sol.x.iter().sum();
    assert_close(picked, 30.0, 1e-6);
}

/// Degenerate + redundant structure at moderate scale.
#[test]
fn redundancy_stress() {
    let mut p = Problem::new();
    let n = 20;
    let vars: Vec<_> = (0..n)
        .map(|j| p.add_var(format!("x{j}"), (j % 3) as f64 + 1.0, 0.0, 5.0))
        .collect();
    // The same equality row repeated 5 times + its doubled version.
    for k in 0..5 {
        let r = p.add_row(format!("dup{k}"), Relation::Eq, 10.0);
        for &v in &vars {
            p.set_coeff(r, v, 1.0);
        }
    }
    let r2 = p.add_row("double", Relation::Eq, 20.0);
    for &v in &vars {
        p.set_coeff(r2, v, 2.0);
    }
    let sol = solve_lp(&p);
    assert_eq!(sol.status, SolveStatus::Optimal);
    assert!(p.is_feasible(&sol.x, 1e-6));
    // All mass on the cheapest cost class (cost 1): objective 10.
    assert_close(sol.objective, 10.0, 1e-6);
}

/// One solve of the bound-flip pin: iterations, objective bits, and an
/// FNV-1a hash over the bits of the dual vector.
fn solve_pin(sol: &vne_lp::solution::LpSolution) -> (usize, u64, u64) {
    assert_eq!(sol.status, SolveStatus::Optimal);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in sol.duals.iter().flat_map(|d| d.to_bits().to_le_bytes()) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    (sol.iterations, sol.objective.to_bits(), hash)
}

/// A Dantzig–Wolfe master in miniature: capacity rows (two of them
/// drained to 0, so pivots through them are degenerate), one convexity
/// row per class carrying ten `ub = 0.1` rejection quantiles, and three
/// rounds of generated embedding columns. Most iterations are bound
/// flips of the quantile variables.
fn bound_flip_heavy_master(opts: SimplexOptions) -> Vec<(usize, u64, u64)> {
    let (caps, classes, quantiles) = (12usize, 15usize, 10usize);
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut p = Problem::new();
    for i in 0..caps {
        let rhs = if i % 6 == 5 {
            0.0
        } else {
            20.0 + 4.0 * i as f64
        };
        p.add_row(format!("cap{i}"), Relation::Le, rhs);
    }
    let demands: Vec<f64> = (0..classes).map(|_| 5.0 + 20.0 * rng()).collect();
    for (k, &demand) in demands.iter().enumerate() {
        let conv = p.add_row(format!("conv{k}"), Relation::Eq, 1.0);
        for q in 1..=quantiles {
            let v = p.add_var(
                format!("rej{k}q{q}"),
                3.0 * demand * q as f64,
                0.0,
                1.0 / quantiles as f64,
            );
            p.set_coeff(conv, v, 1.0);
        }
    }
    let mut s = Simplex::with_options(&p, opts);
    let mut pins = vec![solve_pin(&s.solve())];
    for _round in 0..3 {
        for (k, &demand) in demands.iter().enumerate() {
            for _ in 0..2 {
                // Distinct rows: a walk of stride 5 over the 12 capacity rows.
                let hops = 2 + (rng() * 3.0) as usize;
                let first = (rng() * caps as f64) as usize;
                let mut coeffs: Vec<(usize, f64)> = (0..hops)
                    .map(|h| ((first + 5 * h) % caps, demand * (0.5 + rng())))
                    .collect();
                coeffs.push((caps + k, 1.0));
                s.add_column(demand * (1.0 + 4.0 * rng()), 0.0, f64::INFINITY, &coeffs);
            }
        }
        pins.push(solve_pin(&s.reoptimize()));
    }
    pins
}

/// Per-solve iteration counts, objective bits and dual bits of the
/// master above as a fresh `btran` and a full reduced-cost scan in every
/// iteration produce them — what any reuse of duals or reduced costs
/// across bound flips has to reproduce: under Dantzig pricing, under
/// Bland's rule from the first degenerate pivot on (more iterations, so
/// the rule did engage), and with a refactorization every seven pivots.
#[test]
fn bound_flip_heavy_master_is_pinned() {
    let dantzig = bound_flip_heavy_master(SimplexOptions::default());
    let bland = bound_flip_heavy_master(SimplexOptions {
        bland_trigger: 0,
        ..SimplexOptions::default()
    });
    let refactoring = bound_flip_heavy_master(SimplexOptions {
        refactor_every: 7,
        ..SimplexOptions::default()
    });
    assert_eq!(
        dantzig,
        [
            (179, 0x40a7_c824_a5cd_871a, 0xfa06_a1b1_33f8_19f6),
            (75, 0x409a_1773_1b37_212b, 0xa4a6_86d6_39ca_274b),
            (59, 0x4092_aac7_a3af_22c8, 0x18b5_45b4_07dd_3faf),
            (48, 0x408d_b5c6_a403_d19b, 0xe6f1_90d6_0ccd_84ef),
        ]
    );
    assert_eq!(
        bland,
        [
            (291, 0x40a7_c824_a5cd_871a, 0xfa06_a1b1_33f8_19f6),
            (84, 0x409a_1773_1b37_212c, 0xdf56_9ae2_6536_b3b7),
            (63, 0x4092_aac7_a3af_22c8, 0x7b73_7004_ba61_ed06),
            (49, 0x408d_b5c6_a403_d19a, 0xdb40_330c_cb7f_dbf4),
        ]
    );
    assert_eq!(
        refactoring,
        [
            (179, 0x40a7_c824_a5cd_871b, 0xfa06_a1b1_33f8_19f6),
            (75, 0x409a_1773_1b37_212c, 0x2b2d_69ce_12d3_9e99),
            (59, 0x4092_aac7_a3af_22c8, 0xb057_c303_5b0b_a950),
            (48, 0x408d_b5c6_a403_d19b, 0x454d_985b_3f83_5b73),
        ]
    );
}

/// One solve of the sparse-master pin: iterations, status, objective
/// bits, and an FNV-1a hash over the bits of `x` and then the duals.
fn full_pin(sol: &vne_lp::solution::LpSolution) -> (usize, SolveStatus, u64, u64) {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let bits = sol.x.iter().chain(&sol.duals).map(|v| v.to_bits());
    for byte in bits.flat_map(u64::to_le_bytes) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    (sol.iterations, sol.status, sol.objective.to_bits(), hash)
}

/// A column-generation master with `m` rows, shaped like PLAN-VNE's:
/// `≤` capacity rows (every sixth drained to 0), one `=` convexity row
/// per class over four `1/4`-bounded rejection quantiles, three `≥`
/// minimum-rejection rows over groups of classes, and one `≥` row with
/// a negative right-hand side over a free variable that also relieves
/// the first capacity row. The convexity rows and the negative row put
/// artificials in the starting basis, so phase 1 and the eviction of
/// artificials both run. Then three rounds of two generated embedding
/// columns per class, each a walk over distinct capacity rows plus its
/// convexity row, are added and re-optimized.
fn sparse_master(m: usize, opts: SimplexOptions) -> Vec<(usize, SolveStatus, u64, u64)> {
    let caps = 2 * m / 3;
    let groups = 3;
    let classes = m - caps - groups - 1;
    let quantiles = 4;
    let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ m as u64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut p = Problem::new();
    let cap_rows: Vec<_> = (0..caps)
        .map(|i| {
            let rhs = if i % 6 == 5 { 0.0 } else { 10.0 + 30.0 * rng() };
            p.add_row(format!("cap{i}"), Relation::Le, rhs)
        })
        .collect();
    let conv_rows: Vec<_> = (0..classes)
        .map(|k| p.add_row(format!("conv{k}"), Relation::Eq, 1.0))
        .collect();
    let group_rows: Vec<_> = (0..groups)
        .map(|g| {
            let members = (0..classes).filter(|k| k % groups == g).count();
            p.add_row(format!("minrej{g}"), Relation::Ge, 0.1 * members as f64)
        })
        .collect();
    let floor = p.add_row("floor", Relation::Ge, -5.0);
    let demands: Vec<f64> = (0..classes).map(|_| 1.0 + 9.0 * rng()).collect();
    for (k, &demand) in demands.iter().enumerate() {
        for q in 1..=quantiles {
            let v = p.add_var(
                format!("rej{k}q{q}"),
                3.0 * demand * q as f64,
                0.0,
                1.0 / quantiles as f64,
            );
            p.set_coeff(conv_rows[k], v, 1.0);
            p.set_coeff(group_rows[k % groups], v, 1.0);
        }
    }
    let free = p.add_var("relief", 1.0, f64::NEG_INFINITY, f64::INFINITY);
    p.set_coeff(floor, free, 1.0);
    p.set_coeff(cap_rows[0], free, 1.0);

    let mut s = Simplex::with_options(&p, opts);
    let mut pins = vec![full_pin(&s.solve())];
    for _round in 0..3 {
        for (k, &demand) in demands.iter().enumerate() {
            for _ in 0..2 {
                // Distinct rows: at most four hops of stride 7, and every
                // `caps` below exceeds 21.
                let hops = 2 + (rng() * 3.0) as usize;
                let first = (rng() * caps as f64) as usize;
                let mut coeffs: Vec<(usize, f64)> = (0..hops)
                    .map(|h| ((first + 7 * h) % caps, demand * (0.5 + rng())))
                    .collect();
                coeffs.push((caps + k, 1.0));
                s.add_column(demand * (1.0 + 4.0 * rng()), 0.0, f64::INFINITY, &coeffs);
            }
        }
        pins.push(full_pin(&s.reoptimize()));
    }
    pins
}

/// Per-solve iteration counts, statuses, objective bits and `x` / dual
/// digests of the master above at three sizes whose `m` spans two, three
/// and five 64-bit words and is never a multiple of 64, under the
/// default refactorization cadence, one every seven pivots, and one
/// after every pivot, and at the largest size under Bland's rule with
/// the first and the last of those — what any change to how `B⁻¹` is
/// stored, updated or rebuilt, or to how pricing finds its column, has
/// to reproduce bit for bit.
#[test]
fn sparse_master_solves_are_pinned() {
    let pin = |m, refactor_every| {
        sparse_master(
            m,
            SimplexOptions {
                refactor_every,
                ..SimplexOptions::default()
            },
        )
    };
    let opt = SolveStatus::Optimal;
    // Before the first round every column holds only ±1 entries, so each
    // `B⁻¹` is exact and the three cadences agree on the first solve.
    let first_70 = (152, opt, 0x408a_6cf2_97aa_878f, 0xfc5c_189b_9b41_7ba3);
    assert_eq!(
        pin(70, 100),
        [
            first_70,
            (59, opt, 0x407e_3020_34bd_5555, 0xfeef_5196_7042_7871),
            (39, opt, 0x4071_aa96_1553_fafe, 0x8543_2896_e376_09d3),
            (21, opt, 0x406d_040b_3413_2256, 0x34e8_9dfb_de47_1c08),
        ]
    );
    assert_eq!(
        pin(70, 7),
        [
            first_70,
            (59, opt, 0x407e_3020_34bd_5555, 0x5498_7e5b_6575_9dcd),
            (39, opt, 0x4071_aa96_1553_fafe, 0xd8e6_608c_0f74_b357),
            (21, opt, 0x406d_040b_3413_2256, 0xb749_2732_03ae_7bfe),
        ]
    );
    assert_eq!(
        pin(70, 1),
        [
            first_70,
            (59, opt, 0x407e_3020_34bd_5555, 0x5498_7e5b_6575_9dcd),
            (39, opt, 0x4071_aa96_1553_fafe, 0x6015_dda3_6df3_cf46),
            (21, opt, 0x406d_040b_3413_2256, 0x2454_f04b_52bb_df34),
        ]
    );
    let first_150 = (336, opt, 0x409d_6601_e00b_b54d, 0xaad4_6ecf_c978_4f2e);
    assert_eq!(
        pin(150, 100),
        [
            first_150,
            (151, opt, 0x408d_161a_a072_85b6, 0x2608_672e_2323_3d2a),
            (85, opt, 0x4082_efc8_eaed_4d77, 0x5c58_5728_cb41_5557),
            (59, opt, 0x4080_2086_a724_d2c0, 0x52a2_67c0_8f3e_9def),
        ]
    );
    assert_eq!(
        pin(150, 7),
        [
            first_150,
            (151, opt, 0x408d_161a_a072_85b6, 0xcd25_ff1d_e8e9_e77f),
            (85, opt, 0x4082_efc8_eaed_4d77, 0x3e00_2671_2522_5671),
            (56, opt, 0x4080_2086_a724_d2be, 0xadef_e674_9665_8707),
        ]
    );
    assert_eq!(
        pin(150, 1),
        [
            first_150,
            (151, opt, 0x408d_161a_a072_85b6, 0xcd25_ff1d_e8e9_e77f),
            (85, opt, 0x4082_efc8_eaed_4d77, 0x3e00_2671_2522_5671),
            (56, opt, 0x4080_2086_a724_d2be, 0x31b0_326b_5443_2cac),
        ]
    );
    let first_260 = (592, opt, 0x40a9_c005_d4fe_6cbe, 0xf9a2_5592_1dfe_5f84);
    assert_eq!(
        pin(260, 100),
        [
            first_260,
            (276, opt, 0x4099_7d39_90f2_a9dd, 0x043b_f56b_99d9_dc35),
            (139, opt, 0x4093_091f_0c82_6560, 0x8f04_565c_d7b7_db32),
            (104, opt, 0x4090_3594_dd06_3a42, 0x8e9d_9187_7f59_0525),
        ]
    );
    assert_eq!(
        pin(260, 7),
        [
            first_260,
            (276, opt, 0x4099_7d39_90f2_a9dd, 0x5617_265d_22c6_6730),
            (139, opt, 0x4093_091f_0c82_6560, 0x0f1b_ee44_5842_1dea),
            (104, opt, 0x4090_3594_dd06_3a41, 0x3ef6_c26b_1dd9_5c34),
        ]
    );
    assert_eq!(
        pin(260, 1),
        [
            first_260,
            (276, opt, 0x4099_7d39_90f2_a9dd, 0x5617_265d_22c6_6730),
            (139, opt, 0x4093_091f_0c82_6560, 0x3ef8_1c32_67d8_42ed),
            (104, opt, 0x4090_3594_dd06_3a41, 0x0c79_5b24_ccf6_61ab),
        ]
    );
    // Bland's rule from the first degenerate pivot on, over a master
    // that spans many 64-column blocks and carries a free variable:
    // pricing stops at the first eligible column instead of taking the
    // largest violation.
    let bland = |refactor_every| {
        sparse_master(
            260,
            SimplexOptions {
                bland_trigger: 0,
                refactor_every,
                ..SimplexOptions::default()
            },
        )
    };
    assert_eq!(
        bland(100),
        [
            (752, opt, 0x40a9_c005_d4fe_6cbe, 0xf9a2_5592_1dfe_5f84),
            (285, opt, 0x4099_7d39_90f2_a9de, 0x6ddc_8c97_42da_1fb5),
            (143, opt, 0x4093_091f_0c82_6560, 0xb04c_3ad6_9674_62a6),
            (124, opt, 0x4090_3594_dd06_3a41, 0x1c9f_72d4_eff9_279e),
        ]
    );
    assert_eq!(
        bland(1),
        [
            (752, opt, 0x40a9_c005_d4fe_6cbe, 0xf9a2_5592_1dfe_5f84),
            (285, opt, 0x4099_7d39_90f2_a9dd, 0x6f9c_f6ce_6ece_83e7),
            (143, opt, 0x4093_091f_0c82_6560, 0xf38c_a3f4_aa32_ed62),
            (124, opt, 0x4090_3594_dd06_3a42, 0xb1ba_55bb_8276_12b0),
        ]
    );
}
