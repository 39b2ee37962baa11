//! Byte-identity of the exact-estimator planning path.
//!
//! `Scenario::build_plan` was refactored from "collect the history,
//! aggregate it" to "stream the history through a demand estimator".
//! The exact estimator must reproduce the pre-refactor plans bit for
//! bit: the fingerprints below were captured from the batch
//! implementation (PR 2) and pin every float of the plan — expected
//! demands, rejected fractions, column shares and budgets.

use vne_sim::runner::default_apps;
use vne_sim::scenario::{Scenario, ScenarioConfig};
use vne_workload::caida::CaidaConfig;

/// FNV-1a over every structural and floating-point field of the plan.
fn plan_fingerprint(plan: &vne_olive::plan::Plan) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    eat(&plan.objective.to_bits().to_le_bytes());
    for class_plan in plan.iter() {
        eat(&class_plan.class.app.index().to_le_bytes());
        eat(&u64::from(class_plan.class.ingress.0).to_le_bytes());
        eat(&class_plan.expected_demand.to_bits().to_le_bytes());
        eat(&class_plan.rejected_fraction.to_bits().to_le_bytes());
        for col in &class_plan.columns {
            eat(&col.share.to_bits().to_le_bytes());
            eat(&col.budget.to_bits().to_le_bytes());
            eat(&col.unit_cost.to_bits().to_le_bytes());
        }
    }
    h
}

fn scenario(seed: u64, mutate: impl FnOnce(&mut ScenarioConfig)) -> Scenario {
    let substrate = vne_topology::zoo::citta_studi().unwrap();
    let mut config = ScenarioConfig::small(1.0).with_seed(seed);
    mutate(&mut config);
    Scenario::new(substrate, default_apps(seed), config)
}

type ConfigMutation = fn(&mut ScenarioConfig);

#[test]
fn exact_plans_match_prerefactor_fingerprints() {
    let cases: [(u64, ConfigMutation, u64); 4] = [
        (11, |_| {}, 0x6ddb1278c8af18ef),
        (12, |c| c.plan_utilization = Some(0.6), 0xda707c05c9f4bf2d),
        // Re-pinned when the Fig. 14 ingress shift moved to a dedicated
        // derived RNG stream (it used to continue the trace RNG, which
        // forced the planning path to collect the whole history; the
        // dedicated stream makes `history_events` lazy). The shifted
        // ingress assignments are a different — equally random —
        // permutation, so the planned classes differ.
        (13, |c| c.shift_plan_ingress = true, 0xbc37f6fa37a94a60),
        (
            14,
            |c| {
                c.caida = Some(CaidaConfig {
                    total_rate: 100.0,
                    sources: 300,
                    ..CaidaConfig::default()
                })
            },
            0xbf5122186097e021,
        ),
    ];
    for (seed, mutate, expected) in cases {
        let sc = scenario(seed, mutate);
        let (plan, _) = sc.build_plan();
        let got = plan_fingerprint(&plan);
        assert_eq!(
            got, expected,
            "plan drifted for seed {seed}: 0x{got:016x} != 0x{expected:016x}"
        );
    }
}
