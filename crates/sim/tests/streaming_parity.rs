//! Parity: the streaming engine must reproduce the old batch engine's
//! results exactly.
//!
//! `batch_run` below is a faithful copy of the pre-streaming engine
//! (pre-bucketed arrivals, precomputed requested series, in-place
//! outcome updates) and `summarize` / `balance_index` are the batch
//! summary it fed, kept as the oracle. The property: for any seed and
//! utilization, each of the four paper algorithms produces the same
//! per-request statuses, and the library's one summary fold
//! ([`vne_sim::observe::WindowSummary`]) a byte-identical window
//! [`Summary`] (modulo the wall-clock `online_secs` field), on both
//! paths.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use proptest::prelude::*;
use vne_model::app::{shapes, AppSet, AppShape};
use vne_model::cost::RejectionPenalty;
use vne_model::ids::{AppId, NodeId, RequestId};
use vne_model::request::{Request, Slot};
use vne_model::substrate::{SubstrateNetwork, Tier};
use vne_olive::algorithm::OnlineAlgorithm;
use vne_sim::engine::{ChurnStats, RequestOutcome, RequestStatus, RunResult, SlotMetrics};
use vne_sim::metrics::{balance_from_counts, NeumaierSum, Summary};
use vne_sim::registry::{AlgorithmRegistry, BuildContext};
use vne_sim::scenario::{Algorithm, Scenario, ScenarioConfig};

/// The pre-streaming batch engine, verbatim: the parity oracle.
fn batch_run(
    algorithm: &mut dyn OnlineAlgorithm,
    substrate: &SubstrateNetwork,
    trace: &[Request],
    slots: Slot,
) -> RunResult {
    let mut arrivals_at: Vec<Vec<Request>> = vec![Vec::new(); slots as usize];
    for r in trace {
        if r.arrival < slots {
            arrivals_at[r.arrival as usize].push(r.clone());
        }
    }
    for bucket in &mut arrivals_at {
        bucket.sort_by_key(|r| r.id);
    }

    let mut departures_at: Vec<Vec<Request>> = vec![Vec::new(); slots as usize + 1];
    let mut alive: HashSet<RequestId> = HashSet::new();
    let mut outcomes: Vec<RequestOutcome> = Vec::with_capacity(trace.len());
    let mut outcome_index: std::collections::HashMap<RequestId, usize> =
        std::collections::HashMap::with_capacity(trace.len());
    let mut slot_metrics = vec![SlotMetrics::default(); slots as usize];

    let mut requested = vec![0.0f64; slots as usize];
    for r in trace {
        let end = r.departure().min(slots);
        for t in r.arrival..end {
            requested[t as usize] += r.demand;
        }
    }

    let mut allocated_active = 0.0f64;
    for t in 0..slots {
        let departures: Vec<Request> = departures_at[t as usize]
            .drain(..)
            .filter(|r| alive.remove(&r.id))
            .collect();
        for d in &departures {
            allocated_active -= d.demand;
        }
        let arrivals = std::mem::take(&mut arrivals_at[t as usize]);
        let outcome = algorithm.process_slot(t, &departures, &arrivals);

        for r in &arrivals {
            let accepted = outcome.accepted.contains(&r.id);
            let status = if accepted {
                RequestStatus::Accepted
            } else {
                RequestStatus::Rejected
            };
            outcome_index.insert(r.id, outcomes.len());
            outcomes.push(RequestOutcome {
                id: r.id,
                class: r.class(),
                arrival: r.arrival,
                duration: r.duration,
                demand: r.demand,
                status,
            });
            if accepted {
                alive.insert(r.id);
                allocated_active += r.demand;
                let dep = r.departure();
                if dep <= slots {
                    departures_at[dep as usize].push(r.clone());
                }
            }
        }
        for &p in &outcome.preempted {
            if alive.remove(&p) {
                if let Some(&idx) = outcome_index.get(&p) {
                    allocated_active -= outcomes[idx].demand;
                    outcomes[idx].status = RequestStatus::Preempted(t);
                }
            }
        }

        slot_metrics[t as usize] = SlotMetrics {
            requested_demand: requested[t as usize],
            allocated_demand: allocated_active,
            resource_cost: algorithm.loads().cost_per_slot(substrate),
        };
    }

    RunResult {
        algorithm: algorithm.name().to_string(),
        requests: outcomes,
        slots: slot_metrics,
        online_secs: 0.0,
    }
}

/// The pre-streaming batch summary, verbatim: computes the window
/// summary of a finished run from its outcome log (no churn tallies —
/// the log has per-request outcomes, not churn events).
fn summarize(result: &RunResult, penalty: &RejectionPenalty, window: (Slot, Slot)) -> Summary {
    let (from, to) = window;
    let mut arrivals = 0usize;
    let mut rejected = 0usize;
    let mut preempted = 0usize;
    let mut rejected_cost = NeumaierSum::new();
    let mut preemptions: Vec<(Slot, RequestId, f64)> = Vec::new();
    for r in &result.requests {
        if r.arrival < from || r.arrival >= to {
            continue;
        }
        arrivals += 1;
        match r.status {
            RequestStatus::Accepted => {}
            RequestStatus::Rejected => {
                rejected += 1;
                rejected_cost.add(penalty.psi(r.class.app) * r.demand * f64::from(r.duration));
            }
            RequestStatus::Preempted(at) => {
                preempted += 1;
                preemptions.push((
                    at,
                    r.id,
                    penalty.psi(r.class.app) * r.demand * f64::from(r.duration),
                ));
            }
        }
    }
    // Pinned order: preemption costs fold by (eviction slot, id) — the
    // order the incremental observer sees them in.
    preemptions.sort_by_key(|&(slot, id, _)| (slot, id));
    let mut preempted_cost = NeumaierSum::new();
    for (_, _, cost) in preemptions {
        preempted_cost.add(cost);
    }
    let rejection_cost = rejected_cost.value() + preempted_cost.value();
    let resource_cost: f64 = result
        .slots
        .iter()
        .enumerate()
        .filter(|(t, _)| (*t as Slot) >= from && (*t as Slot) < to)
        .map(|(_, s)| s.resource_cost)
        .sum();
    let denied = rejected + preempted;
    Summary {
        arrivals,
        rejected,
        preempted,
        rejection_rate: if arrivals == 0 {
            0.0
        } else {
            denied as f64 / arrivals as f64
        },
        resource_cost,
        rejection_cost,
        total_cost: resource_cost + rejection_cost,
        balance_index: balance_index(result, window),
        online_secs: result.online_secs,
        churn: ChurnStats::default(),
    }
}

/// The rejection balance index (Eq. 20): a weighted Jain fairness index
/// of per-application rejections at each ingress node; 1 is perfectly
/// balanced. Nodes without any rejection are excluded (Jain's index is
/// undefined on an all-zero vector, and including them as "perfect"
/// saturates the index at high acceptance); if no node rejects at all
/// the index is 1.
fn balance_index(result: &RunResult, window: (Slot, Slot)) -> f64 {
    let (from, to) = window;
    // n(v) and x_{v,a}.
    let mut n_v: BTreeMap<NodeId, f64> = BTreeMap::new();
    let mut x_va: BTreeMap<(NodeId, AppId), f64> = BTreeMap::new();
    let mut apps: BTreeSet<AppId> = BTreeSet::new();
    for r in &result.requests {
        if r.arrival < from || r.arrival >= to {
            continue;
        }
        apps.insert(r.class.app);
        *n_v.entry(r.class.ingress).or_insert(0.0) += 1.0;
        if r.status.is_denied() {
            *x_va.entry((r.class.ingress, r.class.app)).or_insert(0.0) += 1.0;
        }
    }
    balance_from_counts(&n_v, &x_va, &apps)
}

/// A deliberately tiny 4-node world (like `tests/algorithms.rs`) so the
/// exact baselines (FULLG's per-request ILPs, SLOTOFF's per-slot
/// re-plans) stay fast in debug builds.
fn tiny_scenario(utilization: f64, seed: u64) -> Scenario {
    let mut s = SubstrateNetwork::new("tiny");
    let e0 = s.add_node("e0", Tier::Edge, 300.0, 50.0).unwrap();
    let e1 = s.add_node("e1", Tier::Edge, 300.0, 50.0).unwrap();
    let t = s.add_node("t", Tier::Transport, 900.0, 10.0).unwrap();
    let c = s.add_node("c", Tier::Core, 2700.0, 1.0).unwrap();
    s.add_link(e0, t, 1500.0, 1.0).unwrap();
    s.add_link(e1, t, 1500.0, 1.0).unwrap();
    s.add_link(t, c, 4500.0, 1.0).unwrap();
    let mut apps = AppSet::new();
    apps.push(
        "chain",
        AppShape::Chain,
        shapes::uniform_chain(2, 10.0, 3.0).unwrap(),
    )
    .unwrap();
    apps.push(
        "tree",
        AppShape::Tree,
        shapes::two_branch_tree(3, 6.0, 2.0).unwrap(),
    )
    .unwrap();
    let mut config = ScenarioConfig::small(utilization).with_seed(seed);
    config.history_slots = 60;
    config.test_slots = 25;
    config.measure_window = (2, 22);
    config.aggregation.bootstrap_replicates = 10;
    Scenario::new(s, apps, config)
}

fn assert_summary_parity(alg: Algorithm, streaming: &Summary, batch: &Summary) {
    // Byte-identical except the wall-clock field.
    assert_eq!(streaming.arrivals, batch.arrivals, "{alg}: arrivals");
    assert_eq!(streaming.rejected, batch.rejected, "{alg}: rejected");
    assert_eq!(streaming.preempted, batch.preempted, "{alg}: preempted");
    assert_eq!(
        streaming.rejection_rate.to_bits(),
        batch.rejection_rate.to_bits(),
        "{alg}: rejection_rate"
    );
    assert_eq!(
        streaming.resource_cost.to_bits(),
        batch.resource_cost.to_bits(),
        "{alg}: resource_cost"
    );
    assert_eq!(
        streaming.rejection_cost.to_bits(),
        batch.rejection_cost.to_bits(),
        "{alg}: rejection_cost"
    );
    assert_eq!(
        streaming.total_cost.to_bits(),
        batch.total_cost.to_bits(),
        "{alg}: total_cost"
    );
    assert_eq!(
        streaming.balance_index.to_bits(),
        batch.balance_index.to_bits(),
        "{alg}: balance_index"
    );
}

fn check_parity(utilization: f64, seed: u64) {
    let scenario = tiny_scenario(utilization, seed);
    let registry = AlgorithmRegistry::builtins();
    for alg in Algorithm::ALL {
        // Streaming path: the production Scenario::run.
        let streaming = scenario.run(alg);
        // Batch path: a fresh instance of the same algorithm (the plan
        // build is deterministic per seed) driven by the oracle.
        let mut built = registry
            .build(&alg.into(), &BuildContext::new(&scenario))
            .unwrap();
        let trace: Vec<Request> = scenario
            .online_events()
            .flat_map(|ev| ev.arrivals)
            .collect();
        let batch = batch_run(
            built.algorithm.as_mut(),
            &scenario.substrate,
            &trace,
            scenario.config.test_slots,
        );
        let batch_summary = summarize(&batch, &scenario.penalty(), scenario.config.measure_window);

        // Identical per-request decisions, in the same order.
        assert_eq!(
            streaming.result.requests.len(),
            batch.requests.len(),
            "{alg}: outcome count"
        );
        for (s, b) in streaming.result.requests.iter().zip(&batch.requests) {
            assert_eq!(s.id, b.id, "{alg}: outcome order");
            assert_eq!(s.status, b.status, "{alg}: status of {:?}", s.id);
        }
        assert_summary_parity(alg, &streaming.summary, &batch_summary);
        // Per-slot series agree too (requested/allocated are kept
        // incrementally by the streaming engine, so allow ulp slack
        // there; resource cost is computed identically).
        assert_eq!(streaming.result.slots.len(), batch.slots.len());
        for (s, b) in streaming.result.slots.iter().zip(&batch.slots) {
            assert_eq!(
                s.resource_cost.to_bits(),
                b.resource_cost.to_bits(),
                "{alg}: resource cost series"
            );
            assert!((s.requested_demand - b.requested_demand).abs() < 1e-6);
            assert!((s.allocated_demand - b.allocated_demand).abs() < 1e-6);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Streaming == batch for every paper algorithm, across random
    /// seeds and utilization levels.
    #[test]
    fn streaming_engine_matches_batch_engine(
        seed in 1u64..1000,
        util_idx in 0usize..5,
    ) {
        let utilization = [0.6, 0.8, 1.0, 1.2, 1.4][util_idx];
        check_parity(utilization, seed);
    }
}

/// A fixed-seed spot check at a load level where OLIVE demonstrably
/// preempts, so the preemption bookkeeping path is exercised — and
/// compared — deterministically.
#[test]
fn parity_at_high_load_fixed_seed() {
    check_parity(1.4, 11);
    let preempted = tiny_scenario(1.4, 11)
        .run(Algorithm::Olive)
        .summary
        .preempted;
    assert!(preempted > 0, "seed 11 must exercise preemption");
}
