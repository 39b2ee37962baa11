//! A third-party online algorithm registered by name — without touching
//! `vne-sim`.
//!
//! This is the acceptance demo for the open algorithm registry: the
//! whole algorithm lives in this one file. `EDGEFIRST` is a deliberately
//! naive baseline that only ever embeds a request collocated at its
//! ingress edge datacenter (no routing into the core at all), so it
//! saturates hot edge nodes quickly — a useful lower bound against
//! QUICKG, whose Dijkstra search may haul demand to any feasible node.
//!
//! Run with `cargo run --release --example custom_algorithm`.

use std::collections::HashMap;

use vne::olive::algorithm::{OnlineAlgorithm, SlotOutcome};
use vne::prelude::*;
use vne::sim::registry::BuiltAlgorithm;
use vne::sim::runner::default_apps;

/// Embeds every request collocated at its ingress node, or rejects it.
struct EdgeFirst {
    substrate: SubstrateNetwork,
    apps: AppSet,
    policy: PlacementPolicy,
    loads: LoadLedger,
    /// Footprints of active requests, released on departure.
    active: HashMap<RequestId, (f64, Footprint)>,
}

impl EdgeFirst {
    fn new(substrate: SubstrateNetwork, apps: AppSet, policy: PlacementPolicy) -> Self {
        let loads = LoadLedger::new(&substrate);
        Self {
            substrate,
            apps,
            policy,
            loads,
            active: HashMap::new(),
        }
    }
}

impl OnlineAlgorithm for EdgeFirst {
    fn name(&self) -> &str {
        "EDGEFIRST"
    }

    fn process_slot(
        &mut self,
        _t: Slot,
        departures: &[Request],
        arrivals: &[Request],
    ) -> SlotOutcome {
        let mut outcome = SlotOutcome::default();
        for d in departures {
            if let Some((demand, footprint)) = self.active.remove(&d.id) {
                self.loads.remove(&footprint, demand);
            }
        }
        for r in arrivals {
            let vnet = self.apps.vnet(r.app);
            let host = self.substrate.node(r.ingress);
            // All VNFs collocated on the ingress itself: no substrate
            // links are used (path length 0), only node capacity.
            let mut per_unit = 0.0;
            let mut placeable = true;
            for (_, vnf) in vnet.vnodes() {
                if vnf.beta == 0.0 {
                    continue;
                }
                match self.policy.node_eta(vnf, host) {
                    Some(eta) => per_unit += vnf.beta * eta,
                    None => placeable = false,
                }
            }
            let footprint = Footprint::from_parts(vec![(r.ingress, per_unit)], vec![]);
            if placeable && self.loads.fits(&footprint, r.demand) {
                self.loads.apply(&footprint, r.demand);
                self.active.insert(r.id, (r.demand, footprint));
                outcome.accepted.push(r.id);
            } else {
                outcome.rejected.push(r.id);
            }
        }
        outcome
    }

    fn loads(&self) -> &LoadLedger {
        &self.loads
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let substrate = vne::topology::zoo::iris()?;
    let seed = 7;
    let mut config = ScenarioConfig::small(1.0).with_seed(seed);
    config.history_slots = 150;

    // Register EDGEFIRST by name next to the four builtins.
    let mut registry = AlgorithmRegistry::builtins();
    registry.register("edgefirst", |ctx| {
        BuiltAlgorithm::plain(EdgeFirst::new(
            ctx.substrate().clone(),
            ctx.apps().clone(),
            ctx.policy().clone(),
        ))
    });
    let scenario = Scenario::new(substrate, default_apps(seed), config).with_registry(registry);

    println!("registered algorithms: {:?}\n", scenario.registry().names());
    println!(
        "{:<10} {:>10} {:>12} {:>9}",
        "algorithm", "rejection", "total cost", "arrivals"
    );
    for name in ["EDGEFIRST", "QUICKG", "OLIVE"] {
        let outcome = scenario.run(name);
        println!(
            "{:<10} {:>9.2}% {:>12.3e} {:>9}",
            name,
            outcome.summary.rejection_rate * 100.0,
            outcome.summary.total_cost,
            outcome.summary.arrivals,
        );
    }
    Ok(())
}
