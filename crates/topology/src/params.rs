//! Tier parameters from Table II of the paper.
//!
//! | parameter            | edge | transport | core |
//! |----------------------|------|-----------|------|
//! | node capacity \[CU\]   | 200K | 600K      | 1.8M |
//! | mean node cost (/CU) | 50   | 10        | 1    |
//! | link capacity \[CU\]   | 100K | 300K      | 900K |
//! | link cost (/CU)      | 1    | 1         | 1    |
//!
//! Datacenter costs are drawn uniformly between 50% and 150% of the tier
//! mean (§IV-A). Links take the parameters of the tier *closer to the
//! edge* among their endpoints (the 1:3 capacity ratio between successive
//! tiers).

use serde::{Deserialize, Serialize};
use vne_model::substrate::Tier;

/// Capacity/cost parameters for one tier.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TierSpec {
    /// Datacenter capacity in CU.
    pub node_capacity: f64,
    /// Mean datacenter cost per CU (actual cost jittered ±50%).
    pub mean_node_cost: f64,
    /// Link capacity in CU.
    pub link_capacity: f64,
    /// Link cost per CU.
    pub link_cost: f64,
}

/// The full tier parameter table.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TierParams {
    /// Edge tier parameters.
    pub edge: TierSpec,
    /// Transport tier parameters.
    pub transport: TierSpec,
    /// Core tier parameters.
    pub core: TierSpec,
    /// Relative half-width of the node-cost jitter (0.5 ⇒ U[50%,150%]).
    pub cost_jitter: f64,
}

impl Default for TierParams {
    fn default() -> Self {
        Self::paper()
    }
}

impl TierParams {
    /// The paper's Table II parameters.
    pub fn paper() -> Self {
        Self {
            edge: TierSpec {
                node_capacity: 200_000.0,
                mean_node_cost: 50.0,
                link_capacity: 100_000.0,
                link_cost: 1.0,
            },
            transport: TierSpec {
                node_capacity: 600_000.0,
                mean_node_cost: 10.0,
                link_capacity: 300_000.0,
                link_cost: 1.0,
            },
            core: TierSpec {
                node_capacity: 1_800_000.0,
                mean_node_cost: 1.0,
                link_capacity: 900_000.0,
                link_cost: 1.0,
            },
            cost_jitter: 0.5,
        }
    }

    /// The spec for a tier.
    pub fn spec(&self, tier: Tier) -> &TierSpec {
        match tier {
            Tier::Edge => &self.edge,
            Tier::Transport => &self.transport,
            Tier::Core => &self.core,
        }
    }

    /// The tier governing a link between nodes of tiers `a` and `b`: the
    /// one closer to the edge.
    pub fn link_tier(a: Tier, b: Tier) -> Tier {
        a.min(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_parameters_match_table2() {
        let p = TierParams::paper();
        assert_eq!(p.edge.node_capacity, 200_000.0);
        assert_eq!(p.transport.node_capacity, 600_000.0);
        assert_eq!(p.core.node_capacity, 1_800_000.0);
        assert_eq!(p.edge.mean_node_cost, 50.0);
        assert_eq!(p.core.mean_node_cost, 1.0);
        assert_eq!(p.edge.link_capacity, 100_000.0);
        // 1:3:9 capacity ratios.
        assert_eq!(p.transport.node_capacity / p.edge.node_capacity, 3.0);
        assert_eq!(p.core.link_capacity / p.transport.link_capacity, 3.0);
    }

    #[test]
    fn link_tier_takes_edge_most() {
        assert_eq!(TierParams::link_tier(Tier::Edge, Tier::Core), Tier::Edge);
        assert_eq!(
            TierParams::link_tier(Tier::Core, Tier::Transport),
            Tier::Transport
        );
        assert_eq!(TierParams::link_tier(Tier::Core, Tier::Core), Tier::Core);
    }

    #[test]
    fn spec_lookup() {
        let p = TierParams::paper();
        assert_eq!(p.spec(Tier::Transport).mean_node_cost, 10.0);
    }
}
