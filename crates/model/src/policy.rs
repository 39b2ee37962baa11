//! Placement policy: the inefficiency coefficients `η_s^q`.
//!
//! The paper's `η_s^q` scales the footprint of virtual element `q` on
//! substrate element `s`; extremely high values forbid a placement (GPU,
//! privacy, compliance). We model "forbidden" as `None` rather than a huge
//! float, which keeps LP matrices well-conditioned, and expose finite
//! multipliers for everything else.

use serde::{Deserialize, Serialize};

use crate::substrate::{SubstrateNode, Tier};
use crate::vnet::{Vnf, VnfKind};

/// The inefficiency coefficients `η` as a policy object.
///
/// The default policy implements the paper's evaluation rules:
///
/// * ordinary VNFs have `η = 1` on ordinary datacenters and are forbidden
///   on GPU datacenters;
/// * GPU VNFs are only placeable on GPU datacenters (`η = 1` there);
/// * accelerator VNFs behave as ordinary VNFs for placement (their effect
///   is on downstream link sizes, applied at application construction);
/// * the root `θ` is placeable anywhere with zero footprint;
/// * virtual links have `η = 1` on every substrate link.
///
/// Per-tier multipliers allow modeling energy or hardware-affinity
/// extensions (§VI "future work"). Link `η` is one number, the
/// [`link_eta`](PlacementPolicy::link_eta) field: the same for every
/// virtual link on every substrate link, and never forbidding a link.
/// Readers rely on that — QUICKG's search prices a link once per
/// request, not once per root link.
///
/// # Examples
///
/// ```
/// use vne_model::policy::PlacementPolicy;
/// use vne_model::substrate::{SubstrateNode, Tier};
/// use vne_model::vnet::{Vnf, VnfKind};
///
/// let policy = PlacementPolicy::default();
/// let vnf = Vnf { beta: 50.0, kind: VnfKind::Standard };
/// let gpu_dc = SubstrateNode {
///     name: "g".into(), tier: Tier::Core, capacity: 1.0, cost: 1.0, gpu: true,
/// };
/// assert_eq!(policy.node_eta(&vnf, &gpu_dc), None); // ordinary VNF barred from GPU DC
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementPolicy {
    /// Multiplier applied to VNF footprints per tier `[edge, transport, core]`.
    pub tier_node_eta: [f64; 3],
    /// Multiplier applied to virtual link footprints on substrate links.
    pub link_eta: f64,
    /// Whether GPU datacenters reject non-GPU VNFs (paper Fig. 10: "these
    /// datacenters do not allow placement of non GPU VNFs").
    pub gpu_exclusive: bool,
}

impl Default for PlacementPolicy {
    fn default() -> Self {
        Self {
            tier_node_eta: [1.0, 1.0, 1.0],
            link_eta: 1.0,
            gpu_exclusive: true,
        }
    }
}

impl PlacementPolicy {
    /// Creates the default paper policy.
    pub fn new() -> Self {
        Self::default()
    }

    fn tier_index(tier: Tier) -> usize {
        match tier {
            Tier::Edge => 0,
            Tier::Transport => 1,
            Tier::Core => 2,
        }
    }

    /// `η_s^q` for placing VNF `vnf` on datacenter `node`; `None` means the
    /// placement is forbidden.
    pub fn node_eta(&self, vnf: &Vnf, node: &SubstrateNode) -> Option<f64> {
        match (vnf.kind, node.gpu) {
            (VnfKind::Gpu, false) => None,
            (VnfKind::Gpu, true) => Some(self.tier_node_eta[Self::tier_index(node.tier)]),
            (_, true) if self.gpu_exclusive && vnf.beta > 0.0 => None,
            _ => Some(self.tier_node_eta[Self::tier_index(node.tier)]),
        }
    }

    /// Whether VNF `vnf` may be placed on `node` at all.
    pub fn allows(&self, vnf: &Vnf, node: &SubstrateNode) -> bool {
        self.node_eta(vnf, node).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(tier: Tier, gpu: bool) -> SubstrateNode {
        SubstrateNode {
            name: "x".into(),
            tier,
            capacity: 100.0,
            cost: 1.0,
            gpu,
        }
    }

    fn vnf(kind: VnfKind) -> Vnf {
        Vnf { beta: 10.0, kind }
    }

    #[test]
    fn standard_vnf_on_ordinary_dc() {
        let p = PlacementPolicy::default();
        assert_eq!(
            p.node_eta(&vnf(VnfKind::Standard), &node(Tier::Edge, false)),
            Some(1.0)
        );
        assert!(p.allows(&vnf(VnfKind::Standard), &node(Tier::Core, false)));
    }

    #[test]
    fn gpu_vnf_requires_gpu_dc() {
        let p = PlacementPolicy::default();
        assert_eq!(
            p.node_eta(&vnf(VnfKind::Gpu), &node(Tier::Core, false)),
            None
        );
        assert_eq!(
            p.node_eta(&vnf(VnfKind::Gpu), &node(Tier::Core, true)),
            Some(1.0)
        );
    }

    #[test]
    fn gpu_dc_excludes_ordinary_vnfs() {
        let p = PlacementPolicy::default();
        assert_eq!(
            p.node_eta(&vnf(VnfKind::Standard), &node(Tier::Edge, true)),
            None
        );
        assert_eq!(
            p.node_eta(&vnf(VnfKind::Accelerator), &node(Tier::Edge, true)),
            None
        );
    }

    #[test]
    fn root_is_placeable_on_gpu_dc() {
        // The root has β = 0 and must be placeable at its ingress even if
        // that ingress is a GPU datacenter.
        let p = PlacementPolicy::default();
        let root = Vnf {
            beta: 0.0,
            kind: VnfKind::Standard,
        };
        assert_eq!(p.node_eta(&root, &node(Tier::Edge, true)), Some(1.0));
    }

    #[test]
    fn non_exclusive_policy_allows_mixing() {
        let p = PlacementPolicy {
            gpu_exclusive: false,
            ..PlacementPolicy::default()
        };
        assert_eq!(
            p.node_eta(&vnf(VnfKind::Standard), &node(Tier::Edge, true)),
            Some(1.0)
        );
    }

    #[test]
    fn tier_multipliers_scale_eta() {
        let p = PlacementPolicy {
            tier_node_eta: [2.0, 1.0, 0.5],
            ..PlacementPolicy::default()
        };
        assert_eq!(
            p.node_eta(&vnf(VnfKind::Standard), &node(Tier::Edge, false)),
            Some(2.0)
        );
        assert_eq!(
            p.node_eta(&vnf(VnfKind::Standard), &node(Tier::Core, false)),
            Some(0.5)
        );
    }

    #[test]
    fn link_eta_default_is_one() {
        assert_eq!(PlacementPolicy::default().link_eta, 1.0);
    }
}
