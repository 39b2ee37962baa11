#![warn(missing_docs)]
//! # vne-model — domain model for virtual network embedding
//!
//! This crate defines the entities of the online VNE problem exactly as
//! formalized in *"Plan-Based Scalable Online Virtual Network Embedding"*
//! (ICDCS 2025), Table I:
//!
//! * [`substrate`] — the physical network `S`: tiered datacenters and
//!   links with capacities `cap(s)` and per-CU costs `cost(s)`;
//! * [`vnet`] / [`app`] — applications `a ∈ A` as rooted tree virtual
//!   networks `Ga` with element sizes `β_q`;
//! * [`policy`] — the inefficiency coefficients `η_s^q` as a placement
//!   policy (GPU restrictions, tier multipliers);
//! * [`request`] — online requests `r` with ingress `v(r)`, demand `d(r)`,
//!   arrival `t(r)` and duration `T(r)`;
//! * [`embedding`] — unsplittable mappings `x(r)` and their per-element
//!   footprints (Eq. 1);
//! * [`load`] — residual capacity ledgers (`Res(S,t,x)`, Eq. 16);
//! * [`cost`] — resource costs and rejection penalties (Eqs. 3–4);
//! * [`decision`] — per-request admission decisions as reported by the
//!   `vne-serve` daemon (accept / reject / shed);
//! * [`state`] — the [`state::Snapshot`] checkpoint capability and the
//!   deterministic binary codec behind checkpoint/resume (the checkpoint
//!   envelope lives in `vne-sim`, the sharded checkpoint in `vne-shard`);
//! * [`shard`] — partitioned-substrate views: global ↔ (shard, local)
//!   id maps and cut-edge bookkeeping for the `vne-shard` coordinator;
//! * [`pool`] — [`pool::cell_map`], the one worker pool every parallel
//!   loop of the workspace runs on.
//!
//! Higher layers build on this crate: `vne-topology` constructs substrate
//! instances, `vne-workload` generates requests, `vne-olive` implements
//! PLAN-VNE and the online algorithms, `vne-sim` drives simulations.
//!
//! ## Example
//!
//! ```
//! use vne_model::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut s = SubstrateNetwork::new("toy");
//! let e = s.add_node("edge", Tier::Edge, 200_000.0, 50.0)?;
//! let c = s.add_node("core", Tier::Core, 1_800_000.0, 1.0)?;
//! s.add_link(e, c, 100_000.0, 1.0)?;
//!
//! let vnet = VirtualNetwork::chain(&[50.0, 50.0], &[50.0, 50.0])?;
//! let mut apps = AppSet::new();
//! let app = apps.push("chain", AppShape::Chain, vnet)?;
//!
//! let request = Request {
//!     id: RequestId(0), arrival: 0, duration: 10,
//!     ingress: e, app, demand: 10.0,
//! };
//! assert!(request.active_at(5));
//! # Ok(())
//! # }
//! ```

pub mod app;
pub mod churn;
pub mod cost;
pub mod decision;
pub mod embedding;
pub mod error;
pub mod ids;
pub mod invariant;
pub mod load;
pub mod policy;
pub mod pool;
pub mod request;
pub mod shard;
pub mod state;
pub mod substrate;
pub mod vnet;

/// Commonly used types, re-exported for one-line imports.
pub mod prelude {
    pub use crate::app::{AppSet, AppShape, Application};
    pub use crate::churn::{ChurnEvent, ChurnState, EffectiveCapacities};
    pub use crate::cost::RejectionPenalty;
    pub use crate::decision::Decision;
    pub use crate::embedding::{Embedding, Footprint};
    pub use crate::error::{ModelError, ModelResult};
    pub use crate::ids::{AppId, ClassId, ElementId, LinkId, NodeId, RequestId, VlinkId, VnodeId};
    pub use crate::load::LoadLedger;
    pub use crate::policy::PlacementPolicy;
    pub use crate::request::{Request, Slot, SlotEvents};
    pub use crate::shard::{PartitionAssignment, ShardId, ShardedSubstrate};
    pub use crate::state::{Snapshot, StateBlob, StateError};
    pub use crate::substrate::{SubstrateNetwork, Tier};
    pub use crate::vnet::{VirtualNetwork, VnfKind};
}
