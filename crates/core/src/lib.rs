#![warn(missing_docs)]
//! # vne-olive — OLIVE: plan-based scalable online virtual network embedding
//!
//! The paper's contribution, reproduced end to end:
//!
//! * [`aggregate`] — time-aggregation of the request history into
//!   per-class expected demands (Eqs. 5–6, bootstrap `P̂_80`);
//! * [`colgen`] — PLAN-VNE solved by Dantzig-Wolfe column generation with
//!   rejection quantiles (the production plan solver);
//! * [`planvne`] — the faithful arc-form LP of Fig. 4 (reference oracle);
//! * [`pricing`] — exact min-cost tree embedding (the pricing problem and
//!   FULLG's first stage);
//! * [`plan`] — the plan and its residual ledger (Eqs. 17, 19);
//! * [`olive`] — the OLIVE online algorithm (Alg. 2): planned embedding,
//!   borrowing, preemption, greedy fallback — and QUICKG as its
//!   empty-plan instantiation;
//! * [`greedy`] — the collocated `GREEDY EMBED` heuristic;
//! * [`fullg`] — the exact per-request baseline (tree-DP + ILP);
//! * [`slotoff`] — per-slot offline re-optimization (PRANOS-style);
//! * [`algorithm`] — the slot-driven interface all algorithms implement.
//!
//! A run has one plan, handed to [`olive::Olive::new`]; an algorithm that
//! re-plans while it runs would be a separate [`OnlineAlgorithm`] built
//! by a registry factory, so that it is driven, churned and checkpointed
//! like every other.
//!
//! ## Example: plan and serve
//!
//! ```
//! use std::collections::BTreeMap;
//! use vne_model::prelude::*;
//! use vne_olive::aggregate::AggregateDemand;
//! use vne_olive::algorithm::OnlineAlgorithm;
//! use vne_olive::colgen::{solve_plan, PlanVneConfig};
//! use vne_olive::olive::{Olive, OliveConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Substrate: edge - core pair.
//! let mut s = SubstrateNetwork::new("demo");
//! let e = s.add_node("edge", Tier::Edge, 1_000.0, 50.0)?;
//! let c = s.add_node("core", Tier::Core, 9_000.0, 1.0)?;
//! s.add_link(e, c, 5_000.0, 1.0)?;
//! let mut apps = AppSet::new();
//! let app = apps.push("chain", AppShape::Chain,
//!     VirtualNetwork::chain(&[50.0], &[10.0])?)?;
//!
//! // Plan for an expected concurrent demand of 20 units of this class.
//! let mut demands = BTreeMap::new();
//! demands.insert(ClassId::new(app, e), 20.0);
//! let aggregate = AggregateDemand::from_demands(&demands);
//! let (plan, _) = solve_plan(&s, &apps, &PlacementPolicy::default(),
//!     &aggregate, &PlanVneConfig::new(1e5));
//!
//! // Serve a request online.
//! let mut olive = Olive::new(s, apps, PlacementPolicy::default(), plan,
//!     OliveConfig::default());
//! let request = Request { id: RequestId(0), arrival: 0, duration: 10,
//!     ingress: e, app, demand: 5.0 };
//! let outcome = olive.process_slot(0, &[], &[request]);
//! assert_eq!(outcome.accepted.len(), 1);
//! # Ok(())
//! # }
//! ```

pub mod aggregate;
pub mod algorithm;
pub mod bound;
pub mod colgen;
pub mod fullg;
pub mod greedy;
pub mod olive;
pub mod plan;
pub mod planvne;
pub mod pricing;
pub mod slotoff;

pub use algorithm::{OnlineAlgorithm, SlotOutcome};
pub use olive::{Olive, OliveConfig};
pub use plan::Plan;
