//! OLIVE: plan-based online embedding (Algorithm 2 of the paper).
//!
//! OLIVE processes arrivals in order, trying in turn:
//!
//! 1. **Planned embedding** (`PLAN EMBED`, full fit): serve the request
//!    out of a plan column with enough residual budget (Eq. 19). If the
//!    substrate lacks capacity — because non-planned requests "borrowed"
//!    it — OLIVE **preempts** non-planned active requests to restore the
//!    guaranteed share (Alg. 2 l. 8–9).
//! 2. **Borrowing** (partial fit, l. 27–29): follow a plan column whose
//!    budget is only partially available, taking unused substrate
//!    capacity; such allocations are *not* planned — they do not consume
//!    plan budget (Eq. 17 counts `R_PLAN` only) and are themselves
//!    preemptible later.
//! 3. **Greedy fallback** (`GREEDY EMBED`): cheapest collocated
//!    embedding under residual capacities.
//! 4. Otherwise the request is rejected.
//!
//! With an empty plan and no preemption this machinery *is* the QUICKG
//! baseline (constructed by [`Olive::quickg`]).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use vne_model::app::AppSet;
use vne_model::embedding::Footprint;
use vne_model::ids::{ClassId, RequestId};
use vne_model::load::LoadLedger;
use vne_model::policy::PlacementPolicy;
use vne_model::request::{Request, Slot};
use vne_model::state::{Snapshot, StateBlob, StateError, StateReader, StateWriter};
use vne_model::substrate::{SearchStats, SubstrateNetwork};

use crate::algorithm::{OnlineAlgorithm, SlotOutcome};
use crate::greedy::collocated_embed_counted;
use crate::plan::{Plan, PlanLedger};

/// Feature switches for OLIVE (all on by default; ablations turn
/// individual mechanisms off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OliveConfig {
    /// Allow partial-fit "borrowing" of unused planned capacity.
    pub borrowing: bool,
    /// Allow preemption of non-planned requests for planned ones.
    pub preemption: bool,
    /// Allow the greedy collocated fallback.
    pub greedy_fallback: bool,
    /// QUICKG's fast path: reject immediately when all datacenters are
    /// full (§IV-B "Runtime").
    pub quickg_fast_reject: bool,
}

impl Default for OliveConfig {
    fn default() -> Self {
        Self {
            borrowing: true,
            preemption: true,
            greedy_fallback: true,
            quickg_fast_reject: false,
        }
    }
}

#[derive(Debug, Clone)]
struct ActiveAlloc {
    request: Request,
    footprint: Footprint,
    planned: bool,
    plan_column: Option<(ClassId, usize)>,
}

/// The OLIVE online algorithm (and, with an empty plan, QUICKG).
#[derive(Debug, Clone)]
pub struct Olive {
    name: String,
    substrate: SubstrateNetwork,
    /// Shared so an arrival can hold its application across the
    /// `&mut self` calls that allocate it.
    apps: Arc<AppSet>,
    policy: PlacementPolicy,
    plan: Plan,
    plan_ledger: PlanLedger,
    loads: LoadLedger,
    active: BTreeMap<RequestId, ActiveAlloc>,
    config: OliveConfig,
    stats: OliveStats,
    /// Work done by the greedy searches so far. Introspection only: not
    /// part of the snapshot, reset by nothing, read by no decision.
    search: SearchStats,
}

/// Counters describing how requests were served (Fig. 12 categories).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OliveStats {
    /// Requests served inside their guaranteed plan budget.
    pub planned: usize,
    /// Requests served by borrowing (partial plan fit).
    pub borrowed: usize,
    /// Requests served by the greedy fallback.
    pub greedy: usize,
    /// Requests rejected on arrival.
    pub rejected: usize,
    /// Active requests preempted to restore planned capacity.
    pub preempted: usize,
}

impl Olive {
    /// Creates OLIVE with a plan.
    pub fn new(
        substrate: SubstrateNetwork,
        apps: AppSet,
        policy: PlacementPolicy,
        plan: Plan,
        config: OliveConfig,
    ) -> Self {
        let loads = LoadLedger::new(&substrate);
        let plan_ledger = PlanLedger::new(&plan);
        Self {
            name: "OLIVE".to_string(),
            substrate,
            apps: Arc::new(apps),
            policy,
            plan,
            plan_ledger,
            loads,
            active: BTreeMap::new(),
            config,
            stats: OliveStats::default(),
            search: SearchStats::default(),
        }
    }

    /// Creates the QUICKG baseline: OLIVE with an empty plan, greedily
    /// allocating each request with the collocation heuristic.
    pub fn quickg(substrate: SubstrateNetwork, apps: AppSet, policy: PlacementPolicy) -> Self {
        let mut q = Self::new(
            substrate,
            apps,
            policy,
            Plan::empty(),
            OliveConfig {
                borrowing: false,
                preemption: false,
                greedy_fallback: true,
                quickg_fast_reject: true,
            },
        );
        q.name = "QUICKG".to_string();
        q
    }

    /// Service-mode counters.
    pub fn stats(&self) -> OliveStats {
        self.stats
    }

    /// Work done by this instance's greedy searches since construction:
    /// how many ran and how many nodes they settled, queued and pruned.
    /// Outside every snapshot and fingerprint — a restored instance
    /// starts counting from where *it* was, not from the blob.
    pub fn search_stats(&self) -> SearchStats {
        self.search
    }

    /// The plan this instance runs with.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Residual plan ledger (for tests and inspection).
    pub fn plan_ledger(&self) -> &PlanLedger {
        &self.plan_ledger
    }

    /// Whether a request is currently allocated.
    pub fn is_active(&self, id: RequestId) -> bool {
        self.active.contains_key(&id)
    }

    /// Whether an active request is planned (inside its guaranteed share).
    pub fn is_planned(&self, id: RequestId) -> bool {
        self.active.get(&id).map(|a| a.planned).unwrap_or(false)
    }

    /// Active demand of a class split into `(planned, non-planned)` —
    /// the green/blue split of the paper's Fig. 12.
    pub fn active_demand_by_class(&self, class: ClassId) -> (f64, f64) {
        let mut planned = 0.0;
        let mut borrowed = 0.0;
        for a in self.active.values() {
            if a.request.class() == class {
                if a.planned {
                    planned += a.request.demand;
                } else {
                    borrowed += a.request.demand;
                }
            }
        }
        (planned, borrowed)
    }

    fn release(&mut self, id: RequestId) {
        if let Some(alloc) = self.active.remove(&id) {
            self.loads.remove(&alloc.footprint, alloc.request.demand);
            if let Some((class, col)) = alloc.plan_column {
                self.plan_ledger.release(class, col, alloc.request.demand);
            }
        }
    }

    fn allocate(
        &mut self,
        r: &Request,
        footprint: Footprint,
        planned: bool,
        plan_column: Option<(ClassId, usize)>,
    ) {
        self.loads.apply(&footprint, r.demand);
        if let (true, Some((class, col))) = (planned, plan_column) {
            self.plan_ledger.consume(class, col, r.demand);
        }
        self.active.insert(
            r.id,
            ActiveAlloc {
                request: r.clone(),
                footprint,
                planned,
                plan_column: if planned { plan_column } else { None },
            },
        );
    }

    /// Finds non-planned victims whose eviction frees the deficit of
    /// `footprint · demand`. Victims are only committed if they suffice
    /// (`PREEMPT`, Alg. 2 l. 35–38); returns `None` otherwise.
    fn select_victims(&self, footprint: &Footprint, demand: f64) -> Option<Vec<RequestId>> {
        // Per-element deficits.
        let mut node_deficit: HashMap<usize, f64> = HashMap::new();
        let mut link_deficit: HashMap<usize, f64> = HashMap::new();
        for &(n, x) in footprint.nodes() {
            let need = x * demand - self.loads.node_residual(n);
            if need > 1e-9 {
                node_deficit.insert(n.index(), need);
            }
        }
        for &(l, x) in footprint.links() {
            let need = x * demand - self.loads.link_residual(l);
            if need > 1e-9 {
                link_deficit.insert(l.index(), need);
            }
        }
        if node_deficit.is_empty() && link_deficit.is_empty() {
            return Some(Vec::new());
        }

        // Candidates: non-planned active requests that touch a deficit
        // element, most recently arrived first (undo the borrowing that
        // displaced the plan), larger overlap first on ties.
        let mut candidates: Vec<(&RequestId, &ActiveAlloc, f64)> = self
            .active
            .iter()
            .filter(|(_, a)| !a.planned)
            .filter_map(|(id, a)| {
                let mut overlap = 0.0;
                for &(n, x) in a.footprint.nodes() {
                    if let Some(d) = node_deficit.get(&n.index()) {
                        overlap += (x * a.request.demand).min(*d);
                    }
                }
                for &(l, x) in a.footprint.links() {
                    if let Some(d) = link_deficit.get(&l.index()) {
                        overlap += (x * a.request.demand).min(*d);
                    }
                }
                (overlap > 0.0).then_some((id, a, overlap))
            })
            .collect();
        candidates.sort_by(|a, b| {
            b.1.request
                .arrival
                .cmp(&a.1.request.arrival)
                .then_with(|| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal))
                .then_with(|| b.0.cmp(a.0))
        });

        let mut victims = Vec::new();
        for (id, alloc, _) in candidates {
            if node_deficit.is_empty() && link_deficit.is_empty() {
                break;
            }
            let mut helped = false;
            for &(n, x) in alloc.footprint.nodes() {
                if let Some(d) = node_deficit.get_mut(&n.index()) {
                    *d -= x * alloc.request.demand;
                    helped = true;
                    if *d <= 1e-9 {
                        node_deficit.remove(&n.index());
                    }
                }
            }
            for &(l, x) in alloc.footprint.links() {
                if let Some(d) = link_deficit.get_mut(&l.index()) {
                    *d -= x * alloc.request.demand;
                    helped = true;
                    if *d <= 1e-9 {
                        link_deficit.remove(&l.index());
                    }
                }
            }
            if helped {
                victims.push(*id);
            }
        }
        if node_deficit.is_empty() && link_deficit.is_empty() {
            Some(victims)
        } else {
            None
        }
    }

    /// Handles one arrival; returns accepted flag plus any preempted ids.
    fn handle_arrival(&mut self, r: &Request) -> (bool, Vec<RequestId>) {
        let class = r.class();

        // QUICKG fast reject: all datacenters full.
        if self.config.quickg_fast_reject && self.loads.all_nodes_loaded_above(1.0) {
            self.stats.rejected += 1;
            return (false, Vec::new());
        }

        // --- PLAN EMBED: full fit inside the residual plan.
        if let Some(class_plan) = self.plan.class(class) {
            if let Some(col) = self.plan_ledger.full_fit(class, r.demand) {
                let footprint = class_plan.columns[col].footprint.clone();
                if self.loads.fits(&footprint, r.demand) {
                    self.allocate(r, footprint, true, Some((class, col)));
                    self.stats.planned += 1;
                    return (true, Vec::new());
                }
                // Planned but the substrate is occupied by borrowers:
                // preempt them (l. 8–9).
                if self.config.preemption {
                    if let Some(victims) = self.select_victims(&footprint, r.demand) {
                        for &v in &victims {
                            self.release(v);
                            self.stats.preempted += 1;
                        }
                        if self.loads.fits(&footprint, r.demand) {
                            self.allocate(r, footprint, true, Some((class, col)));
                            self.stats.planned += 1;
                            return (true, victims);
                        }
                        // Deficit estimation fell short (shared elements);
                        // fall through with the preemptions committed —
                        // the freed capacity still helps the paths below.
                        return self.post_plan_paths(r, victims);
                    }
                }
            }
            // --- Partial fit: borrow through a partially available column.
            if self.config.borrowing {
                if let Some(outcome) = self.try_borrow(r, class) {
                    return outcome;
                }
            }
        }

        self.post_plan_paths(r, Vec::new())
    }

    fn try_borrow(&mut self, r: &Request, class: ClassId) -> Option<(bool, Vec<RequestId>)> {
        let class_plan = self.plan.class(class)?;
        for col in self.plan_ledger.partial_candidates(class) {
            let footprint = class_plan.columns[col].footprint.clone();
            if self.loads.fits(&footprint, r.demand) {
                self.allocate(r, footprint, false, None);
                self.stats.borrowed += 1;
                return Some((true, Vec::new()));
            }
        }
        None
    }

    /// Borrowing (if not yet tried via plan) failed or was skipped:
    /// the greedy fallback and rejection.
    fn post_plan_paths(
        &mut self,
        r: &Request,
        preempted: Vec<RequestId>,
    ) -> (bool, Vec<RequestId>) {
        if self.config.greedy_fallback {
            let apps = Arc::clone(&self.apps);
            let vnet = apps.vnet(r.app);
            let (found, searched) = collocated_embed_counted(
                &self.substrate,
                vnet,
                &self.policy,
                r.ingress,
                &self.loads,
                r.demand,
            );
            self.search += searched;
            if let Some((embedding, _)) = found {
                let footprint = embedding.footprint(vnet, &self.substrate, &self.policy);
                if self.loads.fits(&footprint, r.demand) {
                    self.allocate(r, footprint, false, None);
                    self.stats.greedy += 1;
                    return (true, preempted);
                }
            }
        }
        self.stats.rejected += 1;
        (false, preempted)
    }
}

/// Checkpointing: the mutable state is the load ledger, the residual
/// plan ledger, the active allocations and the service-mode counters.
/// The plan itself, substrate, applications and config are construction
/// inputs — restore into an instance built with the same ones (the
/// simulation pipeline rebuilds them deterministically per seed). The
/// instance name (`OLIVE` vs `QUICKG`) is validated so a QUICKG blob
/// cannot silently restore into an OLIVE run.
impl Snapshot for Olive {
    fn snapshot(&self) -> StateBlob {
        let mut w = StateWriter::new();
        w.write_str(&self.name);
        w.write_blob(&self.loads.snapshot());
        w.write_blob(&self.plan_ledger.snapshot());
        // Ordered by request id (BTreeMap iteration order).
        w.write_usize(self.active.len());
        for alloc in self.active.values() {
            w.write(&alloc.request);
            w.write(&alloc.footprint);
            w.write_bool(alloc.planned);
            w.write(&alloc.plan_column);
        }
        for count in [
            self.stats.planned,
            self.stats.borrowed,
            self.stats.greedy,
            self.stats.rejected,
            self.stats.preempted,
        ] {
            w.write_usize(count);
        }
        w.finish()
    }

    fn restore(&mut self, blob: &StateBlob) -> Result<(), StateError> {
        let mut r = StateReader::new(blob);
        let name = r.read_str()?;
        if name != self.name {
            return Err(StateError::Mismatch {
                expected: format!("algorithm {}", self.name),
                found: format!("algorithm {name}"),
            });
        }
        let loads_blob = r.read_blob()?;
        let ledger_blob = r.read_blob()?;
        let count = r.read_usize()?;
        let mut active = BTreeMap::new();
        for _ in 0..count {
            let request: Request = r.read()?;
            let footprint = r.read()?;
            let planned = r.read_bool()?;
            let plan_column: Option<(ClassId, usize)> = r.read()?;
            active.insert(
                request.id,
                ActiveAlloc {
                    request,
                    footprint,
                    planned,
                    plan_column,
                },
            );
        }
        let stats = OliveStats {
            planned: r.read_usize()?,
            borrowed: r.read_usize()?,
            greedy: r.read_usize()?,
            rejected: r.read_usize()?,
            preempted: r.read_usize()?,
        };
        r.finish()?;
        self.loads.restore(&loads_blob)?;
        self.plan_ledger.restore(&ledger_blob)?;
        self.active = active;
        self.stats = stats;
        Ok(())
    }
}

impl OnlineAlgorithm for Olive {
    fn name(&self) -> &str {
        &self.name
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn snapshot_state(&self) -> Option<StateBlob> {
        Some(Snapshot::snapshot(self))
    }

    fn restore_state(&mut self, blob: &StateBlob) -> Result<(), StateError> {
        Snapshot::restore(self, blob)
    }

    fn process_slot(
        &mut self,
        _t: Slot,
        departures: &[Request],
        arrivals: &[Request],
    ) -> SlotOutcome {
        let mut outcome = SlotOutcome::default();
        for d in departures {
            self.release(d.id);
        }
        for r in arrivals {
            let (accepted, preempted) = self.handle_arrival(r);
            if accepted {
                outcome.accepted.push(r.id);
            } else {
                outcome.rejected.push(r.id);
            }
            outcome.preempted.extend(preempted);
        }
        debug_assert!(self.loads.check_invariants());
        debug_assert!(self.plan_ledger.check_invariants());
        outcome
    }

    fn loads(&self) -> &LoadLedger {
        &self.loads
    }

    fn apply_churn(&mut self, effective: &vne_model::churn::EffectiveCapacities) {
        self.loads.set_capacities(&effective.node, &effective.link);
    }

    fn footprint_of(&self, id: RequestId) -> Option<&Footprint> {
        self.active.get(&id).map(|a| &a.footprint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{ClassPlan, PlannedColumn};
    use vne_model::app::{shapes, AppShape};
    use vne_model::embedding::Embedding;
    use vne_model::ids::{AppId, LinkId, NodeId};
    use vne_model::substrate::Tier;

    /// e0(100) - t1(300) - c2(900); link caps 600/600.
    fn world() -> (SubstrateNetwork, AppSet) {
        let mut s = SubstrateNetwork::new("line");
        let e = s.add_node("e0", Tier::Edge, 100.0, 50.0).unwrap();
        let t = s.add_node("t1", Tier::Transport, 300.0, 10.0).unwrap();
        let c = s.add_node("c2", Tier::Core, 900.0, 1.0).unwrap();
        s.add_link(e, t, 600.0, 1.0).unwrap();
        s.add_link(t, c, 600.0, 1.0).unwrap();
        let mut apps = AppSet::new();
        // One VNF of size 10, root link of size 2.
        apps.push(
            "chain",
            AppShape::Chain,
            shapes::uniform_chain(1, 10.0, 2.0).unwrap(),
        )
        .unwrap();
        (s, apps)
    }

    /// A hand-built plan: class (app0, e0) with one column hosting the
    /// VNF on c2, budget `budget` demand units.
    fn plan_on_core(s: &SubstrateNetwork, apps: &AppSet, budget: f64) -> Plan {
        let class = ClassId::new(AppId(0), NodeId(0));
        let vnet = apps.vnet(AppId(0));
        let embedding =
            Embedding::new(vec![NodeId(0), NodeId(2)], vec![vec![LinkId(0), LinkId(1)]]);
        let policy = PlacementPolicy::default();
        assert!(embedding.validate(vnet, s, &policy).is_ok());
        let footprint = embedding.footprint(vnet, s, &policy);
        let unit_cost = footprint.cost(s);
        let mut plan = Plan::empty();
        plan.insert(ClassPlan {
            class,
            expected_demand: budget,
            rejected_fraction: 0.0,
            columns: vec![PlannedColumn {
                embedding,
                footprint,
                share: 1.0,
                budget,
                unit_cost,
            }],
        });
        plan
    }

    fn req(id: u64, t: Slot, dur: Slot, demand: f64) -> Request {
        Request {
            id: RequestId(id),
            arrival: t,
            duration: dur,
            ingress: NodeId(0),
            app: AppId(0),
            demand,
        }
    }

    #[test]
    fn planned_requests_follow_the_plan() {
        let (s, apps) = world();
        let plan = plan_on_core(&s, &apps, 10.0);
        let mut olive = Olive::new(
            s.clone(),
            apps,
            PlacementPolicy::default(),
            plan,
            OliveConfig::default(),
        );
        let out = olive.process_slot(0, &[], &[req(0, 0, 5, 4.0)]);
        assert_eq!(out.accepted.len(), 1);
        assert!(olive.is_planned(RequestId(0)));
        // Load lands on c2 per the plan column (4 demand × β 10).
        assert_eq!(olive.loads().node_load(NodeId(2)), 40.0);
        assert_eq!(olive.loads().node_load(NodeId(0)), 0.0);
        assert_eq!(olive.stats().planned, 1);
    }

    #[test]
    fn departure_restores_plan_budget() {
        let (s, apps) = world();
        let plan = plan_on_core(&s, &apps, 10.0);
        let mut olive = Olive::new(
            s,
            apps,
            PlacementPolicy::default(),
            plan,
            OliveConfig::default(),
        );
        let r = req(0, 0, 2, 8.0);
        olive.process_slot(0, &[], std::slice::from_ref(&r));
        let class = ClassId::new(AppId(0), NodeId(0));
        assert!((olive.plan_ledger().residual(class, 0) - 2.0).abs() < 1e-9);
        olive.process_slot(2, &[r], &[]);
        assert!((olive.plan_ledger().residual(class, 0) - 10.0).abs() < 1e-9);
        assert_eq!(olive.loads().node_load(NodeId(2)), 0.0);
    }

    #[test]
    fn exhausted_budget_falls_to_borrowing() {
        let (s, apps) = world();
        let plan = plan_on_core(&s, &apps, 10.0);
        let mut olive = Olive::new(
            s,
            apps,
            PlacementPolicy::default(),
            plan,
            OliveConfig::default(),
        );
        // First request eats 8 of 10 budget; second (demand 6) cannot
        // fully fit the plan but borrows (substrate has room).
        let out = olive.process_slot(0, &[], &[req(0, 0, 5, 8.0), req(1, 0, 5, 6.0)]);
        assert_eq!(out.accepted.len(), 2);
        assert!(olive.is_planned(RequestId(0)));
        assert!(!olive.is_planned(RequestId(1)));
        assert_eq!(olive.stats().borrowed, 1);
        // Borrowing does not consume plan budget.
        let class = ClassId::new(AppId(0), NodeId(0));
        assert!((olive.plan_ledger().residual(class, 0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn preemption_restores_guaranteed_share() {
        let (s, apps) = world();
        // Plan guarantees 80 demand units on c2 (β 10 ⇒ 800 of 900 CU).
        let plan = plan_on_core(&s, &apps, 80.0);
        let mut olive = Olive::new(
            s,
            apps,
            PlacementPolicy::default(),
            plan,
            OliveConfig::default(),
        );
        // Borrower: planned budget 80 exceeded by r0 (demand 85 > 80 →
        // partial fit, borrows 850 CU of c2).
        let out0 = olive.process_slot(0, &[], &[req(0, 0, 9, 85.0)]);
        assert_eq!(out0.accepted.len(), 1);
        assert!(!olive.is_planned(RequestId(0)));
        // Planned arrival (demand 20 → 200 CU on c2; only 50 CU left):
        // must preempt the borrower.
        let out1 = olive.process_slot(1, &[], &[req(1, 1, 9, 20.0)]);
        assert_eq!(out1.accepted, vec![RequestId(1)]);
        assert_eq!(out1.preempted, vec![RequestId(0)]);
        assert!(olive.is_planned(RequestId(1)));
        assert!(!olive.is_active(RequestId(0)));
        assert_eq!(olive.stats().preempted, 1);
    }

    #[test]
    fn planned_requests_are_never_preempted() {
        let (s, apps) = world();
        let plan = plan_on_core(&s, &apps, 80.0);
        let mut olive = Olive::new(
            s,
            apps,
            PlacementPolicy::default(),
            plan,
            OliveConfig::default(),
        );
        // Two planned allocations exhausting the budget and c2 capacity.
        let out = olive.process_slot(0, &[], &[req(0, 0, 9, 40.0), req(1, 0, 9, 40.0)]);
        assert_eq!(out.accepted.len(), 2);
        // A third planned-class request (no budget, c2 nearly full):
        // cannot preempt planned requests; greedy must find another host
        // or reject. Either way, the planned requests stay.
        let out2 = olive.process_slot(1, &[], &[req(2, 1, 9, 40.0)]);
        assert!(out2.preempted.is_empty());
        assert!(olive.is_active(RequestId(0)));
        assert!(olive.is_active(RequestId(1)));
    }

    #[test]
    fn greedy_fallback_when_no_plan() {
        let (s, apps) = world();
        let mut olive = Olive::new(
            s,
            apps,
            PlacementPolicy::default(),
            Plan::empty(),
            OliveConfig::default(),
        );
        let out = olive.process_slot(0, &[], &[req(0, 0, 5, 3.0)]);
        assert_eq!(out.accepted.len(), 1);
        assert!(!olive.is_planned(RequestId(0)));
        assert_eq!(olive.stats().greedy, 1);
    }

    #[test]
    fn rejection_when_capacity_exhausted() {
        let (s, apps) = world();
        let mut quickg = Olive::quickg(s, apps, PlacementPolicy::default());
        // Total node capacity 1300 CU; each request needs demand·10 CU.
        // 13 requests of demand 10 = 1300 CU fill everything.
        let arrivals: Vec<Request> = (0..20).map(|i| req(i, 0, 50, 10.0)).collect();
        let out = quickg.process_slot(0, &[], &arrivals);
        assert!(out.accepted.len() <= 13);
        assert!(!out.rejected.is_empty());
        assert!(quickg.loads().check_invariants());
    }

    #[test]
    fn quickg_has_no_plan_and_no_preemption() {
        let (s, apps) = world();
        let mut quickg = Olive::quickg(s, apps, PlacementPolicy::default());
        assert_eq!(quickg.name(), "QUICKG");
        assert!(quickg.plan().is_empty());
        let out = quickg.process_slot(0, &[], &[req(0, 0, 5, 3.0)]);
        assert_eq!(out.accepted.len(), 1);
        assert!(out.preempted.is_empty());
        assert_eq!(quickg.stats().planned, 0);
    }

    /// The search counters sit outside the snapshot: an instance that
    /// searched and one restored from its blob (which never searched)
    /// snapshot to the same bytes.
    #[test]
    fn search_stats_are_not_snapshotted() {
        let (s, apps) = world();
        let mut searched = Olive::quickg(s.clone(), apps.clone(), PlacementPolicy::default());
        searched.process_slot(0, &[], &[req(0, 0, 5, 3.0), req(1, 0, 5, 4.0)]);
        let stats = searched.search_stats();
        assert_eq!(stats.searches, 2);
        assert!(stats.settled >= stats.searches);
        let blob = Snapshot::snapshot(&searched);

        let mut restored = Olive::quickg(s, apps, PlacementPolicy::default());
        restored.restore(&blob).unwrap();
        assert_eq!(restored.search_stats(), SearchStats::default());
        assert_eq!(Snapshot::snapshot(&restored).as_bytes(), blob.as_bytes());
    }

    /// One planned (r0, 8 of budget 10), one borrowed (r1, demand 6
    /// through the same column) and one greedy allocation (r2 enters at
    /// t1, a class the plan does not have).
    fn three_kinds() -> (Olive, [Request; 3]) {
        let (s, apps) = world();
        let plan = plan_on_core(&s, &apps, 10.0);
        let mut olive = Olive::new(
            s,
            apps,
            PlacementPolicy::default(),
            plan,
            OliveConfig::default(),
        );
        let mut at_transport = req(2, 0, 5, 3.0);
        at_transport.ingress = NodeId(1);
        let requests = [req(0, 0, 5, 8.0), req(1, 0, 5, 6.0), at_transport];
        let out = olive.process_slot(0, &[], &requests);
        assert_eq!(out.accepted.len(), 3);
        let stats = olive.stats();
        assert_eq!((stats.planned, stats.borrowed, stats.greedy), (1, 1, 1));
        (olive, requests)
    }

    #[test]
    fn footprint_of_is_the_plan_column_unless_greedy() {
        let (olive, _) = three_kinds();
        let class = ClassId::new(AppId(0), NodeId(0));
        let column = &olive.plan().class(class).unwrap().columns[0].footprint;
        assert_eq!(olive.footprint_of(RequestId(0)), Some(column));
        assert_eq!(olive.footprint_of(RequestId(1)), Some(column));
        let greedy = olive.footprint_of(RequestId(2)).unwrap();
        assert_ne!(greedy, column);
        assert!(greedy.nodes().iter().all(|&(n, _)| n != NodeId(0)));
        assert_eq!(olive.footprint_of(RequestId(3)), None);
    }

    #[test]
    fn releasing_a_borrower_leaves_the_plan_ledger_alone() {
        let (mut olive, [_, borrower, greedy]) = three_kinds();
        let class = ClassId::new(AppId(0), NodeId(0));
        let before = olive.plan_ledger().residual(class, 0).to_bits();
        olive.process_slot(1, &[borrower, greedy], &[]);
        assert!(!olive.is_active(RequestId(1)) && !olive.is_active(RequestId(2)));
        assert_eq!(olive.plan_ledger().residual(class, 0).to_bits(), before);
        // The planned load (8 × β 10) is all that is left on c2.
        assert_eq!(olive.loads().node_load(NodeId(2)), 80.0);
    }

    #[test]
    fn snapshot_is_byte_stable_with_all_three_kinds_active() {
        let (olive, [planned, borrower, greedy]) = three_kinds();
        let blob = Snapshot::snapshot(&olive);
        let (s, apps) = world();
        let plan = plan_on_core(&s, &apps, 10.0);
        let mut restored = Olive::new(
            s,
            apps,
            PlacementPolicy::default(),
            plan,
            OliveConfig::default(),
        );
        restored.restore(&blob).unwrap();
        assert_eq!(Snapshot::snapshot(&restored).as_bytes(), blob.as_bytes());
        assert!(restored.is_planned(RequestId(0)) && !restored.is_planned(RequestId(1)));
        for id in [RequestId(0), RequestId(1), RequestId(2)] {
            assert_eq!(restored.footprint_of(id), olive.footprint_of(id));
        }
        // Both copies wind down to the same empty state.
        let mut original = olive;
        for o in [&mut original, &mut restored] {
            o.process_slot(5, &[planned.clone(), borrower.clone(), greedy.clone()], &[]);
            assert!(o.loads().check_invariants());
        }
        assert_eq!(
            Snapshot::snapshot(&restored).as_bytes(),
            Snapshot::snapshot(&original).as_bytes()
        );
    }

    #[test]
    fn borrowing_disabled_ablation() {
        let (s, apps) = world();
        let plan = plan_on_core(&s, &apps, 10.0);
        let mut olive = Olive::new(
            s,
            apps,
            PlacementPolicy::default(),
            plan,
            OliveConfig {
                borrowing: false,
                ..OliveConfig::default()
            },
        );
        // Budget 10; request demand 12 cannot borrow — greedy picks the
        // cheapest feasible host instead.
        let out = olive.process_slot(0, &[], &[req(0, 0, 5, 12.0)]);
        assert_eq!(out.accepted.len(), 1);
        assert_eq!(olive.stats().borrowed, 0);
        assert_eq!(olive.stats().greedy, 1);
    }

    #[test]
    fn duplicate_departures_are_harmless() {
        let (s, apps) = world();
        let mut olive = Olive::new(
            s,
            apps,
            PlacementPolicy::default(),
            Plan::empty(),
            OliveConfig::default(),
        );
        let r = req(0, 0, 2, 3.0);
        olive.process_slot(0, &[], std::slice::from_ref(&r));
        olive.process_slot(2, std::slice::from_ref(&r), &[]);
        olive.process_slot(3, &[r], &[]); // double departure: no-op
        assert!(olive.loads().check_invariants());
        assert_eq!(olive.loads().node_load(NodeId(2)), 0.0);
    }
}
