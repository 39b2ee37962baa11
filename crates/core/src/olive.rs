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
//!
//! # Where a footprint lives
//!
//! A planned and a borrowed request follow a plan column, so their
//! allocation records `(class, column)` and every reader — the load
//! ledger, [`OnlineAlgorithm::footprint_of`], the victim search — reads
//! `plan.class(c).columns[i].footprint` in place; only a greedy request
//! owns a [`Footprint`]. The snapshot writes the same thing: a column
//! reference or the owned pairs. This rests on the plan being a
//! construction input that never changes under an instance. A
//! re-planning OLIVE that swaps plans mid-run must first re-own the
//! footprints of its active column followers, or map their references
//! onto the new plan's columns; `restore` refuses a reference its plan
//! does not have for the same reason.
//!
//! # The borrower index
//!
//! `PREEMPT` ranges over the non-planned requests that load a deficit
//! element. With `config.preemption` an instance keeps, per node and
//! per link, the ids of the non-planned active requests whose footprint
//! lists that element. Invariant: the lists hold exactly those ids, once
//! each, in no particular order. `allocate` and `release` — the only
//! two places `active` changes — maintain it, `restore` rebuilds it from
//! `active`, no snapshot carries it, and `process_slot` checks it in
//! debug builds next to the ledger invariants. `select_victims` gathers
//! its candidates from the lists of the deficit elements and orders
//! them by a total order that ends in the request id, so the order
//! inside a list never reaches a decision. Its cost went from
//! O(active · footprint) per call — the whole `active` map, planned
//! requests included — to O(borrowers on the deficit elements ·
//! footprint). Without preemption (QUICKG, ablations) nothing reads the
//! index and none is kept.
//!
//! # Where id order comes from
//!
//! An arrival costs O(1) bookkeeping: the plan and its ledger find a
//! class through one dense table, and `active` is a `HashMap` keyed
//! through [`IdHasher`](vne_model::ids::IdHasher) (one multiply per id,
//! the hasher the engine's alive set and the recorder use too), so the
//! insert on accept and the remove on departure do not walk a tree.
//! A hashed map visits its entries in an order that is not id order
//! (and would change with the hasher), so no reader whose result could
//! show that order iterates it directly. The three that iterate — the
//! snapshot (its blob lists allocations in request-id order, and a
//! restore refuses any other order), `active_demand_by_class` (a float
//! sum, so its order is part of its bits) and `borrowers_of_active` (the
//! rebuilt lists the debug check compares sorted) — each take
//! `active_by_id`, which sorts by id right after collecting. Every other
//! reader looks a request up by id.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use vne_model::app::AppSet;
use vne_model::embedding::Footprint;
use vne_model::ids::{ClassId, IdHashing, RequestId};
use vne_model::load::LoadLedger;
use vne_model::policy::PlacementPolicy;
use vne_model::request::{Request, Slot};
use vne_model::state::{Snapshot, StateBlob, StateError, StateReader, StateWriter};
use vne_model::substrate::{SearchStats, SubstrateNetwork};

use crate::algorithm::{OnlineAlgorithm, SlotOutcome};
use crate::greedy::collocated_embed_counted;
use crate::plan::{Plan, PlanLedger, PlannedColumn};

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

/// Where an active request's footprint lives.
#[derive(Debug, Clone)]
enum Placement {
    /// Column `.1` of class `.0`'s plan: planned and borrowed requests
    /// read the plan's footprint in place.
    Column(ClassId, usize),
    /// The greedy fallback's own embedding.
    Owned(Footprint),
}

impl Placement {
    /// The column this placement names, if `plan` has it.
    fn column<'a>(&self, plan: &'a Plan) -> Option<&'a PlannedColumn> {
        match self {
            Placement::Column(class, col) => plan.class(*class)?.columns.get(*col),
            Placement::Owned(_) => None,
        }
    }

    /// The footprint, out of `plan` for a column reference.
    ///
    /// # Panics
    ///
    /// Panics on a column `plan` does not have: `handle_arrival` takes
    /// its references from the plan and `restore` checks a blob's.
    fn footprint<'a>(&'a self, plan: &'a Plan) -> &'a Footprint {
        match self {
            Placement::Owned(footprint) => footprint,
            Placement::Column(..) => {
                let column = self.column(plan);
                &column.expect("active column is in the plan").footprint
            }
        }
    }
}

#[derive(Debug, Clone)]
struct ActiveAlloc {
    request: Request,
    placement: Placement,
    /// Inside the guaranteed share: consumes plan budget and is never
    /// preempted. Always a [`Placement::Column`]; a borrowed request is
    /// one too and is not planned.
    planned: bool,
}

/// The non-planned active requests loading each substrate element —
/// `PREEMPT`'s candidates (Alg. 2 l. 35–38), in no particular order.
#[derive(Debug, Clone)]
struct BorrowerIndex {
    nodes: Vec<Vec<RequestId>>,
    links: Vec<Vec<RequestId>>,
}

impl BorrowerIndex {
    fn new(substrate: &SubstrateNetwork) -> Self {
        Self {
            nodes: vec![Vec::new(); substrate.node_count()],
            links: vec![Vec::new(); substrate.link_count()],
        }
    }

    fn insert(&mut self, id: RequestId, footprint: &Footprint) {
        for &(n, _) in footprint.nodes() {
            self.nodes[n.index()].push(id);
        }
        for &(l, _) in footprint.links() {
            self.links[l.index()].push(id);
        }
    }

    fn remove(&mut self, id: RequestId, footprint: &Footprint) {
        fn drop_id(list: &mut Vec<RequestId>, id: RequestId) {
            let at = list.iter().position(|&other| other == id);
            list.swap_remove(at.expect("a borrower is listed on every element it loads"));
        }
        for &(n, _) in footprint.nodes() {
            drop_id(&mut self.nodes[n.index()], id);
        }
        for &(l, _) in footprint.links() {
            drop_id(&mut self.links[l.index()], id);
        }
    }
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
    /// Shared like `apps`: an arrival reads a column's footprint across
    /// the `&mut self` calls that preempt for it and allocate it.
    plan: Arc<Plan>,
    plan_ledger: PlanLedger,
    loads: LoadLedger,
    /// Hashed: every reader whose result can show the iteration order
    /// goes through [`Olive::active_by_id`].
    active: HashMap<RequestId, ActiveAlloc, IdHashing>,
    /// Kept only when `config.preemption` (nothing else reads it);
    /// never serialized, rebuilt by `restore`.
    borrowers: Option<BorrowerIndex>,
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
        let borrowers = config.preemption.then(|| BorrowerIndex::new(&substrate));
        Self {
            name: "OLIVE".to_string(),
            substrate,
            apps: Arc::new(apps),
            policy,
            plan: Arc::new(plan),
            plan_ledger,
            loads,
            active: HashMap::<RequestId, ActiveAlloc, IdHashing>::default(),
            borrowers,
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
        for (_, a) in self.active_by_id(|a| a.request.class() == class) {
            if a.planned {
                planned += a.request.demand;
            } else {
                borrowed += a.request.demand;
            }
        }
        (planned, borrowed)
    }

    /// The active allocations `keep` selects, in request-id order: the
    /// order the snapshot writes, the float sums add and the rebuilt
    /// borrower lists hold, whatever order the hashed map visits in.
    fn active_by_id(&self, keep: impl Fn(&ActiveAlloc) -> bool) -> Vec<(RequestId, &ActiveAlloc)> {
        let mut allocs: Vec<(RequestId, &ActiveAlloc)> = self
            .active
            .iter()
            .filter(|(_, a)| keep(a))
            .map(|(&id, a)| (id, a))
            .collect();
        allocs.sort_unstable_by_key(|&(id, _)| id);
        allocs
    }

    fn release(&mut self, id: RequestId) {
        let Some(alloc) = self.active.remove(&id) else {
            return;
        };
        let footprint = alloc.placement.footprint(&self.plan);
        self.loads.remove(footprint, alloc.request.demand);
        if alloc.planned {
            if let Placement::Column(class, col) = alloc.placement {
                self.plan_ledger.release(class, col, alloc.request.demand);
            }
        } else if let Some(borrowers) = &mut self.borrowers {
            borrowers.remove(id, footprint);
        }
    }

    fn allocate(&mut self, r: &Request, placement: Placement, planned: bool) {
        let footprint = placement.footprint(&self.plan);
        self.loads.apply(footprint, r.demand);
        if planned {
            if let Placement::Column(class, col) = placement {
                self.plan_ledger.consume(class, col, r.demand);
            }
        } else if let Some(borrowers) = &mut self.borrowers {
            borrowers.insert(r.id, footprint);
        }
        self.active.insert(
            r.id,
            ActiveAlloc {
                request: r.clone(),
                placement,
                planned,
            },
        );
    }

    /// The index `active` implies: every non-planned request listed, in
    /// id order, on each element of its footprint.
    fn borrowers_of_active(&self) -> BorrowerIndex {
        let mut index = BorrowerIndex::new(&self.substrate);
        for (id, alloc) in self.active_by_id(|a| !a.planned) {
            index.insert(id, alloc.placement.footprint(&self.plan));
        }
        index
    }

    /// Whether the borrower lists hold exactly the non-planned active
    /// requests of every element (test invariant).
    fn borrowers_match_active(&self) -> bool {
        let Some(index) = &self.borrowers else {
            return true;
        };
        let sorted = |lists: &[Vec<RequestId>]| -> Vec<Vec<RequestId>> {
            let mut lists = lists.to_vec();
            lists.iter_mut().for_each(|list| list.sort_unstable());
            lists
        };
        let expected = self.borrowers_of_active();
        sorted(&index.nodes) == expected.nodes && sorted(&index.links) == expected.links
    }

    /// Finds non-planned victims whose eviction frees the deficit of
    /// `footprint · demand`. Victims are only committed if they suffice
    /// (`PREEMPT`, Alg. 2 l. 35–38); returns `None` otherwise.
    ///
    /// # Panics
    ///
    /// Panics without the borrower index, i.e. when `config.preemption`
    /// is off.
    fn select_victims(&self, footprint: &Footprint, demand: f64) -> Option<Vec<RequestId>> {
        // Per-element deficits.
        let mut node_deficit: BTreeMap<usize, f64> = BTreeMap::new();
        let mut link_deficit: BTreeMap<usize, f64> = BTreeMap::new();
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
        // displaced the plan), larger overlap first on ties. The order
        // is total (it ends in the id), so the order the index lists
        // them in never shows.
        let borrowers = self.borrowers.as_ref();
        let borrowers = borrowers.expect("preemption keeps the borrower index");
        let mut ids: Vec<RequestId> = Vec::new();
        for &n in node_deficit.keys() {
            ids.extend(&borrowers.nodes[n]);
        }
        for &l in link_deficit.keys() {
            ids.extend(&borrowers.links[l]);
        }
        ids.sort_unstable();
        ids.dedup();
        let mut candidates: Vec<(RequestId, &Request, &Footprint, f64)> = ids
            .into_iter()
            .filter_map(|id| {
                let a = &self.active[&id];
                let footprint = a.placement.footprint(&self.plan);
                let mut overlap = 0.0;
                for &(n, x) in footprint.nodes() {
                    if let Some(d) = node_deficit.get(&n.index()) {
                        overlap += (x * a.request.demand).min(*d);
                    }
                }
                for &(l, x) in footprint.links() {
                    if let Some(d) = link_deficit.get(&l.index()) {
                        overlap += (x * a.request.demand).min(*d);
                    }
                }
                (overlap > 0.0).then_some((id, &a.request, footprint, overlap))
            })
            .collect();
        candidates.sort_by(|a, b| {
            b.1.arrival
                .cmp(&a.1.arrival)
                .then_with(|| b.3.partial_cmp(&a.3).unwrap_or(std::cmp::Ordering::Equal))
                .then_with(|| b.0.cmp(&a.0))
        });

        let mut victims = Vec::new();
        for (id, request, footprint, _) in candidates {
            if node_deficit.is_empty() && link_deficit.is_empty() {
                break;
            }
            let mut helped = false;
            for &(n, x) in footprint.nodes() {
                if let Some(d) = node_deficit.get_mut(&n.index()) {
                    *d -= x * request.demand;
                    helped = true;
                    if *d <= 1e-9 {
                        node_deficit.remove(&n.index());
                    }
                }
            }
            for &(l, x) in footprint.links() {
                if let Some(d) = link_deficit.get_mut(&l.index()) {
                    *d -= x * request.demand;
                    helped = true;
                    if *d <= 1e-9 {
                        link_deficit.remove(&l.index());
                    }
                }
            }
            if helped {
                victims.push(id);
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
        let plan = Arc::clone(&self.plan);
        if let Some(class_plan) = plan.class(class) {
            if let Some(col) = self.plan_ledger.full_fit(class, r.demand) {
                let footprint = &class_plan.columns[col].footprint;
                if self.loads.fits(footprint, r.demand) {
                    self.allocate(r, Placement::Column(class, col), true);
                    self.stats.planned += 1;
                    return (true, Vec::new());
                }
                // Planned but the substrate is occupied by borrowers:
                // preempt them (l. 8–9).
                if self.config.preemption {
                    if let Some(victims) = self.select_victims(footprint, r.demand) {
                        for &v in &victims {
                            self.release(v);
                            self.stats.preempted += 1;
                        }
                        if self.loads.fits(footprint, r.demand) {
                            self.allocate(r, Placement::Column(class, col), true);
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
                for col in self.plan_ledger.partial_candidates(class) {
                    if self
                        .loads
                        .fits(&class_plan.columns[col].footprint, r.demand)
                    {
                        self.allocate(r, Placement::Column(class, col), false);
                        self.stats.borrowed += 1;
                        return (true, Vec::new());
                    }
                }
            }
        }

        self.post_plan_paths(r, Vec::new())
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
                    self.allocate(r, Placement::Owned(footprint), false);
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
/// cannot silently restore into an OLIVE run, and so is every active
/// allocation: the list must be strictly ascending by request id (the
/// order the snapshot writes; a duplicate would count one request's
/// load twice), a column reference must be in this instance's plan, an
/// owned footprint on its substrate, and the two ledger blobs are
/// restored into copies. Only when every part has been decoded and
/// accepted is anything replaced: a failed restore leaves the instance
/// as it was. The borrower index is derived state and not part of the
/// blob.
impl Snapshot for Olive {
    fn snapshot(&self) -> StateBlob {
        let mut w = StateWriter::new();
        w.write_str(&self.name);
        w.write_blob(&self.loads.snapshot());
        w.write_blob(&self.plan_ledger.snapshot());
        w.write_usize(self.active.len());
        for (_, alloc) in self.active_by_id(|_| true) {
            w.write(&alloc.request);
            w.write_bool(alloc.planned);
            match &alloc.placement {
                Placement::Column(class, col) => w.write(&Some((*class, *col))),
                Placement::Owned(footprint) => {
                    w.write(&None::<(ClassId, usize)>);
                    w.write(footprint);
                }
            }
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
        let off_substrate = |footprint: &Footprint| {
            let nodes = footprint.nodes().iter().map(|&(n, _)| n.index());
            let links = footprint.links().iter().map(|&(l, _)| l.index());
            nodes.max() >= Some(self.substrate.node_count())
                || links.max() >= Some(self.substrate.link_count())
        };
        let mut active = HashMap::<RequestId, ActiveAlloc, IdHashing>::default();
        let mut last: Option<RequestId> = None;
        for _ in 0..count {
            let request: Request = r.read()?;
            if let Some(prev) = last.filter(|&prev| prev >= request.id) {
                return Err(StateError::Corrupt(format!(
                    "active allocations not strictly ascending by id: {prev} then {}",
                    request.id
                )));
            }
            last = Some(request.id);
            let planned = r.read_bool()?;
            let placement = match r.read::<Option<(ClassId, usize)>>()? {
                Some((class, col)) => Placement::Column(class, col),
                None => Placement::Owned(r.read()?),
            };
            match &placement {
                Placement::Column(class, col) if placement.column(&self.plan).is_none() => {
                    return Err(StateError::Mismatch {
                        expected: format!("a plan with column {col} of class {class}"),
                        found: format!("request {} following it", request.id),
                    });
                }
                Placement::Owned(_) if planned => {
                    return Err(StateError::Corrupt(format!(
                        "planned request {} owns its footprint",
                        request.id
                    )));
                }
                Placement::Owned(footprint) if off_substrate(footprint) => {
                    return Err(StateError::Mismatch {
                        expected: format!("footprints on {}", self.substrate.name()),
                        found: format!("request {} off it", request.id),
                    });
                }
                _ => {}
            }
            active.insert(
                request.id,
                ActiveAlloc {
                    request,
                    placement,
                    planned,
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
        let mut loads = self.loads.clone();
        loads.restore(&loads_blob)?;
        let mut plan_ledger = self.plan_ledger.clone();
        plan_ledger.restore(&ledger_blob)?;
        self.loads = loads;
        self.plan_ledger = plan_ledger;
        self.active = active;
        self.stats = stats;
        if self.borrowers.is_some() {
            self.borrowers = Some(self.borrowers_of_active());
        }
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
        debug_assert!(self.borrowers_match_active());
        outcome
    }

    fn loads(&self) -> &LoadLedger {
        &self.loads
    }

    fn apply_churn(&mut self, effective: &vne_model::churn::EffectiveCapacities) {
        self.loads.set_capacities(&effective.node, &effective.link);
    }

    fn footprint_of(&self, id: RequestId) -> Option<&Footprint> {
        let alloc = self.active.get(&id)?;
        Some(alloc.placement.footprint(&self.plan))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{ClassPlan, PlannedColumn};
    use proptest::prelude::*;
    use std::collections::HashMap;
    use vne_model::app::{shapes, AppShape};
    use vne_model::churn::EffectiveCapacities;
    use vne_model::embedding::Embedding;
    use vne_model::ids::{AppId, LinkId, NodeId};
    use vne_model::load::CAPACITY_EPS;
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

    /// A plan column of application 0 from `ingress` to a VNF on `host`
    /// over `path`, with `budget` demand units.
    fn column_to(
        s: &SubstrateNetwork,
        apps: &AppSet,
        (ingress, host): (NodeId, NodeId),
        path: Vec<LinkId>,
        budget: f64,
    ) -> PlannedColumn {
        let vnet = apps.vnet(AppId(0));
        let embedding = Embedding::new(vec![ingress, host], vec![path]);
        let policy = PlacementPolicy::default();
        assert!(embedding.validate(vnet, s, &policy).is_ok());
        let footprint = embedding.footprint(vnet, s, &policy);
        let unit_cost = footprint.cost(s);
        PlannedColumn {
            embedding,
            footprint,
            share: 1.0,
            budget,
            unit_cost,
        }
    }

    /// A hand-built plan: class (app0, e0) with one column hosting the
    /// VNF on c2, budget `budget` demand units.
    fn plan_on_core(s: &SubstrateNetwork, apps: &AppSet, budget: f64) -> Plan {
        let path = vec![LinkId(0), LinkId(1)];
        let mut plan = Plan::empty();
        plan.insert(ClassPlan {
            class: ClassId::new(AppId(0), NodeId(0)),
            expected_demand: budget,
            rejected_fraction: 0.0,
            columns: vec![column_to(s, apps, (NodeId(0), NodeId(2)), path, budget)],
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

    /// `blob` (an OLIVE snapshot) with its active entries listed in
    /// `order` — indexes into the honest list, repeats allowed — and
    /// every other byte kept.
    fn relisted(blob: &StateBlob, order: &[usize]) -> StateBlob {
        let mut r = StateReader::new(blob);
        let name = r.read_str().unwrap();
        let loads = r.read_blob().unwrap();
        let ledger = r.read_blob().unwrap();
        let count = r.read_usize().unwrap();
        let entries: Vec<StateBlob> = (0..count)
            .map(|_| {
                let mut w = StateWriter::new();
                w.write(&r.read::<Request>().unwrap());
                w.write_bool(r.read_bool().unwrap());
                let column = r.read::<Option<(ClassId, usize)>>().unwrap();
                w.write(&column);
                if column.is_none() {
                    w.write(&r.read::<Footprint>().unwrap());
                }
                w.finish()
            })
            .collect();
        let tail = &blob.as_bytes()[blob.len() - r.remaining()..];
        let mut w = StateWriter::new();
        w.write_str(&name);
        w.write_blob(&loads);
        w.write_blob(&ledger);
        w.write_usize(order.len());
        let mut bytes = w.finish().into_bytes();
        for &i in order {
            bytes.extend_from_slice(entries[i].as_bytes());
        }
        bytes.extend_from_slice(tail);
        StateBlob::from_bytes(bytes)
    }

    /// A checkpoint is outside input: an active list that is not
    /// strictly ascending by id — out of order, or naming a request
    /// twice, which would leave one request's load counted twice — is
    /// refused by name, and the instance is left as it was.
    #[test]
    fn restore_refuses_an_active_list_out_of_id_order() {
        let (olive, _) = three_kinds();
        let blob = Snapshot::snapshot(&olive);
        assert_eq!(relisted(&blob, &[0, 1, 2]).as_bytes(), blob.as_bytes());
        let (s, apps) = world();
        let plan = plan_on_core(&s, &apps, 10.0);
        let mut other = Olive::new(
            s,
            apps,
            PlacementPolicy::default(),
            plan,
            OliveConfig::default(),
        );
        other.process_slot(0, &[], &[req(7, 0, 5, 3.0)]);
        let before = Snapshot::snapshot(&other);
        for (order, named) in [
            (&[1, 0, 2][..], "r1 then r0"),
            (&[0, 2, 1][..], "r2 then r1"),
            (&[0, 1, 1, 2][..], "r1 then r1"),
        ] {
            match other.restore(&relisted(&blob, order)) {
                Err(StateError::Corrupt(why)) => assert!(why.contains(named), "{why}"),
                res => panic!("active list {order:?} was restored: {res:?}"),
            }
            assert_eq!(Snapshot::snapshot(&other).as_bytes(), before.as_bytes());
            assert!(other.borrowers_match_active());
        }
        other.restore(&blob).unwrap();
        assert_eq!(Snapshot::snapshot(&other).as_bytes(), blob.as_bytes());
    }

    /// A blob's column references and owned footprints are checked
    /// against the instance's plan and substrate before anything is
    /// replaced: a class the plan lacks, a column index past the class's
    /// last, an element the substrate lacks.
    #[test]
    fn restore_refuses_what_the_instance_cannot_hold() {
        let (olive, _) = three_kinds();
        let blob = Snapshot::snapshot(&olive);
        let (s, apps) = world();
        let mut no_columns = plan_on_core(&s, &apps, 10.0);
        let mut class_plan = no_columns.iter().next().unwrap().clone();
        class_plan.columns.clear();
        no_columns.insert(class_plan);
        for plan in [Plan::empty(), no_columns] {
            let mut other = Olive::new(
                s.clone(),
                apps.clone(),
                PlacementPolicy::default(),
                plan,
                OliveConfig::default(),
            );
            other.process_slot(0, &[], &[req(7, 0, 5, 3.0)]);
            let before = Snapshot::snapshot(&other);
            match other.restore(&blob) {
                Err(StateError::Mismatch { expected, .. }) => {
                    assert!(expected.contains("column 0"), "{expected}");
                }
                other => panic!("a dangling column reference restored: {other:?}"),
            }
            assert_eq!(Snapshot::snapshot(&other).as_bytes(), before.as_bytes());
            assert!(other.borrowers_match_active());
        }

        let greedy_only = |s: SubstrateNetwork| {
            let policy = PlacementPolicy::default();
            Olive::new(
                s,
                apps.clone(),
                policy,
                Plan::empty(),
                OliveConfig::default(),
            )
        };
        let mut on_line = greedy_only(s);
        on_line.process_slot(0, &[], &[req(0, 0, 5, 3.0)]);
        let hosts = on_line.footprint_of(RequestId(0)).unwrap().nodes();
        assert!(hosts.iter().any(|&(n, _)| n == NodeId(2)));
        let mut small = SubstrateNetwork::new("small");
        let e = small.add_node("e0", Tier::Edge, 100.0, 50.0).unwrap();
        let t = small.add_node("t1", Tier::Transport, 300.0, 10.0).unwrap();
        small.add_link(e, t, 600.0, 1.0).unwrap();
        match greedy_only(small).restore(&Snapshot::snapshot(&on_line)) {
            Err(StateError::Mismatch { expected, .. }) => {
                assert_eq!(expected, "footprints on small");
            }
            other => panic!("a footprint off the substrate restored: {other:?}"),
        }
    }

    /// A blob whose loads restore but whose plan ledger does not — one
    /// of another plan's shape, one of the same shape with other budgets
    /// — changes nothing: every part is checked before any is replaced.
    #[test]
    fn a_failed_restore_leaves_the_instance_as_it_was() {
        let (s, apps) = world();
        let olive_with = |plan: Plan| {
            let policy = PlacementPolicy::default();
            Olive::new(
                s.clone(),
                apps.clone(),
                policy,
                plan,
                OliveConfig::default(),
            )
        };
        // A greedy allocation only: its owned footprint restores anywhere.
        let mut greedy = olive_with(plan_on_core(&s, &apps, 10.0));
        let mut at_transport = req(0, 0, 5, 3.0);
        at_transport.ingress = NodeId(1);
        greedy.process_slot(0, &[], &[at_transport]);
        let (planned, _) = three_kinds();
        for (blob, plan, found) in [
            (
                Snapshot::snapshot(&greedy),
                Plan::empty(),
                "blob with 1 classes",
            ),
            (
                Snapshot::snapshot(&planned),
                plan_on_core(&s, &apps, 20.0),
                "other budgets for class a0@n0",
            ),
        ] {
            let mut other = olive_with(plan);
            other.process_slot(0, &[], &[req(7, 0, 5, 2.0)]);
            let before = Snapshot::snapshot(&other);
            match other.restore(&blob) {
                Err(StateError::Mismatch { found: got, .. }) => assert_eq!(got, found),
                other => panic!("a foreign plan ledger restored: {other:?}"),
            }
            assert_eq!(Snapshot::snapshot(&other).as_bytes(), before.as_bytes());
        }
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

    impl Olive {
        /// `select_victims` as it was before the borrower index — the
        /// whole `active` map filtered down to the non-planned requests
        /// that touch a deficit element — kept verbatim as the oracle of
        /// `indexed_victims_equal_the_whole_map_scan`, but for the
        /// footprint accessor and the names of its two hash maps
        /// (`vne-audit` binds a name to a type per file).
        fn select_victims_by_scan(
            &self,
            footprint: &Footprint,
            demand: f64,
        ) -> Option<Vec<RequestId>> {
            // Per-element deficits.
            let mut node_short: HashMap<usize, f64> = HashMap::new();
            let mut link_short: HashMap<usize, f64> = HashMap::new();
            for &(n, x) in footprint.nodes() {
                let need = x * demand - self.loads.node_residual(n);
                if need > 1e-9 {
                    node_short.insert(n.index(), need);
                }
            }
            for &(l, x) in footprint.links() {
                let need = x * demand - self.loads.link_residual(l);
                if need > 1e-9 {
                    link_short.insert(l.index(), need);
                }
            }
            if node_short.is_empty() && link_short.is_empty() {
                return Some(Vec::new());
            }

            let mut candidates: Vec<(&RequestId, &ActiveAlloc, f64)> = self
                .active
                // audit:allow(D1, "the oracle's candidate sort is total: it ends in the request id")
                .iter()
                .filter(|(_, a)| !a.planned)
                .filter_map(|(id, a)| {
                    let mut overlap = 0.0;
                    for &(n, x) in a.placement.footprint(&self.plan).nodes() {
                        if let Some(d) = node_short.get(&n.index()) {
                            overlap += (x * a.request.demand).min(*d);
                        }
                    }
                    for &(l, x) in a.placement.footprint(&self.plan).links() {
                        if let Some(d) = link_short.get(&l.index()) {
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
                if node_short.is_empty() && link_short.is_empty() {
                    break;
                }
                let mut helped = false;
                for &(n, x) in alloc.placement.footprint(&self.plan).nodes() {
                    if let Some(d) = node_short.get_mut(&n.index()) {
                        *d -= x * alloc.request.demand;
                        helped = true;
                        if *d <= 1e-9 {
                            node_short.remove(&n.index());
                        }
                    }
                }
                for &(l, x) in alloc.placement.footprint(&self.plan).links() {
                    if let Some(d) = link_short.get_mut(&l.index()) {
                        *d -= x * alloc.request.demand;
                        helped = true;
                        if *d <= 1e-9 {
                            link_short.remove(&l.index());
                        }
                    }
                }
                if helped {
                    victims.push(*id);
                }
            }
            if node_short.is_empty() && link_short.is_empty() {
                Some(victims)
            } else {
                None
            }
        }
    }

    /// Two edge nodes behind one transport node, two cores behind that;
    /// every plan column and every greedy embedding crosses t2 or one of
    /// its links, so deficits span shared elements:
    ///
    /// ```text
    /// e0(100) ─l0─┐            ┌─l2─ c3(600)
    ///             t2(300) ─────┤
    /// e1(100) ─l1─┘            └─l3─ c4(400)
    /// ```
    fn shared_world() -> (SubstrateNetwork, AppSet) {
        let mut s = SubstrateNetwork::new("shared");
        let e0 = s.add_node("e0", Tier::Edge, 100.0, 50.0).unwrap();
        let e1 = s.add_node("e1", Tier::Edge, 100.0, 50.0).unwrap();
        let t2 = s.add_node("t2", Tier::Transport, 300.0, 10.0).unwrap();
        let c3 = s.add_node("c3", Tier::Core, 600.0, 1.0).unwrap();
        let c4 = s.add_node("c4", Tier::Core, 400.0, 2.0).unwrap();
        s.add_link(e0, t2, 120.0, 1.0).unwrap();
        s.add_link(e1, t2, 120.0, 1.0).unwrap();
        s.add_link(t2, c3, 100.0, 1.0).unwrap();
        s.add_link(t2, c4, 100.0, 1.0).unwrap();
        let mut apps = AppSet::new();
        let chain = shapes::uniform_chain(1, 10.0, 2.0).unwrap();
        apps.push("chain", AppShape::Chain, chain).unwrap();
        (s, apps)
    }

    /// A plan for the two edge classes of [`shared_world`]: from each
    /// edge one column hosting the VNF on c3 and one hosting it on t2,
    /// with the four `budgets` in that order.
    fn shared_plan(s: &SubstrateNetwork, apps: &AppSet, budgets: [f64; 4]) -> Plan {
        let mut plan = Plan::empty();
        for (edge, budgets) in (0u32..).zip(budgets.chunks(2)) {
            let ingress = NodeId(edge);
            let mut columns = vec![
                column_to(
                    s,
                    apps,
                    (ingress, NodeId(3)),
                    vec![LinkId(edge), LinkId(2)],
                    budgets[0],
                ),
                column_to(
                    s,
                    apps,
                    (ingress, NodeId(2)),
                    vec![LinkId(edge)],
                    budgets[1],
                ),
            ];
            columns.sort_by(|a, b| a.unit_cost.total_cmp(&b.unit_cost));
            plan.insert(ClassPlan {
                class: ClassId::new(AppId(0), ingress),
                expected_demand: budgets.iter().sum(),
                rejected_fraction: 0.0,
                columns,
            });
        }
        plan
    }

    /// Whether `footprint` loads an element `loads` holds over capacity.
    fn touches_overload(loads: &LoadLedger, footprint: &Footprint) -> bool {
        let over = |capacity: f64, load: f64| load > capacity + CAPACITY_EPS * capacity.max(1.0);
        let node = |&(n, _): &(NodeId, f64)| over(loads.node_capacity_of(n), loads.node_load(n));
        let link = |&(l, _): &(LinkId, f64)| over(loads.link_capacity_of(l), loads.link_load(l));
        footprint.nodes().iter().any(node) || footprint.links().iter().any(link)
    }

    /// One step of the random drive: an optional state change, then a
    /// slot of arrivals `(ingress, demand, duration)`.
    type Step = (u8, usize, f64, Vec<(u32, f64, Slot)>);

    fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
        let arrivals = proptest::collection::vec((0u32..3, 0.5f64..14.0, 1u32..12), 0..8);
        proptest::collection::vec((0u8..8, 0usize..9, 0.2f64..1.0, arrivals), 1..40)
    }

    proptest! {
        /// The borrower index against the whole-map scan it replaced:
        /// over random arrivals (planned, borrowed and greedy), timed
        /// departures, capacity churn with the evictions it forces and
        /// snapshot → restore hand-overs, every column of an arriving
        /// request's class gets the scan's victims from the index —
        /// `handle_arrival` asks for one of them — and after every slot
        /// the lists hold exactly the non-planned active requests.
        #[test]
        fn indexed_victims_equal_the_whole_map_scan(
            budgets in (5.0f64..40.0, 5.0f64..40.0, 5.0f64..40.0, 5.0f64..40.0),
            steps in arb_steps(),
        ) {
            let (s, apps) = shared_world();
            let plan = shared_plan(&s, &apps, [budgets.0, budgets.1, budgets.2, budgets.3]);
            let fresh = Olive::new(
                s.clone(),
                apps,
                PlacementPolicy::default(),
                plan,
                OliveConfig::default(),
            );
            let mut olive = fresh.clone();
            let pristine = EffectiveCapacities {
                node: s.nodes().map(|(_, n)| n.capacity).collect(),
                link: s.links().map(|(_, l)| l.capacity).collect(),
            };
            let mut capacities = pristine.clone();
            let mut live: Vec<Request> = Vec::new();
            let mut next_id = 0;
            for (t, (change, element, factor, arrivals)) in steps.into_iter().enumerate() {
                let t = t as Slot;
                match change {
                    // Drain one element, evicting newest-first what no
                    // longer fits (the engine's stranding rule).
                    0 | 1 => {
                        let nodes = capacities.node.len();
                        if element < nodes {
                            capacities.node[element] = pristine.node[element] * factor;
                        } else {
                            capacities.link[element - nodes] = pristine.link[element - nodes] * factor;
                        }
                        olive.apply_churn(&capacities);
                        let mut loads = olive.loads().clone();
                        let mut evicted = Vec::new();
                        while let Some(at) = live.iter().rposition(|r| {
                            touches_overload(&loads, olive.footprint_of(r.id).unwrap())
                        }) {
                            let r = live.remove(at);
                            loads.remove(olive.footprint_of(r.id).unwrap(), r.demand);
                            evicted.push(r);
                        }
                        olive.process_slot(t, &evicted, &[]);
                    }
                    2 => {
                        capacities = pristine.clone();
                        olive.apply_churn(&capacities);
                    }
                    3 => {
                        let blob = Snapshot::snapshot(&olive);
                        olive = fresh.clone();
                        olive.restore(&blob).unwrap();
                        olive.apply_churn(&capacities);
                        prop_assert_eq!(Snapshot::snapshot(&olive).as_bytes(), blob.as_bytes());
                    }
                    _ => {}
                }
                prop_assert!(olive.borrowers_match_active());

                let (departures, staying) = live
                    .into_iter()
                    .partition(|r: &Request| r.arrival + r.duration <= t);
                live = staying;
                olive.process_slot(t, &departures, &[]);
                for (ingress, demand, duration) in arrivals {
                    let r = Request {
                        id: RequestId(next_id),
                        arrival: t,
                        duration,
                        ingress: NodeId(ingress),
                        app: AppId(0),
                        demand,
                    };
                    next_id += 1;
                    if let Some(class_plan) = olive.plan.class(r.class()) {
                        for column in &class_plan.columns {
                            prop_assert_eq!(
                                olive.select_victims(&column.footprint, r.demand),
                                olive.select_victims_by_scan(&column.footprint, r.demand)
                            );
                        }
                    }
                    let out = olive.process_slot(t, &[], std::slice::from_ref(&r));
                    live.retain(|l| !out.preempted.contains(&l.id));
                    if !out.accepted.is_empty() {
                        live.push(r);
                    }
                    prop_assert!(olive.borrowers_match_active());
                }
                prop_assert_eq!(olive.active.len(), live.len());
            }
        }
    }
}
