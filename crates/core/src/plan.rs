//! The embedding plan `y` and its residual ledger (Eqs. 17 & 19).
//!
//! A plan assigns every class a set of *integral embedding columns* with
//! fractional weights — exactly the Dantzig-Wolfe representation of the
//! PLAN-VNE solution. The weights times the expected class demand are
//! *budgets* in demand units; OLIVE's residual plan (`Res(y, t, x)`) is
//! the per-column budget minus the demand of active planned allocations,
//! tracked by [`PlanLedger`].

use std::collections::BTreeMap;
use std::sync::Arc;

use vne_model::embedding::{Embedding, Footprint};
use vne_model::ids::ClassId;
use vne_model::state::{Snapshot, StateBlob, StateError, StateReader, StateWriter};

/// Small tolerance for budget arithmetic.
const BUDGET_EPS: f64 = 1e-9;

/// One planned embedding column of a class.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedColumn {
    /// The integral embedding (unit-demand shape).
    pub embedding: Embedding,
    /// The embedding's per-unit-demand footprint.
    pub footprint: Footprint,
    /// The fraction `λ_e ∈ (0, 1]` of the class demand routed here.
    pub share: f64,
    /// The budget in demand units: `λ_e · d(r̃)`.
    pub budget: f64,
    /// Real resource cost per unit demand per slot.
    pub unit_cost: f64,
}

/// The plan of one class `r̃`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassPlan {
    /// The class.
    pub class: ClassId,
    /// Expected aggregated demand `d(r̃)` the plan was built for.
    pub expected_demand: f64,
    /// Fraction of the demand the plan rejects (`Σ_p y_p`).
    pub rejected_fraction: f64,
    /// The embedding columns, sorted by ascending unit cost.
    pub columns: Vec<PlannedColumn>,
}

impl ClassPlan {
    /// The guaranteed (planned) demand: `(1 − rejected) · d(r̃)` — the
    /// horizontal threshold of the paper's Fig. 12.
    pub fn guaranteed_demand(&self) -> f64 {
        (1.0 - self.rejected_fraction).max(0.0) * self.expected_demand
    }
}

/// The dense `(app, ingress) → position` table of a plan's classes.
///
/// A [`Plan`] keeps its [`ClassPlan`]s in a `Vec` in class order and
/// every [`PlanLedger`] built over it keeps its columns by the same
/// position, so both share one table: a class lookup is two bounds
/// checks and a load, not a walk down a `ClassId`-keyed tree. Classes
/// are never removed, so the table is a function of the class set and
/// two plans with the same classes compare equal with it.
#[derive(Debug, Clone, Default, PartialEq)]
struct ClassTable {
    /// The class at each position, ascending.
    ids: Vec<ClassId>,
    /// `rows[app][ingress]`: the class's position, or [`ClassTable::NONE`].
    rows: Vec<Vec<u32>>,
}

impl ClassTable {
    /// The entry of a class the plan does not have.
    const NONE: u32 = u32::MAX;

    /// The position of `class`; `None` for a class the plan lacks,
    /// whether or not it falls inside the table.
    fn position(&self, class: ClassId) -> Option<usize> {
        let row = self.rows.get(class.app.index())?;
        let at = *row.get(class.ingress.index())?;
        (at != Self::NONE).then_some(at as usize)
    }

    /// Puts `class` at position `at`, moving every later class up one.
    fn insert(&mut self, at: usize, class: ClassId) {
        self.ids.insert(at, class);
        for pos in at..self.ids.len() {
            let ClassId { app, ingress } = self.ids[pos];
            let (app, ingress) = (app.index(), ingress.index());
            if self.rows.len() <= app {
                self.rows.resize_with(app + 1, Vec::new);
            }
            let row = &mut self.rows[app];
            if row.len() <= ingress {
                row.resize(ingress + 1, Self::NONE);
            }
            row[ingress] = u32::try_from(pos).expect("fewer than u32::MAX classes");
        }
    }
}

/// A full embedding plan `y(R̃)`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Plan {
    /// Class plans in class order.
    classes: Vec<ClassPlan>,
    /// Where each class sits in `classes`; shared with every
    /// [`PlanLedger`] built over this plan.
    table: Arc<ClassTable>,
    /// The PLAN-VNE objective value (resource + quantile rejection cost).
    pub objective: f64,
}

impl Plan {
    /// The empty plan (QUICKG runs OLIVE with this).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Adds a class plan (replacing any existing one for the class).
    pub fn insert(&mut self, class_plan: ClassPlan) {
        if let Some(at) = self.table.position(class_plan.class) {
            self.classes[at] = class_plan;
            return;
        }
        let at = self.classes.partition_point(|c| c.class < class_plan.class);
        Arc::make_mut(&mut self.table).insert(at, class_plan.class);
        self.classes.insert(at, class_plan);
    }

    /// The plan of a class, if any.
    pub fn class(&self, class: ClassId) -> Option<&ClassPlan> {
        self.position(class).map(|at| &self.classes[at])
    }

    /// Where a class's plan sits in class order, the order of
    /// [`Plan::iter`], if the plan has the class.
    pub fn position(&self, class: ClassId) -> Option<usize> {
        self.table.position(class)
    }

    /// The class plan at `position` in class order.
    ///
    /// # Panics
    ///
    /// Panics if `position` is not below [`Plan::len`].
    pub fn class_at(&self, position: usize) -> &ClassPlan {
        &self.classes[position]
    }

    /// Iterates over all class plans in class order.
    pub fn iter(&self) -> impl Iterator<Item = &ClassPlan> {
        self.classes.iter()
    }

    /// Number of planned classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Whether the plan has no classes.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Total number of embedding columns across classes.
    pub fn total_columns(&self) -> usize {
        self.classes.iter().map(|c| c.columns.len()).sum()
    }

    /// Demand-weighted mean rejected fraction (plan-level rejection rate).
    pub fn planned_rejection_fraction(&self) -> f64 {
        let total: f64 = self.classes.iter().map(|c| c.expected_demand).sum();
        if total == 0.0 {
            return 0.0;
        }
        self.classes
            .iter()
            .map(|c| c.rejected_fraction * c.expected_demand)
            .sum::<f64>()
            / total
    }
}

/// The class plans, in class order.
impl IntoIterator for Plan {
    type Item = ClassPlan;
    type IntoIter = std::vec::IntoIter<ClassPlan>;

    fn into_iter(self) -> Self::IntoIter {
        self.classes.into_iter()
    }
}

/// The residual plan `Res(y, t, x)` as per-column budget ledgers.
///
/// Planned allocations consume budget; departures of planned requests
/// release it (Eq. 17 counts only active `R_PLAN` requests). Non-planned
/// ("borrowed") allocations never touch the ledger. A class the plan
/// does not have has no columns: nothing fits it, and consuming or
/// releasing its budget does nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanLedger {
    /// The plan's class table: `residual` and `budgets` are by its
    /// positions.
    table: Arc<ClassTable>,
    residual: Vec<Vec<f64>>,
    budgets: Vec<Vec<f64>>,
}

impl PlanLedger {
    /// Creates a fresh ledger with full budgets.
    pub fn new(plan: &Plan) -> Self {
        let budgets: Vec<Vec<f64>> = plan
            .iter()
            .map(|cp| cp.columns.iter().map(|c| c.budget).collect())
            .collect();
        Self {
            table: Arc::clone(&plan.table),
            residual: budgets.clone(),
            budgets,
        }
    }

    /// The residual budgets of a class's columns.
    fn residuals(&self, class: ClassId) -> Option<&[f64]> {
        self.table.position(class).map(|at| &self.residual[at][..])
    }

    /// The residual budget of a column.
    pub fn residual(&self, class: ClassId, column: usize) -> f64 {
        self.residuals(class)
            .and_then(|v| v.get(column))
            .copied()
            .unwrap_or(0.0)
    }

    /// The column fully fitting `demand` with the lowest unit cost
    /// (columns are cost-sorted, so the first fitting index wins) —
    /// the `PLAN EMBED` full-fit test (Eq. 19).
    pub fn full_fit(&self, class: ClassId, demand: f64) -> Option<usize> {
        let residuals = self.residuals(class)?;
        residuals.iter().position(|&r| r + BUDGET_EPS >= demand)
    }

    /// Column indices with any positive residual, sorted by descending
    /// residual — the partial-fit ("borrowing") candidates (Alg. 2 l. 27).
    pub fn partial_candidates(&self, class: ClassId) -> Vec<usize> {
        let Some(residuals) = self.residuals(class) else {
            return Vec::new();
        };
        let mut idx: Vec<usize> = (0..residuals.len())
            .filter(|&i| residuals[i] > BUDGET_EPS)
            .collect();
        idx.sort_by(|&a, &b| {
            residuals[b]
                .partial_cmp(&residuals[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        idx
    }

    /// Consumes budget for a planned allocation.
    pub fn consume(&mut self, class: ClassId, column: usize, demand: f64) {
        let Some(at) = self.table.position(class) else {
            return;
        };
        if let Some(r) = self.residual[at].get_mut(column) {
            *r = (*r - demand).max(0.0);
        }
    }

    /// Releases budget when a planned allocation departs (never exceeds
    /// the original budget).
    pub fn release(&mut self, class: ClassId, column: usize, demand: f64) {
        let Some(at) = self.table.position(class) else {
            return;
        };
        if let (Some(r), Some(&cap)) = (
            self.residual[at].get_mut(column),
            self.budgets[at].get(column),
        ) {
            *r = (*r + demand).min(cap);
        }
    }

    /// The number of planned classes tracked.
    pub fn class_count(&self) -> usize {
        self.budgets.len()
    }

    /// Whether all residuals are within `[0, budget]` (test invariant).
    pub fn check_invariants(&self) -> bool {
        self.residual.iter().zip(&self.budgets).all(|(v, budgets)| {
            v.iter()
                .zip(budgets)
                .all(|(&r, &b)| (-BUDGET_EPS..=b + BUDGET_EPS).contains(&r))
        })
    }
}

/// Checkpointing: residuals, then budgets, each in the encoding of a
/// `BTreeMap<ClassId, Vec<f64>>` (a count, then every class with its
/// columns in class order — the order of the positions). Restoring
/// checks that the blob names this ledger's classes with the same
/// column counts and bit-equal budgets — the ledger of this plan —
/// before replacing anything.
impl Snapshot for PlanLedger {
    fn snapshot(&self) -> StateBlob {
        let mut w = StateWriter::new();
        for by_position in [&self.residual, &self.budgets] {
            w.write_usize(by_position.len());
            for (class, columns) in self.table.ids.iter().zip(by_position) {
                w.write(class);
                w.write(columns);
            }
        }
        w.finish()
    }

    fn restore(&mut self, blob: &StateBlob) -> Result<(), StateError> {
        let mut r = StateReader::new(blob);
        let residual: BTreeMap<ClassId, Vec<f64>> = r.read()?;
        let budgets: BTreeMap<ClassId, Vec<f64>> = r.read()?;
        r.finish()?;
        let same_shape = |m: &BTreeMap<ClassId, Vec<f64>>| {
            m.len() == self.budgets.len()
                && m.iter()
                    .zip(self.table.ids.iter().zip(&self.budgets))
                    .all(|((c, v), (mine, b))| c == mine && v.len() == b.len())
        };
        if !same_shape(&budgets) || !same_shape(&residual) {
            return Err(StateError::Mismatch {
                expected: format!("plan ledger with {} classes", self.budgets.len()),
                found: format!("blob with {} classes", budgets.len()),
            });
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let differs = budgets
            .iter()
            .zip(&self.budgets)
            .find(|((_, theirs), mine)| bits(theirs) != bits(mine));
        if let Some(((class, _), _)) = differs {
            return Err(StateError::Mismatch {
                expected: "the budgets of this ledger's plan".into(),
                found: format!("other budgets for class {class}"),
            });
        }
        self.residual = residual.into_values().collect();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vne_model::ids::{AppId, NodeId};

    fn column(budget: f64, cost: f64) -> PlannedColumn {
        PlannedColumn {
            embedding: Embedding::new(vec![NodeId(0)], vec![]),
            footprint: Footprint::default(),
            share: budget / 10.0,
            budget,
            unit_cost: cost,
        }
    }

    fn plan_one_class() -> (Plan, ClassId) {
        let class = ClassId::new(AppId(0), NodeId(1));
        let mut plan = Plan::empty();
        plan.insert(ClassPlan {
            class,
            expected_demand: 10.0,
            rejected_fraction: 0.2,
            columns: vec![column(5.0, 1.0), column(3.0, 2.0)],
        });
        (plan, class)
    }

    #[test]
    fn guaranteed_demand() {
        let (plan, class) = plan_one_class();
        assert!((plan.class(class).unwrap().guaranteed_demand() - 8.0).abs() < 1e-12);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.total_columns(), 2);
        assert!((plan.planned_rejection_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_plan() {
        let plan = Plan::empty();
        assert!(plan.is_empty());
        assert_eq!(plan.planned_rejection_fraction(), 0.0);
        let ledger = PlanLedger::new(&plan);
        assert_eq!(
            ledger.full_fit(ClassId::new(AppId(0), NodeId(0)), 1.0),
            None
        );
        assert!(ledger
            .partial_candidates(ClassId::new(AppId(0), NodeId(0)))
            .is_empty());
    }

    #[test]
    fn full_fit_prefers_cheapest_column() {
        let (plan, class) = plan_one_class();
        let ledger = PlanLedger::new(&plan);
        // Demand 2 fits both; column 0 (cheaper) wins.
        assert_eq!(ledger.full_fit(class, 2.0), Some(0));
        // Demand 4 only fits column 0.
        assert_eq!(ledger.full_fit(class, 4.0), Some(0));
        // Demand 6 fits nothing.
        assert_eq!(ledger.full_fit(class, 6.0), None);
    }

    #[test]
    fn consume_release_cycle() {
        let (plan, class) = plan_one_class();
        let mut ledger = PlanLedger::new(&plan);
        ledger.consume(class, 0, 4.0);
        assert!((ledger.residual(class, 0) - 1.0).abs() < 1e-12);
        assert_eq!(ledger.full_fit(class, 2.0), Some(1));
        ledger.release(class, 0, 4.0);
        assert!((ledger.residual(class, 0) - 5.0).abs() < 1e-12);
        assert!(ledger.check_invariants());
    }

    #[test]
    fn release_never_exceeds_budget() {
        let (plan, class) = plan_one_class();
        let mut ledger = PlanLedger::new(&plan);
        ledger.release(class, 0, 100.0);
        assert!((ledger.residual(class, 0) - 5.0).abs() < 1e-12);
        assert!(ledger.check_invariants());
    }

    #[test]
    fn partial_candidates_sorted_by_residual() {
        let (plan, class) = plan_one_class();
        let mut ledger = PlanLedger::new(&plan);
        assert_eq!(ledger.partial_candidates(class), vec![0, 1]);
        ledger.consume(class, 0, 4.5); // residuals: 0.5 and 3.0
        assert_eq!(ledger.partial_candidates(class), vec![1, 0]);
        ledger.consume(class, 0, 0.5);
        assert_eq!(ledger.partial_candidates(class), vec![1]);
    }

    #[test]
    fn ledger_snapshot_roundtrips_and_validates() {
        let (plan, class) = plan_one_class();
        let mut ledger = PlanLedger::new(&plan);
        ledger.consume(class, 0, 4.0);
        ledger.consume(class, 1, 1.0);
        let blob = ledger.snapshot();
        let mut fresh = PlanLedger::new(&plan);
        fresh.restore(&blob).unwrap();
        assert_eq!(fresh, ledger);
        assert_eq!(fresh.snapshot(), blob);
        assert_eq!(fresh.class_count(), 1);
        // A ledger over a different plan shape rejects the blob.
        let mut empty = PlanLedger::new(&Plan::empty());
        assert!(matches!(
            empty.restore(&blob),
            Err(StateError::Mismatch { .. })
        ));
    }

    /// A blob of the same classes and column counts but other budget
    /// bits belongs to another plan and is refused.
    #[test]
    fn ledger_restore_refuses_other_budgets() {
        let (plan, class) = plan_one_class();
        let mut ledger = PlanLedger::new(&plan);
        ledger.consume(class, 0, 4.0);
        let mut other_plan = plan.clone();
        let mut class_plan = other_plan.class(class).unwrap().clone();
        class_plan.columns[1].budget = f64::from_bits(3.0f64.to_bits() + 1);
        other_plan.insert(class_plan);
        let blob = PlanLedger::new(&other_plan).snapshot();
        let before = ledger.snapshot();
        match ledger.restore(&blob) {
            Err(StateError::Mismatch { found, .. }) => {
                assert_eq!(found, "other budgets for class a0@n1");
            }
            other => panic!("another plan's budgets restored: {other:?}"),
        }
        assert_eq!(ledger.snapshot(), before);
    }

    #[test]
    fn unknown_class_is_harmless() {
        let (plan, _) = plan_one_class();
        let mut ledger = PlanLedger::new(&plan);
        let ghost = ClassId::new(AppId(9), NodeId(9));
        assert_eq!(ledger.residual(ghost, 0), 0.0);
        ledger.consume(ghost, 0, 1.0);
        ledger.release(ghost, 0, 1.0);
        assert!(ledger.check_invariants());
    }

    /// The ledger as two `ClassId`-keyed `BTreeMap`s, the way it was
    /// before the dense class table — the oracle of
    /// `ledger_equals_the_class_keyed_maps`.
    struct MapLedger {
        residual: BTreeMap<ClassId, Vec<f64>>,
        budgets: BTreeMap<ClassId, Vec<f64>>,
    }

    impl MapLedger {
        fn new(plan: &Plan) -> Self {
            let budgets: BTreeMap<ClassId, Vec<f64>> = plan
                .iter()
                .map(|cp| (cp.class, cp.columns.iter().map(|c| c.budget).collect()))
                .collect();
            Self {
                residual: budgets.clone(),
                budgets,
            }
        }

        fn residual(&self, class: ClassId, column: usize) -> f64 {
            self.residual
                .get(&class)
                .and_then(|v| v.get(column))
                .copied()
                .unwrap_or(0.0)
        }

        fn full_fit(&self, class: ClassId, demand: f64) -> Option<usize> {
            let residuals = self.residual.get(&class)?;
            residuals.iter().position(|&r| r + BUDGET_EPS >= demand)
        }

        fn partial_candidates(&self, class: ClassId) -> Vec<usize> {
            let Some(residuals) = self.residual.get(&class) else {
                return Vec::new();
            };
            let mut idx: Vec<usize> = (0..residuals.len())
                .filter(|&i| residuals[i] > BUDGET_EPS)
                .collect();
            idx.sort_by(|&a, &b| {
                residuals[b]
                    .partial_cmp(&residuals[a])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            idx
        }

        fn consume(&mut self, class: ClassId, column: usize, demand: f64) {
            if let Some(v) = self.residual.get_mut(&class) {
                if let Some(r) = v.get_mut(column) {
                    *r = (*r - demand).max(0.0);
                }
            }
        }

        fn release(&mut self, class: ClassId, column: usize, demand: f64) {
            let cap = self
                .budgets
                .get(&class)
                .and_then(|v| v.get(column))
                .copied()
                .unwrap_or(0.0);
            if let Some(v) = self.residual.get_mut(&class) {
                if let Some(r) = v.get_mut(column) {
                    *r = (*r + demand).min(cap);
                }
            }
        }

        fn snapshot(&self) -> StateBlob {
            let mut w = StateWriter::new();
            w.write(&self.residual);
            w.write(&self.budgets);
            w.finish()
        }
    }

    /// Planned classes `(app, ingress, column budgets)`, inserted in the
    /// generated order: repeats replace, and a class may have no column.
    fn arb_classes() -> impl Strategy<Value = Vec<(u32, u32, Vec<f64>)>> {
        let budgets = proptest::collection::vec(0.0f64..10.0, 0..4);
        proptest::collection::vec((0u32..3, 0u32..6, budgets), 0..10)
    }

    /// One ledger call `(kind, app, ingress, column, demand)`; the class
    /// and column ranges reach past every generated plan's.
    fn arb_ops() -> impl Strategy<Value = Vec<(u8, u32, u32, usize, f64)>> {
        proptest::collection::vec((0u8..6, 0u32..5, 0u32..8, 0usize..5, 0.0f64..8.0), 0..60)
    }

    proptest! {
        /// The plan's class table and the ledger over it against the
        /// class-keyed maps: over random sparse class sets and random
        /// call sequences — ghost classes past the table's bounds and
        /// columns past a class's last included — every answer, every
        /// residual bit and every snapshot byte are equal, and a blob
        /// the maps wrote restores to the same bytes.
        #[test]
        fn ledger_equals_the_class_keyed_maps(classes in arb_classes(), ops in arb_ops()) {
            let mut plan = Plan::empty();
            let mut by_class: BTreeMap<ClassId, ClassPlan> = BTreeMap::new();
            for (app, ingress, budgets) in classes {
                let class_plan = ClassPlan {
                    class: ClassId::new(AppId(app), NodeId(ingress)),
                    expected_demand: budgets.iter().sum(),
                    rejected_fraction: 0.0,
                    columns: budgets.iter().map(|&b| column(b, b)).collect(),
                };
                by_class.insert(class_plan.class, class_plan.clone());
                plan.insert(class_plan);
            }
            prop_assert_eq!(plan.len(), by_class.len());
            prop_assert!(plan.iter().eq(by_class.values()));
            let mut in_class_order = Plan::empty();
            by_class.values().for_each(|cp| in_class_order.insert(cp.clone()));
            prop_assert_eq!(&in_class_order, &plan);
            for app in 0..5 {
                for ingress in 0..8 {
                    let class = ClassId::new(AppId(app), NodeId(ingress));
                    prop_assert_eq!(plan.class(class), by_class.get(&class));
                }
            }

            let mut ledger = PlanLedger::new(&plan);
            let mut oracle = MapLedger::new(&plan);
            prop_assert_eq!(ledger.snapshot(), oracle.snapshot());
            for (kind, app, ingress, col, demand) in ops {
                let class = ClassId::new(AppId(app), NodeId(ingress));
                match kind {
                    0 => prop_assert_eq!(ledger.full_fit(class, demand), oracle.full_fit(class, demand)),
                    1 => prop_assert_eq!(ledger.partial_candidates(class), oracle.partial_candidates(class)),
                    2 => {
                        ledger.consume(class, col, demand);
                        oracle.consume(class, col, demand);
                    }
                    3 => {
                        ledger.release(class, col, demand);
                        oracle.release(class, col, demand);
                    }
                    4 => prop_assert_eq!(
                        ledger.residual(class, col).to_bits(),
                        oracle.residual(class, col).to_bits()
                    ),
                    _ => {
                        let blob = oracle.snapshot();
                        prop_assert_eq!(ledger.snapshot().as_bytes(), blob.as_bytes());
                        let mut restored = PlanLedger::new(&plan);
                        restored.restore(&blob).unwrap();
                        prop_assert_eq!(restored.snapshot().as_bytes(), blob.as_bytes());
                    }
                }
                prop_assert!(ledger.check_invariants());
            }
            prop_assert_eq!(ledger.snapshot(), oracle.snapshot());
        }
    }
}
