//! Adversarial workloads and substrate-churn schedules.
//!
//! The scenario suite stresses the online algorithms with inputs crafted
//! against their assumptions instead of the benign Table III mixes:
//!
//! * [`revenue_burst`] — revenue-concentrated bursts: a calm background
//!   punctuated by periodic high-demand bursts aimed at one hot edge
//!   node, the worst case for threshold-style admission;
//! * [`lifetime_cliff`] — every request departs on the next lifetime
//!   *cliff* boundary, synchronizing mass departures (capacity swings
//!   from full to empty in one slot);
//! * [`plan_adversarial`] — all demand lands on the classes a given
//!   time-varying plan allocated *least* for, the worst case for
//!   plan-guided algorithms;
//! * [`Modulated`] — stateless arrival-rate modulators (flash crowds,
//!   diurnal swings) layered over any slot-event stream by id-hash
//!   thinning;
//! * [`ChurnSchedule`] / [`with_churn`] — deterministic substrate-churn
//!   schedules (link outages, node maintenance windows, capacity
//!   drains) injected into any slot-event stream.
//!
//! Everything here is lazy, deterministic and resumable. The standalone
//! generators derive one independent sub-RNG *per slot*
//! ([`crate::rng::SeededRng::derive`]) and use arithmetic per-slot
//! request counts, so [`AdversaryStream::skip_to`] is pure arithmetic —
//! no RNG replay — and a resumed stream is byte-identical to the suffix
//! of a full run. The modulators and churn schedules are stateless
//! per-slot maps, so they commute with `skip_to` on the stream below
//! them.

use std::collections::BTreeMap;

use vne_model::app::AppSet;
use vne_model::churn::ChurnEvent;
use vne_model::ids::{AppId, ClassId, LinkId, NodeId, RequestId};
use vne_model::request::{Request, Slot, SlotEvents};
use vne_model::substrate::SubstrateNetwork;

use crate::dist::{Exponential, Normal};
use crate::rng::SeededRng;

/// The builtin adversarial workload profiles, as named by scenario
/// configurations (`fig_adversarial`). The first three replace the base
/// trace generator; the last two modulate it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversaryProfile {
    /// Periodic revenue-concentrated bursts at the hottest edge node.
    RevenueBurst,
    /// Departures synchronized on lifetime-cliff boundaries.
    LifetimeCliff,
    /// Demand concentrated on the least-planned request classes.
    PlanAdversarial,
    /// Flash-crowd thinning: quiet background, full-rate crowd windows.
    FlashCrowd,
    /// Diurnal sinusoidal arrival-rate modulation.
    Diurnal,
}

impl AdversaryProfile {
    /// All builtin profiles, in scenario-matrix order.
    pub const ALL: [AdversaryProfile; 5] = [
        AdversaryProfile::RevenueBurst,
        AdversaryProfile::LifetimeCliff,
        AdversaryProfile::PlanAdversarial,
        AdversaryProfile::FlashCrowd,
        AdversaryProfile::Diurnal,
    ];

    /// Stable scenario label (JSON keys, checkpoint configs).
    pub fn label(&self) -> &'static str {
        match self {
            AdversaryProfile::RevenueBurst => "revenue_burst",
            AdversaryProfile::LifetimeCliff => "lifetime_cliff",
            AdversaryProfile::PlanAdversarial => "plan_adversarial",
            AdversaryProfile::FlashCrowd => "flash_crowd",
            AdversaryProfile::Diurnal => "diurnal",
        }
    }
}

/// The builtin substrate-churn profiles. All windows are deterministic
/// in the slot number, so a resumed stream regenerates the exact same
/// schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChurnProfile {
    /// Every `period` slots, `count` links fail for `len` slots
    /// (rotating over the link set).
    LinkOutages {
        /// Window period in slots.
        period: Slot,
        /// Outage length in slots (`< period`).
        len: Slot,
        /// Links down per window.
        count: usize,
    },
    /// Every `period` slots one node (rotating over all nodes) enters a
    /// maintenance window of `len` slots at zero capacity.
    NodeMaintenance {
        /// Window period in slots.
        period: Slot,
        /// Maintenance length in slots (`< period`).
        len: Slot,
    },
    /// Every `period` slots all node capacities drain to `factor` of
    /// nameplate for `len` slots.
    CapacityDrain {
        /// Window period in slots.
        period: Slot,
        /// Drain length in slots (`< period`).
        len: Slot,
        /// Capacity factor during the drain, in `[0, 1]`.
        factor: f64,
    },
}

impl ChurnProfile {
    /// Stable scenario label (JSON keys, checkpoint configs).
    pub fn label(&self) -> &'static str {
        match self {
            ChurnProfile::LinkOutages { .. } => "link_outages",
            ChurnProfile::NodeMaintenance { .. } => "node_maintenance",
            ChurnProfile::CapacityDrain { .. } => "capacity_drain",
        }
    }
}

/// Parameters of the [`revenue_burst`] adversary.
#[derive(Debug, Clone, PartialEq)]
pub struct RevenueBurstConfig {
    /// Number of time slots.
    pub slots: Slot,
    /// Background arrivals per slot (spread over all edge nodes).
    pub background_per_slot: usize,
    /// A burst starts every `burst_period` slots.
    pub burst_period: Slot,
    /// Burst length in slots (`< burst_period`).
    pub burst_len: Slot,
    /// Extra arrivals per burst slot, all at the hot edge node.
    pub burst_per_slot: usize,
    /// Burst demand multiplier over the background mean.
    pub burst_demand_factor: f64,
    /// Mean background demand.
    pub demand_mean: f64,
    /// Demand standard deviation.
    pub demand_std: f64,
    /// Mean duration in slots.
    pub duration_mean: f64,
    /// Stream seed.
    pub seed: u64,
}

impl Default for RevenueBurstConfig {
    fn default() -> Self {
        Self {
            slots: 600,
            background_per_slot: 4,
            burst_period: 50,
            burst_len: 10,
            burst_per_slot: 20,
            burst_demand_factor: 3.0,
            demand_mean: 10.0,
            demand_std: 2.0,
            duration_mean: 10.0,
            seed: 0xADF5,
        }
    }
}

/// Parameters of the [`lifetime_cliff`] adversary.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeCliffConfig {
    /// Number of time slots.
    pub slots: Slot,
    /// Arrivals per slot.
    pub per_slot: usize,
    /// Cliff period: every request departs on the next multiple of this.
    pub cliff: Slot,
    /// Mean demand.
    pub demand_mean: f64,
    /// Demand standard deviation.
    pub demand_std: f64,
    /// Stream seed.
    pub seed: u64,
}

impl Default for LifetimeCliffConfig {
    fn default() -> Self {
        Self {
            slots: 600,
            per_slot: 10,
            cliff: 40,
            demand_mean: 10.0,
            demand_std: 2.0,
            seed: 0xC11F,
        }
    }
}

/// Parameters of the [`plan_adversarial`] adversary.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanAdversarialConfig {
    /// Number of time slots.
    pub slots: Slot,
    /// Arrivals per slot.
    pub per_slot: usize,
    /// Number of least-planned classes the demand concentrates on.
    pub target_classes: usize,
    /// Mean demand.
    pub demand_mean: f64,
    /// Demand standard deviation.
    pub demand_std: f64,
    /// Mean duration in slots.
    pub duration_mean: f64,
    /// Stream seed.
    pub seed: u64,
}

impl Default for PlanAdversarialConfig {
    fn default() -> Self {
        Self {
            slots: 600,
            per_slot: 10,
            target_classes: 3,
            demand_mean: 10.0,
            demand_std: 2.0,
            duration_mean: 10.0,
            seed: 0x91A7,
        }
    }
}

/// How one arrival of an [`AdversaryStream`] is shaped.
#[derive(Debug, Clone)]
enum AdversaryMode {
    RevenueBurst {
        period: Slot,
        len: Slot,
        extra: usize,
        factor: f64,
        hot: NodeId,
    },
    LifetimeCliff {
        cliff: Slot,
    },
    PlanTargets {
        targets: Vec<ClassId>,
    },
}

/// A lazy adversarial slot-event stream (see the module docs).
///
/// Per-slot request counts are arithmetic in the slot number and every
/// slot samples from an independent derived sub-RNG, so
/// [`AdversaryStream::skip_to`] never replays random draws.
#[derive(Debug, Clone)]
pub struct AdversaryStream {
    slots: Slot,
    next_slot: Slot,
    next_id: u64,
    per_slot: usize,
    edge_nodes: Vec<NodeId>,
    app_count: usize,
    demand: Normal,
    duration: Exponential,
    base: SeededRng,
    mode: AdversaryMode,
}

impl AdversaryStream {
    /// Requests emitted on slot `t` (arithmetic, no RNG).
    fn count_at(&self, t: Slot) -> usize {
        match &self.mode {
            AdversaryMode::RevenueBurst {
                period, len, extra, ..
            } => {
                if t % period < *len {
                    self.per_slot + extra
                } else {
                    self.per_slot
                }
            }
            _ => self.per_slot,
        }
    }

    /// Fast-forwards the stream so the next yielded event is `slot`
    /// (clamped to the horizon) — the resume path of checkpointed runs.
    /// Pure arithmetic: per-slot counts are deterministic and each slot
    /// draws from its own derived sub-RNG, so nothing is replayed.
    pub fn skip_to(&mut self, slot: Slot) {
        let to = slot.min(self.slots);
        while self.next_slot < to {
            self.next_id += self.count_at(self.next_slot) as u64;
            self.next_slot += 1;
        }
    }
}

impl Iterator for AdversaryStream {
    type Item = SlotEvents;

    fn next(&mut self) -> Option<SlotEvents> {
        if self.next_slot >= self.slots {
            return None;
        }
        let t = self.next_slot;
        self.next_slot += 1;
        let count = self.count_at(t);
        let mut rng = self.base.derive(u64::from(t));
        let mut arrivals = Vec::with_capacity(count);
        for i in 0..count {
            let id = RequestId(self.next_id);
            self.next_id += 1;
            let mut demand = self.demand.sample_truncated(&mut rng, 0.5);
            let mut duration = self.duration.sample(&mut rng).round().max(1.0) as Slot;
            use rand::Rng;
            let (ingress, app) = match &self.mode {
                AdversaryMode::RevenueBurst { factor, hot, .. } => {
                    let burst = i >= self.per_slot;
                    if burst {
                        demand *= factor;
                        (*hot, AppId::from_index(rng.gen_range(0..self.app_count)))
                    } else {
                        let node = self.edge_nodes[rng.gen_range(0..self.edge_nodes.len())];
                        (node, AppId::from_index(rng.gen_range(0..self.app_count)))
                    }
                }
                AdversaryMode::LifetimeCliff { cliff } => {
                    // Depart exactly on the next cliff boundary.
                    duration = cliff - (t % cliff);
                    let node = self.edge_nodes[rng.gen_range(0..self.edge_nodes.len())];
                    (node, AppId::from_index(rng.gen_range(0..self.app_count)))
                }
                AdversaryMode::PlanTargets { targets } => {
                    let class = targets[(id.0 as usize) % targets.len()];
                    (class.ingress, class.app)
                }
            };
            arrivals.push(Request {
                id,
                arrival: t,
                duration,
                ingress,
                app,
                demand,
            });
        }
        Some(SlotEvents {
            slot: t,
            arrivals,
            churn: Vec::new(),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.slots - self.next_slot) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for AdversaryStream {}

fn edge_nodes_checked(substrate: &SubstrateNetwork, apps: &AppSet) -> Vec<NodeId> {
    let edge_nodes = substrate.edge_nodes();
    assert!(!edge_nodes.is_empty(), "substrate has no edge nodes");
    assert!(!apps.is_empty(), "application set is empty");
    edge_nodes
}

/// Creates the revenue-concentrated burst adversary: a calm background
/// over all edge nodes plus, every `burst_period` slots, `burst_len`
/// slots of high-demand arrivals aimed at the first (hottest) edge node.
///
/// # Panics
///
/// Panics if the substrate has no edge nodes, `apps` is empty, or
/// `burst_len >= burst_period`.
pub fn revenue_burst(
    substrate: &SubstrateNetwork,
    apps: &AppSet,
    config: &RevenueBurstConfig,
) -> AdversaryStream {
    let edge_nodes = edge_nodes_checked(substrate, apps);
    assert!(
        config.burst_len < config.burst_period,
        "burst length {} must be shorter than the period {}",
        config.burst_len,
        config.burst_period
    );
    let hot = edge_nodes[0];
    AdversaryStream {
        slots: config.slots,
        next_slot: 0,
        next_id: 0,
        per_slot: config.background_per_slot,
        edge_nodes,
        app_count: apps.len(),
        demand: Normal::new(config.demand_mean, config.demand_std),
        duration: Exponential::new(config.duration_mean),
        base: SeededRng::new(config.seed),
        mode: AdversaryMode::RevenueBurst {
            period: config.burst_period,
            len: config.burst_len,
            extra: config.burst_per_slot,
            factor: config.burst_demand_factor,
            hot,
        },
    }
}

/// Creates the lifetime-cliff adversary: every request's departure is
/// aligned to the next multiple of `cliff`, synchronizing mass
/// departures.
///
/// # Panics
///
/// Panics if the substrate has no edge nodes, `apps` is empty, or
/// `cliff == 0`.
pub fn lifetime_cliff(
    substrate: &SubstrateNetwork,
    apps: &AppSet,
    config: &LifetimeCliffConfig,
) -> AdversaryStream {
    let edge_nodes = edge_nodes_checked(substrate, apps);
    assert!(config.cliff > 0, "cliff period must be positive");
    AdversaryStream {
        slots: config.slots,
        next_slot: 0,
        next_id: 0,
        per_slot: config.per_slot,
        edge_nodes,
        app_count: apps.len(),
        demand: Normal::new(config.demand_mean, config.demand_std),
        duration: Exponential::new(1.0), // unused: cliff overrides
        base: SeededRng::new(config.seed),
        mode: AdversaryMode::LifetimeCliff {
            cliff: config.cliff,
        },
    }
}

/// Creates the plan-adversarial workload: ranks the `(edge node, app)`
/// classes by their share in `plan` (missing classes count as zero) and
/// concentrates all demand on the `target_classes` *least-planned*
/// ones — the worst case for a plan-guided algorithm, which reserved
/// capacity everywhere else.
///
/// `plan` is a plain per-class share summary; the adversary only needs
/// the ranking, not the plan object itself.
///
/// # Panics
///
/// Panics if the substrate has no edge nodes, `apps` is empty, or
/// `target_classes == 0`.
pub fn plan_adversarial(
    substrate: &SubstrateNetwork,
    apps: &AppSet,
    plan: &BTreeMap<ClassId, f64>,
    config: &PlanAdversarialConfig,
) -> AdversaryStream {
    let edge_nodes = edge_nodes_checked(substrate, apps);
    assert!(config.target_classes > 0, "need at least one target class");
    // Rank the full class universe by planned share, ascending; ties
    // break on the class id so the ranking is deterministic.
    let mut ranked: Vec<(f64, ClassId)> = edge_nodes
        .iter()
        .flat_map(|&v| {
            (0..apps.len()).map(move |a| {
                let class = ClassId::new(AppId::from_index(a), v);
                (plan.get(&class).copied().unwrap_or(0.0), class)
            })
        })
        .collect();
    ranked.sort_by(|(pa, ca), (pb, cb)| pa.partial_cmp(pb).unwrap().then(ca.cmp(cb)));
    let targets: Vec<ClassId> = ranked
        .into_iter()
        .take(config.target_classes)
        .map(|(_, c)| c)
        .collect();
    AdversaryStream {
        slots: config.slots,
        next_slot: 0,
        next_id: 0,
        per_slot: config.per_slot,
        edge_nodes,
        app_count: apps.len(),
        demand: Normal::new(config.demand_mean, config.demand_std),
        duration: Exponential::new(config.duration_mean),
        base: SeededRng::new(config.seed),
        mode: AdversaryMode::PlanTargets { targets },
    }
}

/// A stateless arrival-rate modulation over a slot-event stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Modulation {
    /// Keep probability `base_keep` outside crowd windows, 1 inside
    /// (every `period` slots, for `len` slots).
    FlashCrowd {
        /// Window period in slots.
        period: Slot,
        /// Crowd length in slots (`< period`).
        len: Slot,
        /// Keep probability outside crowd windows, in `[0, 1]`.
        base_keep: f64,
    },
    /// Keep probability swings sinusoidally between `low` and `high`
    /// with the given period.
    Diurnal {
        /// Cycle period in slots.
        period: Slot,
        /// Minimum keep probability.
        low: f64,
        /// Maximum keep probability.
        high: f64,
    },
}

impl Modulation {
    /// The keep probability at slot `t`.
    pub fn keep_probability(&self, t: Slot) -> f64 {
        match *self {
            Modulation::FlashCrowd {
                period,
                len,
                base_keep,
            } => {
                if t % period < len {
                    1.0
                } else {
                    base_keep
                }
            }
            Modulation::Diurnal { period, low, high } => {
                let phase = f64::from(t % period) / f64::from(period);
                let s = (phase * std::f64::consts::TAU).sin();
                low + (high - low) * (0.5 + 0.5 * s)
            }
        }
    }
}

/// SplitMix64 finalizer: maps a request id (xor a salt) to a uniform
/// `[0, 1)` coin, independent of every other id.
fn id_coin(id: RequestId, salt: u64) -> f64 {
    let mut z = (id.0 ^ salt).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// A slot-event stream thinned by a [`Modulation`].
///
/// Thinning keeps request `r` iff `hash(r.id ^ salt) < p(slot)`: a
/// pure per-request map with no RNG state, so the modulated stream
/// commutes with `skip_to` on the stream below it (resume wraps the
/// skipped inner stream and gets the identical suffix). Surviving ids
/// are a subset of the inner ids, so they stay ascending.
#[derive(Debug, Clone)]
pub struct Modulated<I> {
    inner: I,
    modulation: Modulation,
    salt: u64,
}

impl<I: Iterator<Item = SlotEvents>> Iterator for Modulated<I> {
    type Item = SlotEvents;

    fn next(&mut self) -> Option<SlotEvents> {
        let mut event = self.inner.next()?;
        let p = self.modulation.keep_probability(event.slot);
        event.arrivals.retain(|r| id_coin(r.id, self.salt) < p);
        Some(event)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<I: ExactSizeIterator<Item = SlotEvents>> ExactSizeIterator for Modulated<I> {}

/// Wraps a slot-event stream with an arrival-rate [`Modulation`].
pub fn modulate<I>(inner: I, modulation: Modulation, salt: u64) -> Modulated<I>
where
    I: Iterator<Item = SlotEvents>,
{
    Modulated {
        inner,
        modulation,
        salt,
    }
}

/// A deterministic substrate-churn schedule: maps a slot number to the
/// churn events taking effect there (arithmetic in `t`, no state), so a
/// resumed stream regenerates the identical schedule from any slot.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnSchedule {
    profile: ChurnProfile,
    node_count: usize,
    link_count: usize,
}

impl ChurnSchedule {
    /// Builds the schedule for a profile over a substrate.
    ///
    /// # Panics
    ///
    /// Panics if the profile's window length is not shorter than its
    /// period, or the substrate has no nodes/links to churn.
    pub fn new(profile: ChurnProfile, substrate: &SubstrateNetwork) -> Self {
        let (period, len) = match profile {
            ChurnProfile::LinkOutages { period, len, count } => {
                assert!(count > 0, "link outage must fail at least one link");
                assert!(substrate.link_count() > 0, "substrate has no links");
                (period, len)
            }
            ChurnProfile::NodeMaintenance { period, len } => {
                assert!(substrate.node_count() > 0, "substrate has no nodes");
                (period, len)
            }
            ChurnProfile::CapacityDrain {
                period,
                len,
                factor,
            } => {
                assert!(
                    (0.0..=1.0).contains(&factor),
                    "drain factor {factor} outside [0, 1]"
                );
                assert!(substrate.node_count() > 0, "substrate has no nodes");
                (period, len)
            }
        };
        assert!(len > 0, "churn window must last at least one slot");
        assert!(
            len < period,
            "churn window length {len} must be shorter than the period {period}"
        );
        Self {
            profile,
            node_count: substrate.node_count(),
            link_count: substrate.link_count(),
        }
    }

    /// The profile the schedule was built from.
    pub fn profile(&self) -> ChurnProfile {
        self.profile
    }

    /// The churn events taking effect on slot `t`. Down events fire on
    /// window starts (`t % period == 0`), the matching Up events `len`
    /// slots later; the affected elements rotate with the window index
    /// so successive windows hit different parts of the substrate.
    pub fn events_at(&self, t: Slot) -> Vec<ChurnEvent> {
        match self.profile {
            ChurnProfile::LinkOutages { period, len, count } => {
                let links = |window: Slot| -> Vec<LinkId> {
                    (0..count)
                        .map(|i| {
                            LinkId::from_index((window as usize * count + i) % self.link_count)
                        })
                        .collect()
                };
                if t % period == 0 {
                    links(t / period)
                        .into_iter()
                        .map(ChurnEvent::LinkDown)
                        .collect()
                } else if t % period == len {
                    links(t / period)
                        .into_iter()
                        .map(ChurnEvent::LinkUp)
                        .collect()
                } else {
                    Vec::new()
                }
            }
            ChurnProfile::NodeMaintenance { period, len } => {
                let node = |window: Slot| NodeId::from_index(window as usize % self.node_count);
                if t % period == 0 {
                    vec![ChurnEvent::NodeDown(node(t / period))]
                } else if t % period == len {
                    vec![ChurnEvent::NodeUp(node(t / period))]
                } else {
                    Vec::new()
                }
            }
            ChurnProfile::CapacityDrain {
                period,
                len,
                factor,
            } => {
                if t % period == 0 {
                    (0..self.node_count)
                        .map(|i| ChurnEvent::NodeDrain {
                            node: NodeId::from_index(i),
                            factor,
                        })
                        .collect()
                } else if t % period == len {
                    (0..self.node_count)
                        .map(|i| ChurnEvent::NodeUp(NodeId::from_index(i)))
                        .collect()
                } else {
                    Vec::new()
                }
            }
        }
    }

    /// Whether slot `t` falls inside a churn window (outage,
    /// maintenance or drain in effect).
    pub fn in_window(&self, t: Slot) -> bool {
        let (period, len) = match self.profile {
            ChurnProfile::LinkOutages { period, len, .. } => (period, len),
            ChurnProfile::NodeMaintenance { period, len } => (period, len),
            ChurnProfile::CapacityDrain { period, len, .. } => (period, len),
        };
        t % period < len
    }
}

/// A slot-event stream with a [`ChurnSchedule`]'s events injected.
///
/// Purely per-slot: the schedule is arithmetic in the slot number, so
/// wrapping an already-skipped inner stream yields the identical suffix
/// (resumed runs re-apply past churn from the engine checkpoint, not
/// from the stream).
#[derive(Debug, Clone)]
pub struct WithChurn<I> {
    inner: I,
    schedule: ChurnSchedule,
}

impl<I: Iterator<Item = SlotEvents>> Iterator for WithChurn<I> {
    type Item = SlotEvents;

    fn next(&mut self) -> Option<SlotEvents> {
        let mut event = self.inner.next()?;
        event.churn.extend(self.schedule.events_at(event.slot));
        Some(event)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<I: ExactSizeIterator<Item = SlotEvents>> ExactSizeIterator for WithChurn<I> {}

/// Injects a churn schedule's events into a slot-event stream.
pub fn with_churn<I>(inner: I, schedule: ChurnSchedule) -> WithChurn<I>
where
    I: Iterator<Item = SlotEvents>,
{
    WithChurn { inner, schedule }
}
