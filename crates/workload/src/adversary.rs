//! Adversarial workloads and substrate-churn schedules.
//!
//! The scenario suite stresses the online algorithms with inputs crafted
//! against their assumptions instead of the benign Table III mixes.
//! [`stream`] is the one entry point: it returns an
//! [`AdversaryProfile`]'s online stream, and this module is the one
//! place a profile is defined — its parameters are the private
//! constants beside its generator below, and its seed salt is in
//! `AdversaryProfile::salt`, so a new profile is a change to this
//! module only. Three profiles replace the benign trace:
//!
//! * `revenue_burst` — revenue-concentrated bursts: a calm background
//!   punctuated by periodic high-demand bursts aimed at one hot edge
//!   node, the worst case for threshold-style admission;
//! * `lifetime_cliff` — every request departs on the next lifetime
//!   *cliff* boundary, synchronizing mass departures (capacity swings
//!   from full to empty in one slot);
//! * `plan_adversarial` — all demand lands on the classes a given
//!   time-varying plan allocated *least* for, the worst case for
//!   plan-guided algorithms.
//!
//! Two thin the benign trace by an arrival-rate modulation (id-hash
//! thinning): `flash_crowd` (quiet background, full-rate crowd
//! windows) and `diurnal` (sinusoidal swings).
//!
//! [`ChurnSchedule`] / [`with_churn`] inject deterministic
//! substrate-churn schedules (link outages, node maintenance windows,
//! capacity drains) into any slot-event stream.
//!
//! Everything here is lazy, deterministic and resumable. The replacing
//! generators derive one independent sub-RNG *per slot*
//! ([`crate::rng::SeededRng::derive`]) and use arithmetic per-slot
//! request counts, so starting one at a later slot is pure arithmetic —
//! no RNG replay — and a resumed stream is byte-identical to the suffix
//! of a full run. The modulations and churn schedules are stateless
//! per-slot maps, so they commute with a skip on the stream below
//! them.

use std::collections::BTreeMap;
use std::ops::Range;

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

    /// Mixed into the scenario seed, so every profile draws from its
    /// own stream.
    fn salt(self) -> u64 {
        match self {
            AdversaryProfile::RevenueBurst => 0xADF5,
            AdversaryProfile::LifetimeCliff => 0xC11F,
            AdversaryProfile::PlanAdversarial => 0x91A7,
            AdversaryProfile::FlashCrowd => 0xF1A5,
            AdversaryProfile::Diurnal => 0xD1CE,
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

/// The online stream of `profile` over the slots `slots.start..slots.end`
/// — `slots.end` is the online phase's length, `slots.start` the slot a
/// fresh (0) or resumed run starts from.
///
/// `seed` is the scenario seed; each profile mixes its own salt into
/// it. `base(from)` must return the benign online stream from slot
/// `from` on: only `flash_crowd` and `diurnal` call it, and thin what
/// it yields. `plan_shares()` must return each class's planned share
/// (missing classes count as zero): only `plan_adversarial` calls it,
/// and aims all demand at the least-planned classes.
///
/// # Panics
///
/// For the three replacing profiles: panics if the substrate has no
/// edge nodes or `apps` is empty.
pub fn stream<'a, B>(
    profile: AdversaryProfile,
    substrate: &SubstrateNetwork,
    apps: &AppSet,
    slots: Range<Slot>,
    seed: u64,
    base: impl FnOnce(Slot) -> B,
    plan_shares: impl FnOnce() -> BTreeMap<ClassId, f64>,
) -> Box<dyn Iterator<Item = SlotEvents> + Send + 'a>
where
    B: Iterator<Item = SlotEvents> + Send + 'a,
{
    let seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ profile.salt();
    let thin = |modulation| -> Box<dyn Iterator<Item = SlotEvents> + Send + 'a> {
        Box::new(Modulated {
            inner: base(slots.start),
            modulation,
            salt: seed,
        })
    };
    let mode = match profile {
        AdversaryProfile::RevenueBurst => AdversaryMode::RevenueBurst,
        AdversaryProfile::LifetimeCliff => AdversaryMode::LifetimeCliff,
        AdversaryProfile::PlanAdversarial => AdversaryMode::PlanTargets {
            targets: least_planned(&substrate.edge_nodes(), apps.len(), &plan_shares()),
        },
        AdversaryProfile::FlashCrowd => return thin(FLASH_CROWD),
        AdversaryProfile::Diurnal => return thin(DIURNAL),
    };
    Box::new(AdversaryStream::new(mode, substrate, apps, slots, seed))
}

/// Demand of every generated arrival: `Normal(mean, std)` truncated at
/// 0.5 (`revenue_burst` multiplies its burst arrivals' demand).
const DEMAND_MEAN: f64 = 10.0;
const DEMAND_STD: f64 = 2.0;
/// Mean `Exponential` duration in slots (`lifetime_cliff` overrides it).
const DURATION_MEAN: f64 = 10.0;

/// `revenue_burst`: 4 background arrivals per slot over every edge node
/// and, for the first 10 slots of every 50, 20 more at the hottest
/// (first) edge node with 3× the demand.
const BURST_BACKGROUND: usize = 4;
const BURST_PERIOD: Slot = 50;
const BURST_LEN: Slot = 10;
const BURST_EXTRA: usize = 20;
const BURST_DEMAND_FACTOR: f64 = 3.0;

/// `lifetime_cliff` and `plan_adversarial`: arrivals per slot.
const PER_SLOT: usize = 10;

/// `lifetime_cliff`: every request departs on the next multiple of 40.
const CLIFF_PERIOD: Slot = 40;

/// `plan_adversarial`: the number of least-planned classes all demand
/// lands on.
const PLAN_TARGETS: usize = 3;

/// `flash_crowd`: keep a quarter of the arrivals, all of them in the
/// first 8 slots of every 40.
const FLASH_CROWD: Modulation = Modulation::FlashCrowd {
    period: 40,
    len: 8,
    base_keep: 0.25,
};

/// `diurnal`: a keep probability swinging between 0.2 and 1 over 60
/// slots.
const DIURNAL: Modulation = Modulation::Diurnal {
    period: 60,
    low: 0.2,
    high: 1.0,
};

/// The [`PLAN_TARGETS`] `(edge node, app)` classes with the least
/// planned share, ranked ascending; ties break on the class id so the
/// ranking is deterministic.
fn least_planned(
    edge_nodes: &[NodeId],
    app_count: usize,
    shares: &BTreeMap<ClassId, f64>,
) -> Vec<ClassId> {
    let mut ranked: Vec<(f64, ClassId)> = edge_nodes
        .iter()
        .flat_map(|&v| {
            (0..app_count).map(move |a| {
                let class = ClassId::new(AppId::from_index(a), v);
                (shares.get(&class).copied().unwrap_or(0.0), class)
            })
        })
        .collect();
    ranked.sort_by(|(pa, ca), (pb, cb)| pa.partial_cmp(pb).unwrap().then(ca.cmp(cb)));
    ranked
        .into_iter()
        .take(PLAN_TARGETS)
        .map(|(_, c)| c)
        .collect()
}

/// How one arrival of an [`AdversaryStream`] is shaped.
#[derive(Debug, Clone)]
enum AdversaryMode {
    RevenueBurst,
    LifetimeCliff,
    PlanTargets { targets: Vec<ClassId> },
}

/// The lazy generator of the three replacing profiles.
///
/// Per-slot request counts are arithmetic in the slot number and every
/// slot samples from an independent derived sub-RNG, so
/// [`AdversaryStream::skip_to`] never replays random draws.
#[derive(Debug, Clone)]
struct AdversaryStream {
    slots: Slot,
    next_slot: Slot,
    next_id: u64,
    edge_nodes: Vec<NodeId>,
    app_count: usize,
    demand: Normal,
    duration: Exponential,
    base: SeededRng,
    mode: AdversaryMode,
}

impl AdversaryStream {
    /// The generator of `mode` seeded with `seed`, positioned at
    /// `slots.start` (clamped to `slots.end`).
    fn new(
        mode: AdversaryMode,
        substrate: &SubstrateNetwork,
        apps: &AppSet,
        slots: Range<Slot>,
        seed: u64,
    ) -> Self {
        let edge_nodes = substrate.edge_nodes();
        assert!(!edge_nodes.is_empty(), "substrate has no edge nodes");
        assert!(!apps.is_empty(), "application set is empty");
        // The cliff draws a duration per arrival, then overrides it.
        let duration_mean = match mode {
            AdversaryMode::LifetimeCliff => 1.0,
            _ => DURATION_MEAN,
        };
        let mut stream = Self {
            slots: slots.end,
            next_slot: 0,
            next_id: 0,
            edge_nodes,
            app_count: apps.len(),
            demand: Normal::new(DEMAND_MEAN, DEMAND_STD),
            duration: Exponential::new(duration_mean),
            base: SeededRng::new(seed),
            mode,
        };
        stream.skip_to(slots.start);
        stream
    }

    /// Requests emitted on slot `t` (arithmetic, no RNG).
    fn count_at(&self, t: Slot) -> usize {
        match self.mode {
            AdversaryMode::RevenueBurst if t % BURST_PERIOD < BURST_LEN => {
                BURST_BACKGROUND + BURST_EXTRA
            }
            AdversaryMode::RevenueBurst => BURST_BACKGROUND,
            _ => PER_SLOT,
        }
    }

    /// Fast-forwards the stream so the next yielded event is `slot`
    /// (clamped to the horizon). Pure arithmetic: per-slot counts are
    /// deterministic and each slot draws from its own derived sub-RNG,
    /// so nothing is replayed.
    fn skip_to(&mut self, slot: Slot) {
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
                AdversaryMode::RevenueBurst => {
                    if i >= BURST_BACKGROUND {
                        demand *= BURST_DEMAND_FACTOR;
                        let hot = self.edge_nodes[0];
                        (hot, AppId::from_index(rng.gen_range(0..self.app_count)))
                    } else {
                        let node = self.edge_nodes[rng.gen_range(0..self.edge_nodes.len())];
                        (node, AppId::from_index(rng.gen_range(0..self.app_count)))
                    }
                }
                AdversaryMode::LifetimeCliff => {
                    // Depart exactly on the next cliff boundary.
                    duration = CLIFF_PERIOD - (t % CLIFF_PERIOD);
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

/// A stateless arrival-rate modulation over a slot-event stream.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Modulation {
    /// Keep probability `base_keep` outside crowd windows, 1 inside
    /// (every `period` slots, for `len` slots).
    FlashCrowd {
        period: Slot,
        len: Slot,
        base_keep: f64,
    },
    /// Keep probability swings sinusoidally between `low` and `high`
    /// with the given period.
    Diurnal { period: Slot, low: f64, high: f64 },
}

impl Modulation {
    /// The keep probability at slot `t`.
    fn keep_probability(&self, t: Slot) -> f64 {
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
/// commutes with a skip on the stream below it (resume wraps the
/// skipped inner stream and gets the identical suffix). Surviving ids
/// are a subset of the inner ids, so they stay ascending.
#[derive(Debug, Clone)]
struct Modulated<I> {
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
