//! The heap allocations of a steady-state SLOTOFF slot, counted by a
//! global allocator that counts on the thread that asks it to.
//!
//! A slot keeps its master problem and solver across slots, prices a
//! column before it builds one, and keeps its active set in rounding
//! order, so what it allocates is the per-slot plan, the pricing tables
//! and the embeddings of the columns that enter — not stores rebuilt
//! whole every slot. The bound is twice the count this world measured
//! when that was so; churn that comes back fails it.

// A global allocator is an `unsafe impl`; this one forwards to `System`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use vne_model::app::{shapes, AppSet, AppShape};
use vne_model::ids::{AppId, NodeId, RequestId};
use vne_model::policy::PlacementPolicy;
use vne_model::request::{Request, Slot};
use vne_model::substrate::{SubstrateNetwork, Tier};
use vne_olive::algorithm::OnlineAlgorithm;
use vne_olive::colgen::PlanVneConfig;
use vne_olive::slotoff::SlotOff;

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded to `System` unchanged; counting only
// reads a thread-local flag and bumps an atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations `f` makes on this thread.
fn allocations_of<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// Twelve nodes, four per tier, on a ring with a chord from every edge
/// node to a core node; two chains and a tree.
fn world() -> (SubstrateNetwork, AppSet) {
    let mut s = SubstrateNetwork::new("ring");
    let tiers = [
        (Tier::Edge, 200.0, 50.0),
        (Tier::Transport, 500.0, 10.0),
        (Tier::Core, 1500.0, 1.0),
    ];
    let nodes: Vec<NodeId> = (0..12)
        .map(|i| {
            let (tier, capacity, cost) = tiers[i % 3];
            s.add_node(format!("n{i}"), tier, capacity, cost).unwrap()
        })
        .collect();
    for i in 0..12 {
        s.add_link(nodes[i], nodes[(i + 1) % 12], 400.0, 1.0)
            .unwrap();
    }
    for i in (0..12).step_by(3) {
        s.add_link(nodes[i], nodes[(i + 5) % 12], 400.0, 1.0)
            .unwrap();
    }
    let mut apps = AppSet::new();
    let chain = |n, beta| shapes::uniform_chain(n, beta, 2.0).unwrap();
    apps.push("short", AppShape::Chain, chain(2, 4.0)).unwrap();
    apps.push("long", AppShape::Chain, chain(4, 2.0)).unwrap();
    let tree = shapes::two_branch_tree(3, 3.0, 1.0).unwrap();
    apps.push("tree", AppShape::Tree, tree).unwrap();
    (s, apps)
}

/// Six arrivals a slot at the edge nodes, each staying one to eight
/// slots, from a fixed xorshift stream.
fn arrivals(t: Slot, next_id: &mut u64, state: &mut u64) -> Vec<Request> {
    let mut draw = || {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    };
    (0..6)
        .map(|_| {
            *next_id += 1;
            Request {
                id: RequestId(*next_id),
                arrival: t,
                duration: 1 + (draw() % 8) as Slot,
                ingress: NodeId(3 * (draw() % 4) as u32),
                app: AppId((draw() % 3) as u32),
                demand: 0.5 + (draw() % 8) as f64 * 0.5,
            }
        })
        .collect()
}

/// The most any measured slot allocated in a release build: slots 30 to
/// 39, after a warm-up that fills the active set and the solver's stores.
/// A debug build's simplex oracles add about a hundred, `strict-invariants`
/// a few. Twice this stays below what a slot that rebuilds its master
/// allocates here, 1 104 to 1 454 times.
const MEASURED: usize = 283;
/// What a steady-state slot may allocate.
const STEADY_SLOT_BUDGET: usize = 2 * MEASURED;

#[test]
fn a_steady_state_slotoff_slot_stays_within_its_allocation_budget() {
    let (s, apps) = world();
    let mut slotoff = SlotOff::new(s, apps, PlacementPolicy::default(), PlanVneConfig::new(1e4));
    let (mut next_id, mut state) = (0, 0x2545_f491_4f6c_dd1d_u64);
    let mut departing: Vec<Vec<Request>> = vec![Vec::new(); 64];
    let mut most = 0;
    for t in 0..40 {
        let offered = arrivals(t, &mut next_id, &mut state);
        let departures = std::mem::take(&mut departing[t as usize]);
        let (outcome, allocations) =
            allocations_of(|| slotoff.process_slot(t, &departures, &offered));
        for r in offered.iter().filter(|r| outcome.accepted.contains(&r.id)) {
            departing[r.departure() as usize].push(r.clone());
        }
        if t >= 30 {
            most = most.max(allocations);
        }
    }
    assert!(
        slotoff.active_count() >= 15,
        "the world should carry a load"
    );
    assert!(
        most <= STEADY_SLOT_BUDGET,
        "a steady-state slot allocated {most} times, above its budget of {STEADY_SLOT_BUDGET}"
    );
}
