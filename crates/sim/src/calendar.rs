//! The engine's departure calendar: one record per slot holding the
//! accepted ids that depart then and the requested demand that leaves
//! then, so booking an arrival, booking an acceptance and releasing a
//! slot cost O(1) amortised.
//!
//! Slots `base .. base + WINDOW` live in a dense window indexed by
//! offset from `base`; every other slot — a departure farther out than
//! the window reaches, or a booking below `base` — lives in an ordered
//! overflow, whose records move whole into the window once it slides
//! over them. The window never grows past `WINDOW` records, so a
//! departure at `Slot::MAX` costs one overflow entry, not four billion
//! slots.
//!
//! A checkpoint carries the calendar as two maps, `slot → departing
//! ids` and `slot → requested drop`, in ascending slot order, in the
//! bytes a `BTreeMap` of each writes. A slot is on a map exactly when
//! that half of its record was ever booked (or restored), which is why
//! the halves are `Option`s.

use std::collections::{BTreeMap, VecDeque};

use vne_model::ids::RequestId;
use vne_model::request::Slot;
use vne_model::state::StateWriter;

/// Slots the dense window covers from its base. Request durations are
/// tens of slots in every trace the repository draws, so the window
/// holds them all; a longer one costs a tree entry, not memory.
const WINDOW: u64 = 1 << 12;

/// What departs at one slot.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Due {
    /// Accepted ids departing at the slot, in booking order — the order
    /// they are released in. `None` when nothing was ever booked here.
    pub(crate) departing: Option<Vec<RequestId>>,
    /// Requested demand departing at the slot (every arrival, accepted
    /// or not), summed from `0.0` in booking order. `None` when nothing
    /// was ever booked here.
    pub(crate) drop: Option<f64>,
}

/// The departure calendar (see the module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct Calendar {
    /// The slot `window[0]` stands for. Every slot below it has been
    /// released; after a release it is the engine's next slot.
    base: u64,
    /// Records of slots `base .. base + window.len()`, at most `WINDOW`.
    window: VecDeque<Due>,
    /// Records of slots outside `base .. base + WINDOW`.
    overflow: BTreeMap<Slot, Due>,
}

impl Calendar {
    /// A calendar of the two checkpoint maps whose next release is at
    /// slot `base` or later.
    pub(crate) fn from_maps(
        base: u64,
        departures: BTreeMap<Slot, Vec<RequestId>>,
        drops: BTreeMap<Slot, f64>,
    ) -> Self {
        let mut calendar = Self {
            base,
            ..Self::default()
        };
        for (slot, ids) in departures {
            calendar.record(slot).departing = Some(ids);
        }
        for (slot, drop) in drops {
            calendar.record(slot).drop = Some(drop);
        }
        calendar
    }

    /// The record of `slot`, created empty if the slot has none.
    fn record(&mut self, slot: Slot) -> &mut Due {
        match u64::from(slot).checked_sub(self.base) {
            Some(offset) if offset < WINDOW => {
                let i = offset as usize;
                if i >= self.window.len() {
                    self.window.resize_with(i + 1, Due::default);
                }
                &mut self.window[i]
            }
            _ => self.overflow.entry(slot).or_default(),
        }
    }

    /// Books an accepted request to depart at `slot`, after every id
    /// booked there before.
    pub(crate) fn book_departure(&mut self, slot: Slot, id: RequestId) {
        self.record(slot)
            .departing
            .get_or_insert_with(Vec::new)
            .push(id);
    }

    /// Books `demand` of requested demand to leave at `slot`.
    pub(crate) fn book_drop(&mut self, slot: Slot, demand: f64) {
        *self.record(slot).drop.get_or_insert(0.0) += demand;
    }

    /// Hands `release` the record of every slot up to and including
    /// `t`, in ascending slot order, and removes them; the next release
    /// may start at `t + 1`. Slots nothing was booked at cost nothing
    /// beyond the window's padding.
    ///
    /// `t` must not be below the slot of the previous release plus one.
    pub(crate) fn release_through(&mut self, t: Slot, mut release: impl FnMut(Due)) {
        let t = u64::from(t);
        debug_assert!(
            t >= self.base,
            "release at {t} below the base {}",
            self.base
        );
        // Bookings below the base are the oldest slots on the calendar.
        while let Some(entry) = self.overflow.first_entry() {
            if u64::from(*entry.key()) >= self.base {
                break;
            }
            release(entry.remove());
        }
        let due = (t - self.base + 1).min(self.window.len() as u64) as usize;
        for record in self.window.drain(..due) {
            release(record);
        }
        // Far slots a long gap in the stream has reached.
        while let Some(entry) = self.overflow.first_entry() {
            if u64::from(*entry.key()) > t {
                break;
            }
            release(entry.remove());
        }
        self.base = t + 1;
        // Far records the window has slid over move in whole; they lie
        // past every record already in the window.
        while let Some(entry) = self.overflow.first_entry() {
            let offset = u64::from(*entry.key()) - self.base;
            if offset >= WINDOW {
                break;
            }
            let i = offset as usize;
            debug_assert!(
                i >= self.window.len(),
                "slot {} is in the window twice",
                entry.key()
            );
            self.window.resize_with(i + 1, Due::default);
            self.window[i] = entry.remove();
        }
    }

    /// Every record with its slot, in ascending slot order.
    fn in_order(&self) -> impl Iterator<Item = (Slot, &Due)> {
        let (below, above) = match Slot::try_from(self.base) {
            Ok(base) => (self.overflow.range(..base), self.overflow.range(base..)),
            // Past the last slot: everything left was booked below it.
            Err(_) => (
                self.overflow.range(..),
                self.overflow.range(Slot::MAX..Slot::MAX),
            ),
        };
        let base = self.base;
        below
            .map(|(&slot, due)| (slot, due))
            .chain(
                self.window
                    .iter()
                    .enumerate()
                    .map(move |(i, due)| ((base + i as u64) as Slot, due)),
            )
            .chain(above.map(|(&slot, due)| (slot, due)))
    }

    /// Every id booked to depart, stale ones included.
    pub(crate) fn scheduled(&self) -> impl Iterator<Item = RequestId> + '_ {
        self.in_order()
            .filter_map(|(_, due)| due.departing.as_deref())
            .flatten()
            .copied()
    }

    /// Forgets every departure booked, keeping the requested drops.
    pub(crate) fn clear_departures(&mut self) {
        for due in self.window.iter_mut().chain(self.overflow.values_mut()) {
            due.departing = None;
        }
    }

    /// Writes the two maps, `slot → departing ids` then
    /// `slot → requested drop`, in the bytes a `BTreeMap` of each
    /// writes.
    pub(crate) fn encode(&self, w: &mut StateWriter) {
        let departing = || {
            self.in_order()
                .filter_map(|(slot, due)| Some((slot, due.departing.as_ref()?)))
        };
        w.write_usize(departing().count());
        for (slot, ids) in departing() {
            w.write(&slot);
            w.write(ids);
        }
        let drops = || {
            self.in_order()
                .filter_map(|(slot, due)| Some((slot, due.drop?)))
        };
        w.write_usize(drops().count());
        for (slot, drop) in drops() {
            w.write(&slot);
            w.write(&drop);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two maps the calendar replaced, as the engine updated them.
    #[derive(Default)]
    struct Maps {
        departures: BTreeMap<Slot, Vec<RequestId>>,
        drops: BTreeMap<Slot, f64>,
    }

    impl Maps {
        fn release_through(&mut self, t: Slot) -> Vec<Due> {
            let mut out: BTreeMap<Slot, Due> = BTreeMap::new();
            while let Some(entry) = self.departures.first_entry() {
                if *entry.key() > t {
                    break;
                }
                let slot = *entry.key();
                out.entry(slot).or_default().departing = Some(entry.remove());
            }
            while let Some(entry) = self.drops.first_entry() {
                if *entry.key() > t {
                    break;
                }
                let slot = *entry.key();
                out.entry(slot).or_default().drop = Some(entry.remove());
            }
            out.into_values().collect()
        }

        fn encode(&self) -> Vec<u8> {
            let mut w = StateWriter::new();
            w.write(&self.departures);
            w.write(&self.drops);
            w.finish().into_bytes()
        }
    }

    fn encoded(calendar: &Calendar) -> Vec<u8> {
        let mut w = StateWriter::new();
        calendar.encode(&mut w);
        w.finish().into_bytes()
    }

    /// Near, far, below-base and `Slot::MAX` bookings through releases
    /// that step and that jump: the records come out in the maps' order
    /// with the maps' sums, and the bytes are the maps' at every step.
    #[test]
    fn the_calendar_releases_and_encodes_like_the_two_maps() {
        let mut calendar = Calendar::default();
        let mut maps = Maps::default();
        let far = WINDOW as Slot;
        let bookings: &[(Slot, u64, f64)] = &[
            (3, 1, 0.5),
            (3, 2, 0.25),
            (far + 2, 3, 1.0),
            (Slot::MAX, 4, 2.0),
            (far + 9, 5, 0.125),
            (1, 6, 3.0),
        ];
        let releases: &[Slot] = &[0, 2, 3, far, far + 5, far + 20, Slot::MAX - 1, Slot::MAX];
        let mut next = 0;
        for (step, &t) in releases.iter().enumerate() {
            // Book a little before every release, some of it below the
            // base (slot 1 after the release at 2).
            for &(slot, id, demand) in bookings.iter().skip(step).take(2) {
                calendar.book_departure(slot, RequestId(id));
                calendar.book_drop(slot, demand);
                maps.departures.entry(slot).or_default().push(RequestId(id));
                *maps.drops.entry(slot).or_insert(0.0) += demand;
            }
            calendar.book_drop(next, 0.0);
            *maps.drops.entry(next).or_insert(0.0) += 0.0;
            assert_eq!(encoded(&calendar), maps.encode(), "before release {t}");
            let mut released = Vec::new();
            calendar.release_through(t, |due| {
                if due.departing.is_some() || due.drop.is_some() {
                    released.push(due);
                }
            });
            assert_eq!(released, maps.release_through(t), "release {t}");
            assert_eq!(encoded(&calendar), maps.encode(), "after release {t}");
            assert!(calendar.window.len() as u64 <= WINDOW);
            next = t.saturating_add(1);
        }
        assert!(calendar.overflow.is_empty() && calendar.window.is_empty());
    }
}
