//! Good fixture: the clean twin of the bad roster — the custom-hasher
//! map is read in id order, sorted right after collecting.
//! Never compiled — input for the vne-audit self-tests.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

pub struct Roster {
    alive: HashMap<RequestId, Request, BuildHasherDefault<IdHasher>>,
}

impl Roster {
    pub fn demands(&self) -> Vec<f64> {
        let mut by_id: Vec<&Request> = self.alive.values().collect();
        by_id.sort_unstable_by_key(|r| r.id);
        by_id.iter().map(|r| r.demand).collect()
    }
}
