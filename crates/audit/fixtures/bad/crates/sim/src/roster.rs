//! Bad fixture: trips D1 (hash-iter) through a map whose third type
//! parameter names a custom hasher — the binding still spells
//! `HashMap`, so the rule must still see it.
//! Never compiled — input for the vne-audit self-tests and the CI
//! must-fail assertion.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

pub struct Roster {
    alive: HashMap<RequestId, Request, BuildHasherDefault<IdHasher>>,
}

impl Roster {
    pub fn demands(&self) -> Vec<f64> {
        self.alive.values().map(|r| r.demand).collect()
    }
}
