// Fixture: the attempt core reading the clock and keeping open slots in a
// hash set. The core takes time only as an argument, and its decisions
// must not depend on hash iteration order.

use std::collections::HashSet;
use std::time::Instant;

pub struct Attempt {
    open: HashSet<usize>,
    cutoff: Option<Instant>,
}

impl Attempt {
    pub fn expired(&self) -> bool {
        self.cutoff.is_some_and(|c| Instant::now() >= c)
    }

    pub fn first_open(&self) -> Option<usize> {
        self.open.iter().next().copied()
    }
}
