//! Overload protection: the per-round ingest memory ledger.
//!
//! [`Ledger`] tracks how many bytes of admitted-but-unsettled update
//! frames the server currently holds. Every reader **reserves** a
//! frame's announced body length *before* reading the body and the
//! reservation is **released** once the update settles (folded,
//! rejected, quarantined, or discarded as a duplicate), so the sum of
//! in-flight frame bytes never exceeds the configured capacity.
//!
//! The determinism contract is strict: ledger *occupancy* never decides
//! an update's fate. A frame that fits the capacity at all blocks until
//! space frees (backpressure); only a frame that could **never** fit —
//! announced length greater than the whole capacity — is shed. That
//! makes the shed set a pure function of `(client, round, frame size)`,
//! independent of arrival order, worker count, and transport, which is
//! what lets the chaos soak assert bit-identical fault counters across
//! {in-process, channel, TCP} × ingest workers.

use std::time::Duration;

use crate::sync::{Condvar, Mutex, MutexGuard};
use crate::wire::HeaderVerdict;

/// How long a reader blocked on a full ledger waits between shutdown
/// checks. Mirrors the socket poll interval in `wire`.
const RESERVE_POLL: Duration = Duration::from_millis(25);

struct LedgerState {
    /// Capacity in bytes; `None` disables accounting entirely.
    cap: Option<usize>,
    /// Bytes currently reserved.
    used: usize,
    /// Set at shutdown so blocked reservers wake up and abort.
    closed: bool,
}

/// Shared byte ledger bounding admitted-but-unsettled frame memory.
pub struct Ledger {
    state: Mutex<LedgerState>,
    freed: Condvar,
}

impl std::fmt::Debug for Ledger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = lock(&self.state);
        f.debug_struct("Ledger")
            .field("cap", &s.cap)
            .field("used", &s.used)
            .field("closed", &s.closed)
            .finish()
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A poisoned ledger mutex means another thread panicked while
    // holding it; the counters are plain integers, so keep going.
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl Ledger {
    /// A ledger with `cap` bytes of capacity; `None` disables
    /// accounting ([`reserve`](Self::reserve) always succeeds
    /// instantly and nothing is ever shed for size).
    pub fn new(cap: Option<usize>) -> Self {
        Ledger {
            state: Mutex::new(LedgerState {
                cap,
                used: 0,
                closed: false,
            }),
            freed: Condvar::new(),
        }
    }

    /// Bytes currently reserved.
    pub fn in_use(&self) -> usize {
        lock(&self.state).used
    }

    /// `true` when a frame of `n` bytes exceeds the whole capacity and
    /// so could never be admitted. This — not current occupancy — is
    /// the only size condition that sheds, keeping shed decisions
    /// independent of arrival order.
    pub fn would_never_fit(&self, n: usize) -> bool {
        lock(&self.state).cap.is_some_and(|c| n > c)
    }

    /// Reserve `n` bytes, blocking while the ledger is full.
    ///
    /// Returns `false` when the ledger was [`close`](Self::close)d
    /// (server shutting down) or when `n` could never fit —
    /// `admit` sheds such a frame before it gets here;
    /// hitting it here is a defensive refusal, not a verdict.
    pub fn reserve(&self, n: usize) -> bool {
        let mut s = lock(&self.state);
        loop {
            if s.closed {
                return false;
            }
            let Some(cap) = s.cap else {
                return true; // accounting disabled
            };
            if n > cap {
                return false;
            }
            if s.used.saturating_add(n) <= cap {
                s.used += n;
                return true;
            }
            s = match self.freed.wait_timeout(s, RESERVE_POLL) {
                Ok((g, _)) => g,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }

    /// The header-time admission rule every producer applies to a frame
    /// announcing `n` body bytes: shed what could never fit, otherwise
    /// wait for room and reserve it (backpressure), and abort when the
    /// ledger closes under the wait. On `Admit` the caller owns a
    /// reservation of `n` bytes.
    pub(crate) fn admit(&self, n: usize) -> HeaderVerdict {
        if self.would_never_fit(n) {
            HeaderVerdict::Shed
        } else if self.reserve(n) {
            HeaderVerdict::Admit
        } else {
            HeaderVerdict::Abort
        }
    }

    /// Release a prior reservation of `n` bytes and wake blocked
    /// reservers. Releasing more than is reserved saturates to zero
    /// rather than panicking.
    pub fn release(&self, n: usize) {
        if n == 0 {
            return;
        }
        let mut s = lock(&self.state);
        s.used = s.used.saturating_sub(n);
        drop(s);
        self.freed.notify_all();
    }

    /// Wake and fail every blocked reserver; subsequent reservations
    /// fail immediately. Called at server shutdown so reader threads
    /// never wedge a join.
    pub fn close(&self) {
        lock(&self.state).closed = true;
        self.freed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn unlimited_ledger_never_sheds_or_blocks() {
        let l = Ledger::new(None);
        assert!(!l.would_never_fit(usize::MAX));
        assert!(l.reserve(usize::MAX));
        assert_eq!(l.in_use(), 0); // disabled: nothing accounted
        l.release(123); // no-op, no underflow
    }

    #[test]
    fn oversized_reservations_are_refused_without_blocking() {
        let l = Ledger::new(Some(100));
        assert!(l.would_never_fit(101));
        assert!(!l.would_never_fit(100));
        let t0 = Instant::now();
        assert!(!l.reserve(101));
        assert!(t0.elapsed() < Duration::from_secs(1));
        assert_eq!(l.in_use(), 0);
    }

    #[test]
    fn reserve_blocks_until_release_then_proceeds() {
        let l = Arc::new(Ledger::new(Some(100)));
        assert!(l.reserve(80));
        let l2 = Arc::clone(&l);
        let waiter = std::thread::spawn(move || l2.reserve(40));
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(l.in_use(), 80); // waiter is still blocked
        l.release(80);
        assert!(waiter.join().unwrap());
        assert_eq!(l.in_use(), 40);
    }

    #[test]
    fn close_unblocks_waiters_with_failure() {
        let l = Arc::new(Ledger::new(Some(10)));
        assert!(l.reserve(10));
        let l2 = Arc::clone(&l);
        let waiter = std::thread::spawn(move || l2.reserve(5));
        std::thread::sleep(Duration::from_millis(50));
        l.close();
        assert!(!waiter.join().unwrap());
        assert!(!l.reserve(1));
    }

    #[test]
    fn release_saturates_instead_of_underflowing() {
        let l = Ledger::new(Some(100));
        assert!(l.reserve(10));
        l.release(50);
        assert_eq!(l.in_use(), 0);
    }
}
