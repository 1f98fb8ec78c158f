//! Concurrency primitives for the FL stack, and its one bounded channel.
//!
//! Every structure in this crate that parks a thread on shared state takes
//! its mutexes, condvars, channels and (for the ingest pool) thread spawns
//! from here: [`budget`](crate::budget)'s ledger and gate, the
//! [`ingest`](crate::ingest) pool, and the queues the channel and TCP
//! transports carry updates and events over. In a normal build `Mutex` and
//! `Condvar` *are* the `std::sync` types — zero cost, identical behavior.
//! With the `interleave` cargo feature they switch to the `interleave`
//! model checker's shims, whose every operation is a scheduling point, so
//! `tests/model_check.rs` can exhaustively explore thread interleavings of
//! the reserve/shed/settle machinery (see DESIGN.md §15). [`channel`] is
//! written once on top of those aliases, so its sends and receives are
//! scheduling points under the feature too, at no cost to a normal build.
//!
//! The shims degrade to plain std behavior when no explorer is running, so
//! an `--features interleave` build passes the ordinary test suite too —
//! the feature is additive, never semantics-changing outside a model.
//!
//! Threads that block on OS I/O stay real `std::thread`s (`net`'s acceptor
//! and readers, the channel transport's client threads): a deterministic
//! scheduler cannot model a socket.

#[cfg(feature = "interleave")]
pub use interleave::sync::{Condvar, Mutex, MutexGuard};

#[cfg(not(feature = "interleave"))]
pub use std::sync::{Condvar, Mutex, MutexGuard};

/// Bounded MPMC channels on this module's `Mutex`/`Condvar`.
///
/// Deliberately bounded-only (lint R9, `bounded-channels-only`): `send`
/// blocks while `cap` messages queue, so every queue exerts backpressure.
/// A send fails once every receiver is gone (the server's only way to
/// observe a dead channel client, and how the TCP server's teardown wakes a
/// parked reader); a receive fails once every sender is
/// gone and the queue is drained (how the server learns all clients hung
/// up).
pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, PoisonError};
    use std::time::Instant;

    use super::{Condvar, Mutex, MutexGuard};

    struct Queue<T> {
        items: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Chan<T> {
        cap: usize,
        queue: Mutex<Queue<T>>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    impl<T> Chan<T> {
        fn lock(&self) -> MutexGuard<'_, Queue<T>> {
            // The queue stays structurally sound across a holder's panic;
            // recover rather than propagate the poison.
            self.queue.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    /// Sending half; cloneable (multi-producer).
    // fedsz-lint: allow(dead-pub) -- returned by `channel::bounded`, which the model-check test drives
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    /// Receiving half; cloneable (multi-consumer).
    // fedsz-lint: allow(dead-pub) -- returned by `channel::bounded`, which the model-check test drives
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    /// Every receiver disconnected; carries the undelivered message back.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// The channel is empty and every sender disconnected.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Why a [`Receiver::recv_deadline`] returned without a message.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The wait timed out with the channel still empty.
        Timeout,
        /// The channel is empty and every sender disconnected.
        Disconnected,
    }

    /// Why a [`Receiver::try_recv`] returned without a message.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum TryRecvError {
        Empty,
        Disconnected,
    }

    /// A bounded MPMC channel; `send` blocks while `cap` messages queue.
    /// `cap == 0` is treated as capacity 1: there are no rendezvous
    /// channels.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            cap: cap.max(1),
            queue: Mutex::new(Queue {
                items: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (
            Sender {
                chan: Arc::clone(&chan),
            },
            Receiver { chan },
        )
    }

    impl<T> Sender<T> {
        /// Deliver `msg`, blocking while the channel is full. Fails only
        /// when every receiver is gone.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut q = self.chan.lock();
            loop {
                if q.receivers == 0 {
                    return Err(SendError(msg));
                }
                if q.items.len() < self.chan.cap {
                    q.items.push_back(msg);
                    drop(q);
                    self.chan.not_empty.notify_one();
                    return Ok(());
                }
                q = self
                    .chan
                    .not_full
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    /// How long a receive may wait for a message.
    enum Wait {
        Never,
        Until(Instant),
        Forever,
    }

    impl<T> Receiver<T> {
        /// Take the next message, blocking while the channel is empty.
        /// Fails only when the queue is drained and every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.take(Wait::Forever).map_err(|_| RecvError)
        }

        /// Like [`recv`](Self::recv), but gives up at `deadline`.
        ///
        /// One deadline holds across wakeups: a wakeup that finds the
        /// queue still empty waits again for the time left, which may be
        /// zero. `Timeout` comes only from a wait that reports it timed
        /// out, never from reading the clock, so under the model checker
        /// (where a timeout is a scheduler choice) replays stay
        /// deterministic.
        pub fn recv_deadline(&self, deadline: Instant) -> Result<T, RecvTimeoutError> {
            self.take(Wait::Until(deadline))
        }

        /// Take the next message if one is already queued.
        pub(crate) fn try_recv(&self) -> Result<T, TryRecvError> {
            self.take(Wait::Never).map_err(|e| match e {
                RecvTimeoutError::Timeout => TryRecvError::Empty,
                RecvTimeoutError::Disconnected => TryRecvError::Disconnected,
            })
        }

        fn take(&self, wait: Wait) -> Result<T, RecvTimeoutError> {
            let mut q = self.chan.lock();
            // `Never` is a wait that has already timed out: it returns
            // before the first wait below.
            let mut timed_out = matches!(wait, Wait::Never);
            loop {
                if let Some(msg) = q.items.pop_front() {
                    drop(q);
                    self.chan.not_full.notify_one();
                    return Ok(msg);
                }
                if q.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                if timed_out {
                    return Err(RecvTimeoutError::Timeout);
                }
                q = match wait {
                    Wait::Until(deadline) => {
                        let left = deadline.saturating_duration_since(Instant::now());
                        let (q, res) = self
                            .chan
                            .not_empty
                            .wait_timeout(q, left)
                            .unwrap_or_else(PoisonError::into_inner);
                        timed_out = res.timed_out();
                        q
                    }
                    Wait::Never | Wait::Forever => self
                        .chan
                        .not_empty
                        .wait(q)
                        .unwrap_or_else(PoisonError::into_inner),
                };
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.chan.lock().senders += 1;
            Sender {
                chan: Arc::clone(&self.chan),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.chan.lock().receivers += 1;
            Receiver {
                chan: Arc::clone(&self.chan),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut q = self.chan.lock();
            q.senders -= 1;
            let last = q.senders == 0;
            drop(q);
            if last {
                // Receivers parked on an empty queue must wake to observe
                // the disconnect.
                self.chan.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut q = self.chan.lock();
            q.receivers -= 1;
            let last = q.receivers == 0;
            drop(q);
            if last {
                // Senders parked on a full queue must wake to observe the
                // disconnect.
                self.chan.not_full.notify_all();
            }
        }
    }
}

/// Thread spawning (`std::thread`-shaped in both configurations).
pub mod thread {
    #[cfg(feature = "interleave")]
    pub use interleave::thread::{spawn, Builder, JoinHandle};

    #[cfg(not(feature = "interleave"))]
    pub use std::thread::{spawn, Builder, JoinHandle};
}

#[cfg(test)]
mod tests {
    //! The channel's contract, outside a model: in a normal build over
    //! `std::sync`, with `--features interleave` over the shims' fallback.

    use super::channel::*;
    use std::time::{Duration, Instant};

    #[test]
    fn send_recv_fifo() {
        let (tx, rx) = bounded(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn recv_fails_after_last_sender_drops() {
        let (tx, rx) = bounded::<u8>(1);
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn send_fails_after_last_receiver_drops() {
        let (tx, rx) = bounded::<u8>(1);
        drop(rx);
        assert_eq!(tx.send(1), Err(SendError(1)));
    }

    #[test]
    fn recv_timeout_distinguishes_timeout_from_disconnect() {
        let soon = || Instant::now() + Duration::from_millis(10);
        let (tx, rx) = bounded::<u8>(1);
        assert_eq!(rx.recv_deadline(soon()), Err(RecvTimeoutError::Timeout));
        drop(tx);
        assert_eq!(
            rx.recv_deadline(soon()),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn bounded_blocks_until_drained() {
        let (tx, rx) = bounded::<u32>(1);
        tx.send(1).unwrap();
        let sender = std::thread::spawn(move || {
            tx.send(2).unwrap(); // blocks until the 1-slot queue drains
            "sent"
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(sender.join().unwrap(), "sent");
    }

    #[test]
    fn try_recv_sees_empty_channel() {
        let (tx, rx) = bounded::<u8>(1);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.send(3).unwrap();
        assert_eq!(rx.try_recv(), Ok(3));
    }

    #[test]
    fn cross_thread_handoff() {
        let (tx, rx) = bounded(2);
        let producer = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
        });
        let got: Vec<i32> = (0..100).map(|_| rx.recv().unwrap()).collect();
        producer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }
}
