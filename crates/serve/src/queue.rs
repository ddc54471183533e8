//! A bounded, blocking MPMC job queue.
//!
//! `std::sync::mpsc` gives unbounded channels (or `sync_channel`, whose
//! bounded `send` *blocks* — the opposite of what an admission path
//! wants: a full queue must answer "come back later" immediately, not
//! stall the connection thread that every other frame on that session
//! is waiting behind). So the queue is ~60 lines of `Mutex` +
//! `Condvar`: producers fail fast with [`PushError::Full`], consumers
//! block in [`pop`](JobQueue::pop), and [`close`](JobQueue::close)
//! drains shutdown cleanly — workers finish what was already admitted,
//! then see `None`.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why [`JobQueue::try_push`] refused an item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity; `queued` items are waiting.
    Full {
        /// Items currently queued (equals the capacity).
        queued: usize,
    },
    /// The queue was closed for shutdown.
    Closed,
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer queue with non-blocking
/// admission and blocking consumption.
pub struct JobQueue<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> JobQueue<T> {
    /// A queue admitting at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> JobQueue<T> {
        JobQueue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The admission bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently waiting (racy by nature; for display/backoff
    /// hints only).
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().items.len()
    }

    /// Whether the queue is currently empty (racy; display only).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Admits `item` without blocking.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`close`](JobQueue::close). The item is dropped either way — the
    /// caller answers the client with a typed rejection, not a retry.
    pub fn try_push(&self, item: T) -> Result<(), PushError> {
        self.try_push_then(item, || {})
    }

    /// [`try_push`](JobQueue::try_push) that runs `on_admit` once the
    /// item is sure to be admitted but before any consumer can pop it.
    /// The server sends the client's `Accepted` frame there, so a fast
    /// worker's progress frames can never overtake it.
    pub(crate) fn try_push_then(&self, item: T, on_admit: impl FnOnce()) -> Result<(), PushError> {
        let mut st = self.state.lock().unwrap();
        if st.closed {
            return Err(PushError::Closed);
        }
        if st.items.len() >= self.capacity {
            return Err(PushError::Full {
                queued: st.items.len(),
            });
        }
        on_admit();
        st.items.push_back(item);
        drop(st);
        self.ready.notify_one();
        Ok(())
    }

    /// Admits `item` even past capacity (never `Full`) — the
    /// restart-recovery path, which must re-enqueue *every* journaled
    /// unfinished job: refusing one would silently drop work the
    /// server already accepted durably. New submissions still go
    /// through [`try_push`](JobQueue::try_push) and feel backpressure
    /// from the recovered backlog.
    ///
    /// # Errors
    ///
    /// [`PushError::Closed`] after [`close`](JobQueue::close).
    pub fn restore(&self, item: T) -> Result<(), PushError> {
        let mut st = self.state.lock().unwrap();
        if st.closed {
            return Err(PushError::Closed);
        }
        st.items.push_back(item);
        drop(st);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until an item is available (FIFO) or the queue is closed
    /// *and* drained, returning `None` in the latter case.
    pub fn pop(&self) -> Option<T> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(item) = st.items.pop_front() {
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self.ready.wait(st).unwrap();
        }
    }

    /// Closes the queue: future pushes fail, and every consumer wakes —
    /// each drains remaining items, then gets `None`.
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_and_backpressure() {
        let q = JobQueue::new(2);
        assert_eq!(q.try_push(1), Ok(()));
        assert_eq!(q.try_push(2), Ok(()));
        assert_eq!(q.try_push(3), Err(PushError::Full { queued: 2 }));
        assert_eq!(q.pop(), Some(1));
        // Popping freed a slot: admission works again.
        assert_eq!(q.try_push(3), Ok(()));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn close_drains_then_ends() {
        let q = JobQueue::new(4);
        q.try_push(10).unwrap();
        q.close();
        assert_eq!(q.try_push(11), Err(PushError::Closed));
        // Already-admitted work still runs...
        assert_eq!(q.pop(), Some(10));
        // ...then consumers see the end.
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocked_consumer_wakes_on_push_and_on_close() {
        let q = Arc::new(JobQueue::new(1));
        let qc = Arc::clone(&q);
        let consumer = std::thread::spawn(move || (qc.pop(), qc.pop()));
        q.try_push(7).unwrap();
        q.close();
        assert_eq!(consumer.join().unwrap(), (Some(7), None));
    }

    #[test]
    fn restore_bypasses_capacity_but_not_close() {
        let q = JobQueue::new(1);
        q.try_push(1).unwrap();
        assert_eq!(q.try_push(2), Err(PushError::Full { queued: 1 }));
        // Recovery inserts past the bound...
        assert_eq!(q.restore(2), Ok(()));
        assert_eq!(q.restore(3), Ok(()));
        // ...and new admissions keep feeling the backlog.
        assert_eq!(q.try_push(4), Err(PushError::Full { queued: 3 }));
        assert_eq!((q.pop(), q.pop(), q.pop()), (Some(1), Some(2), Some(3)));
        q.close();
        assert_eq!(q.restore(5), Err(PushError::Closed));
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let q = JobQueue::new(0);
        assert_eq!(q.capacity(), 1);
        assert_eq!(q.try_push(1), Ok(()));
        assert!(!q.is_empty());
    }
}
