//! The discrete-event engine and its calendar.
//!
//! A minimal, deterministic event loop: events are `FnOnce(&mut C, &mut
//! Engine<C>)` closures keyed by `(time, sequence)`. The sequence number
//! breaks ties so that two events scheduled for the same instant always fire
//! in scheduling order — this is what makes whole-machine simulations of
//! thousands of ranks reproducible run-to-run.
//!
//! The pending events live in a [`Calendar`], the only priority queue of the
//! simulator crates: [`Engine`] stores boxed closures in it, and executors
//! with a fixed event vocabulary (the torus broadcast in `bgp-ccmi`) store a
//! plain event enum and fire it from a `match` loop of their own.
//!
//! **Why the order is exact.** Every entry carries the unique key
//! `(time, seq)`, packed into a `u128` (time in the high 64 bits, a
//! per-calendar counter in the low 64). Keys never repeat, so "pop the
//! smallest key" names exactly one entry: the earliest event, and among equal
//! times the one scheduled first — the order a binary heap over the same key
//! yields, tie for tie.
//!
//! **The monotone-key invariant.** No key is ever pushed below the last key
//! popped: an event is scheduled at or after the current time (the engine
//! asserts it), and `seq` only grows. That is what lets the calendar be a
//! *radix* queue: an entry sits in the bucket named by the highest bit in
//! which its key differs from the last popped key, so the smallest key is
//! always in the lowest non-empty bucket, and each entry moves to a lower
//! bucket at most once per bit — no comparisons beyond scanning that one
//! bucket. Peeking ([`Calendar::peek_time`]) reads the head without popping
//! it, so the base does not move: after [`Engine::run_until`] stops short of
//! the head, new events may still be scheduled between the current time and
//! the old head.

use crate::time::SimTime;

/// Bucket count of a radix queue over `u128` keys: bucket 0 holds keys
/// equal to the base, bucket `b` those whose highest bit differing from it
/// is bit `b - 1`.
const BUCKETS: usize = 129;

/// A priority queue of events of type `E` keyed by `(time, seq)`: pops the
/// earliest event, ties in scheduling order.
///
/// Keys must be monotone: [`push`](Calendar::push) panics on a time before
/// the last popped one.
///
/// ```
/// use bgp_sim::{Calendar, SimTime};
///
/// let mut cal = Calendar::new();
/// cal.push(SimTime::from_nanos(7), 'b');
/// cal.push(SimTime::from_nanos(3), 'a');
/// cal.push(SimTime::from_nanos(7), 'c');
/// assert_eq!(cal.peek_time(), Some(SimTime::from_nanos(3)));
/// let order: Vec<char> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ['a', 'b', 'c']);
/// ```
pub struct Calendar<E> {
    buckets: Vec<Vec<(u128, E)>>,
    /// Bit `b - 1` set iff bucket `b >= 1` is non-empty.
    occupied: u128,
    /// The last popped key: every pending key is at least this.
    base: u128,
    seq: u64,
    len: usize,
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Calendar<E> {
    /// An empty calendar.
    pub fn new() -> Self {
        Calendar {
            buckets: (0..BUCKETS).map(|_| Vec::new()).collect(),
            occupied: 0,
            base: 0,
            seq: 0,
            len: 0,
        }
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing is pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn bucket_of(&self, key: u128) -> usize {
        (u128::BITS - (key ^ self.base).leading_zeros()) as usize
    }

    #[inline]
    fn file(&mut self, key: u128, e: E) {
        let b = self.bucket_of(key);
        if b > 0 {
            self.occupied |= 1 << (b - 1);
        }
        self.buckets[b].push((key, e));
    }

    /// Schedule `e` at `at`, after every event already scheduled at `at`.
    ///
    /// Panics if `at` is before the last popped event's time.
    #[inline]
    pub fn push(&mut self, at: SimTime, e: E) {
        let key = (u128::from(at.as_nanos()) << 64) | u128::from(self.seq);
        assert!(
            key >= self.base,
            "calendar push below its base: at={at} base={}",
            SimTime::from_nanos((self.base >> 64) as u64)
        );
        self.seq += 1;
        self.len += 1;
        self.file(key, e);
    }

    /// The lowest non-empty bucket above 0, if any.
    #[inline]
    fn lowest_occupied(&self) -> Option<usize> {
        (self.occupied != 0).then(|| self.occupied.trailing_zeros() as usize + 1)
    }

    /// The time of the earliest pending event, without popping it (the base
    /// stays put).
    pub fn peek_time(&self) -> Option<SimTime> {
        let key = match self.buckets[0].first() {
            Some(&(k, _)) => k,
            None => {
                let b = self.lowest_occupied()?;
                self.buckets[b].iter().map(|&(k, _)| k).min()?
            }
        };
        Some(SimTime::from_nanos((key >> 64) as u64))
    }

    /// Remove and return the earliest pending event and its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.buckets[0].is_empty() {
            // Rebase on the smallest key of the lowest non-empty bucket and
            // refile that bucket: every entry lands strictly lower, the
            // minimum in bucket 0.
            let b = self.lowest_occupied()?;
            let mut spill = std::mem::take(&mut self.buckets[b]);
            self.occupied &= !(1 << (b - 1));
            self.base = spill
                .iter()
                .map(|&(k, _)| k)
                .min()
                .expect("occupied bucket");
            for (k, e) in spill.drain(..) {
                self.file(k, e);
            }
            // Keep the emptied bucket's capacity for reuse.
            self.buckets[b] = spill;
        }
        // Keys are unique, so bucket 0 (keys equal to the base) holds one.
        let (key, e) = self.buckets[0].pop()?;
        self.len -= 1;
        Some((SimTime::from_nanos((key >> 64) as u64), e))
    }
}

type EventFn<C> = Box<dyn FnOnce(&mut C, &mut Engine<C>)>;

/// A deterministic discrete-event engine over a user context `C`.
///
/// ```
/// use bgp_sim::{Engine, SimTime};
///
/// let mut engine: Engine<Vec<u32>> = Engine::new();
/// engine.schedule_in(SimTime::from_nanos(10), |log, _| log.push(1));
/// engine.schedule_in(SimTime::from_nanos(5), |log, eng| {
///     log.push(2);
///     eng.schedule_in(SimTime::from_nanos(100), |log, _| log.push(3));
/// });
/// let mut log = Vec::new();
/// engine.run(&mut log);
/// assert_eq!(log, vec![2, 1, 3]);
/// assert_eq!(engine.now(), SimTime::from_nanos(105));
/// ```
pub struct Engine<C> {
    calendar: Calendar<EventFn<C>>,
    now: SimTime,
    executed: u64,
}

impl<C> Default for Engine<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C> Engine<C> {
    /// A fresh engine at time zero with an empty calendar.
    pub fn new() -> Self {
        Engine {
            calendar: Calendar::new(),
            now: SimTime::ZERO,
            executed: 0,
        }
    }

    /// The current simulated time. Advances only while [`run`](Self::run) /
    /// [`step`](Self::step) execute events.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far (a cheap progress/size metric).
    #[inline]
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending.
    #[inline]
    pub fn pending(&self) -> usize {
        self.calendar.len()
    }

    /// Schedule `f` at absolute time `at`.
    ///
    /// Panics if `at` is in the past — an event scheduled before `now` is
    /// always a protocol bug, and silently clamping it would hide the bug.
    pub fn schedule_at(&mut self, at: SimTime, f: impl FnOnce(&mut C, &mut Engine<C>) + 'static) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at} now={}",
            self.now
        );
        self.calendar.push(at, Box::new(f));
    }

    /// Schedule `f` after a relative `delay`.
    #[inline]
    pub fn schedule_in(
        &mut self,
        delay: SimTime,
        f: impl FnOnce(&mut C, &mut Engine<C>) + 'static,
    ) {
        let at = self.now + delay;
        self.schedule_at(at, f);
    }

    /// Execute the single earliest pending event. Returns `false` when the
    /// calendar is empty.
    pub fn step(&mut self, ctx: &mut C) -> bool {
        match self.calendar.pop() {
            None => false,
            Some((at, f)) => {
                debug_assert!(at >= self.now, "calendar violated time order");
                self.now = at;
                self.executed += 1;
                f(ctx, self);
                true
            }
        }
    }

    /// Run until the calendar drains. Returns the final time.
    pub fn run(&mut self, ctx: &mut C) -> SimTime {
        while self.step(ctx) {}
        self.now
    }

    /// Run until the calendar drains or `deadline` is reached, whichever is
    /// first. Events scheduled beyond the deadline stay pending; `now` is
    /// left at the last executed event (not advanced to the deadline).
    pub fn run_until(&mut self, ctx: &mut C, deadline: SimTime) -> SimTime {
        while let Some(head) = self.calendar.peek_time() {
            if head > deadline {
                break;
            }
            self.step(ctx);
        }
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn empty_run_is_noop() {
        let mut e: Engine<()> = Engine::new();
        assert_eq!(e.run(&mut ()), SimTime::ZERO);
        assert_eq!(e.events_executed(), 0);
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut e: Engine<Vec<u64>> = Engine::new();
        for &t in &[30u64, 10, 20, 40] {
            e.schedule_at(SimTime::from_nanos(t), move |log, eng| {
                assert_eq!(eng.now(), SimTime::from_nanos(t));
                log.push(t);
            });
        }
        let mut log = Vec::new();
        e.run(&mut log);
        assert_eq!(log, vec![10, 20, 30, 40]);
        assert_eq!(e.events_executed(), 4);
    }

    #[test]
    fn ties_fire_in_scheduling_order() {
        let mut e: Engine<Vec<u32>> = Engine::new();
        for i in 0..100 {
            e.schedule_at(SimTime::from_nanos(7), move |log, _| log.push(i));
        }
        let mut log = Vec::new();
        e.run(&mut log);
        assert_eq!(log, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn nested_scheduling_cascades() {
        // A chain of events, each scheduling the next; verifies `now`
        // advances correctly through recursion.
        let mut e: Engine<u32> = Engine::new();
        fn chain(depth: u32, ctx: &mut u32, eng: &mut Engine<u32>) {
            *ctx += 1;
            if depth > 0 {
                eng.schedule_in(SimTime::from_nanos(3), move |c, en| chain(depth - 1, c, en));
            }
        }
        e.schedule_at(SimTime::ZERO, |c, en| chain(9, c, en));
        let mut count = 0;
        e.run(&mut count);
        assert_eq!(count, 10);
        assert_eq!(e.now(), SimTime::from_nanos(27));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut e: Engine<Vec<u64>> = Engine::new();
        for t in [5u64, 15, 25] {
            e.schedule_at(SimTime::from_nanos(t), move |log, _| log.push(t));
        }
        let mut log = Vec::new();
        e.run_until(&mut log, SimTime::from_nanos(20));
        assert_eq!(log, vec![5, 15]);
        assert_eq!(e.pending(), 1);
        // Resume to completion.
        e.run(&mut log);
        assert_eq!(log, vec![5, 15, 25]);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn past_scheduling_panics() {
        let mut e: Engine<()> = Engine::new();
        e.schedule_at(SimTime::from_nanos(10), |_, eng| {
            eng.schedule_at(SimTime::from_nanos(5), |_, _| {});
        });
        e.run(&mut ());
    }

    #[test]
    fn determinism_across_runs() {
        // The same program must yield the same trace twice.
        fn trace() -> Vec<(u64, u32)> {
            let mut e: Engine<Vec<(u64, u32)>> = Engine::new();
            for i in 0..50u32 {
                let t = (i as u64 * 37) % 11;
                e.schedule_at(SimTime::from_nanos(t), move |log, eng| {
                    log.push((eng.now().as_nanos(), i));
                    if i % 7 == 0 {
                        eng.schedule_in(SimTime::from_nanos(2), move |log, eng| {
                            log.push((eng.now().as_nanos(), 1000 + i));
                        });
                    }
                });
            }
            let mut log = Vec::new();
            e.run(&mut log);
            log
        }
        assert_eq!(trace(), trace());
    }

    #[test]
    fn context_can_hold_shared_state() {
        // Engine works with interior-mutability contexts too (used by the
        // machine layer to share node state between protocol closures).
        let shared = Rc::new(RefCell::new(0));
        let mut e: Engine<Rc<RefCell<i32>>> = Engine::new();
        let _ = &shared;
        e.schedule_at(SimTime::from_nanos(1), |s, _| *s.borrow_mut() += 5);
        let mut ctx = shared.clone();
        e.run(&mut ctx);
        assert_eq!(*shared.borrow(), 5);
    }
}
