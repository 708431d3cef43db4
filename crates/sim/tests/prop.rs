//! Property-style tests for the event engine and server model, driven by
//! the deterministic [`bgp_sim::Rng`].

use std::cell::RefCell;
use std::rc::Rc;

use bgp_sim::{Engine, Rng, Server, ServerPool, SimTime};

/// Events always fire in nondecreasing time order, whatever order they were
/// scheduled in, and all of them fire.
#[test]
fn events_fire_in_order() {
    let mut rng = Rng::new(0xE117);
    for _ in 0..64 {
        let n = rng.range_usize(1, 200);
        let times: Vec<u64> = (0..n).map(|_| rng.range_u64(0, 1_000_000)).collect();
        let mut eng: Engine<Vec<u64>> = Engine::new();
        for &t in &times {
            eng.schedule_at(SimTime::from_nanos(t), move |log, e| {
                log.push(e.now().as_nanos());
            });
        }
        let mut log = Vec::new();
        eng.run(&mut log);
        assert_eq!(log.len(), times.len());
        assert!(log.windows(2).all(|w| w[0] <= w[1]));
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(log, sorted);
    }
}

/// A server's accumulated busy time equals the sum of reserved durations,
/// and completions never overlap (pure FIFO).
#[test]
fn server_conserves_work() {
    let mut rng = Rng::new(0x5E2);
    for _ in 0..64 {
        let n = rng.range_usize(1, 100);
        let reqs: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.range_u64(0, 10_000), rng.range_u64(1, 1_000)))
            .collect();
        let mut s = Server::new();
        let mut prev_finish = SimTime::ZERO;
        let mut total = 0u64;
        for &(at, dur) in &reqs {
            let fin = s.reserve(SimTime::from_nanos(at), SimTime::from_nanos(dur));
            // FIFO: service never starts before the previous finish.
            assert!(fin >= prev_finish + SimTime::from_nanos(dur));
            prev_finish = fin;
            total += dur;
        }
        assert_eq!(s.busy_time().as_nanos(), total);
        assert_eq!(s.ops(), reqs.len() as u64);
    }
}

/// Coupled reservations complete no earlier than any participating
/// resource's own finish, and the owner is stalled to completion.
#[test]
fn coupled_completion_dominates() {
    let mut rng = Rng::new(0xC0D);
    for _ in 0..64 {
        let owner_d = rng.range_u64(1, 1000);
        let shared_d = rng.range_u64(1, 1000);
        let backlog = rng.range_u64(0, 2000);
        let mut p = ServerPool::new();
        let own = p.alloc();
        let sh = p.alloc();
        p.reserve(sh, SimTime::ZERO, SimTime::from_nanos(backlog));
        let done = p.reserve_coupled(
            own,
            SimTime::from_nanos(owner_d),
            &[(sh, SimTime::from_nanos(shared_d))],
            SimTime::ZERO,
        );
        assert!(done >= SimTime::from_nanos(owner_d));
        assert!(done >= SimTime::from_nanos(backlog + shared_d));
        assert_eq!(p.get(own).free_at(), done);
    }
}

/// Deterministic replay: the same random schedule yields the same event
/// trace twice.
#[test]
fn engine_replay_is_identical() {
    let mut rng = Rng::new(0x2E9);
    for _ in 0..32 {
        let n = rng.range_usize(1, 100);
        let seed_times: Vec<u64> = (0..n).map(|_| rng.range_u64(0, 10_000)).collect();
        let run = |times: &[u64]| {
            #[allow(clippy::type_complexity)]
            let mut eng: Engine<Rc<RefCell<Vec<(u64, usize)>>>> = Engine::new();
            for (i, &t) in times.iter().enumerate() {
                eng.schedule_at(SimTime::from_nanos(t), move |log, e| {
                    log.borrow_mut().push((e.now().as_nanos(), i));
                });
            }
            let log = Rc::new(RefCell::new(Vec::new()));
            let mut ctx = log.clone();
            eng.run(&mut ctx);
            let out = log.borrow().clone();
            out
        };
        assert_eq!(run(&seed_times), run(&seed_times));
    }
}

/// The state an event sees when it fires, shared by the engine under test
/// and the reference: the firing log, the generator that decides what each
/// event schedules, and the next event id.
struct World {
    log: Vec<(u64, u32)>,
    rng: Rng,
    next_id: u32,
}

impl World {
    fn new(seed: u64) -> Self {
        World {
            log: Vec::new(),
            rng: Rng::new(seed),
            next_id: 0,
        }
    }

    /// Log event `id` at `now` and return the delays of the children it
    /// schedules, with their ids: zero delays and coinciding times are
    /// common, and the population dies out on average.
    fn fire(&mut self, now: u64, id: u32) -> Vec<(u64, u32)> {
        self.log.push((now, id));
        let n = [0usize, 0, 1, 2][self.rng.range_usize(0, 4)];
        let mut out = Vec::new();
        for _ in 0..n {
            if self.next_id < 4_000 {
                let delay = 5 * self.rng.range_u64(0, 4);
                self.next_id += 1;
                out.push((delay, self.next_id));
            }
        }
        out
    }
}

fn fire(id: u32, w: &mut World, eng: &mut Engine<World>) {
    for (delay, child) in w.fire(eng.now().as_nanos(), id) {
        eng.schedule_in(SimTime::from_nanos(delay), move |w, e| fire(child, w, e));
    }
}

/// The reference calendar: a flat list of `(time, seq, id)`, popped by a
/// linear search for the smallest `(time, seq)`.
#[derive(Default)]
struct Reference {
    pending: Vec<(u64, u64, u32)>,
    now: u64,
    seq: u64,
    executed: u64,
}

impl Reference {
    fn schedule_at(&mut self, at: u64, id: u32) {
        assert!(at >= self.now);
        self.pending.push((at, self.seq, id));
        self.seq += 1;
    }

    fn head(&self) -> Option<usize> {
        (0..self.pending.len()).min_by_key(|&i| (self.pending[i].0, self.pending[i].1))
    }

    fn run_until(&mut self, w: &mut World, deadline: u64) {
        while let Some(i) = self.head().filter(|&i| self.pending[i].0 <= deadline) {
            let (at, _, id) = self.pending.swap_remove(i);
            self.now = at;
            self.executed += 1;
            for (delay, child) in w.fire(at, id) {
                self.schedule_at(at + delay, child);
            }
        }
    }
}

/// The calendar fires events in exactly sorted `(time, seq)` order —
/// checked against a linear-search reference over random schedules with
/// duplicate times, zero delays, events that schedule more events at `now`,
/// and `run_until` deadlines that stop before the head followed by new
/// events between `now` and that head.
#[test]
fn calendar_order_matches_sorted_reference() {
    let mut driver = Rng::new(0xCA1E);
    for case in 0..200u64 {
        let seed = driver.next_u64();
        let mut eng: Engine<World> = Engine::new();
        let mut ew = World::new(seed);
        let mut reference = Reference::default();
        let mut rw = World::new(seed);
        let mut next_root = 1u32 << 20;
        for _ in 0..driver.range_usize(1, 40) {
            let now = reference.now;
            let head = reference.head().map(|i| reference.pending[i].0);
            match driver.range_u32(0, 3) {
                0 => {
                    // New root events: mostly between `now` and the head,
                    // sometimes far beyond it (high key bits).
                    let span = head.map_or(20, |h| h - now + 1);
                    let mut at = now + driver.range_u64(0, span);
                    if driver.range_u32(0, 8) == 0 {
                        at += driver.range_u64(1, 1 << 40);
                    }
                    for _ in 0..driver.range_usize(1, 4) {
                        next_root += 1;
                        let id = next_root;
                        eng.schedule_at(SimTime::from_nanos(at), move |w, e| fire(id, w, e));
                        reference.schedule_at(at, id);
                    }
                }
                _ => {
                    // A deadline that may fall before the head.
                    let deadline = now + driver.range_u64(0, 30);
                    eng.run_until(&mut ew, SimTime::from_nanos(deadline));
                    reference.run_until(&mut rw, deadline);
                }
            }
            assert_eq!(ew.log, rw.log, "case {case}: firing order");
            assert_eq!(eng.now().as_nanos(), reference.now, "case {case}: now");
            assert_eq!(eng.pending(), reference.pending.len(), "case {case}");
            assert_eq!(eng.events_executed(), reference.executed, "case {case}");
        }
        eng.run(&mut ew);
        reference.run_until(&mut rw, u64::MAX);
        assert_eq!(ew.log, rw.log, "case {case}: firing order after drain");
        assert_eq!(eng.pending(), 0);
        assert_eq!(eng.events_executed(), reference.executed, "case {case}");
        assert!(rw.log.windows(2).all(|p| p[0].0 <= p[1].0), "case {case}");
    }
}
