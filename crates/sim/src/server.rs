//! Serial FIFO bandwidth servers — the contention model.
//!
//! Every finite hardware resource in the machine model (a torus link
//! direction, the node's DMA engine, the memory subsystem, each core, the
//! tree up/down channels) is a [`Server`]: a single-queue resource with a
//! `free_at` horizon. A request of duration `d` issued at time `t` starts at
//! `max(t, free_at)`, finishes `d` later, and pushes the horizon forward.
//!
//! When multiple protocol pipelines submit chunk-sized work to the same
//! server, FIFO service at chunk granularity interleaves them and converges
//! on fair processor sharing — which is how the real DMA engine and memory
//! controller behave at the timescales the paper measures.
//!
//! **Coupled reservations** model operations that occupy several resources at
//! once (a core memcpy occupies the core *and* memory bandwidth; a DMA local
//! copy occupies the DMA engine *and* memory). The rule, implemented by
//! [`ServerPool::reserve_coupled`]:
//!
//! * each resource computes its own finish time as if serving alone;
//! * the operation completes at the **latest** of those finishes;
//! * the *owning* (serial, dedicated) resource's horizon advances to the
//!   overall completion — a core genuinely stalls while its copy waits on
//!   memory — while shared resources only advance by their own service time,
//!   so an unrelated core is never blocked by this core's stall.

use crate::time::SimTime;

/// Index of a server inside a [`ServerPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServerId(pub u32);

/// A single serial FIFO resource.
#[derive(Debug, Clone)]
pub struct Server {
    /// Earliest time a new request can start service.
    free_at: SimTime,
    /// Total time spent serving (for utilization reports).
    busy: SimTime,
    /// Number of requests served.
    ops: u64,
}

impl Default for Server {
    fn default() -> Self {
        Self::new()
    }
}

impl Server {
    /// A fresh, idle server.
    pub fn new() -> Self {
        Server {
            free_at: SimTime::ZERO,
            busy: SimTime::ZERO,
            ops: 0,
        }
    }

    /// Reserve `duration` of service starting no earlier than `now`.
    /// Returns the completion time.
    #[inline]
    pub fn reserve(&mut self, now: SimTime, duration: SimTime) -> SimTime {
        let start = now.max(self.free_at);
        let finish = start + duration;
        self.free_at = finish;
        self.busy += duration;
        self.ops += 1;
        finish
    }

    /// Completion time this request *would* get, without reserving.
    #[inline]
    pub fn peek(&self, now: SimTime, duration: SimTime) -> SimTime {
        now.max(self.free_at) + duration
    }

    /// Earliest time a new request could start.
    #[inline]
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Accumulated service time.
    #[inline]
    pub fn busy_time(&self) -> SimTime {
        self.busy
    }

    /// Requests served so far.
    #[inline]
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Utilization over `[0, horizon]`; `None` if `horizon` is zero.
    pub fn utilization(&self, horizon: SimTime) -> Option<f64> {
        if horizon == SimTime::ZERO {
            return None;
        }
        Some(self.busy.as_secs_f64() / horizon.as_secs_f64())
    }

    /// Push the horizon forward without accounting busy time. Used by the
    /// coupled-reservation rule for the owning resource's stall.
    #[inline]
    fn stall_until(&mut self, t: SimTime) {
        self.free_at = self.free_at.max(t);
    }
}

/// A collection of [`Server`]s addressed by [`ServerId`].
///
/// The machine model allocates every link / engine / core up front and then
/// refers to them by id from event closures (ids are `Copy`, closures stay
/// `'static`). Ids are dense in allocation order; a pool keeps no names —
/// the owner that fixed the layout derives them on demand (e.g.
/// `bgp_dcmf::Machine::server_name`).
#[derive(Debug, Default)]
pub struct ServerPool {
    servers: Vec<Server>,
}

impl ServerPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a new idle server.
    pub fn alloc(&mut self) -> ServerId {
        let id = ServerId(self.servers.len() as u32);
        self.servers.push(Server::new());
        id
    }

    /// Number of servers in the pool.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// True if no servers have been allocated.
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Shared access to a server.
    #[inline]
    pub fn get(&self, id: ServerId) -> &Server {
        &self.servers[id.0 as usize]
    }

    /// Reserve `duration` on a single server. Returns completion time.
    #[inline]
    pub fn reserve(&mut self, id: ServerId, now: SimTime, duration: SimTime) -> SimTime {
        self.servers[id.0 as usize].reserve(now, duration)
    }

    /// Reserve a multi-resource operation.
    ///
    /// `owner` is the dedicated serial resource driving the op (a core, the
    /// DMA engine); `shared` lists `(resource, service_time)` pairs for the
    /// resources the op consumes concurrently. Completion is the max of all
    /// individual finishes; the owner stalls to completion, shared resources
    /// advance only by their own service time.
    pub fn reserve_coupled(
        &mut self,
        owner: ServerId,
        owner_duration: SimTime,
        shared: &[(ServerId, SimTime)],
        now: SimTime,
    ) -> SimTime {
        let mut completion = self.servers[owner.0 as usize].reserve(now, owner_duration);
        for &(id, d) in shared {
            debug_assert_ne!(id, owner, "owner listed among shared resources");
            let f = self.servers[id.0 as usize].reserve(now, d);
            completion = completion.max(f);
        }
        self.servers[owner.0 as usize].stall_until(completion);
        completion
    }

    /// Reset every server to idle, keeping the allocation. Used
    /// between benchmark iterations so each timed collective starts from a
    /// quiet machine.
    pub fn reset(&mut self) {
        for s in &mut self.servers {
            *s = Server::new();
        }
    }

    /// Iterate `(id, server)` in id order, for reporting.
    pub fn iter(&self) -> impl Iterator<Item = (ServerId, &Server)> {
        self.servers
            .iter()
            .enumerate()
            .map(|(i, s)| (ServerId(i as u32), s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn idle_server_starts_immediately() {
        let mut s = Server::new();
        assert_eq!(s.reserve(ns(100), ns(10)), ns(110));
        assert_eq!(s.free_at(), ns(110));
        assert_eq!(s.busy_time(), ns(10));
        assert_eq!(s.ops(), 1);
    }

    #[test]
    fn busy_server_queues_fifo() {
        let mut s = Server::new();
        s.reserve(ns(0), ns(100));
        // Second request at t=10 must wait until 100.
        assert_eq!(s.reserve(ns(10), ns(5)), ns(105));
        // Third queues behind second.
        assert_eq!(s.reserve(ns(10), ns(5)), ns(110));
        assert_eq!(s.busy_time(), ns(110));
    }

    #[test]
    fn peek_does_not_reserve() {
        let mut s = Server::new();
        s.reserve(ns(0), ns(50));
        assert_eq!(s.peek(ns(0), ns(10)), ns(60));
        assert_eq!(s.free_at(), ns(50));
    }

    #[test]
    fn utilization() {
        let mut s = Server::new();
        s.reserve(ns(0), ns(25));
        assert!((s.utilization(ns(100)).unwrap() - 0.25).abs() < 1e-12);
        assert!(s.utilization(SimTime::ZERO).is_none());
    }

    #[test]
    fn gaps_leave_idle_time() {
        let mut s = Server::new();
        s.reserve(ns(0), ns(10));
        s.reserve(ns(100), ns(10));
        assert_eq!(s.busy_time(), ns(20));
        assert_eq!(s.free_at(), ns(110));
    }

    #[test]
    fn pool_alloc_hands_out_dense_ids() {
        let mut p = ServerPool::new();
        assert!(p.is_empty());
        let a = p.alloc();
        let b = p.alloc();
        assert_eq!(p.len(), 2);
        assert_eq!((a, b), (ServerId(0), ServerId(1)));
    }

    #[test]
    fn coupled_memory_bound_op_stalls_owner_not_memory() {
        let mut p = ServerPool::new();
        let core = p.alloc();
        let mem = p.alloc();
        // Memory is already busy until t=100; core is idle.
        p.reserve(mem, ns(0), ns(100));
        // Core copy: 10ns of core time, 20ns of memory time.
        let done = p.reserve_coupled(core, ns(10), &[(mem, ns(20))], ns(0));
        assert_eq!(done, ns(120)); // waits for memory backlog
        assert_eq!(p.get(core).free_at(), ns(120)); // core stalled
        assert_eq!(p.get(mem).free_at(), ns(120)); // mem advanced by its 20
    }

    #[test]
    fn coupled_cpu_bound_op_does_not_hold_memory() {
        let mut p = ServerPool::new();
        let core = p.alloc();
        let other = p.alloc();
        let mem = p.alloc();
        // Core-bound op: 100ns core, 10ns memory.
        let done = p.reserve_coupled(core, ns(100), &[(mem, ns(10))], ns(0));
        assert_eq!(done, ns(100));
        // Memory freed at 10, so another core's op is not blocked.
        let done2 = p.reserve_coupled(other, ns(5), &[(mem, ns(5))], ns(0));
        assert_eq!(done2, ns(15));
    }

    #[test]
    fn two_cores_share_memory_fairly_at_chunk_granularity() {
        // Two cores each copy 10 chunks; each chunk: 10ns core, 10ns memory.
        // Memory can serve exactly one chunk at a time, so aggregate
        // throughput is memory-bound: 20 chunks * 10ns = 200ns.
        let mut p = ServerPool::new();
        let c0 = p.alloc();
        let c1 = p.alloc();
        let mem = p.alloc();
        let mut t0 = SimTime::ZERO;
        let mut t1 = SimTime::ZERO;
        for _ in 0..10 {
            t0 = p.reserve_coupled(c0, ns(10), &[(mem, ns(10))], t0);
            t1 = p.reserve_coupled(c1, ns(10), &[(mem, ns(10))], t1);
        }
        let end = t0.max(t1);
        assert_eq!(end, ns(200));
        // Both cores finish within one chunk of each other (fairness).
        assert!(t0.saturating_sub(t1).max(t1.saturating_sub(t0)) <= ns(10));
    }

    #[test]
    fn pool_reset_clears_state() {
        let mut p = ServerPool::new();
        let a = p.alloc();
        p.reserve(a, ns(0), ns(10));
        p.reset();
        assert_eq!(p.len(), 1);
        assert_eq!(p.get(a).free_at(), SimTime::ZERO);
        assert_eq!(p.get(a).ops(), 0);
    }

    #[test]
    fn iter_reports_all() {
        let mut p = ServerPool::new();
        let a = p.alloc();
        let b = p.alloc();
        p.reserve(b, ns(0), ns(10));
        let seen: Vec<(ServerId, u64)> = p.iter().map(|(id, s)| (id, s.ops())).collect();
        assert_eq!(seen, vec![(a, 0), (b, 1)]);
    }
}
