//! Transfer primitives: reservation math over the machine's servers.
//!
//! Every op is called at the simulated time `now` when its preconditions are
//! met (the caller's event fired), reserves the resources it occupies, and
//! returns completion time(s). Conventions:
//!
//! * `working_set` is the pipeline's resident footprint in bytes, used to
//!   pick L2 vs DRAM rates (the Figure 10 cliff).
//! * A DMA network operation charges the engine one unit per payload byte
//!   and the memory system one unit (the reception write / injection read).
//! * A DMA *local* copy charges the engine and memory
//!   `local_copy_factor`/`copy_traffic_factor` units (read + write).
//! * A core copy charges the core at the calibrated per-core copy rate and
//!   memory at either the full read+write factor or the shared-read
//!   discount (source just produced on-node and L2-resident).

//!
//! Every primitive also reports a span to the machine's [`bgp_sim::Probe`]
//! (phase names like `"dma_inject"`, `"core_copy"`, `"tree_inject"`), so an
//! enabled probe can attribute an operation's makespan per phase. With the
//! probe disabled (the default) each report is a single predicted branch.

use bgp_machine::geometry::{Direction, NodeId};
use bgp_machine::routing::LineBcast;
use bgp_sim::{ServerId, SimTime};

use crate::machine::Machine;

/// Post one DMA descriptor from `core` of `node`.
pub fn descriptor_post(m: &mut Machine, now: SimTime, node: NodeId, core: u32) -> SimTime {
    let d = m.cfg.dma.descriptor_cost();
    let core = m.core(node, core);
    let fin = m.pool.reserve(core, now, d);
    m.probe.record("descriptor_post", node.0, now, fin);
    fin
}

/// Charge `core` of `node` for `dur` of protocol/bookkeeping work.
pub fn core_busy(m: &mut Machine, now: SimTime, node: NodeId, core: u32, dur: SimTime) -> SimTime {
    let core = m.core(node, core);
    let fin = m.pool.reserve(core, now, dur);
    m.probe.record("protocol", node.0, now, fin);
    fin
}

/// One delivery of a planned deposit-bit line: the destination, the link
/// server that carries the chunk into it, and its hop count from the
/// source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineHop {
    /// The node the routers deposit the chunk at.
    pub dst: NodeId,
    /// The delivery link: `dst`'s incoming link in the charged direction
    /// class (owned by `dst`'s upstream neighbor in that class).
    pub link: ServerId,
    /// Hops from the source (1 for the first destination).
    pub hop: u32,
}

/// Resolve the geometry of line broadcast `lb` once: its destinations in
/// hop order, each with the delivery link [`line_transfer`] reserves.
///
/// `charge_dir` selects which direction class pays for each delivery: the
/// edge-disjoint multi-color schedule dedicates one direction class to each
/// color (see `bgp_machine::routing::nr_schedule`), so a delivery into
/// `dst` reserves `dst`'s *incoming link in `charge_dir`* regardless of the
/// traversal axis. For the bulk (final) phase the two coincide physically;
/// for earlier phases this accounts the color's load on its own class, the
/// balance the real edge-disjoint construction achieves.
pub fn plan_line(m: &Machine, lb: LineBcast, charge_dir: Direction) -> Vec<LineHop> {
    let dims = m.cfg.dims;
    let mut cur = lb.from;
    (1..dims.extent(lb.dir.axis))
        .map(|hop| {
            let dst_coord = dims.neighbor(cur, lb.dir);
            let upstream = dims.neighbor(dst_coord, charge_dir.opposite());
            cur = dst_coord;
            LineHop {
                dst: m.node_at(dst_coord),
                link: m.link(m.node_at(upstream), charge_dir),
                hop,
            }
        })
        .collect()
}

/// Charge `node`'s DMA + memory for receiving `bytes` off the torus into
/// the destination buffer. Call this at the wire-delivery time; returns
/// when the data is in memory.
pub fn dma_recv(
    m: &mut Machine,
    now: SimTime,
    node: NodeId,
    bytes: u64,
    working_set: u64,
) -> SimTime {
    let dma_t = m.dma_time(m.cfg.dma.network_traffic(bytes));
    let mem_t = m.mem_time(bytes, working_set);
    let dma = m.dma(node);
    let mem = m.mem(node);
    let fin = m.pool.reserve_coupled(dma, dma_t, &[(mem, mem_t)], now);
    m.probe.record("dma_recv", node.0, now, fin);
    fin
}

/// A deposit-bit line broadcast of one chunk: `src` injects `bytes` along
/// the planned `line` (from [`plan_line`]); the torus routers deposit a copy
/// at every node of the line.
///
/// Charges the source DMA once (injection read: engine + memory), then one
/// delivery link per destination in hop order (wormhole-pipelined: the head
/// moves one hop per `hop_latency`).
///
/// Each destination's `(node, wire delivery time)` is handed to `deliver`
/// in hop order. The destination's DMA reception ([`dma_recv`]) must be
/// charged by an event *at* the wire time — charging it eagerly from the
/// source's event would reserve the destination's DMA at a future instant
/// and phantom-block other streams (the FIFO-server causality rule).
pub fn line_transfer(
    m: &mut Machine,
    now: SimTime,
    src: NodeId,
    line: &[LineHop],
    bytes: u64,
    working_set: u64,
    mut deliver: impl FnMut(NodeId, SimTime),
) {
    let link_t = m.link_time(bytes);

    // Injection: the source DMA reads the payload from memory and feeds the
    // injection FIFO of the link.
    let dma_t = m.dma_time(m.cfg.dma.network_traffic(bytes));
    let mem_t = m.mem_time(bytes, working_set);
    let src_dma = m.dma(src);
    let src_mem = m.mem(src);
    let inj_done = m
        .pool
        .reserve_coupled(src_dma, dma_t, &[(src_mem, mem_t)], now);
    m.probe.record("dma_inject", src.0, now, inj_done);
    m.probe.count("line_chunks", 1);

    // Hop progression is source-clocked: the chunk's head can reach hop i
    // no earlier than `now + i * hop_latency`. Each delivery link then
    // serializes the stream through its own FIFO. (Chaining hop i+1 to hop
    // i's *finish* would freeze transient queueing jitter into permanent
    // idle holes on downstream links; real torus routers buffer per-VC and
    // catch up, which per-link FIFOs model correctly.)
    for h in line {
        let head = now + m.cfg.torus.hop_latency(h.hop);
        let fin = m.pool.reserve(h.link, head, link_t);
        m.probe.record("link_transfer", h.dst.0, head, fin);
        // The wire has delivered once the link finished serializing and the
        // injection side is done; the destination charges its reception
        // (dma_recv) in its own event at this time.
        deliver(h.dst, fin.max(inj_done));
    }
}

/// A single-hop unicast (the phase-0 transfer of the neighbor-rooted
/// schedule): `from` sends `bytes` to its `dir` neighbor over the direct
/// link. Returns `(injection done, wire delivery at the neighbor)`; the
/// neighbor charges [`dma_recv`] at the wire time.
pub fn hop_transfer(
    m: &mut Machine,
    now: SimTime,
    from: NodeId,
    dir: Direction,
    bytes: u64,
    working_set: u64,
) -> (SimTime, SimTime) {
    let dma_t = m.dma_time(m.cfg.dma.network_traffic(bytes));
    let mem_t = m.mem_time(bytes, working_set);
    let src_dma = m.dma(from);
    let src_mem = m.mem(from);
    let inj_done = m
        .pool
        .reserve_coupled(src_dma, dma_t, &[(src_mem, mem_t)], now);
    m.probe.record("dma_inject", from.0, now, inj_done);
    let link = m.link(from, dir);
    let head = now + m.cfg.torus.hop_latency(1);
    let fin = m.pool.reserve(link, head, m.link_time(bytes));
    if m.probe.is_enabled() {
        let dst = m.node_at(m.cfg.dims.neighbor(m.coord(from), dir));
        m.probe.record("link_transfer", dst.0, head, fin);
    }
    (inj_done, fin.max(inj_done))
}

/// DMA Direct-Put point-to-point transfer of `bytes` from `src` to `dst`
/// along dimension-ordered minimal routing (used by the ring allreduce).
/// Returns arrival time at `dst`.
pub fn direct_put(
    m: &mut Machine,
    now: SimTime,
    src: NodeId,
    dst: NodeId,
    bytes: u64,
    working_set: u64,
) -> SimTime {
    let hops = m.cfg.dims.torus_distance(m.coord(src), m.coord(dst)).max(1);
    let dma_t = m.dma_time(m.cfg.dma.network_traffic(bytes));
    let mem_t = m.mem_time(bytes, working_set);
    let src_dma = m.dma(src);
    let src_mem = m.mem(src);
    let inj = m
        .pool
        .reserve_coupled(src_dma, dma_t, &[(src_mem, mem_t)], now);
    m.probe.record("dma_inject", src.0, now, inj);
    // Flow-level path model: charge serialization once (the bottleneck link
    // along a minimal route is the source's first link for our patterns)
    // plus per-hop latency.
    let wire = inj + m.link_time(bytes) + m.cfg.torus.hop_latency(hops);
    m.probe.record("link_transfer", dst.0, inj, wire);
    let dst_dma = m.dma(dst);
    let dst_mem = m.mem(dst);
    let mem_t2 = m.mem_time(bytes, working_set);
    let dma_t2 = m.dma_time(m.cfg.dma.network_traffic(bytes));
    let fin = m
        .pool
        .reserve_coupled(dst_dma, dma_t2, &[(dst_mem, mem_t2)], wire);
    m.probe.record("dma_recv", dst.0, wire, fin);
    fin
}

/// DMA local distribution: the engine copies `bytes` to each of `n_copies`
/// peer buffers on `node` (the quad-mode Direct-Put / memory-FIFO intra-node
/// baseline). Returns completion of all copies.
pub fn dma_local_distribute(
    m: &mut Machine,
    now: SimTime,
    node: NodeId,
    bytes: u64,
    n_copies: u32,
    working_set: u64,
) -> SimTime {
    if n_copies == 0 || bytes == 0 {
        return now;
    }
    let payload = bytes * n_copies as u64;
    let dma_t = m.dma_time(m.cfg.dma.local_copy_traffic(payload));
    let mem_t = m.mem_time(m.cfg.mem.copy_traffic(payload), working_set);
    let dma = m.dma(node);
    let mem = m.mem(node);
    let fin = m.pool.reserve_coupled(dma, dma_t, &[(mem, mem_t)], now);
    m.probe.record("dma_local_copy", node.0, now, fin);
    fin
}

/// A core memcpy of `bytes` on `node` by `core`. `shared_source` selects the
/// L2 read discount (source bytes just produced on-node and the working set
/// is L2-resident).
pub fn core_copy(
    m: &mut Machine,
    now: SimTime,
    node: NodeId,
    core: u32,
    bytes: u64,
    working_set: u64,
    shared_source: bool,
) -> SimTime {
    if bytes == 0 {
        return now;
    }
    let core_t = m.core_copy_time(bytes, working_set);
    let hot = shared_source && m.cfg.mem.l2_resident(working_set);
    let traffic = if hot {
        m.cfg.mem.shared_copy_traffic(bytes)
    } else {
        m.cfg.mem.copy_traffic(bytes)
    };
    let mem_t = m.mem_time(traffic, working_set);
    let core = m.core(node, core);
    let mem = m.mem(node);
    let fin = m.pool.reserve_coupled(core, core_t, &[(mem, mem_t)], now);
    m.probe.record("core_copy", node.0, now, fin);
    m.probe.count("core_copy_chunks", 1);
    fin
}

/// A core reduction: read `n_inputs` streams of `bytes_out` each, produce
/// one output stream of `bytes_out` (the §V-C local reduce).
pub fn core_reduce(
    m: &mut Machine,
    now: SimTime,
    node: NodeId,
    core: u32,
    bytes_out: u64,
    n_inputs: usize,
    working_set: u64,
) -> SimTime {
    if bytes_out == 0 {
        return now;
    }
    let core_t = m.cfg.mem.core_reduce_rate(n_inputs).time_for(bytes_out);
    let traffic = bytes_out * (n_inputs as u64 + 1); // n reads + 1 write
    let mem_t = m.mem_time(traffic, working_set);
    let core = m.core(node, core);
    let mem = m.mem(node);
    let fin = m.pool.reserve_coupled(core, core_t, &[(mem, mem_t)], now);
    m.probe.record("core_reduce", node.0, now, fin);
    fin
}

/// Inject `bytes` into the collective network from `node` by `core`:
/// per-packet core processing coupled with the tree uplink, plus the memory
/// read of the payload when `payload` is true (the broadcast root injects
/// real data; every other node injects generated zeros into the OR, which
/// costs core and tree time but reads no application memory).
pub fn tree_inject(
    m: &mut Machine,
    now: SimTime,
    node: NodeId,
    core: u32,
    bytes: u64,
    working_set: u64,
    payload: bool,
) -> SimTime {
    let core_t = m.cfg.tree.core_packet_cost(bytes);
    let tree_t = m.tree_time(bytes);
    let core = m.core(node, core);
    let up = m.tree_up(node);
    let fin = if payload {
        let mem_t = m.mem_time(bytes, working_set);
        let mem = m.mem(node);
        m.pool
            .reserve_coupled(core, core_t, &[(up, tree_t), (mem, mem_t)], now)
    } else {
        m.pool.reserve_coupled(core, core_t, &[(up, tree_t)], now)
    };
    m.probe.record("tree_inject", node.0, now, fin);
    fin
}

/// The tree hardware delivers `bytes` on `node`'s downlink (replication is
/// in-switch; each node's downlink is an independent 850 MB/s channel).
pub fn tree_down_transfer(m: &mut Machine, now: SimTime, node: NodeId, bytes: u64) -> SimTime {
    let t = m.tree_time(bytes);
    let down = m.tree_down(node);
    let fin = m.pool.reserve(down, now, t);
    m.probe.record("tree_down", node.0, now, fin);
    fin
}

/// Receive `bytes` from the collective network on `node` by `core`:
/// per-packet core processing coupled with the memory write of the payload.
pub fn tree_recv(
    m: &mut Machine,
    now: SimTime,
    node: NodeId,
    core: u32,
    bytes: u64,
    working_set: u64,
) -> SimTime {
    let core_t = m.cfg.tree.core_packet_cost(bytes);
    let mem_t = m.mem_time(bytes, working_set);
    let core = m.core(node, core);
    let mem = m.mem(node);
    let fin = m.pool.reserve_coupled(core, core_t, &[(mem, mem_t)], now);
    m.probe.record("tree_recv", node.0, now, fin);
    fin
}

/// Drain `bytes` of DMA memory-FIFO packets on `core` (the reception path
/// of the `CollectiveNetwork + DMA FIFO` baseline).
pub fn memfifo_drain(
    m: &mut Machine,
    now: SimTime,
    node: NodeId,
    core: u32,
    bytes: u64,
) -> SimTime {
    let t = m.cfg.dma.memfifo_drain_cost(bytes);
    let core = m.core(node, core);
    let fin = m.pool.reserve(core, now, t);
    m.probe.record("memfifo_drain", node.0, now, fin);
    fin
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_machine::geometry::{Axis, Coord, Direction, Sign};
    use bgp_machine::{MachineConfig, OpMode};
    use bgp_sim::SimTime;

    fn machine() -> Machine {
        Machine::new(MachineConfig::test_small(OpMode::Quad))
    }

    const WS: u64 = 1 << 20;

    fn xp() -> Direction {
        Direction {
            axis: Axis::X,
            sign: Sign::Plus,
        }
    }

    /// One chunk down `lb` (charged on its own direction), its arrivals
    /// collected in hop order.
    fn line_arrivals(
        m: &mut Machine,
        now: SimTime,
        lb: LineBcast,
        bytes: u64,
    ) -> Vec<(NodeId, SimTime)> {
        let line = plan_line(m, lb, lb.dir);
        let mut arr = Vec::new();
        let src = m.node_at(lb.from);
        line_transfer(m, now, src, &line, bytes, WS, |dst, wire| {
            arr.push((dst, wire))
        });
        arr
    }

    #[test]
    fn line_transfer_covers_the_line_in_hop_order() {
        let mut m = machine();
        let lb = LineBcast {
            from: Coord::new(0, 0, 0),
            dir: xp(),
        };
        let arr = line_arrivals(&mut m, SimTime::ZERO, lb, 16 * 1024);
        assert_eq!(arr.len(), 3); // extent 4, three destinations
                                  // Arrivals strictly increase with hop count.
        for w in arr.windows(2) {
            assert!(w[0].1 < w[1].1, "arrival order violated");
        }
        // Destination ids follow the +X ring: (1,0,0), (2,0,0), (3,0,0).
        assert_eq!(arr[0].0, m.node_at(Coord::new(1, 0, 0)));
        assert_eq!(arr[2].0, m.node_at(Coord::new(3, 0, 0)));
    }

    #[test]
    fn line_transfer_throughput_is_link_bound() {
        // Stream many chunks down one line: steady-state inter-arrival at
        // the last node must equal the link serialization time.
        let mut m = machine();
        let bytes = 64 * 1024u64;
        let lb = LineBcast {
            from: Coord::new(0, 0, 0),
            dir: xp(),
        };
        let mut last_arrivals = Vec::new();
        let mut now = SimTime::ZERO;
        for _ in 0..20 {
            let arr = line_arrivals(&mut m, now, lb, bytes);
            last_arrivals.push(arr.last().unwrap().1);
            now = SimTime::ZERO; // submit back-to-back; servers serialize
        }
        let d = m.link_time(bytes);
        let gaps: Vec<u64> = last_arrivals
            .windows(2)
            .map(|w| (w[1] - w[0]).as_nanos())
            .collect();
        for g in &gaps[2..] {
            assert_eq!(*g, d.as_nanos(), "steady-state gap should be link time");
        }
    }

    #[test]
    fn wormhole_pipelines_hops() {
        // One chunk across 3 hops must take ~ (serialization + hops*lat),
        // not 3 * serialization.
        let mut m = machine();
        let bytes = 1 << 20;
        let lb = LineBcast {
            from: Coord::new(0, 0, 0),
            dir: xp(),
        };
        let arr = line_arrivals(&mut m, SimTime::ZERO, lb, bytes);
        let last = arr.last().unwrap().1;
        let ser = m.link_time(bytes).as_nanos();
        assert!(
            last.as_nanos() < ser * 2,
            "store-and-forward detected: {last} vs serialization {ser}ns"
        );
    }

    #[test]
    fn dma_local_distribute_charges_engine_double() {
        let mut m = machine();
        let n = NodeId(0);
        let bytes = 1 << 20;
        let done = dma_local_distribute(&mut m, SimTime::ZERO, n, bytes, 3, WS);
        // 3 copies * 2 units * 1MB at 6.4 GB/s ≈ 983 us... in ns:
        let expect = m.dma_time(m.cfg.dma.local_copy_traffic(3 * bytes));
        assert_eq!(done, expect);
        assert_eq!(dma_local_distribute(&mut m, done, n, 0, 3, WS), done);
        assert_eq!(dma_local_distribute(&mut m, done, n, 5, 0, WS), done);
    }

    #[test]
    fn core_copy_shared_source_is_cheaper_on_memory() {
        let mut m = machine();
        let bytes = 1 << 20;
        let t_shared = {
            let mut m2 = machine();
            core_copy(&mut m2, SimTime::ZERO, NodeId(0), 1, bytes, WS, true);
            m2.pool.get(m2.mem(NodeId(0))).busy_time()
        };
        core_copy(&mut m, SimTime::ZERO, NodeId(0), 1, bytes, WS, false);
        let t_full = m.pool.get(m.mem(NodeId(0))).busy_time();
        assert!(t_shared < t_full);
    }

    #[test]
    fn shared_source_discount_disappears_past_l2() {
        let big_ws = 64 << 20;
        let mut a = machine();
        core_copy(&mut a, SimTime::ZERO, NodeId(0), 1, 1 << 20, big_ws, true);
        let mut b = machine();
        core_copy(&mut b, SimTime::ZERO, NodeId(0), 1, 1 << 20, big_ws, false);
        assert_eq!(
            a.pool.get(a.mem(NodeId(0))).busy_time(),
            b.pool.get(b.mem(NodeId(0))).busy_time()
        );
    }

    #[test]
    fn two_cores_copy_in_parallel() {
        let mut m = machine();
        let bytes = 1 << 20;
        let t1 = core_copy(&mut m, SimTime::ZERO, NodeId(0), 0, bytes, WS, true);
        let t2 = core_copy(&mut m, SimTime::ZERO, NodeId(0), 1, bytes, WS, true);
        // Cores are independent; memory has headroom at this size, so the
        // second copy must not take twice as long.
        assert!(t2 < t1 * 2);
    }

    #[test]
    fn tree_inject_is_core_and_channel_coupled() {
        let mut m = machine();
        let bytes = 1 << 20;
        let done = tree_inject(&mut m, SimTime::ZERO, NodeId(0), 0, bytes, WS, true);
        // Neither the core-packet cost nor the channel time alone may
        // exceed the completion.
        assert!(done >= m.cfg.tree.core_packet_cost(bytes));
        assert!(done >= m.tree_time(bytes));
    }

    #[test]
    fn one_core_doing_inject_and_recv_halves_throughput() {
        // The motivation for core specialization: interleave inject+recv
        // chunks on ONE core vs on TWO cores; two cores must be ~2x faster.
        let chunk = 64 * 1024u64;
        let n = 32;

        let mut one = machine();
        let mut t_inj = SimTime::ZERO;
        let mut t_rcv = SimTime::ZERO;
        for _ in 0..n {
            t_inj = tree_inject(&mut one, t_inj, NodeId(0), 0, chunk, WS, true);
            t_rcv = tree_recv(&mut one, t_rcv, NodeId(0), 0, chunk, WS);
        }
        let one_core = t_inj.max(t_rcv);

        let mut two = machine();
        let mut t_inj2 = SimTime::ZERO;
        let mut t_rcv2 = SimTime::ZERO;
        for _ in 0..n {
            t_inj2 = tree_inject(&mut two, t_inj2, NodeId(0), 0, chunk, WS, true);
            t_rcv2 = tree_recv(&mut two, t_rcv2, NodeId(0), 1, chunk, WS);
        }
        let two_cores = t_inj2.max(t_rcv2);
        let ratio = one_core.as_secs_f64() / two_cores.as_secs_f64();
        assert!(ratio > 1.6, "core specialization gain too small: {ratio}");
    }

    #[test]
    fn direct_put_scales_with_distance_latency_only() {
        let mut m = machine();
        let near = direct_put(&mut m, SimTime::ZERO, NodeId(0), NodeId(1), 1024, WS);
        let mut m2 = machine();
        let far_node = m2.node_at(Coord::new(2, 2, 2));
        let far = direct_put(&mut m2, SimTime::ZERO, NodeId(0), far_node, 1024, WS);
        assert!(far > near);
        let dlat = (far - near).as_nanos();
        // 6 hops vs 1 hop: 5 extra hop latencies.
        assert_eq!(dlat, 5 * m.cfg.torus.hop_latency_ns);
    }

    #[test]
    fn memfifo_drain_charges_core_only() {
        let mut m = machine();
        let done = memfifo_drain(&mut m, SimTime::ZERO, NodeId(0), 2, 24_000);
        assert_eq!(done, m.cfg.dma.memfifo_drain_cost(24_000));
        assert_eq!(m.pool.get(m.mem(NodeId(0))).busy_time(), SimTime::ZERO);
    }

    #[test]
    fn descriptor_and_busy_charge_the_named_core() {
        let mut m = machine();
        descriptor_post(&mut m, SimTime::ZERO, NodeId(0), 3);
        core_busy(
            &mut m,
            SimTime::ZERO,
            NodeId(0),
            3,
            SimTime::from_nanos(100),
        );
        let busy = m.pool.get(m.core(NodeId(0), 3)).busy_time();
        assert_eq!(busy.as_nanos(), m.cfg.dma.descriptor_cost_ns + 100);
        assert_eq!(m.pool.get(m.core(NodeId(0), 0)).busy_time(), SimTime::ZERO);
    }
}
