//! The multi-color torus broadcast executor.
//!
//! Drives the full machine, event by event: the root launches every pipeline
//! chunk of every color; each deposit-bit line transfer produces per-node
//! arrival events; an arriving node forwards the chunk on every line it
//! sources (later phases of the color's spanning tree) and runs the
//! pluggable *intra-node stage* (how the chunk reaches the node's other
//! ranks — the thing the paper's algorithms differ in).
//!
//! All bandwidth contention — links, each node's DMA engine, memory system and
//! cores — flows through the `bgp-sim` servers reserved by the `bgp-dcmf`
//! ops, so baselines and proposed schemes compete under identical rules.
//!
//! **Typed events.** The executor schedules four kinds of plain `Ev`
//! values on one [`Calendar`] and fires them from a single `match`: the
//! root's two per-color chains (`RootHop`: the phase-0 unicast to the
//! color's relay; `RootIntra`: the root's own intra-node stage) and the two
//! steps of every delivery (`Wire`: the chunk is off the wire, charge the
//! destination's DMA reception; `Recv`: the chunk is in memory, account it,
//! run the intra-node stage, forward it). Events carry the chunk *index*;
//! the span is looked up in the color's chunk list.
//!
//! **Line plans.** Before the first event, each color's neighbor-rooted
//! schedule is resolved into a dense per-node table of the lines that node
//! sources, each line a slice of [`LineHop`]s (destination, delivery-link
//! server, hop count). Forwarding a chunk is then a table lookup plus one
//! [`ops::line_transfer`] per line, which hands each wire time straight to
//! the calendar: the per-chunk path allocates nothing and redoes no torus
//! coordinate arithmetic.

use std::rc::Rc;

use bgp_dcmf::ops::LineHop;
use bgp_dcmf::{ops, Machine};
use bgp_machine::geometry::{Direction, NodeId};
use bgp_machine::routing::{color_routes, nr_schedule, ColorRoute};
use bgp_sim::{Calendar, SimTime};

use crate::chunking::{chunk_sizes, chunk_spans, color_spans, sorted_cover, Span};

/// The intra-node distribution stage: invoked at `node` when `bytes` of a
/// chunk have landed in the master rank's reception buffer at time `now`;
/// returns when every rank of the node has the chunk.
pub type IntraStage = Rc<dyn Fn(&mut Machine, SimTime, NodeId, u64) -> SimTime>;

/// An intra-node stage that does nothing (SMP mode: one rank per node).
pub fn identity_stage() -> IntraStage {
    Rc::new(|_m, now, _node, _bytes| now)
}

/// Parameters of one torus broadcast.
#[derive(Debug, Clone)]
pub struct TorusBcastSpec {
    /// The broadcast root node.
    pub root: NodeId,
    /// Message size in bytes.
    pub bytes: u64,
    /// Pipeline width (the paper's `Pwidth`).
    pub pwidth: u64,
    /// Resident footprint for L2-cliff rate selection (algorithm-specific;
    /// e.g. `(ranks per node) × bytes` for quad-mode direct copies).
    pub working_set: u64,
}

/// What the executor observed.
#[derive(Debug, Clone)]
pub struct BcastOutcome {
    /// Time every rank of every node has the full message (incl. the MPI
    /// dispatch overhead at the start).
    pub completion: SimTime,
    /// Network bytes delivered per node — each non-root node must equal the
    /// message size (payload-coverage verification).
    pub delivered: Vec<u64>,
    /// Per node: the exact `(offset, len)` spans received off the network.
    /// [`BcastOutcome::coverage_exact`] checks they tile `[0, bytes)` with
    /// no gap, overlap, or duplicate — the functional-correctness check a
    /// byte count cannot provide.
    pub spans: Vec<Vec<Span>>,
    /// Events executed (diagnostic).
    pub events: u64,
}

impl BcastOutcome {
    /// Whether every node received a disjoint exact cover of the message.
    pub fn coverage_exact(&self, bytes: u64) -> bool {
        let mut buf = Vec::new();
        self.spans.iter().all(|s| {
            buf.clear();
            buf.extend_from_slice(s);
            sorted_cover(&mut buf, bytes)
        })
    }
}

/// One executor event; `k` indexes the color's pipeline chunks.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// The root unicasts chunk `k` one hop to the color's relay.
    RootHop { color: u32, k: u32 },
    /// The root's node peers copy chunk `k` out of the root rank's buffer.
    RootIntra { color: u32, k: u32 },
    /// Chunk `k` is off the wire at `dst`: charge its DMA reception.
    Wire { color: u32, k: u32, dst: NodeId },
    /// Chunk `k` is in `dst`'s memory: account it, run the intra-node
    /// stage, forward it on the lines `dst` sources.
    Recv { color: u32, k: u32, dst: NodeId },
}

/// One color's share of the broadcast, resolved once per operation.
struct ColorPlan {
    /// The color's pipeline chunks, in launch order.
    chunks: Vec<Span>,
    /// The root's phase-0 unicast direction; also the direction class every
    /// delivery of this color is charged to.
    hop_dir: Direction,
    /// The root's `hop_dir` neighbor, where the color's lines start.
    relay: NodeId,
    /// Lines sourced by node `v` (later phases first-to-last):
    /// `lines[first[v]..first[v + 1]]`.
    first: Vec<u32>,
    /// Each line's deliveries, as a `hops[a..b]` range.
    lines: Vec<(u32, u32)>,
    hops: Vec<LineHop>,
}

impl ColorPlan {
    fn new(m: &Machine, root: NodeId, route: &ColorRoute, chunks: Vec<Span>) -> Self {
        let dims = m.cfg.dims;
        let sched = nr_schedule(dims, dims.coord_of(root), route);
        // Every line with its source, in schedule order; the stable sort
        // keeps each node's lines in phase order.
        let mut by_src: Vec<_> = sched
            .phases
            .iter()
            .flatten()
            .map(|lb| (dims.id_of(lb.from), *lb))
            .collect();
        by_src.sort_by_key(|&(v, _)| v);
        let mut first = vec![0u32; dims.node_count() as usize + 1];
        for &(v, _) in &by_src {
            first[v.idx() + 1] += 1;
        }
        for v in 1..first.len() {
            first[v] += first[v - 1];
        }
        let mut lines = Vec::with_capacity(by_src.len());
        let mut hops = Vec::new();
        for (_, lb) in by_src {
            let a = hops.len() as u32;
            hops.extend(ops::plan_line(m, lb, sched.hop_dir));
            lines.push((a, hops.len() as u32));
        }
        ColorPlan {
            chunks,
            hop_dir: sched.hop_dir,
            relay: m.node_at(sched.relay),
            first,
            lines,
            hops,
        }
    }
}

/// The executor's state between events.
struct Executor {
    root: NodeId,
    colors: Vec<ColorPlan>,
    intra: IntraStage,
    working_set: u64,
    calendar: Calendar<Ev>,
    completion: SimTime,
    delivered: Vec<u64>,
    spans: Vec<Vec<Span>>,
}

/// Run one torus broadcast to completion on a fresh calendar.
///
/// The machine's servers are *not* reset first — the caller decides whether
/// the operation starts from a quiet machine (the microbenchmark barriers
/// between iterations, so the harness resets).
pub fn run_torus_bcast(m: &mut Machine, spec: &TorusBcastSpec, intra: IntraStage) -> BcastOutcome {
    let dims = m.cfg.dims;
    let n_nodes = dims.node_count() as usize;
    let routes = color_routes(dims, m.cfg.wrap);
    let t0 = m.cfg.sw.mpi_overhead();

    // Degenerate single-node machine: only the intra-node stage runs.
    if routes.is_empty() {
        let mut done = t0;
        for c in chunk_sizes(spec.bytes, spec.pwidth) {
            done = done.max(intra(m, t0, spec.root, c));
        }
        return BcastOutcome {
            completion: done,
            delivered: vec![spec.bytes],
            spans: vec![vec![(0, spec.bytes)]],
            events: 0,
        };
    }

    let shares = color_spans(spec.bytes, routes.len());
    let colors: Vec<ColorPlan> = routes
        .iter()
        .zip(&shares)
        .map(|(route, &(start, share))| {
            ColorPlan::new(m, spec.root, route, chunk_spans(start, share, spec.pwidth))
        })
        .collect();
    // Every node (the root included) receives every chunk of every color
    // once off the network.
    let per_node: usize = colors.iter().map(|c| c.chunks.len()).sum();
    let mut ex = Executor {
        root: spec.root,
        colors,
        intra,
        working_set: spec.working_set,
        calendar: Calendar::new(),
        completion: t0,
        delivered: vec![0; n_nodes],
        spans: (0..n_nodes).map(|_| Vec::with_capacity(per_node)).collect(),
    };
    // The root has the whole message at t0, but work must enter the servers
    // in causal time order (the FIFO-server rule), so each color runs two
    // chained streams from the root: the phase-0 unicast chain (chunk k+1
    // launches when the DMA finished injecting chunk k towards the relay)
    // and the intra-node chain (the root's peers copy chunk k+1 after
    // finishing chunk k).
    for (color, c) in ex.colors.iter().enumerate() {
        if !c.chunks.is_empty() {
            let color = color as u32;
            ex.calendar.push(t0, Ev::RootHop { color, k: 0 });
            ex.calendar.push(t0, Ev::RootIntra { color, k: 0 });
        }
    }
    let events = ex.run(m);
    BcastOutcome {
        completion: ex.completion,
        delivered: ex.delivered,
        spans: ex.spans,
        events,
    }
}

impl Executor {
    /// Fire events until the calendar drains; returns how many fired.
    fn run(&mut self, m: &mut Machine) -> u64 {
        let mut events = 0;
        while let Some((now, ev)) = self.calendar.pop() {
            events += 1;
            match ev {
                Ev::RootHop { color, k } => self.root_hop(m, now, color, k),
                Ev::RootIntra { color, k } => self.root_intra(m, now, color, k),
                Ev::Wire { color, k, dst } => {
                    let bytes = self.colors[color as usize].chunks[k as usize].1;
                    let arr = ops::dma_recv(m, now, dst, bytes, self.working_set);
                    self.calendar.push(arr, Ev::Recv { color, k, dst });
                }
                Ev::Recv { color, k, dst } => self.recv(m, now, color, k, dst),
            }
        }
        events
    }

    /// Root phase-0 chain for one color: unicast chunk `k` one hop to the
    /// color's relay, then chain chunk `k+1` at the injection-complete
    /// time. The relay's arrival (like every arrival) forwards the chunk on
    /// the lines the relay sources.
    fn root_hop(&mut self, m: &mut Machine, now: SimTime, color: u32, k: u32) {
        let c = &self.colors[color as usize];
        let bytes = c.chunks[k as usize].1;
        let (inj_done, wire) =
            ops::hop_transfer(m, now, self.root, c.hop_dir, bytes, self.working_set);
        self.calendar.push(
            wire,
            Ev::Wire {
                color,
                k,
                dst: c.relay,
            },
        );
        if (k as usize) + 1 < c.chunks.len() {
            self.calendar
                .push(inj_done, Ev::RootHop { color, k: k + 1 });
        }
    }

    /// Root intra-node chain for one color: the root's node peers copy the
    /// chunks out of the root rank's buffer as a pipelined stream.
    fn root_intra(&mut self, m: &mut Machine, now: SimTime, color: u32, k: u32) {
        let chunks = &self.colors[color as usize].chunks;
        let done = (self.intra)(m, now, self.root, chunks[k as usize].1);
        m.probe.record("intra_stage", self.root.0, now, done);
        self.completion = self.completion.max(done);
        if (k as usize) + 1 < chunks.len() {
            self.calendar
                .push(done.max(now), Ev::RootIntra { color, k: k + 1 });
        }
    }

    /// `node` holds chunk `k` of `color` as of `now`: account it,
    /// distribute it intra-node, and forward it on every line this node
    /// sources for this color (the later phases of the spanning tree).
    fn recv(&mut self, m: &mut Machine, now: SimTime, color: u32, k: u32, node: NodeId) {
        let c = &self.colors[color as usize];
        let span = c.chunks[k as usize];
        self.delivered[node.idx()] += span.1;
        self.spans[node.idx()].push(span);
        // The root's intra-node distribution runs from t0 out of the root
        // rank's own buffer (root_intra); its redundant network copy needs
        // no further processing.
        let done = if node == self.root {
            now
        } else {
            let done = (self.intra)(m, now, node, span.1);
            m.probe.count("torus_chunks", 1);
            m.probe.record("intra_stage", node.0, now, done);
            done
        };
        self.completion = self.completion.max(done);
        let calendar = &mut self.calendar;
        let lines = &c.lines[c.first[node.idx()] as usize..c.first[node.idx() + 1] as usize];
        for &(a, b) in lines {
            let line = &c.hops[a as usize..b as usize];
            ops::line_transfer(m, now, node, line, span.1, self.working_set, |dst, wire| {
                calendar.push(wire, Ev::Wire { color, k, dst })
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_machine::{MachineConfig, OpMode};
    use bgp_sim::Rate;

    fn machine(mode: OpMode) -> Machine {
        Machine::new(MachineConfig::test_small(mode))
    }

    fn spec(bytes: u64) -> TorusBcastSpec {
        TorusBcastSpec {
            root: NodeId(0),
            bytes,
            pwidth: 64 * 1024,
            working_set: bytes,
        }
    }

    #[test]
    fn every_node_receives_every_byte() {
        let mut m = machine(OpMode::Smp);
        let out = run_torus_bcast(&mut m, &spec(1 << 20), identity_stage());
        // Every node, including the root (which gets a redundant copy from
        // the final phases), receives the full message off the network.
        for (i, &d) in out.delivered.iter().enumerate() {
            assert_eq!(d, 1 << 20, "node {i} incomplete");
        }
    }

    #[test]
    fn every_node_receives_with_nonzero_root() {
        let mut m = machine(OpMode::Smp);
        let mut s = spec(300_000);
        s.root = NodeId(37);
        let out = run_torus_bcast(&mut m, &s, identity_stage());
        for (i, &d) in out.delivered.iter().enumerate() {
            assert_eq!(d, 300_000, "node {i}");
        }
    }

    #[test]
    fn smp_large_message_bandwidth_approaches_six_links() {
        // 6-color broadcast on a 4x4x4 torus: asymptotic delivered
        // bandwidth should approach 6 x 425 = 2550 MB/s (paper §V-A).
        let mut m = machine(OpMode::Smp);
        let bytes = 8 << 20;
        let out = run_torus_bcast(&mut m, &spec(bytes), identity_stage());
        let bw = Rate::observed(bytes, out.completion)
            .unwrap()
            .as_mb_per_sec();
        assert!(bw > 2000.0, "bandwidth too low: {bw} MB/s");
        assert!(bw < 2551.0, "bandwidth above physical peak: {bw} MB/s");
    }

    #[test]
    fn small_message_is_latency_dominated() {
        let mut m = machine(OpMode::Smp);
        let out = run_torus_bcast(&mut m, &spec(1024), identity_stage());
        // Dispatch + a few line hops; must be well under 100 us but above
        // the bare MPI overhead.
        assert!(out.completion > m.cfg.sw.mpi_overhead());
        assert!(out.completion < SimTime::from_micros(100));
    }

    #[test]
    fn coverage_is_an_exact_tiling_at_every_node() {
        // Stronger than byte counts: the spans each node receives must
        // tile [0, bytes) exactly - no gap, no overlap, no duplicate.
        let mut m = machine(OpMode::Quad);
        let bytes = 1_234_567u64;
        let out = run_torus_bcast(&mut m, &spec(bytes), identity_stage());
        assert!(out.coverage_exact(bytes));
        // And a deliberately broken span set must fail the check.
        let mut bad = out.spans.clone();
        bad[5].pop();
        assert!(!bad
            .iter()
            .all(|s| crate::chunking::spans_cover_exactly(s.clone(), bytes)));
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut m = machine(OpMode::Smp);
            run_torus_bcast(&mut m, &spec(2 << 20), identity_stage()).completion
        };
        assert_eq!(run(), run());

        // Pinned outcomes on the quad-mode test machine: the event count
        // (two per chunk arrival plus the root's two chains) and the
        // simulated completion, bare and with a DMA intra stage that
        // contends with every reception on the node's DMA engine — any
        // change in event or reservation order moves these.
        let dma_stage = || -> IntraStage {
            Rc::new(|m, now, node, b| ops::dma_local_distribute(m, now, node, b, 3, 16 << 20))
        };
        for (bytes, events, bare_ns, dma_ns) in [
            (1u64, 130u64, 2_516u64, 2_517u64),
            (65_537, 780, 120_259, 187_133),
            (1 << 20, 2_340, 947_597, 1_907_448),
        ] {
            for (stage, want_ns) in [(identity_stage(), bare_ns), (dma_stage(), dma_ns)] {
                let mut m = machine(OpMode::Quad);
                let out = run_torus_bcast(&mut m, &spec(bytes), stage);
                assert_eq!(out.events, events, "events at {bytes} B");
                assert_eq!(
                    out.completion.as_nanos(),
                    want_ns,
                    "completion at {bytes} B"
                );
            }
        }
    }

    #[test]
    fn intra_stage_is_invoked_per_node_per_chunk() {
        use std::cell::Cell;
        let count = Rc::new(Cell::new(0u64));
        let c2 = count.clone();
        let stage: IntraStage = Rc::new(move |_m, now, _node, _b| {
            c2.set(c2.get() + 1);
            now
        });
        let mut m = machine(OpMode::Quad);
        let s = TorusBcastSpec {
            root: NodeId(0),
            bytes: 6 * 64 * 1024, // exactly one pwidth chunk per color
            pwidth: 64 * 1024,
            working_set: 4 * 6 * 64 * 1024,
        };
        run_torus_bcast(&mut m, &s, stage);
        // 63 non-root nodes x 6 colors x 1 chunk each, plus the root's own
        // intra chain (6 colors x 1 chunk).
        assert_eq!(count.get(), 63 * 6 + 6);
    }

    #[test]
    fn slow_intra_stage_reduces_bandwidth() {
        // An intra stage that costs core time must show up as lower
        // delivered bandwidth (back-pressure through completion).
        let bytes = 4 << 20;
        let fast = {
            let mut m = machine(OpMode::Quad);
            run_torus_bcast(&mut m, &spec(bytes), identity_stage()).completion
        };
        let slow_stage: IntraStage = Rc::new(move |m, now, node, b| {
            // Distribute to 3 peers through the DMA (the Direct Put
            // baseline's intra stage).
            ops::dma_local_distribute(m, now, node, b, 3, 16 << 20)
        });
        let slow = {
            let mut m = machine(OpMode::Quad);
            run_torus_bcast(&mut m, &spec(bytes), slow_stage).completion
        };
        assert!(
            slow.as_nanos() > fast.as_nanos() * 2,
            "DMA distribution should be >2x slower: fast={fast} slow={slow}"
        );
    }

    #[test]
    fn zero_byte_broadcast_completes() {
        let mut m = machine(OpMode::Smp);
        let out = run_torus_bcast(&mut m, &spec(0), identity_stage());
        assert_eq!(out.completion, m.cfg.sw.mpi_overhead());
    }
}
