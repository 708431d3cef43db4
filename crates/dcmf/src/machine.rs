//! The dynamic machine: one server per finite hardware resource.

use bgp_machine::geometry::{Coord, Direction, NodeId};
use bgp_machine::tree::TreeTopology;
use bgp_machine::MachineConfig;
use bgp_sim::{Engine, Probe, ServerId, ServerPool, SimTime};

/// The simulation engine type used throughout the reproduction.
pub type Sim = Engine<Machine>;

/// Servers per node, allocated node by node in this fixed layout (a
/// server's id is `node * SERVERS_PER_NODE + slot`):
///
/// * slots 0–5: the outgoing link in each direction, in [`Direction::ALL`]
///   order (the *sender* side owns the link server; the wire is full
///   duplex, so each direction is an independent 425 MB/s resource);
/// * [`DMA`]: the DMA engine (aggregate: injection + reception + local
///   copies);
/// * [`MEM`]: the memory subsystem (aggregate bandwidth, all cores + DMA);
/// * [`CORE0`]`..+4`: the four cores;
/// * [`TREE_UP`] / [`TREE_DOWN`]: the collective-network uplink (towards
///   the tree root) and downlink (towards the leaves).
const SERVERS_PER_NODE: u32 = 14;
const DMA: u32 = 6;
const MEM: u32 = 7;
const CORE0: u32 = 8;
const CORES: u32 = 4;
const TREE_UP: u32 = 12;
const TREE_DOWN: u32 = 13;

/// The dynamic machine state: configuration + topology + all servers.
///
/// This is the `bgp-sim` engine context: every event closure receives
/// `(&mut Machine, &mut Sim)`.
pub struct Machine {
    /// The static configuration (never mutated during a run).
    pub cfg: MachineConfig,
    /// The collective-network topology over the partition's nodes.
    pub tree: TreeTopology,
    /// All bandwidth servers.
    pub pool: ServerPool,
    /// Per-phase span/counter recorder (disabled by default; recording
    /// never affects timing — see `bgp_sim::probe`).
    pub probe: Probe,
}

impl Machine {
    /// Build the machine for `cfg`, allocating every server.
    pub fn new(cfg: MachineConfig) -> Self {
        let n = cfg.node_count();
        let tree = TreeTopology::balanced(n, cfg.tree.arity);
        let mut pool = ServerPool::new();
        for _ in 0..n * SERVERS_PER_NODE {
            pool.alloc();
        }
        Machine {
            cfg,
            tree,
            pool,
            probe: Probe::new(),
        }
    }

    #[inline]
    fn server(node: NodeId, slot: u32) -> ServerId {
        ServerId(node.0 * SERVERS_PER_NODE + slot)
    }

    /// The outgoing link server of `node` in `dir`.
    #[inline]
    pub fn link(&self, node: NodeId, dir: Direction) -> ServerId {
        Self::server(node, dir.index() as u32)
    }

    /// The DMA engine server of `node`.
    #[inline]
    pub fn dma(&self, node: NodeId) -> ServerId {
        Self::server(node, DMA)
    }

    /// The memory server of `node`.
    #[inline]
    pub fn mem(&self, node: NodeId) -> ServerId {
        Self::server(node, MEM)
    }

    /// Core `c` (0..4) of `node`.
    #[inline]
    pub fn core(&self, node: NodeId, c: u32) -> ServerId {
        assert!(c < CORES, "core {c} out of range");
        Self::server(node, CORE0 + c)
    }

    /// The tree uplink of `node`.
    #[inline]
    pub fn tree_up(&self, node: NodeId) -> ServerId {
        Self::server(node, TREE_UP)
    }

    /// The tree downlink of `node`.
    #[inline]
    pub fn tree_down(&self, node: NodeId) -> ServerId {
        Self::server(node, TREE_DOWN)
    }

    /// The diagnostic name of server `id`, derived from the fixed per-node
    /// layout: `n3.dma`, `n0.link.X+`, `n5.core2`, `n1.tree_up`.
    pub fn server_name(&self, id: ServerId) -> String {
        let (node, slot) = (id.0 / SERVERS_PER_NODE, id.0 % SERVERS_PER_NODE);
        match slot {
            DMA => format!("n{node}.dma"),
            MEM => format!("n{node}.mem"),
            TREE_UP => format!("n{node}.tree_up"),
            TREE_DOWN => format!("n{node}.tree_down"),
            s if s >= CORE0 => format!("n{node}.core{}", s - CORE0),
            s => format!("n{node}.link.{}", Direction::ALL[s as usize]),
        }
    }

    /// Coordinate helpers.
    #[inline]
    pub fn coord(&self, node: NodeId) -> Coord {
        self.cfg.dims.coord_of(node)
    }

    /// Node id for a coordinate.
    #[inline]
    pub fn node_at(&self, c: Coord) -> NodeId {
        self.cfg.dims.id_of(c)
    }

    /// Reset all servers to idle (between timed iterations). The probe is
    /// left alone: operation entry points scope it via `Probe::begin_op`.
    pub fn reset(&mut self) {
        self.pool.reset();
    }

    /// Utilization report: the `top_k` busiest servers relative to
    /// `horizon` (usually an operation's completion time). Diagnostic for
    /// finding an algorithm's bottleneck resource.
    pub fn utilization_report(&self, horizon: SimTime, top_k: usize) -> Vec<(String, f64)> {
        let mut v: Vec<(ServerId, f64)> = self
            .pool
            .iter()
            .filter_map(|(id, s)| s.utilization(horizon).map(|u| (id, u)))
            .collect();
        // Stable: equal utilizations stay in id order.
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        v.truncate(top_k);
        v.into_iter()
            .map(|(id, u)| (self.server_name(id), u))
            .collect()
    }

    /// Memory-server service time for `traffic_bytes` of memory-system
    /// traffic, given the pipeline's working set (L2 cliff).
    #[inline]
    pub fn mem_time(&self, traffic_bytes: u64, working_set: u64) -> SimTime {
        self.cfg.mem.node_rate(working_set).time_for(traffic_bytes)
    }

    /// Core service time for copying `payload` bytes (read+write folded into
    /// the per-core copy rate), given the working set.
    #[inline]
    pub fn core_copy_time(&self, payload: u64, working_set: u64) -> SimTime {
        self.cfg.mem.core_copy_rate(working_set).time_for(payload)
    }

    /// DMA service time for `traffic_bytes` of engine traffic.
    #[inline]
    pub fn dma_time(&self, traffic_bytes: u64) -> SimTime {
        self.cfg.dma.engine_rate().time_for(traffic_bytes)
    }

    /// Torus link service time for a chunk.
    #[inline]
    pub fn link_time(&self, bytes: u64) -> SimTime {
        self.cfg.torus.link_rate().time_for(bytes)
    }

    /// Tree channel service time for a chunk.
    #[inline]
    pub fn tree_time(&self, bytes: u64) -> SimTime {
        self.cfg.tree.link_rate().time_for(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_machine::geometry::{Axis, Sign};
    use bgp_machine::OpMode;

    #[test]
    fn servers_are_allocated_per_node() {
        let m = Machine::new(MachineConfig::test_small(OpMode::Quad));
        // 64 nodes * (6 links + dma + mem + 4 cores + 2 tree) = 64 * 14.
        assert_eq!(m.pool.len(), 64 * 14);
    }

    #[test]
    fn distinct_nodes_have_distinct_servers() {
        let m = Machine::new(MachineConfig::test_small(OpMode::Quad));
        let a = NodeId(0);
        let b = NodeId(1);
        assert_ne!(m.dma(a), m.dma(b));
        assert_ne!(m.mem(a), m.mem(b));
        assert_ne!(m.core(a, 0), m.core(a, 1));
        let xp = Direction {
            axis: Axis::X,
            sign: Sign::Plus,
        };
        let xm = Direction {
            axis: Axis::X,
            sign: Sign::Minus,
        };
        assert_ne!(m.link(a, xp), m.link(a, xm));
    }

    #[test]
    fn names_are_diagnostic() {
        let m = Machine::new(MachineConfig::test_small(OpMode::Quad));
        assert_eq!(m.server_name(m.dma(NodeId(3))), "n3.dma");
        let xp = Direction {
            axis: Axis::X,
            sign: Sign::Plus,
        };
        assert_eq!(m.server_name(m.link(NodeId(0), xp)), "n0.link.X+");
        // Every slot of a node, in allocation order.
        let node = NodeId(5);
        let mut want: Vec<String> = Direction::ALL
            .iter()
            .map(|d| format!("n5.link.{d}"))
            .collect();
        want.extend(["n5.dma", "n5.mem"].map(String::from));
        want.extend((0..4).map(|c| format!("n5.core{c}")));
        want.extend(["n5.tree_up", "n5.tree_down"].map(String::from));
        let first = m.link(node, Direction::ALL[0]).0;
        let got: Vec<String> = (first..first + 14)
            .map(|i| m.server_name(ServerId(i)))
            .collect();
        assert_eq!(got, want);
        assert_eq!(m.core(node, 3).0, first + 11);
        assert_eq!(m.tree_down(node).0, first + 13);
    }

    #[test]
    fn coord_round_trip() {
        let m = Machine::new(MachineConfig::test_small(OpMode::Quad));
        for i in 0..64 {
            let id = NodeId(i);
            assert_eq!(m.node_at(m.coord(id)), id);
        }
    }

    #[test]
    fn utilization_report_ranks_busiest_first() {
        let mut m = Machine::new(MachineConfig::test_small(OpMode::Quad));
        let dma = m.dma(NodeId(0));
        let mem = m.mem(NodeId(5));
        m.pool.reserve(dma, SimTime::ZERO, SimTime::from_micros(80));
        m.pool.reserve(mem, SimTime::ZERO, SimTime::from_micros(20));
        let rep = m.utilization_report(SimTime::from_micros(100), 2);
        assert_eq!(rep.len(), 2);
        assert_eq!(rep[0].0, "n0.dma");
        assert!((rep[0].1 - 0.8).abs() < 1e-9);
        assert_eq!(rep[1].0, "n5.mem");
    }

    #[test]
    fn service_time_helpers() {
        let m = Machine::new(MachineConfig::test_small(OpMode::Quad));
        // 425 MB/s link: 425 bytes take 1000ns.
        assert_eq!(m.link_time(425).as_nanos(), 1000);
        // 850 MB/s tree: twice as fast.
        assert_eq!(m.tree_time(850).as_nanos(), 1000);
        // Working set beyond L2 slows core copies.
        assert!(m.core_copy_time(1 << 20, 32 << 20) > m.core_copy_time(1 << 20, 1 << 20));
    }
}
