//! The rank-level nonblocking API ([`Sched`]) and the per-node progress
//! engine it drives.
//!
//! ## Naming schemes
//!
//! Everything an in-flight operation touches is keyed by its **op id** — a
//! per-rank sequence persisted in [`NodeShared`] and advanced identically on
//! every rank at post time, so ids agree across the whole cluster and are
//! never reused:
//!
//! * window tags: `(1 << 63) | (op << 1) | role` with role 0 = a member's
//!   application buffer (broadcast source, allreduce input) and role 1 = an
//!   engine-owned staging region (broadcast stage, allreduce accumulator).
//!   The high bit keeps sched tags disjoint from the blocking collectives'.
//! * counter-bank keys: `(op << 8) | stream` — reception bytes, net-done,
//!   member-done, result bytes, and one partial stream per member.
//! * link tags: [`optag::pack`]`(op, kind, chunk)`.
//!
//! ## Protocols
//!
//! The network side of every op is `bgp_smp::netcore` — the code the
//! blocking cluster collectives and the process worker run too. The engine
//! holds one [`RingFlow`], [`SegRing`] or [`TreeRelay`] per in-flight op,
//! demultiplexes link chunks to them by op id, and tags their chunks per op
//! ([`optag`]).
//!
//! **ibcast** — the root exposes its buffer; the engine on the root node
//! maps it and relays all chunks down the re-rooted tree
//! ([`Fabric::bcast_out`]); root-node members copy straight out of the
//! root's buffer (valid in full at post time). On every other node the
//! engine's relay lands chunks in a staging region and forwards them on the
//! remaining tree ports, and the engine publishes received bytes on the
//! op's reception counter; members chase the counter and copy out — §V-B's
//! reception/copy overlap, per op. Each member publishes `+1` on the op's
//! done counter when its copy finishes; the root's request completes when
//! injection is done and all co-located members copied.
//!
//! **iallreduce** — members expose inputs; the engine exposes a node
//! accumulator. The local reduce is partitioned by member index (member i
//! sums *all* local inputs for its chunk range, publishing its partial
//! stream), then the op's ring flow carries the accumulator around the
//! ring, interleaved with every other in-flight op's flow. Ring direction
//! alternates with op parity so consecutive ops use both links. Members
//! chase the result counter into their outputs; a member's request
//! completes only when every local partial stream is also finished (its
//! *input* must be reusable, and co-members read it during the local
//! reduce).
//!
//! **iallgather** — members deposit their blocks into their node's segment
//! of an engine-owned accumulator; once all have, the op's segment ring
//! (allgather steps only, direction by op parity) circulates the node
//! blocks, and members chase the result counter into their outputs.
//!
//! ## Progress, parking, and deadlock-freedom
//!
//! Flows, segment rings and relays never block and gate only partials, on
//! node-local progress (see `bgp_smp::netcore` for the argument), which
//! member polls guarantee. What the engine adds is op demultiplexing:
//! chunks that arrive for an op this node has not posted yet (a faster peer
//! ran ahead, possibly across a job boundary) are parked in the node's
//! stash ([`NodeShared::sched_stash`]) and replayed, in arrival order, once
//! the post happens, so links keep draining.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use bgp_shmem::{spin, MessageCounter, SharedRegion};
use bgp_smp::kernels;
use bgp_smp::netcore::{chunk_at, Kind, RingFlow, RingNode, SegNode, SegRing, TreeRelay};
use bgp_smp::transport::{optag, ChunkChannel, Fabric, RingDir};
use bgp_smp::{ClusterCtx, NodeShared};

use crate::SchedError;

/// Window-tag role: a member's exposed application buffer.
const ROLE_DATA: u64 = 0;
/// Window-tag role: an engine-owned staging region.
const ROLE_STAGE: u64 = 1;
/// Keeps sched window tags disjoint from the blocking collectives' tags.
const SCHED_TAG_BIT: u64 = 1 << 62;

fn reg_tag(op: u64, role: u64) -> u64 {
    SCHED_TAG_BIT | (op << 1) | role
}

/// Counter-bank streams within one op (key = `(op << 8) | stream`).
const SUB_RECV: u64 = 0;
const SUB_NETDONE: u64 = 1;
const SUB_DONE: u64 = 2;
const SUB_RES: u64 = 3;
/// Per-member partial streams start here: `SUB_PART + member_index`.
const SUB_PART: u64 = 8;

/// Counter-bank sub-keys available to one op: [`bank_key`] packs the
/// stream id into the low 8 bits, so an op owns exactly 256 keys.
pub const COUNTER_KEY_BUDGET: usize = 256;
/// Sub-keys reserved for the op's fixed streams (`SUB_RECV`..`SUB_RES`
/// plus headroom up to `SUB_PART`, where per-member streams begin).
pub const RESERVED_COUNTER_KEYS: usize = SUB_PART as usize;
/// Largest group one op can address: every member needs a partial stream
/// out of the [`COUNTER_KEY_BUDGET`] after the [`RESERVED_COUNTER_KEYS`].
pub const MAX_GROUP_RANKS: usize = COUNTER_KEY_BUDGET - RESERVED_COUNTER_KEYS;

fn bank_key(op: u64, sub: u64) -> u64 {
    (op << 8) | sub
}

/// Validate a group's *shape* — the checks that depend only on the group
/// and the node geometry, shared by the engine posts, the server
/// submissions, and `bgp-svc` communicator creation (which validates once
/// at `Comm` creation and reuses the group across ops).
///
/// The size check runs before the range check so the
/// [`MAX_GROUP_RANKS`] boundary is observable regardless of how many
/// ranks the node actually has.
pub fn validate_group_shape(group: &[usize], n_ranks: usize) -> Result<(), SchedError> {
    if group.is_empty() {
        return Err(SchedError::BadGroup("group is empty".into()));
    }
    if !group.windows(2).all(|w| w[0] < w[1]) {
        return Err(SchedError::BadGroup(
            "group must be sorted and duplicate-free".into(),
        ));
    }
    if group.len() > MAX_GROUP_RANKS {
        return Err(SchedError::BadGroup(format!(
            "group of {} ranks exceeds the {MAX_GROUP_RANKS}-rank limit \
             ({COUNTER_KEY_BUDGET} counter keys per op, {RESERVED_COUNTER_KEYS} reserved)",
            group.len()
        )));
    }
    if *group.last().unwrap() >= n_ranks {
        return Err(SchedError::BadGroup("group rank out of range".into()));
    }
    Ok(())
}

/// The ring kind of a ring chunk's link-tag kind, and back.
fn ring_kind(kind: u64) -> Kind {
    match kind {
        optag::KIND_PARTIAL => Kind::Partial,
        optag::KIND_FULL => Kind::Full,
        _ => unreachable!("unknown chunk kind {kind}"),
    }
}

fn op_kind(kind: Kind) -> u64 {
    match kind {
        Kind::Partial => optag::KIND_PARTIAL,
        Kind::Full => optag::KIND_FULL,
    }
}

/// An op's ring direction alternates with op parity, so consecutive ops
/// use both torus links (the multi-color idea of §V-C, per op instead of
/// per color).
fn op_dir(op: u64) -> RingDir {
    if op.is_multiple_of(2) {
        RingDir::Plus
    } else {
        RingDir::Minus
    }
}

/// The per-member partial (or deposit) streams of an op with `g` members.
fn part_counters(shared: &NodeShared, op: u64, g: usize) -> Vec<Arc<MessageCounter>> {
    let bank = shared.sched_bank();
    (0..g)
        .map(|i| bank.counter(bank_key(op, SUB_PART + i as u64)))
        .collect()
}

/// Handle of one posted nonblocking operation. `Copy`, cheap, and only
/// meaningful to the [`Sched`] that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub(crate) op: u64,
}

impl Request {
    /// The cluster-wide operation id (diagnostic).
    pub fn op_id(&self) -> u64 {
        self.op
    }
}

/// This rank's end of every operation it participates in. One per rank per
/// job; see the module docs for the protocols it runs.
enum Role {
    /// Locally complete (also the state of non-participants).
    Done,
    /// Broadcast root: waits for injection + local copies, then unexposes.
    BcastRoot(BcastRoot),
    /// Broadcast member: chases the source and copies out.
    BcastCopy(BcastCopy),
    /// Allreduce member: local reduce, result copy-out, input retirement.
    ArMember(Box<ArMember>),
    /// Allgather member: block deposit, gathered-prefix copy-out.
    AgMember(Box<AgMember>),
}

struct BcastRoot {
    netdone: Arc<MessageCounter>,
    done: Arc<MessageCounter>,
    expected_done: u64,
    src_ptr: usize,
}

struct BcastCopy {
    src_owner: u32,
    src_tag: u64,
    src: Option<Arc<SharedRegion>>,
    dst: Arc<SharedRegion>,
    len: usize,
    copied: usize,
    /// Reception counter to chase; `None` on the root's node, where the
    /// source is valid in full from the moment it was posted.
    gate: Option<Arc<MessageCounter>>,
    done: Arc<MessageCounter>,
    dst_ptr: usize,
}

enum ArPhase {
    /// Waiting for the accumulator and every co-member input to appear.
    Map,
    /// Summing all local inputs over this member's chunk partition.
    Reduce,
    /// Chasing the result counter into the output buffer.
    CopyOut,
    /// Output done; waiting for every local partial stream so the *input*
    /// is provably no longer read by co-members.
    AwaitParts,
}

struct ArMember {
    group: Vec<usize>,
    my_index: usize,
    count: usize,
    ce: usize,
    /// This member's chunk partition `[lo, hi)` of the local reduce.
    lo: usize,
    hi: usize,
    phase: ArPhase,
    inputs: Vec<Option<Arc<SharedRegion>>>,
    acc: Option<Arc<SharedRegion>>,
    output: Arc<SharedRegion>,
    /// Byte span `[res_lo, res_hi)` of the accumulator this member copies
    /// out (the full message for allreduce, its scatter span for
    /// reduce-scatter). Output offset 0 maps to `res_lo`.
    res_lo: usize,
    res_hi: usize,
    in_ptr: usize,
    out_ptr: usize,
    parts: Vec<Arc<MessageCounter>>,
    part_total: Vec<u64>,
    res: Arc<MessageCounter>,
    done: Arc<MessageCounter>,
    copied: usize,
}

struct AgMember {
    /// Global member index (`node * group_len + index_in_group`): the
    /// member's block offset in the gathered output is `my_global * len`.
    my_global: usize,
    len: usize,
    /// Gathered bytes: `m * group_len * len`.
    total: usize,
    deposited: bool,
    input: Arc<SharedRegion>,
    output: Arc<SharedRegion>,
    acc: Option<Arc<SharedRegion>>,
    in_ptr: usize,
    out_ptr: usize,
    /// This member's deposit stream (the engine sends its node's block
    /// once every local member deposited).
    part: Arc<MessageCounter>,
    res: Arc<MessageCounter>,
    done: Arc<MessageCounter>,
    copied: usize,
}

/// The network side of one broadcast on this node.
struct NetBcast {
    root_node: usize,
    root_rank: usize,
    is_root_node: bool,
    /// Root node: the mapped source (may lag the post of a co-located
    /// root). Elsewhere: the engine-owned staging region.
    buf: Option<Arc<SharedRegion>>,
    relay: TreeRelay,
    recv_ctr: Option<Arc<MessageCounter>>,
    netdone: Arc<MessageCounter>,
    netdone_published: bool,
    done: Arc<MessageCounter>,
    expected_done: u64,
}

/// The network side of one allreduce on this node: its ring flow and the
/// node-local side the flow runs against; retired once all `g` members
/// counted themselves done.
struct NetAr {
    flow: RingFlow,
    node: ArNode,
    g: usize,
    done: Arc<MessageCounter>,
}

/// An allreduce's node-local side: the accumulator the members reduce
/// into, partition by partition, and the result stream they copy out by.
struct ArNode {
    op: u64,
    acc: Arc<SharedRegion>,
    /// Chunk -> owning member index of the local reduce partition.
    owner: Vec<usize>,
    /// Chunk -> partial-stream bytes the owner must have published for the
    /// chunk's local sum to be valid in the accumulator.
    need: Vec<u64>,
    parts: Vec<Arc<MessageCounter>>,
    res: Arc<MessageCounter>,
}

// SAFETY: member `i` writes each chunk of its partition of the accumulator
// once, before publishing it on `parts[i]`, and never again this op;
// members read the accumulator as results only up to the prefix published
// on `res`.
unsafe impl RingNode for ArNode {
    fn acc(&self) -> &SharedRegion {
        &self.acc
    }

    fn ready(&self, k: usize) -> bool {
        self.parts[self.owner[k]].read() >= self.need[k]
    }

    fn tag(&self, kind: Kind, k: usize) -> u64 {
        optag::pack(self.op, op_kind(kind), k)
    }

    fn landed(&self, len: usize) {
        self.res.publish(len as u64);
    }
}

/// An allgather's node-local side: the accumulator members deposit their
/// blocks into (node-major) and the result stream they copy out by.
struct AgNode {
    op: u64,
    len: u64,
    acc: Arc<SharedRegion>,
    parts: Vec<Arc<MessageCounter>>,
    res: Arc<MessageCounter>,
}

// SAFETY: each member deposits its block into this node's segment once,
// before publishing `len` on its stream, and never writes again this op;
// members read the accumulator only up to the prefix published on `res`.
unsafe impl SegNode for AgNode {
    fn acc(&self) -> &SharedRegion {
        &self.acc
    }

    fn ready(&self) -> bool {
        self.parts.iter().all(|c| c.read() >= self.len)
    }

    fn tag(&self, kind: Kind, _seg: usize, j: usize) -> u64 {
        optag::pack(self.op, op_kind(kind), j)
    }

    fn landed(&self, len: usize) {
        self.res.publish(len as u64);
    }
}

/// The network side of one allgather on this node: a segment ring of
/// allgather steps over the node blocks, retired like [`NetAr`].
struct NetGather {
    ring: SegRing,
    node: AgNode,
    g: usize,
    done: Arc<MessageCounter>,
}

enum NetOp {
    Bcast(NetBcast),
    Ar(Box<NetAr>),
    Ag(Box<NetGather>),
}

/// The per-node progress engine, run by rank 0 (the network core).
struct Engine {
    node: usize,
    m: usize,
    chunk: usize,
    shared: Arc<NodeShared>,
    fabric: Arc<Fabric>,
    seen: HashSet<usize>,
    ops: BTreeMap<u64, NetOp>,
}

impl Engine {
    fn new(
        node: usize,
        m: usize,
        chunk: usize,
        shared: Arc<NodeShared>,
        fabric: Arc<Fabric>,
    ) -> Self {
        Engine {
            node,
            m,
            chunk,
            shared,
            fabric,
            seen: HashSet::new(),
            ops: BTreeMap::new(),
        }
    }

    fn is_idle(&self) -> bool {
        self.ops.is_empty()
    }

    fn register_bcast(
        &mut self,
        op: u64,
        group_len: usize,
        root_node: usize,
        root_rank: usize,
        len: usize,
    ) {
        let bank = self.shared.sched_bank();
        let is_root_node = self.node == root_node;
        let (buf, recv_ctr) = if is_root_node {
            // Map the co-located root's exposed source; it may not have
            // posted yet — `advance` retries.
            let src = self.shared.registry().try_map_auto(
                root_rank as u32,
                reg_tag(op, ROLE_DATA),
                &mut self.seen,
            );
            (src, None)
        } else {
            let stage = Arc::new(SharedRegion::new(len));
            self.shared
                .registry()
                .expose(0, reg_tag(op, ROLE_STAGE), stage.clone());
            (Some(stage), Some(bank.counter(bank_key(op, SUB_RECV))))
        };
        let expected_done = if is_root_node {
            group_len as u64 - 1
        } else {
            group_len as u64
        };
        self.ops.insert(
            op,
            NetOp::Bcast(NetBcast {
                root_node,
                root_rank,
                is_root_node,
                buf,
                relay: TreeRelay::new(&self.fabric, self.node, root_node, len),
                recv_ctr,
                netdone: bank.counter(bank_key(op, SUB_NETDONE)),
                netdone_published: false,
                done: bank.counter(bank_key(op, SUB_DONE)),
                expected_done,
            }),
        );
    }

    fn register_ar(&mut self, op: u64, group: &[usize], count: usize) {
        let bank = self.shared.sched_bank();
        let ce = self.chunk / 8;
        let kt = count.div_ceil(ce);
        let g = group.len();
        let acc = Arc::new(SharedRegion::new(count * 8));
        self.shared
            .registry()
            .expose(0, reg_tag(op, ROLE_STAGE), acc.clone());
        let mut owner = vec![0usize; kt];
        let mut need = vec![0u64; kt];
        for i in 0..g {
            let lo = i * kt / g;
            let hi = (i + 1) * kt / g;
            let lo_e = (lo * ce).min(count);
            for k in lo..hi {
                owner[k] = i;
                need[k] = ((((k + 1) * ce).min(count) - lo_e) * 8) as u64;
            }
        }
        self.ops.insert(
            op,
            NetOp::Ar(Box::new(NetAr {
                flow: RingFlow::new(&self.fabric, self.node, op_dir(op), count * 8),
                node: ArNode {
                    op,
                    acc,
                    owner,
                    need,
                    parts: part_counters(&self.shared, op, g),
                    res: bank.counter(bank_key(op, SUB_RES)),
                },
                g,
                done: bank.counter(bank_key(op, SUB_DONE)),
            })),
        );
    }

    fn register_ag(&mut self, op: u64, g: usize, len: usize) {
        let bank = self.shared.sched_bank();
        let acc = Arc::new(SharedRegion::new(self.m * g * len));
        self.shared
            .registry()
            .expose(0, reg_tag(op, ROLE_STAGE), acc.clone());
        let bounds = (0..=self.m).map(|w| w * g * len).collect();
        self.ops.insert(
            op,
            NetOp::Ag(Box::new(NetGather {
                ring: SegRing::new(&self.fabric, self.node, op_dir(op), bounds, false, true),
                node: AgNode {
                    op,
                    len: len as u64,
                    acc,
                    parts: part_counters(&self.shared, op, g),
                    res: bank.counter(bank_key(op, SUB_RES)),
                },
                g,
                done: bank.counter(bank_key(op, SUB_DONE)),
            })),
        );
    }

    /// Can the next chunk `(kind, k)` for `netop` be consumed right now?
    /// Pure check — consuming is only allowed after this returns true.
    fn can_accept(netop: &NetOp, kind: u64, k: usize, fabric: &Fabric) -> bool {
        match netop {
            // Broadcast data lands in the preallocated stage: always.
            NetOp::Bcast(_) => true,
            NetOp::Ar(a) => a.flow.can_accept(fabric, ring_kind(kind), k, &a.node),
            NetOp::Ag(a) => a.ring.can_accept(ring_kind(kind), &a.node),
        }
    }

    /// Consume one chunk for `netop`. Must be guarded by [`Self::can_accept`].
    fn consume(
        netop: &mut NetOp,
        op: u64,
        kind: u64,
        k: usize,
        bytes: &[u8],
        fabric: &Fabric,
        node: usize,
    ) {
        match netop {
            NetOp::Bcast(b) => {
                debug_assert_eq!(kind, optag::KIND_DATA);
                let stage = b
                    .buf
                    .as_ref()
                    .expect("non-root stage exists from registration");
                let outs = fabric.bcast_out(node, b.root_node);
                // SAFETY: the engine is the only writer of the stage; member
                // reads are gated on the reception counter published below.
                unsafe {
                    b.relay.land(k, bytes, stage, &outs, |k| {
                        optag::pack(op, optag::KIND_DATA, k)
                    })
                };
                b.recv_ctr
                    .as_ref()
                    .expect("only non-root nodes receive")
                    .publish(bytes.len() as u64);
            }
            NetOp::Ar(a) => a.flow.consume(fabric, ring_kind(kind), k, bytes, &a.node),
            NetOp::Ag(a) => a.ring.consume(ring_kind(kind), k, bytes, &a.node),
        }
    }

    /// One engine pass: replay parked chunks, drain in-ports, push
    /// outbound progress, publish net-done, and retire finished ops.
    fn advance(&mut self) {
        let fabric = self.fabric.clone();
        let shared = self.shared.clone();
        let registry = shared.registry();
        let (node, m) = (self.node, self.m);

        // Resolve broadcast sources whose co-located root posted after us.
        for (op, netop) in self.ops.iter_mut() {
            if let NetOp::Bcast(b) = netop {
                if b.is_root_node && b.buf.is_none() {
                    b.buf = registry.try_map_auto(
                        b.root_rank as u32,
                        reg_tag(*op, ROLE_DATA),
                        &mut self.seen,
                    );
                }
            }
        }

        // Replay parked chunks of now-posted ops, oldest first. Ops whose
        // stash stays non-empty must keep stashing port arrivals to
        // preserve per-link order.
        let mut stashed_ops: HashSet<u64> = HashSet::new();
        {
            let mut stash = shared.sched_stash().lock();
            for (op, netop) in self.ops.iter_mut() {
                while let Some(tag) = stash.front_tag(*op) {
                    let (o, kind, k) = optag::unpack(tag);
                    debug_assert_eq!(o, *op);
                    if !Self::can_accept(netop, kind, k, &fabric) {
                        break;
                    }
                    let (_, bytes) = stash.pop_front(*op).expect("front_tag was Some");
                    Self::consume(netop, o, kind, k, &bytes, &fabric, node);
                }
            }
            stashed_ops.extend(stash.parked_ops());
        }

        // Drain every distinct in-port of the active ops.
        let mut ports: Vec<&ChunkChannel> = Vec::new();
        if m > 1 {
            for netop in self.ops.values() {
                match netop {
                    NetOp::Bcast(b) if !b.is_root_node => {
                        ports.push(fabric.bcast_in(node, b.root_node));
                    }
                    NetOp::Ar(a) => ports.push(fabric.ring_recv(node, a.flow.dir())),
                    NetOp::Ag(a) => ports.push(fabric.ring_recv(node, a.ring.dir())),
                    _ => {}
                }
            }
            ports.sort_by_key(|c| *c as *const ChunkChannel as usize);
            ports.dedup_by_key(|c| *c as *const ChunkChannel as usize);
        }
        for port in ports {
            while let Some(tag) = port.peek_tag() {
                let (op, kind, k) = optag::unpack(tag);
                if !self.ops.contains_key(&op) || stashed_ops.contains(&op) {
                    // Not posted here yet (or already queuing behind such
                    // chunks): park it and keep the link draining. Parking
                    // outlives the slot loan, so `park` copies the bytes —
                    // the one owned copy left on the engine's receive path;
                    // every in-order arrival is consumed in place. The
                    // stash is bounded: a flooding or bogus op id gets its
                    // queue evicted (counted in `StashStats`) and the slot
                    // is retired either way so the link cannot wedge.
                    let mut stash = shared.sched_stash().lock();
                    port.recv_with(|t, b| {
                        let _ = stash.park(op, t, b);
                    });
                    stashed_ops.insert(op);
                    continue;
                }
                let netop = self.ops.get_mut(&op).expect("checked above");
                if !Self::can_accept(netop, kind, k, &fabric) {
                    // Transient head-of-line wait on node-local progress.
                    break;
                }
                port.recv_with(|_, bytes| {
                    Self::consume(netop, op, kind, k, bytes, &fabric, node);
                });
            }
        }

        // Outbound progress + net-done publication.
        for (op, netop) in self.ops.iter_mut() {
            match netop {
                NetOp::Bcast(b) => {
                    if let Some(buf) = b.buf.as_ref() {
                        let outs = fabric.bcast_out(node, b.root_node);
                        // SAFETY: the landed chunks are valid: the whole
                        // source at the root, received bytes elsewhere.
                        unsafe {
                            b.relay
                                .push(buf, &outs, |k| optag::pack(*op, optag::KIND_DATA, k))
                        };
                    }
                    if !b.netdone_published && b.relay.finished() {
                        b.netdone.publish(1);
                        b.netdone_published = true;
                    }
                }
                NetOp::Ar(a) => {
                    a.flow.push(&fabric, &a.node);
                }
                NetOp::Ag(a) => {
                    a.ring.push(&fabric, &a.node);
                }
            }
        }

        // Retire ops whose network duties and local member copies are done:
        // unexpose engine-owned windows and drop the per-op counters. Role
        // handles keep their counter Arcs alive, so retirement is pure map
        // cleanup.
        let bank = shared.sched_bank();
        let finished: Vec<u64> = self
            .ops
            .iter()
            .filter(|(_, netop)| match netop {
                NetOp::Bcast(b) => b.netdone_published && b.done.read() >= b.expected_done,
                NetOp::Ar(a) => a.flow.finished() && a.done.read() >= a.g as u64,
                NetOp::Ag(a) => a.ring.finished() && a.done.read() >= a.g as u64,
            })
            .map(|(op, _)| *op)
            .collect();
        for op in finished {
            let g = match self.ops.remove(&op).expect("listed above") {
                NetOp::Bcast(b) => {
                    if !b.is_root_node {
                        registry.unexpose(0, reg_tag(op, ROLE_STAGE));
                        bank.retire(bank_key(op, SUB_RECV));
                    }
                    bank.retire(bank_key(op, SUB_NETDONE));
                    bank.retire(bank_key(op, SUB_DONE));
                    continue;
                }
                NetOp::Ar(a) => a.g,
                NetOp::Ag(a) => a.g,
            };
            registry.unexpose(0, reg_tag(op, ROLE_STAGE));
            bank.retire(bank_key(op, SUB_RES));
            bank.retire(bank_key(op, SUB_DONE));
            for i in 0..g {
                bank.retire(bank_key(op, SUB_PART + i as u64));
            }
        }
    }
}

/// One rank's nonblocking-collective scheduler.
///
/// Create one per rank per job from the [`ClusterCtx`]; post operations,
/// then complete them with [`test`](Self::test) / [`wait`](Self::wait) /
/// [`wait_all`](Self::wait_all). On rank 0 the scheduler also runs the
/// node's progress engine — every poll advances *all* in-flight ops.
///
/// Dropping a `Sched` quiesces it: it keeps polling until every posted
/// request is complete and the engine is idle, so no chunks, counters, or
/// window exposures leak into the next operation (or job) on these links.
/// Under SPMD discipline every rank reaches its drop, so the quiesce
/// terminates.
pub struct Sched {
    node: usize,
    rank: usize,
    m: usize,
    n: usize,
    shared: Arc<NodeShared>,
    chunk: usize,
    seen: HashSet<usize>,
    roles: BTreeMap<u64, Role>,
    /// Region pointer -> op currently owning the buffer (overlap guard).
    active_bufs: HashMap<usize, u64>,
    engine: Option<Engine>,
}

impl Sched {
    /// A scheduler for this rank. Rank 0 of each node also hosts the
    /// node's progress engine.
    pub fn new(cctx: &ClusterCtx) -> Self {
        let shared = cctx.node_shared();
        let fabric = cctx.fabric();
        let chunk = fabric.chunk_bytes();
        let engine = (cctx.rank() == 0).then(|| {
            Engine::new(
                cctx.node(),
                cctx.n_nodes(),
                chunk,
                shared.clone(),
                fabric.clone(),
            )
        });
        Sched {
            node: cctx.node(),
            rank: cctx.rank(),
            m: cctx.n_nodes(),
            n: cctx.n_ranks(),
            shared,
            chunk,
            seen: HashSet::new(),
            roles: BTreeMap::new(),
            active_bufs: HashMap::new(),
            engine,
        }
    }

    fn validate_group(&self, group: &[usize]) -> Result<(), SchedError> {
        validate_group_shape(group, self.n)
    }

    fn claim_buf(&mut self, buf: &Arc<SharedRegion>) -> Result<usize, SchedError> {
        let p = Arc::as_ptr(buf) as usize;
        if let Some(&op) = self.active_bufs.get(&p) {
            return Err(SchedError::BufferBusy { op });
        }
        Ok(p)
    }

    /// Post a nonblocking broadcast of `len` bytes from `(root_node,
    /// root_rank)`'s buffer to every rank in `group` (local rank ids,
    /// replicated on every node) on every node.
    ///
    /// Members pass their buffer (`Some`); non-members pass `None`. The
    /// root's buffer must hold the payload *before* the post and no
    /// participant may touch its buffer until the request completes.
    pub fn ibcast(
        &mut self,
        group: &[usize],
        root_node: usize,
        root_rank: usize,
        buf: Option<&Arc<SharedRegion>>,
        len: usize,
    ) -> Result<Request, SchedError> {
        self.validate_group(group)?;
        if root_node >= self.m {
            return Err(SchedError::BadGroup("root node out of range".into()));
        }
        if group.binary_search(&root_rank).is_err() {
            return Err(SchedError::BadGroup("root rank not in group".into()));
        }
        let member = group.binary_search(&self.rank).is_ok();
        match (member, buf.is_some()) {
            (true, false) => return Err(SchedError::BufferMissing),
            (false, true) => return Err(SchedError::UnexpectedBuffer),
            _ => {}
        }
        if let Some(b) = buf {
            if b.len() < len {
                return Err(SchedError::BufferTooShort {
                    needed: len,
                    got: b.len(),
                });
            }
        }
        if len.div_ceil(self.chunk) >= 1 << 24 {
            return Err(SchedError::TooLarge);
        }
        let buf_ptr = match (len > 0, buf) {
            (true, Some(b)) => Some(self.claim_buf(b)?),
            _ => None,
        };

        // --- all checks passed: side effects may begin ---
        let op = self.shared.next_sched_op(self.rank);
        if len == 0 {
            self.roles.insert(op, Role::Done);
            return Ok(Request { op });
        }
        // Invariant: a role fetches every counter it waits on *before* its
        // first `expose`. Once a buffer is exposed, the engine may finish
        // the op and `retire` its counters without waiting for a role it
        // does not count (the broadcast root is not in `expected_done`);
        // a counter fetched after that would be a fresh zero one, and the
        // role would spin on it forever.
        let bank = self.shared.sched_bank();
        let done = bank.counter(bank_key(op, SUB_DONE));
        let is_root = self.node == root_node && self.rank == root_rank;
        let role = if is_root {
            let buf = buf.expect("root is a member");
            let netdone = bank.counter(bank_key(op, SUB_NETDONE));
            self.shared
                .registry()
                .expose(self.rank as u32, reg_tag(op, ROLE_DATA), buf.clone());
            let p = buf_ptr.expect("member with len > 0");
            self.active_bufs.insert(p, op);
            Role::BcastRoot(BcastRoot {
                netdone,
                done,
                expected_done: group.len() as u64 - 1,
                src_ptr: p,
            })
        } else if member {
            let buf = buf.expect("member has a buffer");
            let p = buf_ptr.expect("member with len > 0");
            self.active_bufs.insert(p, op);
            let (src_owner, src_tag, gate) = if self.node == root_node {
                (root_rank as u32, reg_tag(op, ROLE_DATA), None)
            } else {
                (
                    0u32,
                    reg_tag(op, ROLE_STAGE),
                    Some(bank.counter(bank_key(op, SUB_RECV))),
                )
            };
            Role::BcastCopy(BcastCopy {
                src_owner,
                src_tag,
                src: None,
                dst: buf.clone(),
                len,
                copied: 0,
                gate,
                done,
                dst_ptr: p,
            })
        } else {
            Role::Done
        };
        self.roles.insert(op, role);
        if let Some(engine) = self.engine.as_mut() {
            engine.register_bcast(op, group.len(), root_node, root_rank, len);
        }
        Ok(Request { op })
    }

    /// Post a nonblocking sum-allreduce of `count` `f64`s over every rank
    /// in `group` on every node. Members pass input and output regions
    /// (distinct); non-members pass `None`. Inputs must be final before the
    /// post; neither buffer may be touched until the request completes.
    pub fn iallreduce(
        &mut self,
        group: &[usize],
        input: Option<&Arc<SharedRegion>>,
        output: Option<&Arc<SharedRegion>>,
        count: usize,
    ) -> Result<Request, SchedError> {
        self.post_reduce(group, input, output, count, false)
    }

    /// Post a nonblocking sum-reduce-scatter of `count` `f64`s over every
    /// rank in `group` on every node: the reduced vector is partitioned by
    /// global member index (`node * group_len + index_in_group`), member
    /// `gi` of `G` receiving elements `[gi*count/G, (gi+1)*count/G)` at
    /// offset 0 of its output. Shares the allreduce ring flow on the
    /// progress engine — only the member-side copy-out span differs — so
    /// it interleaves with every other in-flight op. A member's output
    /// region only needs its own span (possibly zero bytes when
    /// `count < G`); buffer rules match [`Self::iallreduce`].
    pub fn ireduce_scatter(
        &mut self,
        group: &[usize],
        input: Option<&Arc<SharedRegion>>,
        output: Option<&Arc<SharedRegion>>,
        count: usize,
    ) -> Result<Request, SchedError> {
        self.post_reduce(group, input, output, count, true)
    }

    /// Shared body of [`Self::iallreduce`] / [`Self::ireduce_scatter`]:
    /// identical network flow, differing only in each member's result span.
    fn post_reduce(
        &mut self,
        group: &[usize],
        input: Option<&Arc<SharedRegion>>,
        output: Option<&Arc<SharedRegion>>,
        count: usize,
        scatter: bool,
    ) -> Result<Request, SchedError> {
        self.validate_group(group)?;
        let member = group.binary_search(&self.rank).is_ok();
        match (member, input.is_some(), output.is_some()) {
            (true, true, true) | (false, false, false) => {}
            (true, _, _) => return Err(SchedError::BufferMissing),
            (false, _, _) => return Err(SchedError::UnexpectedBuffer),
        }
        // The member's result span: the whole message for allreduce, its
        // global-member-index slice for reduce-scatter.
        let (res_lo, res_hi) = if scatter {
            match group.binary_search(&self.rank) {
                Ok(i) => {
                    let big = self.m * group.len();
                    let gi = self.node * group.len() + i;
                    (gi * count / big * 8, (gi + 1) * count / big * 8)
                }
                Err(_) => (0, 0),
            }
        } else {
            (0, count * 8)
        };
        if let Some(b) = input {
            if b.len() < count * 8 {
                return Err(SchedError::BufferTooShort {
                    needed: count * 8,
                    got: b.len(),
                });
            }
        }
        if let Some(b) = output {
            if b.len() < res_hi - res_lo {
                return Err(SchedError::BufferTooShort {
                    needed: res_hi - res_lo,
                    got: b.len(),
                });
            }
        }
        if let (Some(i), Some(o)) = (input, output) {
            if Arc::ptr_eq(i, o) {
                return Err(SchedError::BufferAliased);
            }
        }
        let ce = self.chunk / 8;
        if count.div_ceil(ce.max(1)) >= 1 << 24 {
            return Err(SchedError::TooLarge);
        }
        let ptrs = if count > 0 && member {
            let i = input.expect("member");
            let o = output.expect("member");
            let pi = self.claim_buf(i)?;
            let po = self.claim_buf(o)?;
            Some((pi, po))
        } else {
            None
        };

        // --- all checks passed: side effects may begin ---
        let op = self.shared.next_sched_op(self.rank);
        if count == 0 {
            self.roles.insert(op, Role::Done);
            return Ok(Request { op });
        }
        let kt = count.div_ceil(ce);
        let g = group.len();
        let bank = self.shared.sched_bank();
        let role = if member {
            let input = input.expect("member");
            let output = output.expect("member");
            let (in_ptr, out_ptr) = ptrs.expect("member with count > 0");
            self.active_bufs.insert(in_ptr, op);
            self.active_bufs.insert(out_ptr, op);
            let my_index = group.binary_search(&self.rank).expect("member");
            let part_total: Vec<u64> = (0..g)
                .map(|i| {
                    let lo_e = (i * kt / g * ce).min(count);
                    let hi_e = ((i + 1) * kt / g * ce).min(count);
                    ((hi_e - lo_e) * 8) as u64
                })
                .collect();
            let role = Role::ArMember(Box::new(ArMember {
                group: group.to_vec(),
                my_index,
                count,
                ce,
                lo: my_index * kt / g,
                hi: (my_index + 1) * kt / g,
                phase: ArPhase::Map,
                inputs: vec![None; g],
                acc: None,
                output: output.clone(),
                res_lo,
                res_hi,
                in_ptr,
                out_ptr,
                parts: part_counters(&self.shared, op, g),
                part_total,
                res: bank.counter(bank_key(op, SUB_RES)),
                done: bank.counter(bank_key(op, SUB_DONE)),
                copied: 0,
            }));
            // Counters first, then the exposure (see `ibcast`).
            self.shared
                .registry()
                .expose(self.rank as u32, reg_tag(op, ROLE_DATA), input.clone());
            role
        } else {
            Role::Done
        };
        self.roles.insert(op, role);
        if let Some(engine) = self.engine.as_mut() {
            engine.register_ar(op, group, count);
        }
        Ok(Request { op })
    }

    /// Post a nonblocking allgather of `len`-byte blocks over every rank
    /// in `group` on every node: each member contributes its input block
    /// and every member's output receives all `m * group_len` blocks
    /// concatenated in global member order (`node * group_len +
    /// index_in_group`). Runs a segment ring of node blocks on the
    /// progress engine, interleaved with every other in-flight op.
    /// Members pass input (`len` bytes) and output (`m * group_len * len`
    /// bytes) regions; non-members pass `None`. Inputs must be final
    /// before the post; neither buffer may be touched until the request
    /// completes.
    pub fn iallgather(
        &mut self,
        group: &[usize],
        input: Option<&Arc<SharedRegion>>,
        output: Option<&Arc<SharedRegion>>,
        len: usize,
    ) -> Result<Request, SchedError> {
        self.validate_group(group)?;
        let member = group.binary_search(&self.rank).is_ok();
        match (member, input.is_some(), output.is_some()) {
            (true, true, true) | (false, false, false) => {}
            (true, _, _) => return Err(SchedError::BufferMissing),
            (false, _, _) => return Err(SchedError::UnexpectedBuffer),
        }
        let total = self.m * group.len() * len;
        if let Some(b) = input {
            if b.len() < len {
                return Err(SchedError::BufferTooShort {
                    needed: len,
                    got: b.len(),
                });
            }
        }
        if let Some(b) = output {
            if b.len() < total {
                return Err(SchedError::BufferTooShort {
                    needed: total,
                    got: b.len(),
                });
            }
        }
        if let (Some(i), Some(o)) = (input, output) {
            if Arc::ptr_eq(i, o) {
                return Err(SchedError::BufferAliased);
            }
        }
        let kb = (group.len() * len).div_ceil(self.chunk);
        if (self.m.max(2) - 1) * kb >= 1 << 24 {
            return Err(SchedError::TooLarge);
        }
        let ptrs = if len > 0 && member {
            let i = input.expect("member");
            let o = output.expect("member");
            Some((self.claim_buf(i)?, self.claim_buf(o)?))
        } else {
            None
        };

        // --- all checks passed: side effects may begin ---
        let op = self.shared.next_sched_op(self.rank);
        if len == 0 {
            self.roles.insert(op, Role::Done);
            return Ok(Request { op });
        }
        let bank = self.shared.sched_bank();
        let role = if member {
            let input = input.expect("member");
            let output = output.expect("member");
            let (in_ptr, out_ptr) = ptrs.expect("member with len > 0");
            self.active_bufs.insert(in_ptr, op);
            self.active_bufs.insert(out_ptr, op);
            let my_index = group.binary_search(&self.rank).expect("member");
            Role::AgMember(Box::new(AgMember {
                my_global: self.node * group.len() + my_index,
                len,
                total,
                deposited: false,
                input: input.clone(),
                output: output.clone(),
                acc: None,
                in_ptr,
                out_ptr,
                part: bank.counter(bank_key(op, SUB_PART + my_index as u64)),
                res: bank.counter(bank_key(op, SUB_RES)),
                done: bank.counter(bank_key(op, SUB_DONE)),
                copied: 0,
            }))
        } else {
            Role::Done
        };
        self.roles.insert(op, role);
        if let Some(engine) = self.engine.as_mut() {
            engine.register_ag(op, group.len(), len);
        }
        Ok(Request { op })
    }

    /// Advance everything a little: the node's progress engine (rank 0)
    /// and this rank's side of every posted operation. Never blocks.
    pub fn poll(&mut self) {
        if let Some(engine) = self.engine.as_mut() {
            engine.advance();
        }
        let shared = self.shared.clone();
        let rank = self.rank;
        for (op, role) in self.roles.iter_mut() {
            step_role(
                *op,
                role,
                rank,
                &shared,
                &mut self.seen,
                &mut self.active_bufs,
            );
        }
    }

    /// Is the request locally complete (buffers reusable)? Does not poll.
    pub fn is_complete(&self, req: Request) -> bool {
        matches!(
            self.roles
                .get(&req.op)
                .expect("request was issued by this scheduler"),
            Role::Done
        )
    }

    /// Poll once and report whether `req` is complete.
    pub fn test(&mut self, req: Request) -> bool {
        self.poll();
        self.is_complete(req)
    }

    /// Block (spin-yield, polling) until `req` completes.
    pub fn wait(&mut self, req: Request) {
        while !self.test(req) {
            spin();
        }
    }

    /// Block until every request in `reqs` completes.
    pub fn wait_all(&mut self, reqs: &[Request]) {
        loop {
            self.poll();
            if reqs.iter().all(|r| self.is_complete(*r)) {
                return;
            }
            spin();
        }
    }

    /// Block until the node's progress engine has fully retired every op it
    /// knows about (rank 0; a no-op elsewhere). Called automatically on
    /// drop; exposed for callers that want the fabric quiet at a known
    /// point.
    pub fn drain(&mut self) {
        while self.engine.as_ref().is_some_and(|e| !e.is_idle()) {
            self.poll();
            spin();
        }
    }

    /// Number of operations this rank posted and not yet completed.
    pub fn in_flight(&self) -> usize {
        self.roles
            .values()
            .filter(|r| !matches!(r, Role::Done))
            .count()
    }
}

impl Drop for Sched {
    fn drop(&mut self) {
        if std::thread::panicking() {
            return;
        }
        // Quiesce: complete own roles (they publish the done counts the
        // engine waits for) and retire every engine op. See type docs.
        loop {
            self.poll();
            let roles_done = self.roles.values().all(|r| matches!(r, Role::Done));
            let engine_idle = self.engine.as_ref().is_none_or(|e| e.is_idle());
            if roles_done && engine_idle {
                return;
            }
            spin();
        }
    }
}

/// Advance one role one step (free function: field-disjoint borrows of
/// [`Sched`]).
fn step_role(
    op: u64,
    role: &mut Role,
    rank: usize,
    shared: &NodeShared,
    seen: &mut HashSet<usize>,
    active: &mut HashMap<usize, u64>,
) {
    match role {
        Role::Done => {}
        Role::BcastRoot(r) => {
            if r.netdone.read() >= 1 && r.done.read() >= r.expected_done {
                shared
                    .registry()
                    .unexpose(rank as u32, reg_tag(op, ROLE_DATA));
                active.remove(&r.src_ptr);
                *role = Role::Done;
            }
        }
        Role::BcastCopy(c) => {
            if c.src.is_none() {
                c.src = shared.registry().try_map_auto(c.src_owner, c.src_tag, seen);
            }
            let Some(src) = c.src.as_ref() else { return };
            let avail = match c.gate.as_ref() {
                Some(g) => (g.read() as usize).min(c.len),
                // Root's node: the source was complete at post time.
                None => c.len,
            };
            if avail > c.copied {
                // SAFETY: `[copied, avail)` of the source was published
                // before the counter value we acquired (or before the
                // exposure, on the root's node); dst is exclusively ours.
                unsafe { c.dst.copy_from(c.copied, src, c.copied, avail - c.copied) };
                c.copied = avail;
            }
            if c.copied == c.len {
                c.done.publish(1);
                active.remove(&c.dst_ptr);
                *role = Role::Done;
            }
        }
        Role::ArMember(a) => {
            if step_ar_member(op, a, rank, shared, seen) {
                active.remove(&a.in_ptr);
                active.remove(&a.out_ptr);
                *role = Role::Done;
            }
        }
        Role::AgMember(a) => {
            if step_ag_member(op, a, shared, seen) {
                active.remove(&a.in_ptr);
                active.remove(&a.out_ptr);
                *role = Role::Done;
            }
        }
    }
}

/// Advance an allgather member; `true` when it completed this step.
fn step_ag_member(
    op: u64,
    a: &mut AgMember,
    shared: &NodeShared,
    seen: &mut HashSet<usize>,
) -> bool {
    if a.acc.is_none() {
        a.acc = shared
            .registry()
            .try_map_auto(0, reg_tag(op, ROLE_STAGE), seen);
    }
    let Some(acc) = a.acc.as_ref() else {
        return false;
    };
    if !a.deposited {
        // SAFETY: this member is the unique writer of its own block;
        // readers (engine sends, co-member copy-outs) are gated on the
        // deposit counter published below.
        unsafe { acc.copy_from(a.my_global * a.len, &a.input, 0, a.len) };
        a.part.publish(a.len as u64);
        a.deposited = true;
    }
    let avail = (a.res.read() as usize).min(a.total);
    if avail > a.copied {
        // SAFETY: `[copied, avail)` of the accumulator holds final block
        // bytes published through the result counter; output is ours.
        unsafe {
            a.output
                .copy_from(a.copied, acc, a.copied, avail - a.copied)
        };
        a.copied = avail;
    }
    if a.copied == a.total {
        a.done.publish(1);
        return true;
    }
    false
}

/// Advance an allreduce member; `true` when it completed this step.
fn step_ar_member(
    op: u64,
    a: &mut ArMember,
    rank: usize,
    shared: &NodeShared,
    seen: &mut HashSet<usize>,
) -> bool {
    let registry = shared.registry();
    if matches!(a.phase, ArPhase::Map) {
        if a.acc.is_none() {
            a.acc = registry.try_map_auto(0, reg_tag(op, ROLE_STAGE), seen);
        }
        // Only chunk owners read co-member inputs. A member whose reduce
        // partition is empty (`kt < g`) must not wait to map them: owners
        // unexpose their inputs once every partial *stream* completes, and
        // an empty partition's stream is trivially complete — so an owner
        // can finish and unexpose before this member ever maps, and
        // waiting here would spin forever.
        let needs_inputs = a.lo < a.hi;
        if needs_inputs {
            for (i, slot) in a.inputs.iter_mut().enumerate() {
                if slot.is_none() {
                    *slot = registry.try_map_auto(a.group[i] as u32, reg_tag(op, ROLE_DATA), seen);
                }
            }
        }
        if a.acc.is_some() && (!needs_inputs || a.inputs.iter().all(|s| s.is_some())) {
            a.phase = ArPhase::Reduce;
        } else {
            return false;
        }
    }
    if matches!(a.phase, ArPhase::Reduce) {
        let acc = a.acc.as_ref().expect("mapped in Map phase");
        for k in a.lo..a.hi {
            let (off, len) = chunk_at(a.count * 8, a.ce * 8, k);
            // Reduce straight into the stage: seed with the first input,
            // lane-add the rest over it in place. Inputs are final from
            // before their exposure; reading them ungated is ordered by the
            // registry map.
            // SAFETY: this member is the unique writer of its stage
            // partition; readers are gated on the parts publish below.
            unsafe {
                acc.with_bytes_mut(off, len, |dst| {
                    a.inputs[0]
                        .as_ref()
                        .expect("mapped")
                        .with_bytes(off, len, |src| dst.copy_from_slice(src));
                    for input in &a.inputs[1..] {
                        input
                            .as_ref()
                            .expect("mapped")
                            .with_bytes(off, len, |src| kernels::add_bytes_assign(dst, src));
                    }
                })
            };
            a.parts[a.my_index].publish(len as u64);
        }
        a.phase = ArPhase::CopyOut;
    }
    if matches!(a.phase, ArPhase::CopyOut) {
        let total = a.res_hi - a.res_lo;
        // The result counter publishes a whole-message byte prefix; clamp
        // it to this member's copy span.
        let avail = (a.res.read() as usize).saturating_sub(a.res_lo).min(total);
        if avail > a.copied {
            let acc = a.acc.as_ref().expect("mapped");
            // SAFETY: `[res_lo + copied, res_lo + avail)` holds final
            // values published through the result counter; output is
            // exclusively ours.
            unsafe {
                a.output
                    .copy_from(a.copied, acc, a.res_lo + a.copied, avail - a.copied)
            };
            a.copied = avail;
        }
        if a.copied == total {
            a.phase = ArPhase::AwaitParts;
        }
    }
    if matches!(a.phase, ArPhase::AwaitParts) {
        // The input may only be released once no co-member can still read
        // it — i.e. every local partial stream ran to completion.
        if a.parts
            .iter()
            .zip(&a.part_total)
            .all(|(c, &t)| c.read() >= t)
        {
            a.done.publish(1);
            registry.unexpose(rank as u32, reg_tag(op, ROLE_DATA));
            return true;
        }
    }
    false
}
