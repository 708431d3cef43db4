//! The network core's protocols, written once: the §V-C partial/full ring
//! flow of the multi-color allreduce ([`RingFlow`]), the segment ring of
//! the node-aware reduce-scatter and allgather stages ([`SegRing`]), and
//! the §V-A/V-B tree relay of the broadcast ([`TreeRelay`]). Three drivers
//! run them: the blocking [`ClusterCtx`](crate::ClusterCtx) collectives (a
//! flow per color, a segment ring per node-aware op; the relay on
//! single-rank nodes and at the root), the `bgp-sched` progress engine (a
//! flow, segment ring or relay per in-flight op, demultiplexed by op id),
//! and the [`crate::proc`] worker. A driver supplies links, tags, local
//! readiness and result publication ([`RingNode`], [`SegNode`]).
//!
//! **Ring flow.** Along one ring direction, position 0 injects its partial
//! of each chunk, positions `1..m-1` combine the incoming partial with
//! their own straight into the outgoing slot, and position `m-1`
//! accumulates in place, which yields the chunk's final value. The final
//! ("full") chunks then circulate from `m-1` through `0..=m-2`: every
//! position lands them and every position but `m-2` forwards them —
//! straight from the incoming slot's loan when the link has room and no
//! earlier full is waiting, otherwise later from the accumulator.
//!
//! **Segment ring.** The accumulator is cut into one segment per node. In
//! each of `m-1` reduce-scatter steps a node sends one segment's partial
//! (first its own, then the one it combined a step earlier) and combines
//! the incoming one in place; the last incoming segment is the node's own,
//! now final. In each of `m-1` allgather steps it sends its newest final
//! segment and lands the incoming one. Each chunk crosses each link at
//! most once per stage.
//!
//! **Ordering and deadlock freedom.** Links are FIFO and every sender emits
//! its chunks in schedule order, so chunks arrive in order and results are
//! published as a prefix. Only partials are gated on reception: a
//! ring-flow partial waits for this node's partial of its chunk (node-local
//! progress) and, except at the last position, for room on the outgoing
//! link; a segment-ring partial waits only for this node's contribution.
//! Fulls and relay chunks land unconditionally and no send blocks. So a
//! segment-ring chunk never waits on a link, the link into position `m-1`
//! drains, by induction against the ring direction so does every link
//! into a partial forwarder, links carrying only fulls drain
//! unconditionally, and tree links form no cycle: a driver that keeps
//! calling `push` and consuming whatever `can_accept` admits never
//! deadlocks, even when flows and rings share a link and one's gated head
//! holds back another's chunks.

use bgp_shmem::{spin, MessageCounter, SharedRegion};

use crate::cluster::{pack_tag, unpack_tag, KIND_FULL, KIND_PARTIAL};
use crate::kernels;
use crate::transport::{ChunkChannel, Fabric, RingDir, SlotStore};

/// What a ring chunk carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A partial sum, accumulating hop by hop toward the last position.
    Partial,
    /// A chunk's final value, circulating back from the last position.
    Full,
}

/// The blocking wire tags' kind bit of `kind`, and back.
fn wire_bit(kind: Kind) -> u64 {
    match kind {
        Kind::Partial => KIND_PARTIAL,
        Kind::Full => KIND_FULL,
    }
}

fn wire_kind(bit: u64) -> Kind {
    if bit == KIND_FULL {
        Kind::Full
    } else {
        Kind::Partial
    }
}

/// `(byte offset, byte length)` of chunk `k` of a `len`-byte message cut
/// into `chunk`-byte chunks.
pub fn chunk_at(len: usize, chunk: usize, k: usize) -> (usize, usize) {
    let off = k * chunk;
    (off, (len - off).min(chunk))
}

/// The node-local side of one [`RingFlow`], supplied by its driver.
///
/// # Safety
///
/// Implementors guarantee, for as long as the flow runs: once `ready(k)`
/// has returned true, the bytes of chunk `k` in `acc()` hold this node's
/// partial and nobody but the flow writes them again; and nobody but the
/// flow reads chunk `k` of `acc()` as a result before `landed` reported
/// it. The flow then has exclusive use of every ready chunk.
pub unsafe trait RingNode {
    /// The flow's accumulator: this node's partial of every chunk, then
    /// the chunk's final value.
    fn acc(&self) -> &SharedRegion;
    /// Is this node's partial of chunk `k` valid in [`Self::acc`]?
    fn ready(&self, k: usize) -> bool;
    /// The link tag of chunk `k` of the given kind.
    fn tag(&self, kind: Kind, k: usize) -> u64;
    /// The next chunk's final value, `len` bytes, landed in the
    /// accumulator (called in chunk order).
    fn landed(&self, len: usize);
}

/// One resumable ring flow: a color of the blocking allreduce, an op of the
/// progress engine, or the process worker's allreduce. See the module docs
/// for the protocol.
pub struct RingFlow {
    v: usize,
    dir: RingDir,
    m: usize,
    pos: usize,
    bytes: usize,
    chunk: usize,
    kt: usize,
    /// Chunks: partials injected (position 0), incoming partials combined,
    /// final values landed, fulls forwarded.
    injected: usize,
    combined: usize,
    landed: usize,
    sent: usize,
}

impl RingFlow {
    /// Node `v`'s flow over `bytes` of accumulator along `dir`, cut into
    /// the fabric's chunk size.
    pub fn new<S: SlotStore>(fabric: &Fabric<S>, v: usize, dir: RingDir, bytes: usize) -> Self {
        let chunk = fabric.chunk_bytes();
        RingFlow {
            v,
            dir,
            m: fabric.n_nodes(),
            pos: fabric.ring_pos(v, dir),
            bytes,
            chunk,
            kt: bytes.div_ceil(chunk),
            injected: 0,
            combined: 0,
            landed: 0,
            sent: 0,
        }
    }

    /// The ring direction the flow travels.
    pub fn dir(&self) -> RingDir {
        self.dir
    }

    /// Does this position forward fulls? Every one but `m - 2`, where the
    /// circulation from the last position ends.
    fn sends_fulls(&self) -> bool {
        self.m > 1 && self.pos != self.m - 2
    }

    /// Chunks still expected on the incoming link.
    fn expects(&self) -> usize {
        let partials = if self.pos > 0 {
            self.kt - self.combined
        } else {
            0
        };
        let fulls = if self.pos + 1 < self.m {
            self.kt - self.landed
        } else {
            0
        };
        partials + fulls
    }

    /// Has the flow received, combined, landed and forwarded everything?
    pub fn finished(&self) -> bool {
        let ring = self.m > 1;
        self.landed == self.kt
            && self.injected == if ring && self.pos == 0 { self.kt } else { 0 }
            && self.combined == if self.pos > 0 { self.kt } else { 0 }
            && self.sent == if self.sends_fulls() { self.kt } else { 0 }
    }

    fn out<'f, S: SlotStore>(&self, fabric: &'f Fabric<S>) -> &'f ChunkChannel<S> {
        fabric.ring_send(self.v, self.dir)
    }

    /// Can chunk `(kind, k)` at the head of the incoming link be consumed
    /// now? Pure check; [`Self::consume`] requires it.
    pub fn can_accept<S: SlotStore>(
        &self,
        fabric: &Fabric<S>,
        kind: Kind,
        k: usize,
        node: &impl RingNode,
    ) -> bool {
        match kind {
            Kind::Partial => {
                node.ready(k) && (self.pos == self.m - 1 || self.out(fabric).can_send())
            }
            Kind::Full => true,
        }
    }

    /// Consume chunk `(kind, k)` with payload `bytes`, which
    /// [`Self::can_accept`] admitted.
    pub fn consume<S: SlotStore>(
        &mut self,
        fabric: &Fabric<S>,
        kind: Kind,
        k: usize,
        bytes: &[u8],
        node: &impl RingNode,
    ) {
        let (off, len) = chunk_at(self.bytes, self.chunk, k);
        debug_assert_eq!(len, bytes.len(), "chunk {k} has the wrong length");
        let acc = node.acc();
        match kind {
            Kind::Partial => {
                debug_assert!(self.pos > 0, "position 0 receives no partials");
                debug_assert_eq!(k, self.combined, "partials arrive in order");
                self.combined += 1;
                if self.pos == self.m - 1 {
                    // End of the chain: accumulate in place — the sum is
                    // the chunk's final value.
                    // SAFETY: chunk k is ready, so the flow has exclusive
                    // use of it (RingNode contract); result readers wait
                    // for `landed`.
                    unsafe {
                        acc.with_bytes_mut(off, len, |local| {
                            kernels::add_bytes_assign(local, bytes)
                        })
                    };
                    self.landed += 1;
                    node.landed(len);
                } else {
                    // Fused combine: local partial + incoming chunk, summed
                    // straight into the outgoing slot. `can_accept` saw
                    // room and the flow's driver is the link's only
                    // producer, so the reserve does not block.
                    let mut snd = self.out(fabric).reserve(len);
                    // SAFETY: chunk k is ready (RingNode contract).
                    unsafe {
                        acc.with_bytes(off, len, |local| {
                            snd.with_bytes_mut(|dst| kernels::add_bytes_into(dst, local, bytes))
                        })
                    };
                    snd.publish(node.tag(Kind::Partial, k));
                }
            }
            Kind::Full => {
                debug_assert!(self.pos + 1 < self.m, "the last position receives no fulls");
                debug_assert_eq!(k, self.landed, "fulls arrive in order");
                // SAFETY: the flow already read this chunk's partial (it
                // injected or combined it), so nobody else touches the
                // range; result readers wait for `landed`.
                unsafe { acc.write(off, bytes) };
                self.landed += 1;
                node.landed(len);
                if self.sends_fulls() && self.sent == k {
                    if let Some(mut snd) = self.out(fabric).try_reserve(len) {
                        snd.with_bytes_mut(|dst| dst.copy_from_slice(bytes));
                        snd.publish(node.tag(Kind::Full, k));
                        self.sent += 1;
                    }
                }
            }
        }
    }

    /// Send everything that is ready and fits: partials from position 0,
    /// fulls not yet forwarded. On a one-node ring, report every ready
    /// chunk as final. Returns whether anything moved.
    pub fn push<S: SlotStore>(&mut self, fabric: &Fabric<S>, node: &impl RingNode) -> bool {
        let start = (self.injected, self.landed, self.sent);
        if self.m == 1 {
            while self.landed < self.kt && node.ready(self.landed) {
                node.landed(chunk_at(self.bytes, self.chunk, self.landed).1);
                self.landed += 1;
            }
            return (self.injected, self.landed, self.sent) != start;
        }
        let out = self.out(fabric);
        let acc = node.acc();
        if self.pos == 0 {
            while self.injected < self.kt && node.ready(self.injected) {
                let k = self.injected;
                let (off, len) = chunk_at(self.bytes, self.chunk, k);
                // SAFETY: chunk k is ready (RingNode contract).
                if !out.try_send_with(node.tag(Kind::Partial, k), len, |d| unsafe {
                    acc.read(off, d)
                }) {
                    break;
                }
                self.injected += 1;
            }
        }
        if self.sends_fulls() {
            while self.sent < self.landed {
                let k = self.sent;
                let (off, len) = chunk_at(self.bytes, self.chunk, k);
                // SAFETY: chunk k's final value landed and is never
                // rewritten.
                if !out.try_send_with(node.tag(Kind::Full, k), len, |d| unsafe {
                    acc.read(off, d)
                }) {
                    break;
                }
                self.sent += 1;
            }
        }
        (self.injected, self.landed, self.sent) != start
    }
}

/// Color `c` of a blocking driver's allreduce: its accumulator, whose
/// partial is published chunk by chunk on a cumulative counter, and the
/// counter its final values are published on. Chunks carry the blocking
/// wire tags (`kind:1 | color:23 | k:40`, see [`pack_tag`]).
pub(crate) struct ColorNode<'a> {
    pub acc: &'a SharedRegion,
    pub c: usize,
    /// The partial stream and its value at operation start.
    pub part: &'a MessageCounter,
    pub base: u64,
    pub res: &'a MessageCounter,
    pub bytes: usize,
    pub chunk: usize,
}

// SAFETY: the partial's producer writes each chunk of `acc` once, before
// publishing it on `part`, and never again this operation; result readers
// read only the prefix published on `res`.
unsafe impl RingNode for ColorNode<'_> {
    fn acc(&self) -> &SharedRegion {
        self.acc
    }

    fn ready(&self, k: usize) -> bool {
        self.part.read() - self.base >= self.bytes.min((k + 1) * self.chunk) as u64
    }

    fn tag(&self, kind: Kind, k: usize) -> u64 {
        pack_tag(self.c, wire_bit(kind), k)
    }

    fn landed(&self, len: usize) {
        self.res.publish(len as u64);
    }
}

/// Drive `flows` to completion on the calling thread — the blocking
/// drivers: the cluster's network core (one flow per color) and the
/// process worker (one flow). Flow `c` runs against `nodes[c]`, whose color
/// is `c`.
pub(crate) fn run_ring<S: SlotStore>(
    fabric: &Fabric<S>,
    v: usize,
    flows: &mut [RingFlow],
    nodes: &[ColorNode],
) {
    loop {
        let mut progressed = false;
        for (f, node) in flows.iter_mut().zip(nodes) {
            progressed |= f.push(fabric, node);
        }
        for dir in [RingDir::Plus, RingDir::Minus] {
            // Peek no further than this operation's own chunks: there is
            // no cluster-wide barrier between collectives, so the next
            // ring collective's chunks may already queue behind them.
            let expects = |flows: &[RingFlow]| -> usize {
                flows
                    .iter()
                    .filter(|f| f.dir == dir)
                    .map(RingFlow::expects)
                    .sum()
            };
            if expects(flows) == 0 {
                continue;
            }
            let in_ch = fabric.ring_recv(v, dir);
            while expects(flows) > 0 {
                let Some(tag) = in_ch.peek_tag() else { break };
                let (c, bit, k) = unpack_tag(tag);
                let kind = wire_kind(bit);
                let f = &mut flows[c];
                debug_assert_eq!(f.dir, dir, "flow routed on the wrong ring direction");
                if !f.can_accept(fabric, kind, k, &nodes[c]) {
                    break;
                }
                in_ch.recv_with(|_, bytes| f.consume(fabric, kind, k, bytes, &nodes[c]));
                progressed = true;
            }
        }
        if flows.iter().all(RingFlow::finished) {
            return;
        }
        if !progressed {
            spin();
        }
    }
}

/// The node-local side of one [`SegRing`], supplied by its driver.
///
/// # Safety
///
/// Implementors guarantee, for as long as the ring runs: once `ready()` has
/// returned true, `acc()` holds this node's contribution and nobody but the
/// ring writes it again; and nobody but the ring reads a chunk of `acc()`
/// as a result before `landed` reported it.
pub unsafe trait SegNode {
    /// The ring's accumulator, cut into one segment per node.
    fn acc(&self) -> &SharedRegion;
    /// Is this node's contribution valid in [`Self::acc`]: its partial of
    /// every segment (reduce-scatter), or its own segment (allgather only)?
    fn ready(&self) -> bool;
    /// The link tag of chunk `j` of node `seg`'s segment.
    fn tag(&self, kind: Kind, seg: usize, j: usize) -> u64;
    /// The next chunk of the result prefix, `len` bytes, is final in the
    /// accumulator (called in buffer order).
    fn landed(&self, len: usize);
}

/// One resumable segment ring: the reduce-scatter and/or allgather stage
/// of a blocking node-aware collective, or an engine allgather. See the
/// module docs for the protocol.
pub struct SegRing {
    v: usize,
    dir: RingDir,
    chunk: usize,
    /// Node `w`'s segment is accumulator bytes `bounds[w]..bounds[w + 1]`.
    bounds: Vec<usize>,
    /// The segment the step-`i` send carries; the step-`i` reception
    /// carries `steps[i + 1]`. `steps[rs]` is this node's own segment.
    steps: Vec<usize>,
    /// Reduce-scatter steps (partials); the rest are allgather steps.
    rs: usize,
    ready: bool,
    /// `(index into steps, chunk)` of the next send and the next reception.
    send: (usize, usize),
    recv: (usize, usize),
    /// Final chunks per segment, and the next chunk of the result prefix,
    /// which ends before segment `pub_end`.
    fin: Vec<usize>,
    publ: (usize, usize),
    pub_end: usize,
}

impl SegRing {
    /// Node `v`'s ring over accumulator segments `bounds` (node `w`'s is
    /// `bounds[w]..bounds[w + 1]`, in the fabric's chunk size) along `dir`:
    /// `m - 1` reduce-scatter steps if `rs`, after which node `v` holds
    /// segment `v` final, then `m - 1` allgather steps if `ag`.
    pub fn new<S: SlotStore>(
        fabric: &Fabric<S>,
        v: usize,
        dir: RingDir,
        bounds: Vec<usize>,
        rs: bool,
        ag: bool,
    ) -> Self {
        let m = fabric.n_nodes();
        debug_assert_eq!(bounds.len(), m + 1, "one segment per node");
        let p = fabric.ring_pos(v, dir);
        let (rs, ag) = (if rs { m - 1 } else { 0 }, if ag { m - 1 } else { 0 });
        // Step t (from the first reduce-scatter step) carries the segment
        // of the node t + 1 positions upstream: each step forwards what
        // the one before received, and the last reduce-scatter reception
        // is this node's own segment.
        let steps = (m - 1 - rs..m + ag)
            .map(|t| fabric.ring_node((p + 2 * m - 1 - t) % m, dir))
            .collect();
        let mut ring = SegRing {
            v,
            dir,
            chunk: fabric.chunk_bytes(),
            bounds,
            steps,
            rs,
            ready: false,
            send: (0, 0),
            recv: (1, 0),
            fin: vec![0; m],
            publ: (if ag > 0 { 0 } else { v }, 0),
            pub_end: if ag > 0 { m } else { v + 1 },
        };
        ring.send = ring.skip(ring.send, ring.steps.len() - 1);
        ring.recv = ring.skip(ring.recv, ring.steps.len());
        ring
    }

    /// The direction the ring travels.
    pub fn dir(&self) -> RingDir {
        self.dir
    }

    /// Chunks in node `w`'s segment.
    fn chunks(&self, w: usize) -> usize {
        (self.bounds[w + 1] - self.bounds[w]).div_ceil(self.chunk)
    }

    /// `(byte offset, byte length)` of chunk `j` of node `w`'s segment.
    fn at(&self, w: usize, j: usize) -> (usize, usize) {
        let (off, len) = chunk_at(self.bounds[w + 1] - self.bounds[w], self.chunk, j);
        (self.bounds[w] + off, len)
    }

    /// Cursor `c`, moved past the ends of segments, stopping at `end`.
    fn skip(&self, (mut i, mut j): (usize, usize), end: usize) -> (usize, usize) {
        while i < end && j == self.chunks(self.steps[i]) {
            (i, j) = (i + 1, 0);
        }
        (i, j)
    }

    /// Are chunks still expected on the incoming link?
    fn expects(&self) -> bool {
        self.recv.0 < self.steps.len()
    }

    /// Has the ring sent, received and published everything?
    pub fn finished(&self) -> bool {
        self.ready
            && !self.expects()
            && self.send.0 + 1 == self.steps.len()
            && self.publ.0 == self.pub_end
    }

    /// Can chunk `kind` at the head of the incoming link be consumed now?
    /// Pure check; [`Self::consume`] requires it.
    pub fn can_accept(&self, kind: Kind, node: &impl SegNode) -> bool {
        kind == Kind::Full || self.ready || node.ready()
    }

    /// Consume chunk `(kind, j)` with payload `bytes`, which
    /// [`Self::can_accept`] admitted: combine a partial into the
    /// accumulator, or land a final value there.
    pub fn consume(&mut self, kind: Kind, j: usize, bytes: &[u8], node: &impl SegNode) {
        let (i, jj) = self.recv;
        let w = self.steps[i];
        let (off, len) = self.at(w, jj);
        debug_assert_eq!(
            (kind == Kind::Partial, j),
            (i <= self.rs, jj),
            "out of order"
        );
        debug_assert_eq!(len, bytes.len(), "chunk {j} has the wrong length");
        let acc = node.acc();
        if kind == Kind::Partial {
            self.ready = true;
            // SAFETY: this node's partial of the chunk is valid (ready) and
            // the ring has exclusive use of it; result readers wait for
            // `landed`.
            unsafe {
                acc.with_bytes_mut(off, len, |local| kernels::add_bytes_assign(local, bytes))
            };
        } else {
            // SAFETY: another node's segment: only the ring writes it, and
            // it already sent this node's partial of it (the final value
            // includes it).
            unsafe { acc.write(off, bytes) };
        }
        if i >= self.rs {
            self.fin[w] += 1;
        }
        self.recv = self.skip((i, jj + 1), self.steps.len());
    }

    /// Send every chunk that is ready and fits — the first step's once this
    /// node is ready, later steps' once received — and publish the result
    /// prefix. Returns whether anything moved.
    pub fn push<S: SlotStore>(&mut self, fabric: &Fabric<S>, node: &impl SegNode) -> bool {
        let start = (self.send, self.publ);
        if !self.ready && node.ready() {
            self.ready = true;
            if self.rs == 0 {
                self.fin[self.v] = self.chunks(self.v);
            }
        }
        let acc = node.acc();
        while self.send.0 + 1 < self.steps.len()
            && if self.send.0 == 0 {
                self.ready
            } else {
                self.recv > self.send
            }
        {
            let (i, j) = self.send;
            let w = self.steps[i];
            let (off, len) = self.at(w, j);
            let kind = if i < self.rs {
                Kind::Partial
            } else {
                Kind::Full
            };
            // SAFETY: the chunk is this node's contribution (ready) or was
            // received in full; nobody else writes it.
            let out = fabric.ring_send(self.v, self.dir);
            if !out.try_send_with(node.tag(kind, w, j), len, |d| unsafe { acc.read(off, d) }) {
                break;
            }
            self.send = self.skip((i, j + 1), self.steps.len() - 1);
        }
        while self.publ.0 < self.pub_end {
            let (w, j) = self.publ;
            if j < self.fin[w] {
                node.landed(self.at(w, j).1);
                self.publ.1 += 1;
            } else if j == self.chunks(w) {
                self.publ = (w + 1, 0);
            } else {
                break;
            }
        }
        (self.send, self.publ) != start
    }
}

/// A blocking node-aware collective's node side: the accumulator, the
/// node's rank streams that fill it, and the result stream. Chunks carry
/// the blocking wire tags, the segment in the color field.
pub(crate) struct StreamNode<'a> {
    pub acc: &'a SharedRegion,
    /// Each rank's stream and the value it reaches once the rank's share
    /// of this node's contribution is in `acc`.
    pub parts: Vec<(&'a MessageCounter, u64)>,
    pub res: &'a MessageCounter,
}

// SAFETY: ranks write their share of `acc` before publishing it on their
// stream and never again this operation; result readers read only the
// prefix published on `res`.
unsafe impl SegNode for StreamNode<'_> {
    fn acc(&self) -> &SharedRegion {
        self.acc
    }

    fn ready(&self) -> bool {
        self.parts.iter().all(|&(c, want)| c.read() >= want)
    }

    fn tag(&self, kind: Kind, seg: usize, j: usize) -> u64 {
        pack_tag(seg, wire_bit(kind), j)
    }

    fn landed(&self, len: usize) {
        self.res.publish(len as u64);
    }
}

/// Drive `ring` to completion on the calling thread — the blocking
/// node-aware collectives' network core.
pub(crate) fn run_seg<S: SlotStore>(
    fabric: &Fabric<S>,
    v: usize,
    ring: &mut SegRing,
    node: &StreamNode,
) {
    while !ring.finished() {
        let mut progressed = ring.push(fabric, node);
        // Peek no further than this operation's own chunks (see run_ring).
        while ring.expects() {
            let Some(tag) = fabric.ring_recv(v, ring.dir).peek_tag() else {
                break;
            };
            let (_, bit, j) = unpack_tag(tag);
            let kind = wire_kind(bit);
            if !ring.can_accept(kind, node) {
                break;
            }
            fabric
                .ring_recv(v, ring.dir)
                .recv_with(|_, bytes| ring.consume(kind, j, bytes, node));
            progressed = true;
        }
        if !progressed {
            spin();
        }
    }
}

/// One node's part of a tree broadcast: inject from a source that is valid
/// in full (the root) or up to the landed chunks (everywhere else), and
/// land incoming chunks in order.
pub struct TreeRelay {
    len: usize,
    chunk: usize,
    kt: usize,
    /// Chunks valid in the source region.
    landed: usize,
    /// Chunks sent per outbound port.
    sent: Vec<usize>,
}

impl TreeRelay {
    /// Node `v`'s relay of a `len`-byte broadcast rooted at node `root`, in
    /// the fabric's chunk size; at the root the whole source is valid from
    /// the start.
    pub fn new<S: SlotStore>(fabric: &Fabric<S>, v: usize, root: usize, len: usize) -> Self {
        let chunk = fabric.chunk_bytes();
        let kt = len.div_ceil(chunk);
        TreeRelay {
            len,
            chunk,
            kt,
            landed: if v == root { kt } else { 0 },
            sent: vec![0; fabric.bcast_out(v, root).len()],
        }
    }

    /// Has every chunk landed and gone out on every port?
    pub fn finished(&self) -> bool {
        self.landed == self.kt && self.sent.iter().all(|&s| s == self.kt)
    }

    /// Land the next chunk, `k`, into `buf`, and forward it straight from
    /// `bytes` on every port that has room and no earlier chunk waiting
    /// (the rest go out from `buf` in [`Self::push`]).
    ///
    /// # Safety
    ///
    /// Nobody else writes `buf`, and nobody else reads chunk `k` of it
    /// before the driver publishes its landing.
    pub unsafe fn land<S: SlotStore>(
        &mut self,
        k: usize,
        bytes: &[u8],
        buf: &SharedRegion,
        outs: &[&ChunkChannel<S>],
        tag: impl Fn(usize) -> u64,
    ) {
        debug_assert_eq!(k, self.landed, "relay chunks arrive in order");
        let (off, len) = chunk_at(self.len, self.chunk, k);
        debug_assert_eq!(len, bytes.len(), "relay chunk {k} has the wrong length");
        // SAFETY: sole writer (caller contract).
        unsafe { buf.write(off, bytes) };
        self.landed += 1;
        for (sent, ch) in self.sent.iter_mut().zip(outs) {
            if *sent == k {
                if let Some(mut snd) = ch.try_reserve(len) {
                    snd.with_bytes_mut(|dst| dst.copy_from_slice(bytes));
                    snd.publish(tag(k));
                    *sent += 1;
                }
            }
        }
    }

    /// Inject every landed chunk the ports have room for, reading it from
    /// `buf`. Returns whether anything moved.
    ///
    /// # Safety
    ///
    /// The first landed chunks of `buf` (all of it at the root) hold the
    /// message and nobody writes them concurrently.
    pub unsafe fn push<S: SlotStore>(
        &mut self,
        buf: &SharedRegion,
        outs: &[&ChunkChannel<S>],
        tag: impl Fn(usize) -> u64,
    ) -> bool {
        let mut progressed = false;
        for (sent, ch) in self.sent.iter_mut().zip(outs) {
            while *sent < self.landed {
                let (off, len) = chunk_at(self.len, self.chunk, *sent);
                // SAFETY: a landed chunk (caller contract).
                if !ch.try_send_with(tag(*sent), len, |d| unsafe { buf.read(off, d) }) {
                    break;
                }
                *sent += 1;
                progressed = true;
            }
        }
        progressed
    }
}

/// Run node `v`'s part of a `len`-byte broadcast rooted at node `root` to
/// completion on the calling thread — the blocking drivers' relay (chunk
/// tags are chunk indices). At the root `buf` holds the message; elsewhere
/// it receives it.
///
/// # Safety
///
/// Nobody else accesses `buf[..len]` until this returns (at the root:
/// nobody writes it).
pub(crate) unsafe fn run_relay<S: SlotStore>(
    fabric: &Fabric<S>,
    v: usize,
    root: usize,
    buf: &SharedRegion,
    len: usize,
) {
    let outs = fabric.bcast_out(v, root);
    let in_ch = (v != root).then(|| fabric.bcast_in(v, root));
    let mut relay = TreeRelay::new(fabric, v, root, len);
    let tag = |k: usize| k as u64;
    while !relay.finished() {
        // SAFETY: landed chunks of buf are ours alone (caller contract).
        let mut progressed = unsafe { relay.push(buf, &outs, tag) };
        if let Some(in_ch) = in_ch.filter(|_| relay.landed < relay.kt) {
            if let Some(rs) = in_ch.try_peek() {
                let k = rs.tag() as usize;
                // SAFETY: as above.
                rs.with_bytes(|bytes| unsafe { relay.land(k, bytes, buf, &outs, tag) });
                progressed = true;
            }
        }
        if !progressed {
            spin();
        }
    }
}
