//! Node-aware cluster collectives: the locality-aware reduce-scatter +
//! allgather allreduce of Bienz et al. and the rounded-out collective set
//! (`reduce_scatter_f64`, `allgather`, `alltoall`).
//!
//! ## Stage decomposition
//!
//! The flat §V-C ring (`ClusterCtx::allreduce_f64`) partitions the buffer
//! into `n-1` *color* spans and circulates every color's partials all the
//! way around the ring and the fulls all the way back: every payload byte
//! crosses ~`2(m-1)` links, and each color rounds its span up to whole
//! chunks separately. The node-aware family instead works on the **global
//! chunk grid** (`kt = ceil(bytes/chunk)` chunks for the whole message) in
//! three stages:
//!
//! 1. **Intra-node reduce** — rank `r` reduces chunk range
//!    `[r*kt/n, (r+1)*kt/n)` of all `n` local inputs into one node
//!    accumulator, publishing cumulative bytes on its producer stream.
//! 2. **Ring reduce-scatter** — node `w`'s segment is chunks
//!    `[w*kt/m, (w+1)*kt/m)`; in `m-1` steps each node sends one segment
//!    of partials and combines the incoming segment into its accumulator,
//!    so each chunk crosses each link at most once, and node `v` ends
//!    holding segment `v` final.
//! 3. **Ring allgather** — the reduced segments circulate back in `m-1`
//!    steps; every rank chases a single prefix-ordered result counter and
//!    copies finished bytes out.
//!
//! Stages 2 and 3 are one [`SegRing`](crate::netcore::SegRing), which
//! `reduce_scatter_f64` (stage 2 only) and `allgather` (stage 3 only) run
//! too.
//!
//! Total inter-node traffic is `2(m-1)/m * kt` chunk-sends per node versus
//! the flat ring's `~2(m-1)/m * kt_flat` with `kt_flat >= kt` (per-color
//! chunk rounding) — strictly fewer chunks whenever color spans misalign
//! with the chunk size. `tests/node_aware.rs` asserts the reduction via
//! the `Fabric::total_chunks_sent` probe.
//!
//! Tags ride the same `kind:1 | color:23 | k:40` namespace as the flat
//! ring (`color` carries the segment / origin id); each collective
//! validates its widest tag once per op with [`try_pack_tag`].

use super::*;
use crate::netcore::{run_seg, SegRing, StreamNode};

impl ClusterCtx {
    /// The output span (element range of the reduced vector) this rank
    /// receives from [`reduce_scatter_f64`](Self::reduce_scatter_f64):
    /// `[g*count/G, (g+1)*count/G)` for global rank `g` of `G`.
    pub fn scatter_span(&self, count: usize) -> (usize, usize) {
        let world = self.shared.m * self.shared.n;
        let g = self.global_rank();
        (g * count / world, (g + 1) * count / world)
    }

    /// Node-aware allreduce (sum) over `count` doubles: intra-node reduce,
    /// ring reduce-scatter, ring allgather. Byte-identical to
    /// [`allreduce_f64`](Self::allreduce_f64) for order-insensitive
    /// (e.g. integer-valued) inputs, with strictly fewer inter-node chunk
    /// sends. SPMD.
    pub fn allreduce_f64_node_aware(
        &mut self,
        input: &Arc<SharedRegion>,
        output: &Arc<SharedRegion>,
        count: usize,
    ) {
        self.na_reduce(input, output, count, false)
    }

    /// Reduce-scatter (sum) over `count` doubles: after the intra-node
    /// reduce and the ring reduce-scatter stage, global rank `g` holds
    /// elements [`scatter_span`](Self::scatter_span) of the reduced vector
    /// at offset 0 of its `output`. Only the reduce-scatter half of the
    /// node-aware allreduce runs, so each payload byte crosses each ring
    /// link at most once. SPMD.
    pub fn reduce_scatter_f64(
        &mut self,
        input: &Arc<SharedRegion>,
        output: &Arc<SharedRegion>,
        count: usize,
    ) {
        self.na_reduce(input, output, count, true)
    }

    /// Shared body of [`Self::allreduce_f64_node_aware`] /
    /// [`Self::reduce_scatter_f64`]: the segment layout (global chunk grid
    /// vs. each node's element span), whether the allgather stage runs, and
    /// the copy-out span differ.
    fn na_reduce(
        &mut self,
        input: &Arc<SharedRegion>,
        output: &Arc<SharedRegion>,
        count: usize,
        scatter: bool,
    ) {
        let shared = self.shared.clone();
        let (m, n) = (shared.m, shared.n);
        let world = m * n;
        let (my_lo, my_hi) = if scatter {
            self.scatter_span(count)
        } else {
            (0, count)
        };
        assert!(input.len() >= count * 8, "input shorter than count");
        assert!(
            output.len() >= (my_hi - my_lo) * 8,
            "output shorter than this rank's result span"
        );
        let op = self.ctx.next_op();
        let (in_tag, acc_tag) = (2 * op, 2 * op + 1);
        let me = self.ctx.rank();
        let chunk = shared.fabric.chunk_bytes();
        let bytes = count * 8;
        let kt = bytes.div_ceil(chunk);
        if kt > 0 {
            // One checked pack covers the widest tag the op can emit.
            try_pack_tag(m - 1, KIND_FULL, kt - 1).expect("geometry exceeds the tag namespace");
        }
        let clen = |k: usize| (bytes - k * chunk).min(chunk);
        // Rank r reduces chunk range [r*kt/n, (r+1)*kt/n).
        let rpart = |r: usize| (r * kt / n, (r + 1) * kt / n);

        let pbase: Vec<u64> = (0..n).map(|r| self.ctx.aux_counter(r).read()).collect();
        let rbase = self.ctx.aux_counter(n).read();

        self.ctx.registry().expose(me as u32, in_tag, input.clone());
        if me == 0 {
            let acc = self.ctx.alloc_buffer(bytes.max(1));
            self.ctx.registry().expose(0, acc_tag, acc);
        }
        self.ctx.barrier();
        let acc = self.map_cached(0, acc_tag);

        // Stage 1 — every rank reduces its chunk partition of all local
        // inputs straight into the node accumulator, chunk by chunk.
        {
            let inputs: Vec<Arc<SharedRegion>> =
                (0..n).map(|r| self.map_cached(r as u32, in_tag)).collect();
            let (klo, khi) = rpart(me);
            for k in klo..khi {
                let off = k * chunk;
                let cl = clen(k);
                // SAFETY: this rank is the unique writer of its chunk
                // partition of acc; readers are gated on the publish below;
                // the inputs were written before the collective.
                unsafe {
                    acc.with_bytes_mut(off, cl, |dst| {
                        inputs[0].with_bytes(off, cl, |src| dst.copy_from_slice(src));
                        for inp in &inputs[1..] {
                            inp.with_bytes(off, cl, |src| {
                                crate::kernels::add_bytes_assign(dst, src)
                            });
                        }
                    });
                }
                self.ctx.aux_counter(me).publish(cl as u64);
            }
        }

        // Stages 2+3 — rank 0 runs the segment ring once the intra stage
        // is done. The allreduce's segments follow the global chunk grid,
        // so no chunk is split; reduce-scatter's are each node's span.
        if me == 0 {
            let bounds = (0..=m)
                .map(|w| {
                    if scatter {
                        w * n * count / world * 8
                    } else {
                        (w * kt / m * chunk).min(bytes)
                    }
                })
                .collect();
            let need: Vec<u64> = (0..n)
                .map(|r| {
                    let (klo, khi) = rpart(r);
                    pbase[r] + (klo..khi).map(|k| clen(k) as u64).sum::<u64>()
                })
                .collect();
            self.run_seg_ring(&acc, bounds, &need, true, !scatter);
        }

        // Copy-out — chase the result stream: the whole message, or this
        // rank's sub-span of the node's segment.
        if !scatter {
            self.chase_copy(output, &acc, bytes, n, rbase, None);
        } else if my_hi > my_lo {
            let seg_lo = self.node * n * count / world;
            let need = ((my_hi - seg_lo) * 8) as u64;
            self.ctx.aux_counter(n).wait_past(rbase, need);
            // SAFETY: the result counter acquire ordered us after the
            // ring combines; our output is ours.
            unsafe { output.copy_from(0, &acc, my_lo * 8, (my_hi - my_lo) * 8) };
        }

        self.ctx.barrier();
        self.ctx.registry().unexpose(me as u32, in_tag);
        if me == 0 {
            self.ctx.registry().unexpose(0, acc_tag);
        }
    }

    /// Rank 0: run this node's segment ring over `acc` (reduce-scatter
    /// steps if `rs`, allgather steps if `ag`) once each rank `r`'s stream
    /// reached `need[r]`, publishing the result prefix on stream `n`.
    fn run_seg_ring(
        &self,
        acc: &SharedRegion,
        bounds: Vec<usize>,
        need: &[u64],
        rs: bool,
        ag: bool,
    ) {
        let fabric = &self.shared.fabric;
        let node = StreamNode {
            acc,
            parts: need
                .iter()
                .enumerate()
                .map(|(r, &want)| (self.ctx.aux_counter(r), want))
                .collect(),
            res: self.ctx.aux_counter(need.len()),
        };
        let mut ring = SegRing::new(fabric, self.node, RingDir::Plus, bounds, rs, ag);
        run_seg(fabric, self.node, &mut ring, &node);
    }

    /// Allgather: every global rank contributes `len` bytes from `input`;
    /// every rank's `output` receives all `G` blocks in global-rank order.
    /// Ranks deposit their blocks straight into the node accumulator, node
    /// blocks circulate the ring once, and every rank chases one
    /// prefix-ordered result stream. SPMD.
    pub fn allgather(&mut self, input: &Arc<SharedRegion>, output: &Arc<SharedRegion>, len: usize) {
        let (m, n) = (self.shared.m, self.shared.n);
        assert!(input.len() >= len, "input shorter than block");
        assert!(output.len() >= m * n * len, "output shorter than G blocks");
        let op = self.ctx.next_op();
        let acc_tag = 2 * op + 1;
        let me = self.ctx.rank();
        let bl = n * len; // node block bytes
        let total = m * bl;
        let kb = bl.div_ceil(self.shared.fabric.chunk_bytes());
        if kb > 0 {
            try_pack_tag(m - 1, KIND_FULL, kb - 1).expect("geometry exceeds the tag namespace");
        }

        let need: Vec<u64> = (0..n)
            .map(|r| self.ctx.aux_counter(r).read() + len as u64)
            .collect();
        let rbase = self.ctx.aux_counter(n).read();

        if me == 0 {
            let acc = self.ctx.alloc_buffer(total.max(1));
            self.ctx.registry().expose(0, acc_tag, acc);
        }
        self.ctx.barrier();
        let acc = self.map_cached(0, acc_tag);

        // Intra gather — each rank deposits its block into the node's
        // region of the accumulator and publishes its producer stream.
        if len > 0 {
            // SAFETY: this rank's slice of the node block is uniquely ours;
            // readers gate on the publish.
            unsafe { acc.copy_from(self.node * bl + me * len, input, 0, len) };
        }
        self.ctx.aux_counter(me).publish(len as u64);

        if me == 0 {
            let bounds = (0..=m).map(|w| w * bl).collect();
            self.run_seg_ring(&acc, bounds, &need, false, true);
        }

        self.chase_copy(output, &acc, total, n, rbase, None);

        self.ctx.barrier();
        if me == 0 {
            self.ctx.registry().unexpose(0, acc_tag);
        }
    }

    /// All-to-all personalized exchange: every global rank holds `G` blocks
    /// of `len` bytes in `input` (block `g` destined to global rank `g`)
    /// and receives `G` blocks in `output` (block `g` from global rank
    /// `g`). Per-destination-node payloads are assembled by the network
    /// core straight from the mapped input windows into outgoing slots and
    /// travel the ring store-and-forward; chunks in transit to a farther
    /// node are relayed from the incoming slot loan (or an owned queue when
    /// the downstream link is full, so reception never deadlocks the ring
    /// cycle). SPMD.
    pub fn alltoall(&mut self, input: &Arc<SharedRegion>, output: &Arc<SharedRegion>, len: usize) {
        let shared = self.shared.clone();
        let (m, n) = (shared.m, shared.n);
        let world = m * n;
        assert!(input.len() >= world * len, "input shorter than G blocks");
        assert!(output.len() >= world * len, "output shorter than G blocks");
        let op = self.ctx.next_op();
        let (in_tag, acc_tag) = (2 * op, 2 * op + 1);
        let me = self.ctx.rank();
        let v = self.node;
        let chunk = shared.fabric.chunk_bytes();
        let pl = n * n * len; // payload bytes per (origin, dest) node pair
        let kc = pl.div_ceil(chunk); // chunks per payload
        let total = m * pl; // accumulator bytes (origin-major regions)
        if kc > 0 && m > 1 {
            // color = origin * m + dest.
            try_pack_tag(m * m - 1, KIND_FULL, kc - 1).expect("geometry exceeds the tag namespace");
        }

        let pbase: Vec<u64> = (0..n).map(|r| self.ctx.aux_counter(r).read()).collect();
        let rbase = self.ctx.aux_counter(n).read();

        self.ctx.registry().expose(me as u32, in_tag, input.clone());
        if me == 0 {
            let acc = self.ctx.alloc_buffer(total.max(1));
            self.ctx.registry().expose(0, acc_tag, acc);
        }
        self.ctx.barrier();
        let acc = self.map_cached(0, acc_tag);

        // Intra exchange — rank r deposits its blocks destined to this
        // node's ranks into the own-origin region: acc[v][r][q].
        if len > 0 {
            for q in 0..n {
                // SAFETY: slice (v, me, q) is uniquely ours; readers gate
                // on the publish below.
                unsafe {
                    acc.copy_from(
                        v * pl + me * (n * len) + q * len,
                        input,
                        (v * n + q) * len,
                        len,
                    )
                };
            }
        }
        self.ctx.aux_counter(me).publish((n * len) as u64);

        if me == 0 {
            let inputs: Vec<Arc<SharedRegion>> =
                (0..n).map(|r| self.map_cached(r as u32, in_tag)).collect();
            // Assemble payload P(v -> w) chunk bytes [x, x+dst.len) by
            // scatter-reads from the mapped inputs: payload layout is
            // [src rank r][dst rank q], source block input_r[(w*n+q)*len].
            let fill = |w: usize, mut x: usize, dst: &mut [u8]| {
                let mut filled = 0usize;
                while filled < dst.len() {
                    let r = x / (n * len);
                    let rem = x % (n * len);
                    let q = rem / len;
                    let off = rem % len;
                    let run = (len - off).min(dst.len() - filled);
                    // SAFETY: inputs were written before the collective;
                    // the start barrier ordered us after them.
                    unsafe {
                        inputs[r].read((w * n + q) * len + off, &mut dst[filled..filled + run])
                    };
                    x += run;
                    filled += run;
                }
            };

            // Expected traffic through this node: payload (u -> w) reaches
            // us iff our ring distance from u does not exceed w's, and is
            // relayed onward iff it is strictly smaller.
            let (mut exp_recv, mut exp_relay) = (0usize, 0usize);
            for u in 0..m {
                if u == v {
                    continue;
                }
                let dv = (v + m - u) % m;
                for w in 0..m {
                    if w == u {
                        continue;
                    }
                    let dw = (w + m - u) % m;
                    if dv <= dw {
                        exp_recv += kc;
                        if dv < dw {
                            exp_relay += kc;
                        }
                    }
                }
            }

            // Region completion for prefix publishing: network regions
            // fill contiguously chunk by chunk; the own region completes
            // as the rank streams (polled in order) pass n*len bytes.
            let mut reg_done = vec![0usize; m];
            let mut own_ranks_done = 0usize;
            let mut published = 0u64;
            let mut injected = 0usize;
            let inject_total = if m > 1 { (m - 1) * kc } else { 0 };
            let (mut received, mut relayed) = (0usize, 0usize);
            let mut relay_q: VecDeque<(u64, Vec<u8>)> = VecDeque::new();
            loop {
                let mut progressed = false;

                // Own-region intra progress (rank-major, polled in order).
                while own_ranks_done < n
                    && self.ctx.aux_counter(own_ranks_done).read() - pbase[own_ranks_done]
                        >= (n * len) as u64
                {
                    own_ranks_done += 1;
                    reg_done[v] = own_ranks_done * n * len;
                    progressed = true;
                }

                // Prefix publish over the origin-major accumulator.
                let mut avail = 0usize;
                for &d in reg_done.iter().take(m) {
                    avail += d;
                    if d < pl {
                        break;
                    }
                }
                if avail as u64 > published {
                    self.ctx.aux_counter(n).publish(avail as u64 - published);
                    published = avail as u64;
                    progressed = true;
                }

                if m > 1 {
                    let out = shared.fabric.ring_send(v, RingDir::Plus);
                    let in_ch = shared.fabric.ring_recv(v, RingDir::Plus);

                    // Relays queued while the link was full go first so
                    // per-payload chunk order is preserved.
                    while let Some((tag, bytes)) = relay_q.front() {
                        if !out.can_send() {
                            break;
                        }
                        let ok =
                            out.try_send_with(*tag, bytes.len(), |dst| dst.copy_from_slice(bytes));
                        debug_assert!(ok);
                        relay_q.pop_front();
                        relayed += 1;
                        progressed = true;
                    }

                    // Inject our own payloads, nearest destination first.
                    while injected < inject_total && relay_q.is_empty() && out.can_send() {
                        let d = 1 + injected / kc;
                        let j = injected % kc;
                        let w = (v + d) % m;
                        let x = j * chunk;
                        let cl = (pl - x).min(chunk);
                        let ok = out.try_send_with(pack_tag(v * m + w, KIND_FULL, j), cl, |dst| {
                            fill(w, x, dst)
                        });
                        debug_assert!(ok);
                        injected += 1;
                        progressed = true;
                    }

                    while received < exp_recv {
                        let Some(tag) = in_ch.peek_tag() else { break };
                        let (pair, _kind, j) = unpack_tag(tag);
                        let (u, w) = (pair / m, pair % m);
                        let x = j * chunk;
                        let cl = (pl - x).min(chunk);
                        let rs = in_ch.peek();
                        if w == v {
                            debug_assert_eq!(reg_done[u], x, "payload chunks arrive in order");
                            // SAFETY: sole writer of remote origin regions;
                            // readers gate on stream n.
                            rs.with_bytes(|inb| {
                                debug_assert_eq!(inb.len(), cl);
                                unsafe { acc.write(u * pl + x, inb) }
                            });
                            reg_done[u] += cl;
                        } else if relay_q.is_empty() && out.can_send() {
                            // Forward straight from the slot loan.
                            let mut snd = out.reserve(cl);
                            rs.with_bytes(|inb| snd.with_bytes_mut(|dst| dst.copy_from_slice(inb)));
                            snd.publish(tag);
                            relayed += 1;
                        } else {
                            // Downstream is full: park an owned copy so the
                            // ring cycle can keep draining.
                            relay_q.push_back((tag, rs.with_bytes(|inb| inb.to_vec())));
                        }
                        received += 1;
                        progressed = true;
                    }
                }

                if injected == inject_total
                    && received == exp_recv
                    && relayed == exp_relay
                    && relay_q.is_empty()
                    && published == total as u64
                {
                    break;
                }
                if !progressed {
                    bgp_shmem::spin();
                }
            }
        }

        // Copy-out — rank q gathers its column: block from global rank
        // (u, r) lives at acc[u][r][q].
        if len > 0 {
            for u in 0..m {
                for r in 0..n {
                    let src = u * pl + r * (n * len) + me * len;
                    let need = (src + len) as u64;
                    self.ctx.aux_counter(n).wait_past(rbase, need);
                    // SAFETY: the result counter acquire ordered us after
                    // the region writes; our output is ours.
                    unsafe { output.copy_from((u * n + r) * len, &acc, src, len) };
                }
            }
        }

        self.ctx.barrier();
        self.ctx.registry().unexpose(me as u32, in_tag);
        if me == 0 {
            self.ctx.registry().unexpose(0, acc_tag);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::{read_f64s, write_f64s};

    /// The node-aware allreduce agrees bitwise with the flat ring on
    /// integer-valued inputs (order-insensitive sums), across geometries
    /// including single-node and single-rank-per-node, and degenerate
    /// counts below the rank/color counts.
    #[test]
    fn node_aware_allreduce_matches_flat() {
        for (m, n) in [(1usize, 3usize), (2, 2), (3, 2), (4, 1)] {
            let cluster = Cluster::with_geometry(m, n, 64, 2);
            let world = (m * n) as f64;
            for count in [0usize, 1, 7, 129] {
                let out = cluster.run(move |cctx| {
                    let g = cctx.global_rank() as f64;
                    let input = cctx.intra().alloc_buffer((count * 8).max(1));
                    let flat = cctx.intra().alloc_buffer((count * 8).max(1));
                    let na = cctx.intra().alloc_buffer((count * 8).max(1));
                    let vals: Vec<f64> = (0..count).map(|i| i as f64 + g).collect();
                    write_f64s(&input, 0, &vals);
                    cctx.intra().barrier();
                    cctx.allreduce_f64(&input, &flat, count);
                    cctx.allreduce_f64_node_aware(&input, &na, count);
                    (read_f64s(&flat, 0, count), read_f64s(&na, 0, count))
                });
                for ranks in &out {
                    for (flat, na) in ranks {
                        for i in 0..count {
                            let want = world * i as f64 + world * (world - 1.0) / 2.0;
                            assert_eq!(flat[i], want, "flat m={m} n={n} count={count}");
                            assert_eq!(na[i], want, "node-aware m={m} n={n} count={count}");
                        }
                    }
                }
            }
        }
    }

    /// Regression for the cross-op drain bug in the flat ring engine: with
    /// one rank per node the intra-node barriers do nothing, so node 3 can
    /// finish the flat allreduce, enter the node-aware one, and inject its
    /// seg-3 partial (tag color 3) while node 0's flat engine — whose flow
    /// table has exactly one color — is still draining its ring channel.
    /// The engine used to peek that foreign chunk and panic on
    /// `flows[3]`; it now stops at its own op's expected chunk count.
    #[test]
    fn flat_engine_ignores_next_op_chunks() {
        let cluster = Cluster::with_geometry(4, 1, 64, 2);
        let count = 7usize; // one chunk; only segment 3 is non-empty
        let out = cluster.run(move |cctx| {
            let g = cctx.global_rank() as f64;
            let input = cctx.intra().alloc_buffer(count * 8);
            let flat = cctx.intra().alloc_buffer(count * 8);
            let na = cctx.intra().alloc_buffer(count * 8);
            let vals: Vec<f64> = (0..count).map(|i| i as f64 + g).collect();
            write_f64s(&input, 0, &vals);
            cctx.intra().barrier();
            cctx.allreduce_f64(&input, &flat, count);
            cctx.allreduce_f64_node_aware(&input, &na, count);
            (read_f64s(&flat, 0, count), read_f64s(&na, 0, count))
        });
        for ranks in &out {
            for (flat, na) in ranks {
                for i in 0..count {
                    let want = 4.0 * i as f64 + 6.0;
                    assert_eq!(flat[i], want);
                    assert_eq!(na[i], want);
                }
            }
        }
    }

    /// The acceptance-criteria probe: at >= 2 nodes the node-aware
    /// schedule moves strictly fewer chunks over the fabric than the flat
    /// multi-color ring, because it chunks the global buffer once instead
    /// of rounding each color span up separately, and each chunk crosses
    /// each link at most once per stage.
    #[test]
    fn node_aware_allreduce_sends_fewer_chunks() {
        let count = 8192usize; // 64 KiB payload, 16 KiB chunks => kt = 4
        let cluster = Cluster::with_geometry(2, 4, 16 * 1024, 2);
        let run_one = |node_aware: bool| {
            cluster.run(move |cctx| {
                let g = cctx.global_rank() as f64;
                let input = cctx.intra().alloc_buffer(count * 8);
                let output = cctx.intra().alloc_buffer(count * 8);
                let vals: Vec<f64> = (0..count).map(|i| i as f64 + g).collect();
                write_f64s(&input, 0, &vals);
                cctx.intra().barrier();
                if node_aware {
                    cctx.allreduce_f64_node_aware(&input, &output, count)
                } else {
                    cctx.allreduce_f64(&input, &output, count)
                }
                read_f64s(&output, 0, count)
            })
        };
        let base = cluster.shared.fabric.total_chunks_sent();
        let flat_out = run_one(false);
        let flat = cluster.shared.fabric.total_chunks_sent() - base;
        let na_out = run_one(true);
        let na = cluster.shared.fabric.total_chunks_sent() - base - flat;
        assert_eq!(flat_out, na_out, "node-aware result differs from flat");
        assert!(
            na < flat,
            "node-aware sent {na} chunks, flat ring sent {flat}"
        );
        // m=2: each node sends its kt/m = 2-chunk segment once per stage.
        assert_eq!(na, 8, "unexpected node-aware chunk schedule");
    }

    /// `reduce_scatter_f64` delivers each global rank exactly its
    /// [`ClusterCtx::scatter_span`] of the reduced vector, including
    /// degenerate counts where most spans are empty.
    #[test]
    fn reduce_scatter_scatter_spans_and_values() {
        for (m, n) in [(1usize, 2usize), (2, 2), (3, 2), (4, 1), (4, 2)] {
            let cluster = Cluster::with_geometry(m, n, 64, 2);
            let world = m * n;
            for count in [0usize, 1, world - 1, 37, 129] {
                let out = cluster.run(move |cctx| {
                    let g = cctx.global_rank() as f64;
                    let input = cctx.intra().alloc_buffer((count * 8).max(1));
                    let (lo, hi) = cctx.scatter_span(count);
                    let output = cctx.intra().alloc_buffer(((hi - lo) * 8).max(1));
                    let vals: Vec<f64> = (0..count).map(|i| 2.0 * i as f64 + g).collect();
                    write_f64s(&input, 0, &vals);
                    cctx.intra().barrier();
                    cctx.reduce_scatter_f64(&input, &output, count);
                    (lo, hi, read_f64s(&output, 0, hi - lo))
                });
                let wf = world as f64;
                for ranks in &out {
                    for (lo, hi, got) in ranks {
                        for (j, &gv) in got.iter().enumerate() {
                            let i = lo + j;
                            let want = wf * 2.0 * i as f64 + wf * (wf - 1.0) / 2.0;
                            assert_eq!(gv, want, "m={m} n={n} count={count} span {lo}..{hi}");
                        }
                    }
                }
            }
        }
    }

    /// `allgather` assembles every rank's block in global-rank order on
    /// every rank, including zero-length blocks.
    #[test]
    fn allgather_gathers_blocks_in_rank_order() {
        for (m, n) in [(1usize, 2usize), (2, 2), (3, 2), (4, 1), (4, 2)] {
            let cluster = Cluster::with_geometry(m, n, 64, 2);
            let world = m * n;
            for len in [0usize, 1, 5, 200] {
                let out = cluster.run(move |cctx| {
                    let g = cctx.global_rank();
                    let input = cctx.intra().alloc_buffer(len.max(1));
                    let output = cctx.intra().alloc_buffer((world * len).max(1));
                    let bytes: Vec<u8> = (0..len).map(|j| ((g * 31 + j) % 251) as u8).collect();
                    // SAFETY: our buffer, before the collective.
                    unsafe { input.write(0, &bytes) };
                    cctx.intra().barrier();
                    cctx.allgather(&input, &output, len);
                    // SAFETY: the collective completed.
                    let mut all = unsafe { output.snapshot() };
                    all.truncate(world * len);
                    all
                });
                for ranks in &out {
                    for all in ranks {
                        for src in 0..world {
                            for j in 0..len {
                                assert_eq!(
                                    all[src * len + j],
                                    ((src * 31 + j) % 251) as u8,
                                    "m={m} n={n} len={len} block {src} byte {j}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// `alltoall` routes every (source, destination) block, exercising the
    /// store-and-forward relay path at three nodes.
    #[test]
    fn alltoall_routes_every_block() {
        for (m, n) in [(1usize, 2usize), (2, 2), (3, 2)] {
            let cluster = Cluster::with_geometry(m, n, 64, 2);
            let world = m * n;
            for len in [0usize, 1, 3, 64] {
                let out = cluster.run(move |cctx| {
                    let g = cctx.global_rank();
                    let input = cctx.intra().alloc_buffer((world * len).max(1));
                    let output = cctx.intra().alloc_buffer((world * len).max(1));
                    let bytes: Vec<u8> = (0..world * len)
                        .map(|x| {
                            let (d, j) = (x / len.max(1), x % len.max(1));
                            ((g * 131 + d * 17 + j) % 251) as u8
                        })
                        .collect();
                    // SAFETY: our buffer, before the collective.
                    unsafe { input.write(0, &bytes) };
                    cctx.intra().barrier();
                    cctx.alltoall(&input, &output, len);
                    // SAFETY: the collective completed.
                    let mut all = unsafe { output.snapshot() };
                    all.truncate(world * len);
                    all
                });
                for (node, ranks) in out.iter().enumerate() {
                    for (r, all) in ranks.iter().enumerate() {
                        let g = node * n + r;
                        for src in 0..world {
                            for j in 0..len {
                                assert_eq!(
                                    all[src * len + j],
                                    ((src * 131 + g * 17 + j) % 251) as u8,
                                    "m={m} n={n} len={len} dst {g} src {src} byte {j}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
