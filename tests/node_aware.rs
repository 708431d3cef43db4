//! Cross-runtime acceptance matrix for the node-aware collective family.
//!
//! Three runtimes answer the same questions and must agree:
//!
//! * the **single-node SMP runtime** (a 1×G cluster) is the byte-exact
//!   reference — no inter-node fabric at all;
//! * the **thread-cluster flat ring** (`allreduce_f64`, §V-C) is the
//!   pre-PR baseline;
//! * the **node-aware family** (`allreduce_f64_node_aware`,
//!   `reduce_scatter_f64`, `allgather`, `alltoall`) is the new
//!   path, which must be byte-identical for order-insensitive inputs while
//!   sending strictly fewer inter-node chunks;
//! * the **simulator** (`bgp_mpi`) models the same decomposition; its
//!   tuned selection must order the algorithms the same way the models do.
//!
//! Shapes cover 2–4 nodes; sizes cover 1 B (allgather/alltoall blocks) to
//! 1 MiB (allreduce payload, scaled by `stress_iters` on small hosts).

use bgp_collectives::shmem::testing::stress_iters;
use bgp_collectives::smp::collectives::{read_f64s, write_f64s};
use bgp_collectives::smp::{Cluster, ClusterCtx};

/// Integer-valued per-global-rank inputs: f64 summation over them is
/// order-insensitive, so "byte-identical across schedules" is meaningful.
fn vals_for(g: usize, count: usize) -> Vec<f64> {
    (0..count)
        .map(|i| ((i * 7 + g * 3) % 1000) as f64)
        .collect()
}

/// The fabric's cumulative chunk counter (cluster-global, read via any
/// rank's context).
fn chunks_sent(cluster: &Cluster) -> usize {
    cluster.run(|cctx: &mut ClusterCtx| cctx.fabric().total_chunks_sent())[0][0]
}

/// Run the flat or the node-aware allreduce on every rank; returns
/// `[node][rank]` outputs.
fn run_allreduce(cluster: &Cluster, count: usize, node_aware: bool) -> Vec<Vec<Vec<f64>>> {
    cluster.run(move |cctx: &mut ClusterCtx| {
        let g = cctx.global_rank();
        let input = cctx.intra().alloc_buffer((count * 8).max(1));
        let output = cctx.intra().alloc_buffer((count * 8).max(1));
        write_f64s(&input, 0, &vals_for(g, count));
        cctx.intra().barrier();
        if node_aware {
            cctx.allreduce_f64_node_aware(&input, &output, count)
        } else {
            cctx.allreduce_f64(&input, &output, count)
        }
        read_f64s(&output, 0, count)
    })
}

#[test]
fn allreduce_matrix_flat_node_aware_and_reference_agree() {
    // The reference: all G ranks on one node — no fabric, pure shared
    // memory. Every multi-node schedule must reproduce its bytes exactly.
    for (m, n) in [(2usize, 4usize), (3, 2), (4, 2)] {
        let world = m * n;
        let reference = Cluster::with_geometry(1, world, 16 * 1024, 4);
        let cluster = Cluster::with_geometry(m, n, 16 * 1024, 4);
        for count in [1usize, 2047, 2048, 2049, stress_iters(131_072)] {
            let want = run_allreduce(&reference, count, false);
            let flat = run_allreduce(&cluster, count, false);
            let na = run_allreduce(&cluster, count, true);
            let expect = &want[0][0];
            for out in [&flat, &na] {
                for ranks in out.iter() {
                    for got in ranks {
                        assert_eq!(
                            got, expect,
                            "({m},{n}) count={count}: multi-node output differs from reference"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn node_aware_sends_fewer_inter_node_chunks_than_flat() {
    // The acceptance probe at 2, 3 and 4 quad-core nodes: same results,
    // strictly fewer chunks on the fabric. The flat multi-color ring
    // rounds each of the n color spans up to the chunk grid separately,
    // so its waste scales with ranks-per-node; node-aware chunks the
    // global buffer once (at n = 2 the two schedules tie — the win is a
    // quad-mode property, matching the paper's SMP geometry).
    for (m, n) in [(2usize, 4usize), (3, 4), (4, 4)] {
        let cluster = Cluster::with_geometry(m, n, 16 * 1024, 2);
        let count = 8192; // 64 KiB payload => kt = 4 chunks
        let base = chunks_sent(&cluster);
        let flat_out = run_allreduce(&cluster, count, false);
        let flat = chunks_sent(&cluster) - base;
        let na_out = run_allreduce(&cluster, count, true);
        let na = chunks_sent(&cluster) - base - flat;
        assert_eq!(flat_out, na_out, "({m},{n}): results must match");
        assert!(
            na < flat,
            "({m},{n}): node-aware sent {na} chunks, flat sent {flat}"
        );
        // Two ring stages (RS + AG); per stage each of the m nodes sends
        // one kt/m-chunk segment in each of its m-1 steps (exact when the
        // chunk grid divides evenly across nodes).
        let kt = 4usize;
        if kt.is_multiple_of(m) {
            assert_eq!(na, 2 * m * (m - 1) * (kt / m), "({m},{n})");
        }
    }
}

#[test]
fn reduce_scatter_then_allgather_equals_allreduce() {
    // The defining identity of the decomposition, on the real runtime:
    // allgather over the scatter spans reassembles the allreduce result.
    let (m, n) = (2usize, 4usize);
    let world = m * n;
    let cluster = Cluster::with_geometry(m, n, 4096, 4);
    for count in [world, 8 * world, stress_iters(8192) / world * world] {
        let composed = cluster.run(move |cctx: &mut ClusterCtx| {
            let g = cctx.global_rank();
            let input = cctx.intra().alloc_buffer(count * 8);
            let (lo, hi) = cctx.scatter_span(count);
            let slice = cctx.intra().alloc_buffer(((hi - lo) * 8).max(1));
            let gathered = cctx.intra().alloc_buffer(count * 8);
            write_f64s(&input, 0, &vals_for(g, count));
            cctx.intra().barrier();
            cctx.reduce_scatter_f64(&input, &slice, count);
            // count is divisible by world, so every span has equal bytes
            // and the allgather reassembles them in global-rank order.
            cctx.allgather(&slice, &gathered, (hi - lo) * 8);
            read_f64s(&gathered, 0, count)
        });
        let direct = run_allreduce(&cluster, count, true);
        let expect = &direct[0][0];
        for ranks in &composed {
            for got in ranks {
                assert_eq!(got, expect, "count={count}: RS∘AG != allreduce");
            }
        }
    }
}

#[test]
fn alltoall_is_the_block_transpose() {
    for (m, n) in [(2usize, 2usize), (3, 2)] {
        let world = m * n;
        let cluster = Cluster::with_geometry(m, n, 256, 2);
        for len in [1usize, 33, 300] {
            let out = cluster.run(move |cctx: &mut ClusterCtx| {
                let g = cctx.global_rank();
                let input = cctx.intra().alloc_buffer(world * len);
                let output = cctx.intra().alloc_buffer(world * len);
                // Block h of rank g's input is addressed to rank h.
                let bytes: Vec<u8> = (0..world * len)
                    .map(|j| ((g * 131 + j) % 251) as u8)
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
                for (rank, got) in ranks.iter().enumerate() {
                    let g = node * n + rank;
                    for h in 0..world {
                        let want: Vec<u8> = (0..len)
                            .map(|j| ((h * 131 + (g * len + j)) % 251) as u8)
                            .collect();
                        assert_eq!(
                            &got[h * len..(h + 1) * len],
                            &want[..],
                            "({m},{n}) len={len}: rank {g} block from {h}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn degenerate_counts_terminate_and_stay_byte_identical() {
    // Satellite: count ∈ {0, 1, world-1} across every collective — most
    // scatter spans are empty, some nodes contribute no chunks, and every
    // schedule must still terminate with reference-identical bytes.
    for (m, n) in [(1usize, 1usize), (1, 4), (2, 1), (2, 4), (3, 2)] {
        let world = m * n;
        let cluster = Cluster::with_geometry(m, n, 64, 2);
        for count in [0usize, 1, world.saturating_sub(1)] {
            let flat = run_allreduce(&cluster, count, false);
            let na = run_allreduce(&cluster, count, true);
            assert_eq!(flat, na, "({m},{n}) count={count}");
            let wf = world as f64;
            for (i, &v) in flat[0][0].iter().enumerate() {
                let want: f64 = (0..world).map(|g| ((i * 7 + g * 3) % 1000) as f64).sum();
                assert_eq!(v, want, "({m},{n}) count={count} elem {i} (world={wf})");
            }
            // Reduce-scatter: empty spans complete; occupied spans match.
            let rs = cluster.run(move |cctx: &mut ClusterCtx| {
                let g = cctx.global_rank();
                let input = cctx.intra().alloc_buffer((count * 8).max(1));
                let (lo, hi) = cctx.scatter_span(count);
                let output = cctx.intra().alloc_buffer(((hi - lo) * 8).max(1));
                write_f64s(&input, 0, &vals_for(g, count));
                cctx.intra().barrier();
                cctx.reduce_scatter_f64(&input, &output, count);
                (lo, read_f64s(&output, 0, hi - lo))
            });
            for ranks in &rs {
                for (lo, got) in ranks {
                    for (j, &v) in got.iter().enumerate() {
                        assert_eq!(
                            v,
                            flat[0][0][lo + j],
                            "({m},{n}) count={count} scatter elem {}",
                            lo + j
                        );
                    }
                }
            }
        }
        // Allgather and alltoall degenerate block lengths.
        for len in [0usize, 1] {
            let ag = cluster.run(move |cctx: &mut ClusterCtx| {
                let g = cctx.global_rank();
                let input = cctx.intra().alloc_buffer(len.max(1));
                let output = cctx.intra().alloc_buffer((world * len).max(1));
                // SAFETY: our buffer, before the collective.
                unsafe { input.write(0, &vec![g as u8 + 1; len]) };
                cctx.intra().barrier();
                cctx.allgather(&input, &output, len);
                // SAFETY: the collective completed.
                let mut all = unsafe { output.snapshot() };
                all.truncate(world * len);
                all
            });
            let want: Vec<u8> = (0..world).flat_map(|g| vec![g as u8 + 1; len]).collect();
            for ranks in &ag {
                for got in ranks {
                    assert_eq!(got, &want, "({m},{n}) allgather len={len}");
                }
            }
            let a2a = cluster.run(move |cctx: &mut ClusterCtx| {
                let g = cctx.global_rank();
                let input = cctx.intra().alloc_buffer((world * len).max(1));
                let output = cctx.intra().alloc_buffer((world * len).max(1));
                // SAFETY: our buffer, before the collective.
                unsafe { input.write(0, &vec![g as u8 + 1; world * len]) };
                cctx.intra().barrier();
                cctx.alltoall(&input, &output, len);
                // SAFETY: the collective completed.
                let mut all = unsafe { output.snapshot() };
                all.truncate(world * len);
                all
            });
            let want: Vec<u8> = (0..world).flat_map(|h| vec![h as u8 + 1; len]).collect();
            for ranks in &a2a {
                for got in ranks {
                    assert_eq!(got, &want, "({m},{n}) alltoall len={len}");
                }
            }
        }
    }
}

#[test]
fn simulator_selection_orders_the_same_family() {
    // The fourth runtime of the matrix: the simulator's tuned table must
    // pick the shared-address ring for small allreduces and the node-aware
    // RS+AG once the per-stage syncs amortize — the same ordering the
    // thread cluster's chunk probe demonstrates structurally.
    use bgp_collectives::machine::{MachineConfig, OpMode};
    use bgp_collectives::mpi::{AllreduceAlgorithm, Mpi};

    let mut mpi = Mpi::new(MachineConfig::test_small(OpMode::Quad));
    let (small, _) = mpi.allreduce_auto(128); // 1 KiB
    let (large, _) = mpi.allreduce_auto(512 * 1024); // 4 MiB
    assert_eq!(small, AllreduceAlgorithm::ShaddrSpecialized);
    assert_eq!(large, AllreduceAlgorithm::NodeAwareRsAg);
    // And the models agree with the pick: node-aware is measurably faster
    // at the large point on the same machine.
    let na = mpi.allreduce(AllreduceAlgorithm::NodeAwareRsAg, 512 * 1024);
    let sh = mpi.allreduce(AllreduceAlgorithm::ShaddrSpecialized, 512 * 1024);
    let flat = mpi.allreduce(AllreduceAlgorithm::RingCurrent, 512 * 1024);
    assert!(na < sh, "na={na} sh={sh}");
    assert!(na < flat, "na={na} flat={flat}");
}
