//! Correctness of the nonblocking engine: delivery, reduction values,
//! concurrency across ops and subgroups, the overlap guard, and the
//! pre-effect validation contract.

use std::sync::Arc;

use bgp_sched::{Sched, SchedError};
use bgp_shmem::SharedRegion;
use bgp_smp::collectives::{read_f64s, write_f64s};
use bgp_smp::Cluster;

fn read_bytes(r: &Arc<SharedRegion>, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    // SAFETY: tests only read after the owning request completed.
    unsafe { r.read(0, &mut v) };
    v
}

fn pattern(seed: u8, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
        .collect()
}

/// Ring and tree shapes beyond two nodes, with a 256-byte (32-double)
/// link chunk and a two-chunk window: the engine's middle ring positions
/// (combine-and-forward, and the position-`m-2` non-forwarder) and its
/// interior tree relays only run at `m >= 3`.
const WIDE_SHAPES: [(usize, usize); 4] = [(3, 1), (4, 1), (3, 2), (4, 2)];

#[test]
fn ibcast_delivers_multi_chunk_payload() {
    let cluster = Cluster::new(2, 4);
    let len = 40_000; // 3 chunks at the default 16 KiB
    let results = cluster.run(move |cctx| {
        let buf = Arc::new(SharedRegion::new(len));
        if cctx.node() == 1 && cctx.rank() == 2 {
            // SAFETY: freshly allocated, not yet shared.
            unsafe { buf.write(0, &pattern(7, len)) };
        }
        let mut sched = Sched::new(cctx);
        let req = sched.ibcast(&[0, 1, 2, 3], 1, 2, Some(&buf), len).unwrap();
        sched.wait(req);
        read_bytes(&buf, len)
    });
    let expect = pattern(7, len);
    for node in &results {
        for got in node {
            assert_eq!(*got, expect);
        }
    }

    for (m, n) in WIDE_SHAPES {
        let cluster = Cluster::with_geometry(m, n, 256, 2);
        let group: Vec<usize> = (0..n).collect();
        for root_node in 0..m {
            let root_rank = n - 1;
            for len in [1usize, 255, 257, 1001] {
                let seed = (root_node * 31 + len) as u8;
                let group = group.clone();
                let results = cluster.run(move |cctx| {
                    let buf = Arc::new(SharedRegion::new(len));
                    if cctx.node() == root_node && cctx.rank() == root_rank {
                        // SAFETY: freshly allocated, not yet shared.
                        unsafe { buf.write(0, &pattern(seed, len)) };
                    }
                    let mut sched = Sched::new(cctx);
                    let req = sched
                        .ibcast(&group, root_node, root_rank, Some(&buf), len)
                        .unwrap();
                    sched.wait(req);
                    read_bytes(&buf, len)
                });
                for node in &results {
                    for got in node {
                        assert_eq!(
                            *got,
                            pattern(seed, len),
                            "({m},{n}) root {root_node} len {len}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn iallreduce_sums_across_cluster() {
    let cluster = Cluster::new(2, 4);
    let count = 5000; // 3 chunks at 2048 elements per chunk
    let results = cluster.run(move |cctx| {
        let vals: Vec<f64> = (0..count)
            .map(|i| cctx.global_rank() as f64 + i as f64)
            .collect();
        let input = Arc::new(SharedRegion::new(count * 8));
        write_f64s(&input, 0, &vals);
        let output = Arc::new(SharedRegion::new(count * 8));
        let mut sched = Sched::new(cctx);
        let req = sched
            .iallreduce(&[0, 1, 2, 3], Some(&input), Some(&output), count)
            .unwrap();
        sched.wait(req);
        read_f64s(&output, 0, count)
    });
    let rank_sum: f64 = (0..8).map(|r| r as f64).sum();
    for node in &results {
        for got in node {
            for (i, v) in got.iter().enumerate() {
                assert_eq!(*v, rank_sum + 8.0 * i as f64, "element {i}");
            }
        }
    }

    // Counts straddle the 32-double chunk; consecutive ops alternate ring
    // direction, so both directions' positions run.
    for (m, n) in WIDE_SHAPES {
        let cluster = Cluster::with_geometry(m, n, 256, 2);
        let world = m * n;
        let group: Vec<usize> = (0..n).collect();
        for count in [1usize, 31, 32, 33, 97, 200] {
            let group = group.clone();
            let results = cluster.run(move |cctx| {
                let vals: Vec<f64> = (0..count)
                    .map(|i| (cctx.global_rank() + i) as f64)
                    .collect();
                let input = Arc::new(SharedRegion::new(count * 8));
                write_f64s(&input, 0, &vals);
                let output = Arc::new(SharedRegion::new(count * 8));
                let mut sched = Sched::new(cctx);
                let req = sched
                    .iallreduce(&group, Some(&input), Some(&output), count)
                    .unwrap();
                sched.wait(req);
                read_f64s(&output, 0, count)
            });
            let rank_sum = (world * (world - 1) / 2) as f64;
            for node in &results {
                for got in node {
                    for (i, v) in got.iter().enumerate() {
                        let want = rank_sum + (world * i) as f64;
                        assert_eq!(*v, want, "({m},{n}) count {count} element {i}");
                    }
                }
            }
        }
    }
}

#[test]
fn concurrent_subgroup_ops_do_not_interfere() {
    // Two disjoint subgroups run a broadcast each, concurrently, while the
    // full group runs an allreduce — three ops in flight over shared links.
    let cluster = Cluster::new(2, 4);
    let len = 20_000;
    let count = 3000;
    let results = cluster.run(move |cctx| {
        let rank = cctx.rank();
        let even = [0usize, 2];
        let odd = [1usize, 3];
        let mut sched = Sched::new(cctx);

        let b_even = even.binary_search(&rank).is_ok().then(|| {
            let b = Arc::new(SharedRegion::new(len));
            if cctx.node() == 0 && rank == 0 {
                // SAFETY: fresh region.
                unsafe { b.write(0, &pattern(11, len)) };
            }
            b
        });
        let b_odd = odd.binary_search(&rank).is_ok().then(|| {
            let b = Arc::new(SharedRegion::new(len));
            if cctx.node() == 1 && rank == 3 {
                // SAFETY: fresh region.
                unsafe { b.write(0, &pattern(23, len)) };
            }
            b
        });
        let input = Arc::new(SharedRegion::new(count * 8));
        let vals: Vec<f64> = (0..count)
            .map(|i| (i + cctx.global_rank()) as f64)
            .collect();
        write_f64s(&input, 0, &vals);
        let output = Arc::new(SharedRegion::new(count * 8));

        let r1 = sched.ibcast(&even, 0, 0, b_even.as_ref(), len).unwrap();
        let r2 = sched.ibcast(&odd, 1, 3, b_odd.as_ref(), len).unwrap();
        let r3 = sched
            .iallreduce(&[0, 1, 2, 3], Some(&input), Some(&output), count)
            .unwrap();
        sched.wait_all(&[r1, r2, r3]);

        let bytes = b_even
            .or(b_odd)
            .map(|b| read_bytes(&b, len))
            .expect("every rank is in one subgroup");
        (bytes, read_f64s(&output, 0, count))
    });
    let sum0: f64 = (0..8).map(|r| r as f64).sum();
    for node in &results {
        for (rank, (bytes, sums)) in node.iter().enumerate() {
            let expect = if rank % 2 == 0 {
                pattern(11, len)
            } else {
                pattern(23, len)
            };
            assert_eq!(*bytes, expect, "rank {rank}");
            for (i, v) in sums.iter().enumerate() {
                assert_eq!(*v, sum0 + 8.0 * i as f64);
            }
        }
    }
}

#[test]
fn busy_buffer_is_rejected_and_freed_on_completion() {
    let cluster = Cluster::new(1, 2);
    let oks = cluster.run(|cctx| {
        let buf = Arc::new(SharedRegion::new(1024));
        if cctx.rank() == 0 {
            // SAFETY: fresh region.
            unsafe { buf.write(0, &pattern(3, 1024)) };
        }
        let mut sched = Sched::new(cctx);
        let req = sched.ibcast(&[0, 1], 0, 0, Some(&buf), 1024).unwrap();
        // Same buffer, still in flight: typed error naming the owner, and
        // (pre-effect validation) no op id consumed — streams stay aligned.
        let err = sched.ibcast(&[0, 1], 0, 0, Some(&buf), 1024).unwrap_err();
        let busy_ok = err == SchedError::BufferBusy { op: req.op_id() };
        sched.wait(req);
        // Completion releases the buffer.
        let req2 = sched.ibcast(&[0, 1], 0, 0, Some(&buf), 1024).unwrap();
        sched.wait(req2);
        busy_ok
    });
    assert!(oks.iter().flatten().all(|&ok| ok));
}

#[test]
fn zero_length_ops_complete_at_post() {
    let cluster = Cluster::new(2, 2);
    let oks = cluster.run(|cctx| {
        let mut sched = Sched::new(cctx);
        let buf = Arc::new(SharedRegion::new(8));
        let r1 = sched.ibcast(&[0, 1], 0, 0, Some(&buf), 0).unwrap();
        let input = Arc::new(SharedRegion::new(8));
        let output = Arc::new(SharedRegion::new(8));
        let r2 = sched
            .iallreduce(&[0, 1], Some(&input), Some(&output), 0)
            .unwrap();
        // Complete without a single poll.
        sched.is_complete(r1) && sched.is_complete(r2)
    });
    assert!(oks.iter().flatten().all(|&ok| ok));
}

#[test]
fn posts_validate_before_any_effect() {
    let cluster = Cluster::new(1, 2);
    let oks = cluster.run(|cctx| {
        let mut sched = Sched::new(cctx);
        let buf = Arc::new(SharedRegion::new(64));
        let small = Arc::new(SharedRegion::new(8));
        let member = |r: Result<_, SchedError>| r.unwrap_err();

        let mut ok = true;
        ok &= matches!(
            member(sched.ibcast(&[], 0, 0, None, 16)),
            SchedError::BadGroup(_)
        );
        ok &= matches!(
            member(sched.ibcast(&[1, 0], 0, 0, Some(&buf), 16)),
            SchedError::BadGroup(_)
        );
        ok &= matches!(
            member(sched.ibcast(&[0, 5], 0, 0, Some(&buf), 16)),
            SchedError::BadGroup(_)
        );
        ok &= matches!(
            member(sched.ibcast(&[0, 1], 3, 0, Some(&buf), 16)),
            SchedError::BadGroup(_)
        );
        ok &= matches!(
            member(sched.ibcast(&[0, 1], 0, 7, Some(&buf), 16)),
            SchedError::BadGroup(_)
        );
        // Member without a buffer / non-member with one. Both ranks fail
        // (differently), so neither consumes an op id: still symmetric.
        ok &= member(sched.ibcast(&[0, 1], 0, 0, None, 16)) == SchedError::BufferMissing;
        ok &= if cctx.rank() == 0 {
            member(sched.ibcast(&[0], 0, 0, None, 16)) == SchedError::BufferMissing
        } else {
            member(sched.ibcast(&[0], 0, 0, Some(&buf), 16)) == SchedError::UnexpectedBuffer
        };
        ok &= member(sched.ibcast(&[0, 1], 0, 0, Some(&small), 64))
            == SchedError::BufferTooShort { needed: 64, got: 8 };
        ok &= member(sched.iallreduce(&[0, 1], Some(&buf), Some(&buf), 8))
            == SchedError::BufferAliased;
        ok &= member(sched.iallreduce(&[0, 1], Some(&small), None, 1)) == SchedError::BufferMissing;

        // After all those rejections, a correct post still works and the
        // op-id streams are still aligned across ranks.
        let input = Arc::new(SharedRegion::new(64));
        write_f64s(&input, 0, &[1.0; 8]);
        let output = Arc::new(SharedRegion::new(64));
        let req = sched
            .iallreduce(&[0, 1], Some(&input), Some(&output), 8)
            .unwrap();
        sched.wait(req);
        ok && read_f64s(&output, 0, 8) == vec![2.0; 8]
    });
    assert!(oks.iter().flatten().all(|&ok| ok));
}

#[test]
fn many_ops_in_flight_deep_pipeline() {
    // Eight broadcasts posted back-to-back before any wait; all complete
    // and deliver their own payloads.
    let cluster = Cluster::new(2, 4);
    let len = 6000;
    let results = cluster.run(move |cctx| {
        let mut sched = Sched::new(cctx);
        let mut bufs = Vec::new();
        let mut reqs = Vec::new();
        for i in 0..8u8 {
            let root_node = (i as usize) % 2;
            let root_rank = (i as usize) % 4;
            let buf = Arc::new(SharedRegion::new(len));
            if cctx.node() == root_node && cctx.rank() == root_rank {
                // SAFETY: fresh region.
                unsafe { buf.write(0, &pattern(i, len)) };
            }
            let req = sched
                .ibcast(&[0, 1, 2, 3], root_node, root_rank, Some(&buf), len)
                .unwrap();
            bufs.push(buf);
            reqs.push(req);
        }
        sched.wait_all(&reqs);
        bufs.iter().map(|b| read_bytes(b, len)).collect::<Vec<_>>()
    });
    for node in &results {
        for per_rank in node {
            for (i, got) in per_rank.iter().enumerate() {
                assert_eq!(*got, pattern(i as u8, len), "op {i}");
            }
        }
    }
}

#[test]
fn ireduce_scatter_scatters_global_member_spans() {
    let cluster = Cluster::new(2, 4);
    let count = 5000;
    let results = cluster.run(move |cctx| {
        let world = 8usize;
        let gi = cctx.global_rank();
        let vals: Vec<f64> = (0..count).map(|i| gi as f64 + i as f64).collect();
        let input = Arc::new(SharedRegion::new(count * 8));
        write_f64s(&input, 0, &vals);
        let lo = gi * count / world;
        let hi = (gi + 1) * count / world;
        let output = Arc::new(SharedRegion::new(((hi - lo) * 8).max(1)));
        let mut sched = Sched::new(cctx);
        let req = sched
            .ireduce_scatter(&[0, 1, 2, 3], Some(&input), Some(&output), count)
            .unwrap();
        sched.wait(req);
        (lo, read_f64s(&output, 0, hi - lo))
    });
    let rank_sum: f64 = (0..8).map(|r| r as f64).sum();
    for node in &results {
        for (lo, got) in node {
            for (j, v) in got.iter().enumerate() {
                let i = lo + j;
                assert_eq!(*v, rank_sum + 8.0 * i as f64, "element {i}");
            }
        }
    }
}

#[test]
fn ireduce_scatter_handles_empty_spans() {
    // count < world: some members own zero elements and still complete.
    let cluster = Cluster::new(2, 4);
    let count = 5;
    let results = cluster.run(move |cctx| {
        let world = 8usize;
        let gi = cctx.global_rank();
        let input = Arc::new(SharedRegion::new(count * 8));
        write_f64s(&input, 0, &vec![gi as f64 + 1.0; count]);
        let lo = gi * count / world;
        let hi = (gi + 1) * count / world;
        let output = Arc::new(SharedRegion::new(((hi - lo) * 8).max(1)));
        let mut sched = Sched::new(cctx);
        let req = sched
            .ireduce_scatter(&[0, 1, 2, 3], Some(&input), Some(&output), count)
            .unwrap();
        sched.wait(req);
        read_f64s(&output, 0, hi - lo)
    });
    let sum: f64 = (1..=8).map(|r| r as f64).sum();
    let per_rank: Vec<usize> = (0..8).map(|gi| (gi + 1) * 5 / 8 - gi * 5 / 8).collect();
    assert_eq!(per_rank.iter().sum::<usize>(), 5);
    for (node, per_node) in results.iter().enumerate() {
        for (rank, got) in per_node.iter().enumerate() {
            let gi = node * 4 + rank;
            assert_eq!(got.len(), per_rank[gi], "span size of member {gi}");
            assert!(got.iter().all(|&v| v == sum), "member {gi}: {got:?}");
        }
    }
}

#[test]
fn iallgather_gathers_in_global_member_order() {
    let cluster = Cluster::new(2, 4);
    let len = 20_000; // multi-chunk node blocks at the default 16 KiB
    let results = cluster.run(move |cctx| {
        let input = Arc::new(SharedRegion::new(len));
        // SAFETY: fresh region.
        unsafe { input.write(0, &pattern(cctx.global_rank() as u8, len)) };
        let output = Arc::new(SharedRegion::new(8 * len));
        let mut sched = Sched::new(cctx);
        let req = sched
            .iallgather(&[0, 1, 2, 3], Some(&input), Some(&output), len)
            .unwrap();
        sched.wait(req);
        read_bytes(&output, 8 * len)
    });
    let mut expect = Vec::new();
    for gi in 0..8u8 {
        expect.extend_from_slice(&pattern(gi, len));
    }
    for node in &results {
        for got in node {
            assert_eq!(*got, expect);
        }
    }

    // At m >= 3 middle nodes forward blocks they received. Two allgathers
    // back to back have op ids of both parities, so both ring directions
    // run.
    for (m, n) in [(3usize, 1usize), (3, 2), (4, 2)] {
        let cluster = Cluster::with_geometry(m, n, 256, 2);
        let world = m * n;
        let group: Vec<usize> = (0..n).collect();
        for len in [1usize, 255, 257, 1001] {
            let group = group.clone();
            let results = cluster.run(move |cctx| {
                let gi = cctx.global_rank() as u8;
                let ins: Vec<_> = (0..2u8)
                    .map(|i| {
                        let input = Arc::new(SharedRegion::new(len));
                        // SAFETY: fresh region.
                        unsafe { input.write(0, &pattern(gi.wrapping_add(100 * i), len)) };
                        input
                    })
                    .collect();
                let outs: Vec<_> = (0..2)
                    .map(|_| Arc::new(SharedRegion::new(world * len)))
                    .collect();
                let mut sched = Sched::new(cctx);
                let reqs: Vec<_> = (0..2)
                    .map(|i| {
                        sched
                            .iallgather(&group, Some(&ins[i]), Some(&outs[i]), len)
                            .unwrap()
                    })
                    .collect();
                sched.wait_all(&reqs);
                outs.iter()
                    .map(|o| read_bytes(o, world * len))
                    .collect::<Vec<_>>()
            });
            for node in &results {
                for got in node {
                    for (i, out) in got.iter().enumerate() {
                        let mut expect = Vec::new();
                        for gi in 0..world as u8 {
                            expect.extend_from_slice(&pattern(gi.wrapping_add(100 * i as u8), len));
                        }
                        assert_eq!(*out, expect, "({m},{n}) len {len} op {i}");
                    }
                }
            }
        }
    }
}

#[test]
fn mixed_collectives_in_flight_concurrently() {
    // All four op types posted back-to-back before any wait.
    let cluster = Cluster::new(2, 4);
    let len = 6000;
    let count = 3000;
    let results = cluster.run(move |cctx| {
        let gi = cctx.global_rank();
        let world = 8usize;
        let mut sched = Sched::new(cctx);

        let bbuf = Arc::new(SharedRegion::new(len));
        if gi == 5 {
            // SAFETY: fresh region.
            unsafe { bbuf.write(0, &pattern(42, len)) };
        }
        let ain = Arc::new(SharedRegion::new(count * 8));
        write_f64s(&ain, 0, &vec![gi as f64; count]);
        let aout = Arc::new(SharedRegion::new(count * 8));
        let rin = Arc::new(SharedRegion::new(count * 8));
        write_f64s(&rin, 0, &vec![1.0 + gi as f64; count]);
        let lo = gi * count / world;
        let hi = (gi + 1) * count / world;
        let rout = Arc::new(SharedRegion::new(((hi - lo) * 8).max(1)));
        let gin = Arc::new(SharedRegion::new(len));
        // SAFETY: fresh region.
        unsafe { gin.write(0, &pattern(gi as u8, len)) };
        let gout = Arc::new(SharedRegion::new(8 * len));

        let grp = [0usize, 1, 2, 3];
        let r1 = sched.ibcast(&grp, 1, 1, Some(&bbuf), len).unwrap();
        let r2 = sched
            .iallreduce(&grp, Some(&ain), Some(&aout), count)
            .unwrap();
        let r3 = sched
            .ireduce_scatter(&grp, Some(&rin), Some(&rout), count)
            .unwrap();
        let r4 = sched
            .iallgather(&grp, Some(&gin), Some(&gout), len)
            .unwrap();
        sched.wait_all(&[r1, r2, r3, r4]);

        (
            read_bytes(&bbuf, len),
            read_f64s(&aout, 0, count),
            read_f64s(&rout, 0, hi - lo),
            read_bytes(&gout, 8 * len),
        )
    });
    let sum: f64 = (0..8).map(|r| r as f64).sum();
    let mut gexpect = Vec::new();
    for g in 0..8u8 {
        gexpect.extend_from_slice(&pattern(g, len));
    }
    for (node, per_node) in results.iter().enumerate() {
        for (rank, (b, a, r, g)) in per_node.iter().enumerate() {
            let gi = node * 4 + rank;
            assert_eq!(*b, pattern(42, len), "bcast at member {gi}");
            assert!(a.iter().all(|&v| v == sum), "allreduce at member {gi}");
            assert!(
                r.iter().all(|&v| v == sum + 8.0),
                "reduce_scatter at member {gi}"
            );
            assert_eq!(*g, gexpect, "allgather at member {gi}");
        }
    }
}

/// Regression: with fewer chunks than members (`kt < g`) the members with
/// an empty reduce partition never read co-member inputs, so they must not
/// wait to map them — a chunk owner may finish and unexpose its input
/// first (its await-parts gate sees the empty partials trivially done),
/// after which the map could never succeed and `wait` spun forever. The
/// single-chunk shape below idles three of four members per node; the loop
/// gives the scheduler chances to order the owner's unexpose first.
#[test]
fn single_chunk_ops_with_idle_partitions_terminate() {
    let cluster = Cluster::new(2, 4);
    for _ in 0..10 {
        let count = 64; // one chunk at 2048 elements per chunk, g = 4
        let results = cluster.run(move |cctx| {
            let world = 8usize;
            let gi = cctx.global_rank();
            let input = Arc::new(SharedRegion::new(count * 8));
            write_f64s(&input, 0, &vec![gi as f64 + 1.0; count]);
            let ar_out = Arc::new(SharedRegion::new(count * 8));
            let lo = gi * count / world;
            let hi = (gi + 1) * count / world;
            let rs_in = Arc::new(SharedRegion::new(count * 8));
            write_f64s(&rs_in, 0, &vec![gi as f64 + 1.0; count]);
            let rs_out = Arc::new(SharedRegion::new(((hi - lo) * 8).max(1)));
            let mut sched = Sched::new(cctx);
            let r1 = sched
                .iallreduce(&[0, 1, 2, 3], Some(&input), Some(&ar_out), count)
                .unwrap();
            let r2 = sched
                .ireduce_scatter(&[0, 1, 2, 3], Some(&rs_in), Some(&rs_out), count)
                .unwrap();
            sched.wait_all(&[r1, r2]);
            (read_f64s(&ar_out, 0, count), read_f64s(&rs_out, 0, hi - lo))
        });
        let sum: f64 = (1..=8).map(|r| r as f64).sum();
        for node in &results {
            for (ar, rs) in node {
                assert!(ar.iter().all(|&v| v == sum), "allreduce: {ar:?}");
                assert!(rs.iter().all(|&v| v == sum), "reduce-scatter: {rs:?}");
            }
        }
    }
}

#[test]
fn zero_length_rs_ag_complete_at_post() {
    let cluster = Cluster::new(2, 2);
    let oks = cluster.run(|cctx| {
        let mut sched = Sched::new(cctx);
        let a = Arc::new(SharedRegion::new(8));
        let b = Arc::new(SharedRegion::new(8));
        let r1 = sched
            .ireduce_scatter(&[0, 1], Some(&a), Some(&b), 0)
            .unwrap();
        let c = Arc::new(SharedRegion::new(8));
        let d = Arc::new(SharedRegion::new(8));
        let r2 = sched.iallgather(&[0, 1], Some(&c), Some(&d), 0).unwrap();
        sched.is_complete(r1) && sched.is_complete(r2)
    });
    assert!(oks.iter().flatten().all(|&ok| ok));
}

/// Regression: a broadcast rooted at rank 1 of node 0 could hang. The root
/// exposed its buffer before fetching the op's net-done counter; the
/// engine (rank 0) could then inject everything, see every *counted* copy
/// done — the root's own is not counted — and retire the counter first,
/// leaving the root spinning on a fresh zero one. One op per job, as the
/// service layer runs them, under a watchdog that fails instead of hanging.
#[test]
fn rank_one_root_bcasts_never_hang() {
    const OPS: usize = 40_000;
    let len = 100;
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let cluster = Cluster::new(2, 2);
        for i in 0..OPS {
            let seed = i as u8;
            let got = cluster.run(move |cctx| {
                let buf = Arc::new(SharedRegion::new(len));
                if cctx.node() == 0 && cctx.rank() == 1 {
                    // SAFETY: fresh region.
                    unsafe { buf.write(0, &pattern(seed, len)) };
                }
                let mut sched = Sched::new(cctx);
                let req = sched.ibcast(&[0, 1], 0, 1, Some(&buf), len).unwrap();
                sched.wait(req);
                read_bytes(&buf, len)
            });
            assert!(
                got.iter().flatten().all(|b| *b == pattern(seed, len)),
                "op {i}"
            );
        }
        let _ = tx.send(());
    });
    rx.recv_timeout(std::time::Duration::from_secs(120))
        .expect("a broadcast rooted at rank (0, 1) never completed");
}
