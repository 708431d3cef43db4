//! cluster_real — sustained back-to-back traffic through the persistent
//! real-thread cluster runtime, against a spawn-per-iteration baseline.
//!
//! Three questions, measured on the host:
//!
//! 1. **Is persistence worth it?** The same cluster broadcast, once on a
//!    long-lived [`Cluster`] (rank threads parked between operations) and
//!    once paying `Cluster::new` + drop every iteration. `--check` asserts
//!    the persistent runtime wins.
//! 2. **What do the integrated protocols cost end-to-end?** The §V-A/V-B
//!    broadcast and the §V-C multi-color ring allreduce at their paper-ish
//!    sizes.
//! 3. **Does sustained traffic hold up?** A mixed train of rotating-root
//!    broadcasts and allreduces back to back on one persistent cluster.
//!
//! All numbers are host wall time (never gated). Usage:
//!
//! ```text
//! cluster_real [--small] [--check]
//!   --small   2 nodes × 2 ranks (the CI smoke shape); default 2 × 4
//!   --check   verify payloads every iteration and assert the persistent
//!             runtime beats the spawn-per-call baseline
//! ```

use std::hint::black_box;

use bgp_bench::harness::bench_case_median;
use bgp_smp::collectives::{read_f64s, write_f64s};
use bgp_smp::Cluster;

const CMP_LEN: usize = 64 * 1024; // persistent-vs-spawn payload
const BCAST_LEN: usize = 256 * 1024;
const ALLREDUCE_COUNT: usize = 16 * 1024; // doubles

fn bcast_once(cluster: &Cluster, len: usize, check: bool) {
    let ok = cluster.run(move |cctx| {
        let buf = cctx.intra().alloc_buffer(len);
        if cctx.node() == 0 && cctx.rank() == 0 {
            unsafe { buf.write(0, &vec![0xA5u8; len]) };
        }
        cctx.intra().barrier();
        cctx.bcast(0, &buf, len);
        let snap = unsafe { buf.snapshot() };
        snap.iter().all(|&b| b == 0xA5)
    });
    if check {
        assert!(
            ok.iter().flatten().all(|&rank_ok| rank_ok),
            "bcast payload mismatch"
        );
    }
    black_box(ok);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let small = args.iter().any(|a| a == "--small");
    let check = args.iter().any(|a| a == "--check");
    if let Some(bad) = args.iter().find(|a| *a != "--small" && *a != "--check") {
        eprintln!("unknown flag {bad}; usage: cluster_real [--small] [--check]");
        std::process::exit(2);
    }
    let (m, n) = if small {
        (2usize, 2usize)
    } else {
        (2usize, 4usize)
    };
    println!("cluster_real: {m} nodes x {n} ranks, persistent rank threads vs spawn-per-call");

    let cluster = Cluster::new(m, n);

    // 1. Persistence: identical per-iteration work, with and without the
    // per-call thread spawn + NodeShared/Fabric construction.
    let persistent_us = bench_case_median("cluster/bcast_persistent_64K", 10, || {
        bcast_once(&cluster, CMP_LEN, check)
    });
    let spawn_us = bench_case_median("cluster/bcast_spawn_per_call_64K", 10, || {
        let fresh = Cluster::new(m, n);
        bcast_once(&fresh, CMP_LEN, check)
    });

    // 2. The integrated protocols at their headline-ish sizes.
    bench_case_median("cluster/bcast_256K", 10, || {
        bcast_once(&cluster, BCAST_LEN, check)
    });
    let world = (m * n) as f64;
    let expect_sum = ALLREDUCE_COUNT as f64 * world * (world + 1.0) / 2.0;
    bench_case_median("cluster/allreduce_f64_16K", 10, || {
        let got = cluster.run(move |cctx| {
            let input = cctx.intra().alloc_buffer(ALLREDUCE_COUNT * 8);
            let output = cctx.intra().alloc_buffer(ALLREDUCE_COUNT * 8);
            write_f64s(
                &input,
                0,
                &vec![cctx.global_rank() as f64 + 1.0; ALLREDUCE_COUNT],
            );
            cctx.intra().barrier();
            cctx.allreduce_f64(&input, &output, ALLREDUCE_COUNT);
            read_f64s(&output, 0, ALLREDUCE_COUNT).iter().sum::<f64>()
        });
        if check {
            assert!(
                got.iter().flatten().all(|&s| s == expect_sum),
                "allreduce sum mismatch"
            );
        }
        black_box(got);
    });

    // 2b. The node-aware allreduce (intra-node reduce + ring reduce-scatter
    // + ring allgather) at the same size: identical sums, and the fabric
    // chunk probe. On quad-core nodes (n = 4) it moves strictly fewer
    // inter-node chunks than the flat multi-color ring (which rounds each
    // of the n color spans up to the chunk grid separately); at n = 2 the
    // two schedules tie, so the --small smoke asserts <=.
    let na_once = || {
        let got = cluster.run(move |cctx| {
            let input = cctx.intra().alloc_buffer(ALLREDUCE_COUNT * 8);
            let output = cctx.intra().alloc_buffer(ALLREDUCE_COUNT * 8);
            write_f64s(
                &input,
                0,
                &vec![cctx.global_rank() as f64 + 1.0; ALLREDUCE_COUNT],
            );
            cctx.intra().barrier();
            cctx.allreduce_f64_node_aware(&input, &output, ALLREDUCE_COUNT);
            read_f64s(&output, 0, ALLREDUCE_COUNT).iter().sum::<f64>()
        });
        if check {
            assert!(
                got.iter().flatten().all(|&s| s == expect_sum),
                "node-aware allreduce sum mismatch"
            );
        }
        black_box(got);
    };
    bench_case_median("cluster/allreduce_node_aware_16K", 10, na_once);
    let chunks = |cluster: &Cluster| -> usize {
        cluster.run(|cctx| cctx.fabric().total_chunks_sent())[0][0]
    };
    let before = chunks(&cluster);
    let got = cluster.run(move |cctx| {
        let input = cctx.intra().alloc_buffer(ALLREDUCE_COUNT * 8);
        let output = cctx.intra().alloc_buffer(ALLREDUCE_COUNT * 8);
        write_f64s(&input, 0, &vec![1.0; ALLREDUCE_COUNT]);
        cctx.intra().barrier();
        cctx.allreduce_f64(&input, &output, ALLREDUCE_COUNT);
    });
    black_box(got);
    let flat_chunks = chunks(&cluster) - before;
    let before = chunks(&cluster);
    na_once();
    let na_chunks = chunks(&cluster) - before;
    println!(
        "probe: inter-node chunks per 16K-double allreduce: flat={flat_chunks} node_aware={na_chunks}"
    );
    if check {
        if n >= 4 {
            assert!(
                na_chunks < flat_chunks,
                "node-aware must send fewer chunks than the flat ring on quad nodes \
                 (na={na_chunks}, flat={flat_chunks})"
            );
        } else {
            assert!(
                na_chunks <= flat_chunks,
                "node-aware must never send more chunks than the flat ring \
                 (na={na_chunks}, flat={flat_chunks})"
            );
        }
    }

    // 3. Sustained mixed traffic: rotating-root broadcasts interleaved with
    // allreduces, all on the one persistent cluster, buffers reused.
    bench_case_median("cluster/sustained_bcast+allreduce_x8", 5, || {
        let trains = cluster.run(move |cctx| {
            let buf = cctx.intra().alloc_buffer(BCAST_LEN);
            let input = cctx.intra().alloc_buffer(ALLREDUCE_COUNT * 8);
            let output = cctx.intra().alloc_buffer(ALLREDUCE_COUNT * 8);
            write_f64s(&input, 0, &vec![1.0; ALLREDUCE_COUNT]);
            unsafe { buf.write(0, &vec![cctx.global_rank() as u8; BCAST_LEN]) };
            cctx.intra().barrier();
            for i in 0..8usize {
                let m = cctx.n_nodes();
                cctx.bcast(i % m, &buf, BCAST_LEN);
                cctx.allreduce_f64(&input, &output, ALLREDUCE_COUNT);
            }
        });
        black_box(trains);
    });

    let stats = cluster.stats();
    println!(
        "probe: bcast_recv_ops={} copyout_overlapped={}",
        stats.bcast_recv_ops, stats.copyout_overlapped
    );

    if check {
        assert!(
            persistent_us < spawn_us,
            "persistent runtime ({persistent_us:.2} us) should beat \
             spawn-per-call ({spawn_us:.2} us)"
        );
        println!(
            "check: persistent beats spawn-per-call by {:.1}%",
            (spawn_us - persistent_us) / spawn_us * 100.0
        );
    }
}
