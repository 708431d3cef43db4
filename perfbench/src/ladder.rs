//! The layer ladder: the same four operations timed at each layer's public
//! entry point, from the lane kernels up to `bgp-svc`, plus the
//! cross-process backend, the simulator, and the server counters of each
//! service workload. Each timed call is a span keyed by a benchmark op id.
//!
//! Rows: `bcast_1K`, `bcast_64K`, `allreduce_1K` (128 doubles) and
//! `allreduce_128K` (16 Ki doubles), all rooted at node 0 rank 0 on a
//! 2 × 2 cluster. Layers are interleaved within a round so drift hits all
//! of them alike; traced and untraced rounds alternate, and the ratio of
//! their median round times is the tracing overhead.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use bgp_sched::{CollectiveServer, Sched, ServerConfig};
use bgp_sim::Rng;
use bgp_smp::cluster::{DEFAULT_CHUNK_BYTES, DEFAULT_WINDOW};
use bgp_smp::collectives::{read_f64s, write_f64s};
use bgp_smp::kernels;
use bgp_smp::proc::{allreduce_input, bcast_pattern, ProcCluster};
use bgp_smp::transport::ChunkChannel;
use bgp_smp::{Cluster, ClusterCtx};
use bgp_svc::{Comm, Service};

use crate::oracle::{allreduce_ok, bcast_ok, payload, Reduction};
use crate::report::Metrics;
use crate::stats::{median, tail_percentile};
use crate::svc::{self, SvcWorkload, ROOT_RANK};
use crate::trace::Tracer;
use crate::{sim, Tally, MEMBERS, NODES, RANKS};

const CHUNK: usize = DEFAULT_CHUNK_BYTES;
/// Calls per kernel/transport sample, and samples per measurement.
const INNER: usize = 200;
const SAMPLES: usize = 51;
/// Ladder rounds of each kind (traced, untraced) run at least this often.
const MIN_ROUNDS: usize = 40;
/// Samples per backend per row of the process-vs-thread comparison.
const PROC_SAMPLES: usize = 41;
/// Ops per client of each service workload's counted run.
const SVC_OPS: [(SvcWorkload, u64); 3] = [
    (SvcWorkload::Small, 4000),
    (SvcWorkload::Large, 1200),
    (SvcWorkload::Mixed, 4000),
];

macro_rules! row_names {
    ($layer:literal) => {
        [
            concat!($layer, ".bcast_1K"),
            concat!($layer, ".bcast_64K"),
            concat!($layer, ".allreduce_1K"),
            concat!($layer, ".allreduce_128K"),
        ]
    };
}

const ROWS: [&str; 4] = ["bcast_1K", "bcast_64K", "allreduce_1K", "allreduce_128K"];
const LAYERS: [&str; 4] = ["cluster", "sched", "server", "svc"];
const SPANS: [[&str; 4]; 4] = [
    row_names!("cluster"),
    row_names!("sched"),
    row_names!("server"),
    row_names!("svc"),
];

#[derive(Clone)]
enum Input {
    Bcast(Arc<Vec<u8>>),
    Allreduce(Arc<Reduction>),
}

fn row_inputs(rng: &mut Rng) -> [Input; 4] {
    [
        Input::Bcast(Arc::new(payload(rng, 1024))),
        Input::Bcast(Arc::new(payload(rng, 64 * 1024))),
        Input::Allreduce(Arc::new(Reduction::new(rng, MEMBERS, 128))),
        Input::Allreduce(Arc::new(Reduction::new(rng, MEMBERS, 16 * 1024))),
    ]
}

/// Median ns per call of `f` over [`SAMPLES`] samples of [`INNER`] calls,
/// one span per sample.
fn per_call_ns(tracer: &mut Tracer, name: &'static str, mut f: impl FnMut(usize)) -> f64 {
    let mut ns: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let ((), d) = tracer.time(name, || (0..INNER).for_each(&mut f));
            d as f64 / INNER as f64
        })
        .collect();
    median(&mut ns)
}

/// `kernels.*`: one 16 KiB chunk through the lane and scalar combine.
fn kernel_layer(tracer: &mut Tracer, m: &mut Metrics) -> f64 {
    let mut src = vec![0u8; CHUNK];
    for (i, b) in src.chunks_exact_mut(8).enumerate() {
        b.copy_from_slice(&((i % 97) as f64).to_ne_bytes());
    }
    let mut acc = vec![0f64; CHUNK / 8];
    let lane = per_call_ns(tracer, "kernels.add_bytes_f64", |_| {
        kernels::add_bytes_f64(black_box(&mut acc), black_box(&src));
    });
    let scalar = per_call_ns(tracer, "kernels.add_bytes_f64_scalar", |_| {
        kernels::add_bytes_f64_scalar(black_box(&mut acc), black_box(&src));
    });
    black_box(&acc);
    m.push("kernels.add_bytes_f64.chunk_ns", lane, "ns");
    m.push("kernels.add_bytes_f64.GBps", CHUNK as f64 / lane, "GB/s");
    m.push("kernels.lane_over_scalar", scalar / lane, "ratio");
    lane
}

/// `transport.*`: one 16 KiB chunk through a channel, loaned and staged.
fn transport_layer(tracer: &mut Tracer, m: &mut Metrics) -> f64 {
    let ch = ChunkChannel::new(4, CHUNK);
    let loan = per_call_ns(tracer, "transport.loan", |i| {
        let mut s = ch.reserve(CHUNK);
        s.with_bytes_mut(|b| b.fill(i as u8));
        s.publish(i as u64);
        let r = ch.peek();
        r.with_bytes(|b| black_box((b[0], b[b.len() - 1])));
    });
    let mut scratch = vec![0u8; CHUNK];
    let mut dest = vec![0u8; CHUNK];
    let staged = per_call_ns(tracer, "transport.staged", |i| {
        scratch.fill(i as u8);
        ch.send_with(i as u64, CHUNK, |b| b.copy_from_slice(&scratch));
        ch.recv_with(|_, b| dest.copy_from_slice(b));
        black_box((dest[0], dest[CHUNK - 1]));
    });
    m.push("transport.loan.chunk_ns", loan, "ns");
    m.push("transport.staged.chunk_ns", staged, "ns");
    loan
}

/// Flatten `[node][rank]` results into global member order.
fn members<T>(per_node: Vec<Vec<T>>) -> Vec<T> {
    per_node.into_iter().flatten().collect()
}

/// One row on the blocking cluster (`via_sched = false`) or through a
/// per-job `Sched` engine (`true`). Returns whether the output checked.
fn cluster_op(cluster: &Cluster, input: &Input, via_sched: bool) -> bool {
    match input {
        Input::Bcast(want) => {
            let p = want.clone();
            let out = cluster.run(move |c: &mut ClusterCtx| {
                let len = p.len();
                let buf = c.intra().alloc_buffer(len);
                if c.node() == 0 && c.rank() == 0 {
                    // SAFETY: a fresh region no other rank has mapped yet.
                    unsafe { buf.write(0, &p) };
                }
                if via_sched {
                    let group: Vec<usize> = (0..c.n_ranks()).collect();
                    let mut s = Sched::new(c);
                    let r = s.ibcast(&group, 0, 0, Some(&buf), len).expect("valid post");
                    s.wait(r);
                } else {
                    c.intra().barrier();
                    c.bcast(0, &buf, len);
                }
                // SAFETY: the broadcast completed on this rank.
                unsafe { buf.snapshot() }
            });
            bcast_ok(want, &members(out), MEMBERS)
        }
        Input::Allreduce(r) => {
            let r2 = r.clone();
            let out = cluster.run(move |c: &mut ClusterCtx| {
                let count = r2.sum.len();
                let input = c.intra().alloc_buffer(count * 8);
                let output = c.intra().alloc_buffer(count * 8);
                write_f64s(&input, 0, &r2.inputs[c.global_rank()]);
                if via_sched {
                    let group: Vec<usize> = (0..c.n_ranks()).collect();
                    let mut s = Sched::new(c);
                    let req = s
                        .iallreduce(&group, Some(&input), Some(&output), count)
                        .expect("valid post");
                    s.wait(req);
                } else {
                    c.intra().barrier();
                    c.allreduce_f64(&input, &output, count);
                }
                read_f64s(&output, 0, count)
            });
            allreduce_ok(&r.sum, &members(out), MEMBERS)
        }
    }
}

/// Chunks the fabric moves for one cluster-layer op of `input`: the
/// `Fabric::total_chunks_sent` delta, read between jobs.
fn chunks_for(cluster: &Cluster, input: &Input) -> u64 {
    let sent = || cluster.run(|c: &mut ClusterCtx| c.fabric().total_chunks_sent())[0][0] as u64;
    let before = sent();
    cluster_op(cluster, input, false);
    sent() - before
}

/// Eight 1 KiB broadcasts posted on one engine, their root node rotating,
/// then `wait_all`. Returns whether every buffer checked. Roots stay at
/// rank 0: see `svc::ROOT_RANK`.
fn sched_depth8(cluster: &Cluster, payloads: &Arc<Vec<Vec<u8>>>) -> bool {
    let ps = payloads.clone();
    let out = cluster.run(move |c: &mut ClusterCtx| {
        let group: Vec<usize> = (0..c.n_ranks()).collect();
        let bufs: Vec<_> = ps
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let buf = c.intra().alloc_buffer(p.len());
                if c.node() == i % c.n_nodes() && c.rank() == ROOT_RANK {
                    // SAFETY: a fresh region no other rank has mapped yet.
                    unsafe { buf.write(0, p) };
                }
                buf
            })
            .collect();
        let mut s = Sched::new(c);
        let reqs: Vec<_> = bufs
            .iter()
            .enumerate()
            .map(|(i, b)| {
                s.ibcast(&group, i % c.n_nodes(), ROOT_RANK, Some(b), b.len())
                    .expect("valid post")
            })
            .collect();
        s.wait_all(&reqs);
        // SAFETY: every request completed on this rank.
        bufs.iter()
            .zip(ps.iter())
            .all(|(b, p)| unsafe { b.snapshot() } == *p)
    });
    out.iter().flatten().all(|&ok| ok)
}

fn server_op<'a>(server: &'a CollectiveServer, input: &Input) -> impl FnOnce() -> bool + 'a {
    let group: Vec<usize> = (0..RANKS).collect();
    let owned = owned_input(input);
    let input = input.clone();
    move || match (owned, input) {
        (Owned::Bcast(p), Input::Bcast(want)) => {
            let got = server
                .submit_bcast(&group, 0, 0, p)
                .expect("valid submit")
                .wait();
            bcast_ok(&want, &got, MEMBERS)
        }
        (Owned::Allreduce(v), Input::Allreduce(r)) => {
            let got = server
                .submit_allreduce(&group, v)
                .expect("valid submit")
                .wait();
            allreduce_ok(&r.sum, &got, MEMBERS)
        }
        _ => false,
    }
}

fn svc_op<'a>(comm: &'a Comm, input: &Input) -> impl FnOnce() -> bool + 'a {
    let owned = owned_input(input);
    let input = input.clone();
    move || match (owned, input) {
        (Owned::Bcast(p), Input::Bcast(want)) => {
            let got = comm.bcast(0, 0, p).expect("valid submit").wait();
            bcast_ok(&want, &got, MEMBERS)
        }
        (Owned::Allreduce(v), Input::Allreduce(r)) => {
            let got = comm.allreduce(v).expect("valid submit").wait();
            allreduce_ok(&r.sum, &got, MEMBERS)
        }
        _ => false,
    }
}

/// The by-value inputs the server and service calls take, cloned before
/// the clock starts.
enum Owned {
    Bcast(Vec<u8>),
    Allreduce(Vec<Vec<f64>>),
}

fn owned_input(input: &Input) -> Owned {
    match input {
        Input::Bcast(p) => Owned::Bcast(p.to_vec()),
        Input::Allreduce(r) => Owned::Allreduce(r.inputs.clone()),
    }
}

/// Time `f` as span `name`, catching a panic as a failed op.
fn timed(
    tracer: &mut Tracer,
    tally: &mut Tally,
    name: &'static str,
    f: impl FnOnce() -> bool,
) -> u64 {
    let (ok, ns) = tracer.time(name, || catch_unwind(AssertUnwindSafe(f)));
    tally.record(matches!(ok, Ok(true)));
    ns
}

/// `proc.*`: the cross-process cluster (one worker process) against the
/// thread cluster with the same link geometry, one rank per node. The
/// worker polls its job record while idle, so this runs on its own and
/// the worker is shut down before anything else is timed.
fn proc_layer(seed: u64, tracer: &mut Tracer, tally: &mut Tally, m: &mut Metrics) {
    const BCAST: usize = 64 * 1024;
    const DOUBLES: usize = 16 * 1024;
    let threads = Cluster::with_geometry(NODES, 1, CHUNK, DEFAULT_WINDOW);
    let mut procs = match ProcCluster::new(NODES, CHUNK, DEFAULT_WINDOW, DOUBLES * 8) {
        Ok(p) => Some(p),
        Err(e) => {
            eprintln!("proc: cluster failed to start: {e}");
            tally.record(false);
            None
        }
    };
    let f64s = |bytes: &[u8]| -> Vec<f64> {
        bytes
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes(b.try_into().expect("8 bytes")))
            .collect()
    };
    // The seeded process-backend inputs are multiples of 1/4 below 150 in
    // magnitude, so their sum is exact in any order.
    let reduction = |s: u64| -> Vec<f64> {
        let inputs: Vec<Vec<f64>> = (0..NODES)
            .map(|v| f64s(&allreduce_input(s, v, DOUBLES)))
            .collect();
        crate::oracle::reference_sum(&inputs)
    };
    // µs samples, [row][process, thread]; the first two rounds warm up.
    let mut t = [[Vec::new(), Vec::new()], [Vec::new(), Vec::new()]];
    for i in 0..PROC_SAMPLES as u64 + 2 {
        let s = seed.wrapping_add(i);
        let want = Arc::new(bcast_pattern(s, BCAST));
        let w2 = want.clone();
        let bt = timed(tracer, tally, "proc.thread.bcast_64K", || {
            let out = threads.run(move |c: &mut ClusterCtx| {
                let buf = c.intra().alloc_buffer(BCAST);
                if c.node() == 0 {
                    // SAFETY: a fresh region no other rank has mapped yet.
                    unsafe { buf.write(0, &w2) };
                }
                c.intra().barrier();
                c.bcast(0, &buf, BCAST);
                // SAFETY: the broadcast completed on this rank.
                unsafe { buf.snapshot() }
            });
            bcast_ok(&want, &members(out), NODES)
        });
        let sum = reduction(s);
        let at = timed(tracer, tally, "proc.thread.allreduce_128K", || {
            let out = threads.run(move |c: &mut ClusterCtx| {
                let input = c.intra().alloc_buffer(DOUBLES * 8);
                let output = c.intra().alloc_buffer(DOUBLES * 8);
                let bytes = allreduce_input(s, c.node(), DOUBLES);
                // SAFETY: a fresh region no other rank has mapped yet.
                unsafe { input.write(0, &bytes) };
                c.intra().barrier();
                c.allreduce_f64(&input, &output, DOUBLES);
                read_f64s(&output, 0, DOUBLES)
            });
            allreduce_ok(&sum, &members(out), NODES)
        });
        let Some(p) = procs.as_mut() else { break };
        let pb = timed(tracer, tally, "proc.bcast_64K", || {
            p.bcast(0, s, BCAST)
                .is_ok_and(|got| bcast_ok(&want, &got, NODES))
        });
        let pa = timed(tracer, tally, "proc.allreduce_128K", || {
            p.allreduce(s, DOUBLES).is_ok_and(|got| {
                let got: Vec<Vec<f64>> = got.iter().map(|b| f64s(b)).collect();
                allreduce_ok(&sum, &got, NODES)
            })
        });
        if i >= 2 {
            t[0][0].push(pb as f64 / 1e3);
            t[0][1].push(bt as f64 / 1e3);
            t[1][0].push(pa as f64 / 1e3);
            t[1][1].push(at as f64 / 1e3);
        }
    }
    if let Some(p) = procs {
        tally.record(p.shutdown().is_ok());
    }
    for (k, row) in ["bcast_64K", "allreduce_128K"].iter().enumerate() {
        let [proc_us, thread_us] = t[k].each_mut().map(|v| median(v));
        m.push(&format!("proc.{row}.us"), proc_us, "us");
        m.push(
            &format!("ladder.proc_over_thread.{row}"),
            proc_us / thread_us,
            "ratio",
        );
    }
}

/// Per service workload: a fixed-count run's server and tenant counters.
fn server_counters(seed: u64, tracer: &mut Tracer, tally: &mut Tally, m: &mut Metrics) {
    for (w, ops) in SVC_OPS {
        let mut run = svc::run_ops(w, seed, ops, tracer);
        tally.add(run.tally);
        let s = run.server;
        let n = w.name();
        m.push(&format!("server.{n}.batches"), s.batches as f64, "count");
        m.push(
            &format!("server.{n}.ops_per_batch"),
            s.completed as f64 / s.batches.max(1) as f64,
            "ratio",
        );
        m.push(
            &format!("server.{n}.coalesced_frac"),
            s.coalesced as f64 / s.submitted.max(1) as f64,
            "ratio",
        );
        m.push(
            &format!("server.{n}.queue_wait_us"),
            s.wait_ns as f64 / s.submitted.max(1) as f64 / 1e3,
            "us",
        );
        m.push(
            &format!("server.{n}.peak_queue_depth"),
            s.peak_queue_depth as f64,
            "count",
        );
        m.push(&format!("server.{n}.rejected"), s.rejected as f64, "count");
        m.push(
            &format!("server.{n}.stash_evicted"),
            s.stash_evicted as f64,
            "count",
        );
        run.lat_ns.sort_unstable();
        let p99 = tail_percentile(&run.lat_ns, 99.0).map_or(0.0, |ns| ns as f64 / 1e3);
        m.push(&format!("svc.{n}.lat_p99_us"), p99, "us");
        if w == SvcWorkload::Mixed {
            m.push(
                "server.svc_mixed.jain",
                bgp_svc::metrics::jain_index(&run.tenant_rates),
                "ratio",
            );
        }
    }
}

/// `sim.*`: one seeded sweep at paper scale, mean host time per call.
fn sim_layer(seed: u64, tracer: &mut Tracer, tally: &mut Tally, m: &mut Metrics) {
    let run = sim::run(seed, 0.0, tracer);
    tally.add(run.tally);
    for (span, (ns, calls)) in &run.family_ns {
        let family = span.strip_prefix("sim.").unwrap_or(span);
        m.push(
            &format!("sim.host_ms.{family}"),
            *ns as f64 / *calls as f64 / 1e6,
            "ms",
        );
    }
}

/// The whole traced run: every per-layer metric. The ladder rounds fill
/// whatever of `seconds` the fixed-size parts leave (at least
/// [`MIN_ROUNDS`] of each kind).
pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer) -> (Metrics, Tally) {
    let started = Instant::now();
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    tracer.set_enabled(true);

    let chunk_ns = kernel_layer(tracer, &mut m);
    let loan_ns = transport_layer(tracer, &mut m);
    proc_layer(seed, tracer, &mut tally, &mut m);
    server_counters(seed, tracer, &mut tally, &mut m);
    sim_layer(seed, tracer, &mut tally, &mut m);

    let mut rng = Rng::new(seed);
    let inputs = row_inputs(&mut rng);
    let depth8: Arc<Vec<Vec<u8>>> = Arc::new((0..8).map(|_| payload(&mut rng, 1024)).collect());
    let cluster = Cluster::new(NODES, RANKS);
    let server = CollectiveServer::with_config(NODES, RANKS, ServerConfig::default());
    let service = Service::with_config(NODES, RANKS, ServerConfig::default());
    let comm = service
        .open_session("ladder", 1)
        .expect("fresh tenant")
        .comm_world();

    let chunks: Vec<u64> = inputs.iter().map(|i| chunks_for(&cluster, i)).collect();

    // [layer][row] samples (µs) from traced rounds; round totals per kind.
    let mut us: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); ROWS.len()]; LAYERS.len()];
    let mut depth8_s = Vec::new();
    let mut round_s: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut round = 0usize;
    while round < 2 * MIN_ROUNDS || started.elapsed().as_secs_f64() < seconds {
        let traced = round.is_multiple_of(2);
        tracer.set_enabled(traced);
        let warm = round < 4;
        let t0 = Instant::now();
        for (r, input) in inputs.iter().enumerate() {
            let ns = [
                timed(tracer, &mut tally, SPANS[0][r], || {
                    cluster_op(&cluster, input, false)
                }),
                timed(tracer, &mut tally, SPANS[1][r], || {
                    cluster_op(&cluster, input, true)
                }),
                timed(tracer, &mut tally, SPANS[2][r], server_op(&server, input)),
                timed(tracer, &mut tally, SPANS[3][r], svc_op(&comm, input)),
            ];
            if traced && !warm {
                for (l, ns) in ns.iter().enumerate() {
                    us[l][r].push(*ns as f64 / 1e3);
                }
            }
        }
        let d8 = timed(tracer, &mut tally, "sched.bcast_1K.depth8", || {
            sched_depth8(&cluster, &depth8)
        });
        if !warm {
            round_s[usize::from(!traced)].push(t0.elapsed().as_secs_f64());
            if traced {
                depth8_s.push(d8 as f64 / 1e9);
            }
        }
        round += 1;
    }
    tracer.set_enabled(true);

    let med: Vec<Vec<f64>> = us
        .iter_mut()
        .map(|rows| rows.iter_mut().map(|s| median(s)).collect())
        .collect();
    for (r, row) in ROWS.iter().enumerate() {
        m.push(
            &format!("transport.chunks.{row}"),
            chunks[r] as f64,
            "count",
        );
        for (l, layer) in LAYERS.iter().enumerate() {
            m.push(&format!("{layer}.{row}.us"), med[l][r], "us");
        }
        // What no lower layer owns: the cluster op minus its chunks at the
        // loaned-chunk cost and, for allreduce, its (P-1) vector combines at
        // the lane-kernel cost.
        let combine_chunks = match &inputs[r] {
            Input::Bcast(_) => 0.0,
            Input::Allreduce(red) => ((MEMBERS - 1) * red.sum.len() * 8) as f64 / CHUNK as f64,
        };
        let residual = med[0][r] - (chunks[r] as f64 * loan_ns + combine_chunks * chunk_ns) / 1e3;
        m.push(&format!("cluster.residual.{row}.us"), residual, "us");
        m.push(
            &format!("ladder.sched_over_cluster.{row}"),
            med[1][r] / med[0][r],
            "ratio",
        );
        m.push(
            &format!("ladder.server_over_sched.{row}"),
            med[2][r] / med[1][r],
            "ratio",
        );
        m.push(
            &format!("ladder.svc_over_server.{row}"),
            med[3][r] / med[2][r],
            "ratio",
        );
    }
    m.push(
        "sched.bcast_1K.depth8_ops_per_s",
        8.0 / median(&mut depth8_s),
        "1/s",
    );
    let [traced_s, plain_s] = &mut round_s;
    m.push(
        "trace.overhead_frac",
        median(traced_s) / median(plain_s) - 1.0,
        "ratio",
    );
    (m, tally)
}
