//! The three `bgp-svc` workloads: closed-loop clients driving
//! `Comm::bcast`/`Comm::allreduce` on a fresh
//! `Service::with_config(2, 2, ServerConfig::default())`.
//!
//! Each client owns a seeded pool of payloads; the seed also draws the op
//! order (a shuffled block holding the exact kind ratio) and every op's
//! broadcast root node. Pool sizes are fixed per workload, so a seed changes
//! contents, roots and order but never the size mix the timings depend on.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use bgp_sched::{ServerConfig, ServerStats};
use bgp_sim::json::{self, Json};
use bgp_sim::Rng;
use bgp_svc::{AllreduceTicket, BcastTicket, Comm, Service};

use crate::oracle::{allreduce_ok, bcast_ok, payload, Reduction};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{peak_rss_mib, Tally, MEMBERS, NODES, RANKS};

/// One of the service workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SvcWorkload {
    /// One client, one op outstanding, 1 KiB bcast : 128-double allreduce = 3:1.
    Small,
    /// One client, one op outstanding, 64 KiB bcast : 16 Ki-double allreduce = 1:1.
    Large,
    /// Two tenants with a window of 8 ops each, 64 B–4 KiB bcasts :
    /// 8–256-double allreduces = 3:1.
    Mixed,
}

struct Shape {
    clients: usize,
    window: usize,
    /// One kind block holds this many bcasts and allreduces, shuffled.
    bcasts: usize,
    allreduces: usize,
    bcast_len: (usize, usize),
    allreduce_count: (usize, usize),
}

/// Every broadcast is rooted at this rank of its (seeded) root node. A
/// broadcast rooted at rank 1 intermittently never completes in the `Sched`
/// engine (on a 2 × 2 cluster, within a few thousand ops in one to four
/// runs of six), so until that is fixed the root rank is not drawn.
pub const ROOT_RANK: usize = 0;

/// Pool entries per unit of a kind's share in the block.
const POOL_PER_SHARE: usize = 4;

impl SvcWorkload {
    /// Every service workload, in report order.
    pub const ALL: [SvcWorkload; 3] = [SvcWorkload::Small, SvcWorkload::Large, SvcWorkload::Mixed];

    /// The workload with command-line name `name`.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in metric names.
    pub fn name(self) -> &'static str {
        match self {
            SvcWorkload::Small => "svc_small",
            SvcWorkload::Large => "svc_large",
            SvcWorkload::Mixed => "svc_mixed",
        }
    }

    fn shape(self) -> Shape {
        match self {
            SvcWorkload::Small => Shape {
                clients: 1,
                window: 1,
                bcasts: 3,
                allreduces: 1,
                bcast_len: (1024, 1024),
                allreduce_count: (128, 128),
            },
            SvcWorkload::Large => Shape {
                clients: 1,
                window: 1,
                bcasts: 1,
                allreduces: 1,
                bcast_len: (64 * 1024, 64 * 1024),
                allreduce_count: (16 * 1024, 16 * 1024),
            },
            SvcWorkload::Mixed => Shape {
                clients: 2,
                window: 8,
                bcasts: 3,
                allreduces: 1,
                bcast_len: (64, 4096),
                allreduce_count: (8, 256),
            },
        }
    }
}

/// `n` sizes spaced geometrically over `[lo, hi]`, rounded to multiples of 8.
fn sizes(lo: usize, hi: usize, n: usize) -> Vec<usize> {
    (0..n)
        .map(|i| {
            let f = if n == 1 {
                0.0
            } else {
                i as f64 / (n - 1) as f64
            };
            let s = lo as f64 * (hi as f64 / lo as f64).powf(f);
            ((s / 8.0).round() as usize * 8).clamp(lo, hi)
        })
        .collect()
}

#[derive(Clone, Copy)]
enum Kind {
    Bcast(usize),
    Allreduce(usize),
}

#[derive(Clone, Copy)]
struct Op {
    root_node: usize,
    root_rank: usize,
    kind: Kind,
}

/// One client's seeded inputs and op order.
struct Client {
    bcasts: Vec<Vec<u8>>,
    reductions: Vec<Reduction>,
    block: Vec<bool>,
    cursor: usize,
    rng: Rng,
}

impl Client {
    fn new(shape: &Shape, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let (lo, hi) = shape.bcast_len;
        let bcasts = sizes(lo, hi, shape.bcasts * POOL_PER_SHARE)
            .into_iter()
            .map(|len| payload(&mut rng, len))
            .collect();
        let (lo, hi) = shape.allreduce_count;
        let reductions = sizes(lo, hi, shape.allreduces * POOL_PER_SHARE)
            .into_iter()
            .map(|count| Reduction::new(&mut rng, MEMBERS, count))
            .collect();
        let mut block = vec![true; shape.bcasts];
        block.extend(std::iter::repeat_n(false, shape.allreduces));
        Client {
            bcasts,
            reductions,
            cursor: block.len(),
            block,
            rng,
        }
    }

    fn next(&mut self) -> Op {
        if self.cursor == self.block.len() {
            for i in (1..self.block.len()).rev() {
                let j = self.rng.range_usize(0, i + 1);
                self.block.swap(i, j);
            }
            self.cursor = 0;
        }
        let is_bcast = self.block[self.cursor];
        self.cursor += 1;
        let root_node = self.rng.range_usize(0, NODES);
        let kind = if is_bcast {
            Kind::Bcast(self.rng.range_usize(0, self.bcasts.len()))
        } else {
            Kind::Allreduce(self.rng.range_usize(0, self.reductions.len()))
        };
        Op {
            root_node,
            root_rank: ROOT_RANK,
            kind,
        }
    }

    /// Payload bytes the op delivers (the broadcast message, or one
    /// member's input vector).
    fn bytes(&self, op: Op) -> u64 {
        match op.kind {
            Kind::Bcast(i) => self.bcasts[i].len() as u64,
            Kind::Allreduce(i) => self.reductions[i].sum.len() as u64 * 8,
        }
    }
}

enum Pending {
    Bcast(BcastTicket),
    Allreduce(AllreduceTicket),
}

/// Submit `op` (its inputs cloned before the clock starts). `None` on a
/// typed error or a panic.
fn submit(comm: &Comm, client: &Client, op: Op) -> (Option<Pending>, Instant) {
    match op.kind {
        Kind::Bcast(i) => {
            let p = client.bcasts[i].clone();
            let t = Instant::now();
            let r = catch_unwind(AssertUnwindSafe(|| {
                comm.bcast(op.root_node, op.root_rank, p)
            }));
            (r.ok().and_then(Result::ok).map(Pending::Bcast), t)
        }
        Kind::Allreduce(i) => {
            let inputs = client.reductions[i].inputs.clone();
            let t = Instant::now();
            let r = catch_unwind(AssertUnwindSafe(|| comm.allreduce(inputs)));
            (r.ok().and_then(Result::ok).map(Pending::Allreduce), t)
        }
    }
}

/// Wait for `pending` and check its output against the oracle.
fn complete(client: &Client, op: Op, pending: Pending) -> bool {
    match (pending, op.kind) {
        (Pending::Bcast(t), Kind::Bcast(i)) => catch_unwind(AssertUnwindSafe(|| t.wait()))
            .is_ok_and(|got| bcast_ok(&client.bcasts[i], &got, MEMBERS)),
        (Pending::Allreduce(t), Kind::Allreduce(i)) => {
            catch_unwind(AssertUnwindSafe(|| t.try_wait())).is_ok_and(|got| {
                got.is_ok_and(|got| allreduce_ok(&client.reductions[i].sum, &got, MEMBERS))
            })
        }
        _ => false,
    }
}

/// When a client stops submitting.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// Submit for this long after the phase starts, then drain.
    After(Duration),
    /// Submit exactly this many ops.
    Ops(u64),
}

/// What one client saw in one phase.
struct ClientRun {
    tally: Tally,
    /// Per checked op: completion (ns since the phase start), latency
    /// (ns), payload bytes.
    done: Vec<(u64, u64, u64)>,
    elapsed_s: f64,
    tracer: Tracer,
}

/// Closed loop with `window` ops outstanding: submit until the window is
/// full, then wait for the oldest.
fn drive(
    comm: &Comm,
    client: &mut Client,
    window: usize,
    phase: Instant,
    stop: Stop,
    mut tracer: Tracer,
) -> ClientRun {
    let mut tally = Tally::default();
    let mut done = Vec::new();
    let mut submitted = 0u64;
    let mut inflight: VecDeque<(Op, Pending, Instant)> = VecDeque::with_capacity(window);
    loop {
        while inflight.len() < window
            && match stop {
                Stop::After(d) => phase.elapsed() < d,
                Stop::Ops(n) => submitted < n,
            }
        {
            let op = client.next();
            submitted += 1;
            match submit(comm, client, op) {
                (Some(p), t) => inflight.push_back((op, p, t)),
                (None, _) => tally.record(false),
            }
        }
        let Some((op, pending, t)) = inflight.pop_front() else {
            break;
        };
        let ok = complete(client, op, pending);
        let lat = t.elapsed().as_nanos() as u64;
        tracer.record("svc.op", t, lat);
        tally.record(ok);
        if ok {
            let at = phase.elapsed().as_nanos() as u64;
            done.push((at, lat, client.bytes(op)));
        }
    }
    ClientRun {
        tally,
        done,
        elapsed_s: phase.elapsed().as_secs_f64(),
        tracer,
    }
}

/// Server counters over one measured phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerDelta {
    /// Ops accepted.
    pub submitted: u64,
    /// Ops completed.
    pub completed: u64,
    /// Cluster jobs dispatched.
    pub batches: u64,
    /// Ops that ran fused with a sibling.
    pub coalesced: u64,
    /// `try_submit` refusals.
    pub rejected: u64,
    /// Deepest backlog over the service's life.
    pub peak_queue_depth: u64,
    /// Total queued time before dispatch, ns.
    pub wait_ns: u64,
    /// Engine chunks dropped by the stash.
    pub stash_evicted: u64,
}

impl ServerDelta {
    fn between(a: ServerStats, b: ServerStats) -> Self {
        ServerDelta {
            submitted: b.submitted - a.submitted,
            completed: b.completed - a.completed,
            batches: b.batches - a.batches,
            coalesced: b.coalesced - a.coalesced,
            rejected: b.rejected - a.rejected,
            peak_queue_depth: b.peak_queue_depth,
            wait_ns: b.wait_ns - a.wait_ns,
            stash_evicted: b.stash_evicted - a.stash_evicted,
        }
    }
}

/// Throughput is timed over blocks of consecutive completions, each block
/// closing at the first completion at least this long after it opened; a
/// run reports the median block. On a shared host a stolen vCPU stalls the
/// whole service for milliseconds at a time, which moves a run's mean
/// throughput by up to 1.8x between runs while the median op latency holds
/// within 5 %. Short blocks keep each stall to the blocks it hits: over six
/// 10 s runs of `svc_small` the median block spread 3 % at 250 µs and 10 %
/// at 2 ms.
const BLOCK: Duration = Duration::from_micros(250);

/// Everything a workload run measured.
#[derive(Default)]
pub struct SvcRun {
    /// Completions, duration (ns) and payload bytes of every [`BLOCK`] of
    /// every measured phase.
    pub blocks: Vec<(u64, u64, u64)>,
    /// Median latency of each measured phase, µs.
    pub phase_p50_us: Vec<f64>,
    /// Checked, completed measured ops (the latency sample count).
    pub latency_samples: u64,
    /// Peak RSS of the process(es) that ran the services, MiB.
    pub peak_rss_mib: f64,
    /// Set-up samples (service construction + sessions + first op), s.
    pub setup_s: Vec<f64>,
    /// Latency of every checked, completed measured op, ns (unsorted;
    /// in-process runs only).
    pub lat_ns: Vec<u64>,
    /// Wall time of the measured phases, s.
    pub measured_s: f64,
    /// Every attempted op, set-up and warm-up included.
    pub tally: Tally,
    /// Server counters over the measured phase.
    pub server: ServerDelta,
    /// Each tenant's completed-op rate over its own measured time, ops/s.
    pub tenant_rates: Vec<f64>,
}

impl SvcRun {
    /// Median ops/s and MB/s over the blocks.
    pub fn block_rates(&self) -> (f64, f64) {
        let rate = |f: fn(&(u64, u64, u64)) -> f64| {
            median(&mut self.blocks.iter().map(f).collect::<Vec<_>>())
        };
        (
            rate(|b| b.0 as f64 / b.1 as f64 * 1e9),
            rate(|b| b.2 as f64 / b.1 as f64 * 1e3),
        )
    }
}

/// One fresh service: set it up (timed), warm it up for `warmup`, then
/// measure until `stop`. Spans go to `tracer` when it records.
fn segment(
    w: SvcWorkload,
    seed: u64,
    warmup: Duration,
    stop: Stop,
    tracer: &mut Tracer,
    out: &mut SvcRun,
) {
    let shape = w.shape();
    let mut clients: Vec<Client> = (0..shape.clients)
        .map(|c| {
            Client::new(
                &shape,
                seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(c as u64),
            )
        })
        .collect();

    let t0 = Instant::now();
    let svc = Service::with_config(NODES, RANKS, ServerConfig::default());
    let comms: Vec<Comm> = (0..shape.clients)
        .map(|c| {
            let session = svc
                .open_session(&format!("tenant{c}"), 1)
                .expect("fresh tenant");
            session.comm_world()
        })
        .collect();
    for (comm, client) in comms.iter().zip(clients.iter_mut()) {
        let op = client.next();
        let ok = match submit(comm, client, op) {
            (Some(p), _) => complete(client, op, p),
            (None, _) => false,
        };
        out.tally.record(ok);
    }
    out.setup_s.push(t0.elapsed().as_secs_f64());

    let run_all = |clients: &mut [Client], stop: Stop, traced: bool| -> (Instant, Vec<ClientRun>) {
        let phase = Instant::now();
        let runs = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(&comms)
                .enumerate()
                .map(|(c, (client, comm))| {
                    let tr =
                        Tracer::new(tracer.epoch(), traced, c as u32 + 1, (c as u64 + 1) << 40);
                    s.spawn(move || drive(comm, client, shape.window, phase, stop, tr))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked outside an op"))
                .collect()
        });
        (phase, runs)
    };

    if !warmup.is_zero() {
        for r in run_all(&mut clients, Stop::After(warmup), false).1 {
            out.tally.add(r.tally);
        }
    }
    let before = svc.stats();
    let (phase, runs) = run_all(&mut clients, stop, tracer.is_enabled());
    out.measured_s += phase.elapsed().as_secs_f64();
    out.server = ServerDelta::between(before, svc.stats());
    let mut done = Vec::new();
    for r in runs {
        out.tally.add(r.tally);
        out.tenant_rates.push(r.done.len() as f64 / r.elapsed_s);
        done.extend(r.done);
        tracer.absorb(r.tracer);
    }
    done.sort_unstable_by_key(|d| d.0);
    let (mut from, mut ops, mut bytes) = (0, 0, 0);
    for &(at, _, b) in &done {
        ops += 1;
        bytes += b;
        if at - from >= BLOCK.as_nanos() as u64 {
            out.blocks.push((ops, at - from, bytes));
            (from, ops, bytes) = (at, 0, 0);
        }
    }
    let mut lat_us: Vec<f64> = done.iter().map(|d| d.1 as f64 / 1e3).collect();
    if !lat_us.is_empty() {
        out.phase_p50_us.push(median(&mut lat_us));
    }
    out.latency_samples += done.len() as u64;
    out.lat_ns.extend(done.iter().map(|d| d.1));
}

/// How long the first service of a process runs, unmeasured: the first
/// service in a process runs slower than the ones built after it.
const THROWAWAY: Duration = Duration::from_millis(100);

/// Seconds of an end-to-end run each fresh process gets. On a 2-vCPU host
/// the rate of one service differs from the next by up to 3x, and the
/// median rate of one process from the next by up to 2.7x (`svc_large`), so
/// a run pools many short-lived processes, one measured service each.
const PROCESS_S: f64 = 0.6;

/// One process's share of an end-to-end run: a [`THROWAWAY`] service, then
/// a fresh service warmed up for a tenth of the rest and measured for the
/// remainder. The throwaway service's ops are checked and counted; only its
/// timings are dropped.
pub fn run_timed(w: SvcWorkload, seed: u64, seconds: f64) -> SvcRun {
    let rest = Duration::from_secs_f64((seconds - THROWAWAY.as_secs_f64()).max(0.05));
    let mut tracer = Tracer::new(Instant::now(), false, 0, 0);
    let mut throwaway = SvcRun::default();
    segment(
        w,
        seed,
        Duration::ZERO,
        Stop::After(THROWAWAY),
        &mut tracer,
        &mut throwaway,
    );
    let mut out = SvcRun {
        tally: throwaway.tally,
        setup_s: throwaway.setup_s,
        ..SvcRun::default()
    };
    segment(
        w,
        seed.wrapping_add(1),
        rest / 10,
        Stop::After(rest * 9 / 10),
        &mut tracer,
        &mut out,
    );
    out
}

/// Environment variable that makes a re-exec of the benchmark one process
/// of a [`run_processes`] run; [`child_main`] reads it.
const ENV_CHILD: &str = "PERFBENCH_SVC_CHILD";

/// The end-to-end run: `seconds` split over fresh processes of about
/// [`PROCESS_S`] each, run in turn, each doing a [`run_timed`] share. A
/// process that fails to report counts as one failed op.
pub fn run_processes(w: SvcWorkload, seed: u64, seconds: f64) -> SvcRun {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let processes = ((seconds / PROCESS_S).round() as u64).max(1);
    let mut out = SvcRun::default();
    for p in 0..processes {
        let spec = format!(
            "{} {} {}",
            w.name(),
            seed.wrapping_add(p << 32),
            seconds / processes as f64
        );
        let part = Command::new(&exe)
            .env(ENV_CHILD, spec)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|text| SvcRun::from_json(text.trim()));
        match part {
            Some(part) => out.merge(part),
            None => out.tally.record(false),
        }
    }
    out
}

/// If this process is one process of a [`run_processes`] run, do its share,
/// print it as one JSON line, and exit. Call first in `main`.
pub fn child_main() {
    let Ok(spec) = std::env::var(ENV_CHILD) else {
        return;
    };
    let f: Vec<&str> = spec.split_whitespace().collect();
    let w = f.first().and_then(|n| SvcWorkload::from_name(n));
    let seed = f.get(1).and_then(|s| s.parse().ok());
    let seconds = f.get(2).and_then(|s| s.parse().ok());
    let (Some(w), Some(seed), Some(seconds)) = (w, seed, seconds) else {
        eprintln!("perfbench: bad {ENV_CHILD} `{spec}`");
        std::process::exit(2);
    };
    let mut r = run_timed(w, seed, seconds);
    r.peak_rss_mib = peak_rss_mib();
    println!("{}", r.to_json());
    std::process::exit(0);
}

impl SvcRun {
    fn merge(&mut self, o: SvcRun) {
        self.blocks.extend(o.blocks);
        self.phase_p50_us.extend(o.phase_p50_us);
        self.latency_samples += o.latency_samples;
        self.peak_rss_mib = self.peak_rss_mib.max(o.peak_rss_mib);
        self.setup_s.extend(o.setup_s);
        self.measured_s += o.measured_s;
        self.tally.add(o.tally);
    }

    /// The fields [`Self::merge`] pools, as one JSON object.
    fn to_json(&self) -> String {
        let floats = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:?}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let blocks: Vec<String> = self
            .blocks
            .iter()
            .map(|b| format!("[{}, {}, {}]", b.0, b.1, b.2))
            .collect();
        format!(
            "{{\"attempted\": {}, \"failed\": {}, \"latency_samples\": {}, \"measured_s\": {:?}, \"peak_rss_mib\": {:?}, \"setup_s\": [{}], \"phase_p50_us\": [{}], \"blocks\": [{}]}}",
            self.tally.attempted,
            self.tally.failed,
            self.latency_samples,
            self.measured_s,
            self.peak_rss_mib,
            floats(&self.setup_s),
            floats(&self.phase_p50_us),
            blocks.join(", ")
        )
    }

    fn from_json(text: &str) -> Option<SvcRun> {
        let v = json::parse(text).ok()?;
        let num = |k: &str| v.get(k).and_then(Json::as_f64);
        let nums =
            |j: &Json| -> Option<Vec<f64>> { j.as_arr()?.iter().map(Json::as_f64).collect() };
        let blocks = v
            .get("blocks")?
            .as_arr()?
            .iter()
            .map(|w| match nums(w)?.as_slice() {
                &[ops, ns, bytes] => Some((ops as u64, ns as u64, bytes as u64)),
                _ => None,
            })
            .collect::<Option<Vec<_>>>()?;
        Some(SvcRun {
            blocks,
            phase_p50_us: nums(v.get("phase_p50_us")?)?,
            latency_samples: num("latency_samples")? as u64,
            peak_rss_mib: num("peak_rss_mib")?,
            setup_s: nums(v.get("setup_s")?)?,
            measured_s: num("measured_s")?,
            tally: Tally {
                attempted: num("attempted")? as u64,
                failed: num("failed")? as u64,
            },
            ..SvcRun::default()
        })
    }
}

/// A fixed-count run on one fresh service: `ops` ops per client after a
/// short warm-up, so the server's submitted/completed/rejected counts
/// repeat exactly. Spans go to `tracer`.
pub fn run_ops(w: SvcWorkload, seed: u64, ops: u64, tracer: &mut Tracer) -> SvcRun {
    let mut out = SvcRun::default();
    segment(
        w,
        seed,
        Duration::from_millis(100),
        Stop::Ops(ops),
        tracer,
        &mut out,
    );
    out
}
