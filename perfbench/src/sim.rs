//! `sim_paper`: the simulator at the paper's scale (2048-node quad-mode
//! partition). One sweep is the fig10 torus broadcasts (64 KiB–4 MiB, the
//! three quad-mode algorithms) plus the Table I allreduce points, in a
//! seeded order. Every simulated time must equal the value pinned in
//! `sim_reference.txt`, bit for bit; the host time per call is what the
//! workload measures.

use std::collections::BTreeMap;
use std::time::Instant;

use bgp_machine::{MachineConfig, OpMode};
use bgp_mpi::{AllreduceAlgorithm, BcastAlgorithm, Mpi};
use bgp_sim::{Rng, SimTime};

use crate::trace::Tracer;
use crate::Tally;

/// Nodes of the paper's evaluation partition (two racks).
pub const PAPER_NODES: u32 = 2048;

/// Construction samples per run: `Mpi::new` takes a few ms, so a median
/// over several is what `setup_s` reports.
const SETUPS: usize = 9;

const REFERENCE: &str = include_str!("../sim_reference.txt");

#[derive(Debug, Clone, Copy)]
enum Call {
    Bcast(BcastAlgorithm),
    Allreduce(AllreduceAlgorithm),
}

/// One point of the sweep.
#[derive(Debug, Clone, Copy)]
struct Point {
    /// Series id, as in `sim_reference.txt`.
    series: &'static str,
    /// Span name; its suffix names the `sim.host_ms.*` family the
    /// point's host time counts toward.
    span: &'static str,
    call: Call,
    /// Bytes (bcast) or doubles (allreduce).
    size: u64,
}

impl Point {
    /// Payload bytes the simulated collective delivers.
    fn bytes(&self) -> u64 {
        match self.call {
            Call::Bcast(_) => self.size,
            Call::Allreduce(_) => self.size * 8,
        }
    }

    fn simulate(&self, mpi: &mut Mpi) -> SimTime {
        match self.call {
            Call::Bcast(alg) => mpi.bcast(alg, self.size),
            Call::Allreduce(alg) => mpi.allreduce(alg, self.size),
        }
    }
}

/// Every point of one sweep, in a fixed order.
fn points() -> Vec<Point> {
    let mut out = Vec::new();
    let bcasts = [
        (
            "torus_shaddr",
            "sim.torus_shaddr",
            BcastAlgorithm::TorusShaddr,
        ),
        ("torus_fifo", "sim.torus_fifo", BcastAlgorithm::TorusFifo),
        (
            "torus_direct_put",
            "sim.torus_direct_put",
            BcastAlgorithm::TorusDirectPut,
        ),
    ];
    for (series, span, alg) in bcasts {
        let mut size = 64u64 << 10;
        while size <= 4 << 20 {
            out.push(Point {
                series,
                span,
                call: Call::Bcast(alg),
                size,
            });
            size *= 2;
        }
    }
    let allreduces = [
        ("allreduce_shaddr", AllreduceAlgorithm::ShaddrSpecialized),
        ("allreduce_ring", AllreduceAlgorithm::RingCurrent),
    ];
    for (series, alg) in allreduces {
        for doubles in [
            16u64 << 10,
            32 << 10,
            64 << 10,
            128 << 10,
            256 << 10,
            512 << 10,
        ] {
            out.push(Point {
                series,
                span: "sim.allreduce",
                call: Call::Allreduce(alg),
                size: doubles,
            });
        }
    }
    out
}

/// A fresh paper-scale machine.
fn paper_mpi() -> Mpi {
    Mpi::new(MachineConfig::with_nodes(PAPER_NODES, OpMode::Quad))
}

/// The pinned simulated times, keyed by `(series, size)`.
fn reference() -> BTreeMap<(String, u64), u64> {
    REFERENCE
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(f.len(), 3, "sim_reference.txt line `{l}`");
            let num = |s: &str| s.parse::<u64>().expect("integer in sim_reference.txt");
            ((f[0].to_string(), num(f[1])), num(f[2]))
        })
        .collect()
}

/// The reference file's contents for the current simulator: one
/// `series size simulated_ns` line per point.
pub fn reference_text() -> String {
    let mut mpi = paper_mpi();
    let mut out =
        String::from("# series size simulated_ns (bytes for bcast, doubles for allreduce)\n");
    for p in points() {
        out.push_str(&format!(
            "{} {} {}\n",
            p.series,
            p.size,
            p.simulate(&mut mpi).as_nanos()
        ));
    }
    out
}

/// What a `sim_paper` run measured.
#[derive(Default)]
pub struct SimRun {
    /// `Mpi::new` samples, s.
    pub setup_s: Vec<f64>,
    /// Host time of every call, ns.
    pub lat_ns: Vec<u64>,
    /// Simulated payload bytes over all calls.
    pub bytes: u64,
    /// Wall time of the sweeps, s.
    pub measured_s: f64,
    /// One entry per call: the simulated time matched the pin.
    pub tally: Tally,
    /// Host ns summed per span name, with the call count.
    pub family_ns: BTreeMap<&'static str, (u64, u64)>,
}

/// Sweep in seeded orders for about `seconds`: a sweep starts only while
/// the mean sweep so far still fits, so every run measures whole sweeps
/// (at least one). Each call is timed into `tracer`.
pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer) -> SimRun {
    let mut out = SimRun::default();
    let mut mpi = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let m = paper_mpi();
        out.setup_s.push(t.elapsed().as_secs_f64());
        mpi = Some(m);
    }
    let mut mpi = mpi.expect("at least one setup");
    let pinned = reference();
    let mut order = points();
    let mut rng = Rng::new(seed);
    let started = Instant::now();
    let mut sweeps = 0u32;
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        if sweeps > 0 && elapsed + elapsed / sweeps as f64 > seconds {
            break;
        }
        for i in (1..order.len()).rev() {
            order.swap(i, rng.range_usize(0, i + 1));
        }
        for p in &order {
            let (t, ns) = tracer.time(p.span, || p.simulate(&mut mpi));
            let want = pinned.get(&(p.series.to_string(), p.size));
            out.tally.record(want == Some(&t.as_nanos()));
            out.lat_ns.push(ns);
            out.bytes += p.bytes();
            let f = out.family_ns.entry(p.span).or_default();
            f.0 += ns;
            f.1 += 1;
        }
        sweeps += 1;
    }
    out.measured_s = started.elapsed().as_secs_f64();
    out
}
