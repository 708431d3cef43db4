//! perfbench — run one workload of the repository benchmark.
//!
//! ```text
//! perfbench --workload <svc_small|svc_large|svc_mixed|sim_paper>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --print-sim-reference     # regenerate sim_reference.txt
//! ```
//!
//! `--trace 0` measures the workload's end-to-end metrics with tracing off.
//! `--trace 1` runs the traced layer ladder instead and prints every
//! per-layer metric; its spans are written to
//! `.perfbench/trace_<workload>_<seed>.json` under the working directory.
//! The last stdout line is the result JSON; the line before it stamps the
//! run's provenance.

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use perfbench::report::{provenance_line, result_line, Metrics};
use perfbench::stats::{median, tail_percentile};
use perfbench::svc::{self, SvcWorkload};
use perfbench::trace::Tracer;
use perfbench::{ladder, peak_rss_mib, sim, Tally, NODES, RANKS};

/// The workloads, by command-line name.
const WORKLOADS: [&str; 4] = ["svc_small", "svc_large", "svc_mixed", "sim_paper"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --print-sim-reference",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Option<Args> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => workload = WORKLOADS.iter().find(|w| *w == value).copied(),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return None,
        }
    }
    Some(Args {
        workload: workload?,
        seed: seed?,
        seconds: seconds?,
        trace: trace?,
    })
}

/// Where run artifacts go, under the working directory.
const OUT_DIR: &str = ".perfbench";

/// One run's end-to-end measurements, before they are named.
struct EndToEnd {
    setup_s: Vec<f64>,
    ops_per_s: f64,
    goodput_mbps: f64,
    lat_p50_us: f64,
    latency_samples: u64,
    peak_rss_mib: f64,
    tally: Tally,
}

fn svc_end_to_end(w: SvcWorkload, args: &Args, prov: &mut Vec<(&str, String)>) -> EndToEnd {
    let r = svc::run_processes(w, args.seed, args.seconds);
    prov.push(("shape", format!("{NODES} nodes x {RANKS} ranks")));
    prov.push(("measured_s", format!("{:.3}", r.measured_s)));
    prov.push(("services_measured", r.phase_p50_us.len().to_string()));
    prov.push(("throughput_blocks", r.blocks.len().to_string()));
    let (ops_per_s, goodput_mbps) = r.block_rates();
    EndToEnd {
        ops_per_s,
        goodput_mbps,
        lat_p50_us: median(&mut r.phase_p50_us.clone()),
        latency_samples: r.latency_samples,
        peak_rss_mib: r.peak_rss_mib,
        setup_s: r.setup_s,
        tally: r.tally,
    }
}

fn sim_end_to_end(args: &Args, prov: &mut Vec<(&str, String)>) -> EndToEnd {
    let mut off = Tracer::new(Instant::now(), false, 0, 0);
    let mut r = sim::run(args.seed, args.seconds, &mut off);
    prov.push(("shape", format!("{}-node quad partition", sim::PAPER_NODES)));
    prov.push(("measured_s", format!("{:.3}", r.measured_s)));
    r.lat_ns.sort_unstable();
    let calls = r.lat_ns.len() as u64;
    EndToEnd {
        ops_per_s: calls as f64 / r.measured_s,
        goodput_mbps: r.bytes as f64 / r.measured_s / 1e6,
        lat_p50_us: tail_percentile(&r.lat_ns, 50.0).map_or(f64::NAN, |ns| ns as f64 / 1e3),
        latency_samples: calls,
        peak_rss_mib: peak_rss_mib(),
        setup_s: r.setup_s,
        tally: r.tally,
    }
}

fn end_to_end(args: &Args, m: &mut Metrics, prov: &mut Vec<(&str, String)>) -> Tally {
    let mut e = match SvcWorkload::from_name(args.workload) {
        Some(w) => svc_end_to_end(w, args, prov),
        None => sim_end_to_end(args, prov),
    };
    prov.push(("setup_samples", e.setup_s.len().to_string()));
    prov.push(("latency_samples", e.latency_samples.to_string()));
    m.push("setup_s", median(&mut e.setup_s), "s");
    m.push("ops_per_s", e.ops_per_s, "1/s");
    m.push("goodput_MBps", e.goodput_mbps, "MB/s");
    m.push("lat_p50_us", e.lat_p50_us, "us");
    m.push("peak_rss_MiB", e.peak_rss_mib, "MiB");
    e.tally
}

fn main() -> ExitCode {
    // A re-exec of this binary as a process-backend worker serves its jobs
    // here and exits.
    bgp_smp::proc::maybe_worker();
    // So does one process of a service workload's end-to-end run.
    svc::child_main();

    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--print-sim-reference"] {
        print!("{}", sim::reference_text());
        return ExitCode::SUCCESS;
    }
    let Some(args) = parse(&argv) else {
        return usage();
    };
    let dir = Path::new(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(dir.join("shm")) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    // Process-backend segments live in the working directory, not /dev/shm.
    if std::env::var_os("BGP_SHM_DIR").is_none() {
        std::env::set_var("BGP_SHM_DIR", dir.join("shm"));
    }

    let started = Instant::now();
    let mut m = Metrics::default();
    let mut prov: Vec<(&str, String)> = vec![
        ("workload", args.workload.to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("traced", u8::from(args.trace).to_string()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        (
            "git_sha",
            std::env::var("BGP_GIT_SHA").unwrap_or_else(|_| "unknown".into()),
        ),
    ];
    let tally = if args.trace {
        let mut tracer = Tracer::new(started, true, 0, 0);
        let (lm, tally) = ladder::run(args.seed, args.seconds, &mut tracer);
        m = lm;
        let path = dir.join(format!("trace_{}_{}.json", args.workload, args.seed));
        prov.push(("shape", format!("{NODES} nodes x {RANKS} ranks")));
        prov.push(("spans", tracer.spans().len().to_string()));
        prov.push(("trace_file", path.display().to_string()));
        if let Err(e) = std::fs::write(&path, tracer.chrome_trace(&prov)) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        tally
    } else {
        end_to_end(&args, &mut m, &mut prov)
    };
    prov.push(("run_s", format!("{:.3}", started.elapsed().as_secs_f64())));
    prov.push(("attempted", tally.attempted.to_string()));
    prov.push((
        "error_rate",
        (tally.failed as f64 / tally.attempted.max(1) as f64).to_string(),
    ));

    for (name, value, unit) in m.iter() {
        println!("{name:<48} {value:>16.4} {unit}");
    }
    println!("{}", provenance_line(&prov));
    println!("{}", result_line(tally, &m));
    ExitCode::SUCCESS
}
