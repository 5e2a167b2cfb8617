//! guardspec end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench steady --workload <name> --runs <n> --seconds <s> [--seed <first>]
//! ```
//!
//! One process runs one workload, single-threaded: `jobs = 1`, a daemon
//! with one worker, one client connection.  Every op is timed from
//! outside through the public entry points (`run_experiment`,
//! `Server::start` driven by `http::ClientConn`), its output is checked
//! outside the timed region, and the last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.  With `--trace 0` the
//! metrics are the end-to-end ones; `--trace 1` replays the workload layer
//! by layer and prints the per-layer metrics, writing a Chrome trace.
//! See README.md in this directory.

mod check;
mod child;
mod gen;
mod offline;
mod service;
mod stats;
mod steady;
mod sys;
mod tracer;

use guardspec_harness::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Workload {
    PaperCold,
    ConfigSweep,
    WarmRerun,
    ServiceSweep,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperCold,
        Workload::ConfigSweep,
        Workload::WarmRerun,
        Workload::ServiceSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCold => "paper-cold",
            Workload::ConfigSweep => "config-sweep",
            Workload::WarmRerun => "warm-rerun",
            Workload::ServiceSweep => "service-sweep",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One run's settings and its private scratch directory.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub dir: PathBuf,
}

impl Run {
    /// Ops in a run: whole ops of about `nominal_s` each filling the run
    /// length, and at least three so a median exists.  Depends only on
    /// the run length, never on the seed or the machine's speed.
    pub fn ops(&self, nominal_s: f64) -> usize {
        ((self.seconds / nominal_s).round() as usize).max(3)
    }
}

/// What a run measured.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// False when a completed op's output failed a check.
    pub correct: bool,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// A completed op whose output failed a check: failed and incorrect.
    pub fn check_failed(&mut self, why: String) {
        self.failed += 1;
        self.correct = false;
        self.notes.push(format!("check failed: {why}"));
    }

    fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::obj(vec![
                        ("value", Json::F64(*value)),
                        ("unit", Json::str(*unit)),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// The end-to-end metrics every workload reports.
pub struct EndToEnd {
    pub setup_secs: Vec<f64>,
    pub op_secs: Vec<f64>,
    pub peak_rss_kb: u64,
    pub cache_bytes: u64,
}

impl EndToEnd {
    pub fn report(&self, r: &mut Report) {
        if self.op_secs.len() <= 16 {
            let ms: Vec<String> = self
                .op_secs
                .iter()
                .map(|s| format!("{:.0}", s * 1e3))
                .collect();
            r.notes.push(format!("op times (ms): {}", ms.join(" ")));
        }
        r.metric("setup_s", stats::median(&self.setup_secs), "s");
        r.metric("wall_s", self.op_secs.iter().sum(), "s");
        r.metric("op_p50_ms", stats::median(&self.op_secs) * 1e3, "ms");
        r.metric("peak_rss_mb", self.peak_rss_kb as f64 * 1024.0 / 1e6, "MB");
        r.metric("cache_mb", self.cache_bytes as f64 / 1e6, "MB");
    }
}

/// Every per-layer metric with its unit, in the order printed.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("workloads.build_ms", "ms"),
    ("ir.print_mbps", "MB/s"),
    ("ir.encode_mbps", "MB/s"),
    ("ir.decode_mbps", "MB/s"),
    ("ir.parse_mbps", "MB/s"),
    ("interp.profile_mips", "Minstr/s"),
    ("interp.trace_mips", "Minstr/s"),
    ("interp.tracefile.encode_mbps", "MB/s"),
    ("interp.tracefile.decode_mbps", "MB/s"),
    ("interp.interpretations", "count"),
    ("core.transform_ms", "ms"),
    ("core.transform_ms.compress", "ms"),
    ("core.transform_ms.espresso", "ms"),
    ("core.transform_ms.xlisp", "ms"),
    ("core.transform_ms.grep", "ms"),
    ("sim.compile_us", "us"),
    ("sim.exact_mips", "Minstr/s"),
    ("sim.sampled_mips", "Minstr/s"),
    ("sim.sampled_windows", "count"),
    ("harness.json.parse_mbps.profile", "MB/s"),
    ("harness.json.parse_mbps.transform", "MB/s"),
    ("harness.json.parse_mbps.sim", "MB/s"),
    ("harness.json.parse_mbps.artifact", "MB/s"),
    ("harness.json.parse_mbps.request", "MB/s"),
    ("harness.json.encode_mbps", "MB/s"),
    ("harness.cache.get_mbps", "MB/s"),
    ("harness.cache.put_mbps", "MB/s"),
    ("harness.cache.hits", "count"),
    ("harness.cache.lookups", "count"),
    ("harness.run_ms", "ms"),
    ("server.http.parse_mbps", "MB/s"),
    ("server.protocol.decode_us", "us"),
    ("server.protocol.to_spec_us", "us"),
    ("server.request.hit_p50_ms", "ms"),
    ("server.request.miss_p50_ms", "ms"),
    ("server.request.new_share", "%"),
    ("server.request.text_share", "%"),
    ("server.request.repeat_share", "%"),
    ("server.connections", "count"),
    ("server.retries", "count"),
    ("sim_mips", "Minstr/s"),
    ("req_p95_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.replay_ms", "ms"),
    ("trace.untraced_ms", "ms"),
    ("trace.stopped_ops", "count"),
];

/// Fill `r` with every per-layer metric from `values` (absent ones are 0:
/// that workload does not reach the layer).
pub fn report_layers(r: &mut Report, values: &std::collections::BTreeMap<&str, f64>) {
    for (name, unit) in PER_LAYER {
        r.metric(name, values.get(name).copied().unwrap_or(0.0), unit);
    }
}

/// Per-layer values accumulated by a traced replay of `ops` ops: rates as
/// work per busy second, counts per op, per-call times as means, and
/// `_p50_` latencies as medians.
pub fn layer_values(
    tr: &tracer::Tracer,
    ops: f64,
) -> std::collections::BTreeMap<&'static str, f64> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = match unit {
                "MB/s" | "Minstr/s" => tr.rate_value(name),
                "count" => tr.count_value(name) / ops.max(1.0),
                _ if name.contains("_p50_") => stats::median(tr.samples(name)),
                _ => stats::mean(tr.samples(name)),
            };
            (name, v)
        })
        .collect()
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = val()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace wants 0 or 1, not {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

const USAGE: &str = "usage: perfbench --workload paper-cold|config-sweep|warm-rerun|service-sweep \
--seed N --seconds S --trace 0|1\n       perfbench steady --workload W --runs N --seconds S [--seed FIRST]";

/// Scratch space of all runs, inside the checkout the benchmark runs from.
pub const RUN_ROOT: &str = ".bench_run";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("child") => return offline::child_main(&argv[1..]),
        Some("daemon-setup") => return service::setup_child(&argv[1..]),
        Some("steady") => return steady::main(&argv[1..]),
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let dir = Path::new(RUN_ROOT).join(format!("{}-{}", args.workload.name(), std::process::id()));
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        dir: sys::fresh_dir(&dir),
    };
    let mut report = match (args.workload, args.trace) {
        (Workload::PaperCold, false) => offline::paper_cold(&run),
        (Workload::ConfigSweep, false) => offline::config_sweep(&run),
        (Workload::WarmRerun, false) => offline::warm_rerun(&run),
        (Workload::ServiceSweep, false) => service::service_sweep(&run),
        (w, true) => {
            let name = format!("{}-seed{}.json", w.name(), args.seed);
            traced(w, &run, &Path::new(RUN_ROOT).join("traces").join(name))
        }
    };
    let _ = std::fs::remove_dir_all(&run.dir);
    report.notes.push(format!(
        "{}: {} ops attempted, {} failed, outputs {}",
        args.workload.name(),
        report.attempted,
        report.failed,
        if report.correct { "correct" } else { "WRONG" }
    ));
    for n in &report.notes {
        println!("# {n}");
    }
    println!("{}", report.to_json().to_compact());
    ExitCode::SUCCESS
}

fn traced(w: Workload, run: &Run, out: &Path) -> Report {
    let mut tr = tracer::Tracer::new();
    let (mut report, mut values) = match w {
        Workload::PaperCold => offline::paper_cold_traced(run, &mut tr),
        Workload::ConfigSweep => offline::config_sweep_traced(run, &mut tr),
        Workload::WarmRerun => offline::warm_rerun_traced(run, &mut tr),
        Workload::ServiceSweep => service::service_sweep_traced(run, &mut tr),
    };
    match tr.write_trace(out) {
        Ok(n) => {
            values.insert("trace.spans", n as f64);
            report.notes.push(format!(
                "chrome trace: {} ({n} spans, validated)",
                out.display()
            ));
        }
        Err(e) => {
            report.correct = false;
            report.notes.push(format!("chrome trace invalid: {e}"));
        }
    }
    let overhead = values.get("trace.replay_ms").copied().unwrap_or(0.0)
        - values.get("trace.untraced_ms").copied().unwrap_or(0.0);
    values.insert("trace.overhead_ms", overhead);
    report.notes.push(format!(
        "tracing overhead: traced replay op {:.1} ms - untraced replay op {:.1} ms = {overhead:.1} ms",
        values.get("trace.replay_ms").copied().unwrap_or(0.0),
        values.get("trace.untraced_ms").copied().unwrap_or(0.0),
    ));
    report_layers(&mut report, &values);
    report
}
