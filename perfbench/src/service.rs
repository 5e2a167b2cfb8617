//! `service-sweep`: an embedded `gsd` with one worker, driven by one
//! keep-alive client in a closed loop (each request is sent when the
//! previous reply is in).

use crate::check::{self, ProgramRef};
use crate::gen::{self, Rng, ServiceRequest};
use crate::tracer::Tracer;
use crate::{stats, sys, EndToEnd, Report, Run};
use guardspec_harness::json::{self, Json};
use guardspec_harness::{run_experiment, stable_json, CellSpec, ExperimentSpec, RunOptions};
use guardspec_server::http::{self, ClientConn, HttpResponse};
use guardspec_server::protocol::{self, request_from_json, request_to_json, WorkloadReq};
use guardspec_server::{Server, ServerConfig, ServerHandle};
use guardspec_workloads::{all_workloads, Scale, Workload};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Set-up (a cold daemon start, under a millisecond) is repeated this
/// often and its median reported.
const SETUP_REPS: usize = 25;
/// Nominal closed-loop request time, which fixes the request count.
const REQUEST_S: f64 = 0.015;
/// A request not answered within this is a failed request.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);
/// 429 replies are retried this often before the request counts as failed.
const MAX_RETRIES: u32 = 3;

struct Service {
    handle: ServerHandle,
    addr: String,
    cache: PathBuf,
    requests: Vec<ServiceRequest>,
    workloads: Vec<Workload>,
    refs: Vec<ProgramRef>,
    setup_secs: Vec<f64>,
    build_secs: Vec<f64>,
}

/// Generate the request mix (the benchmark's input, untimed), time
/// `reps` cold daemon set-ups, each in a process of its own, and start the
/// daemon the loop drives.
fn setup(run: &Run, reps: usize, n: usize) -> Service {
    let workloads = all_workloads(Scale::Test);
    let texts: Vec<String> = workloads.iter().map(|w| w.program.to_string()).collect();
    let requests = gen::service_requests(&mut Rng::new(run.seed), n, &texts);
    let (mut setup_secs, mut build_secs) = (Vec::new(), Vec::new());
    for k in 0..reps {
        let Some((secs, build)) = cold_setup(&run.dir.join(format!("setup-cache-{k}"))) else {
            eprintln!("perfbench: a daemon set-up child failed");
            std::process::exit(1);
        };
        setup_secs.push(secs);
        build_secs.push(build);
    }
    let cache = sys::fresh_dir(&run.dir.join("daemon-cache"));
    let handle = start_daemon(&cache);
    Service {
        addr: handle.addr().to_string(),
        handle,
        cache,
        requests,
        workloads,
        refs: Vec::new(),
        setup_secs,
        build_secs,
    }
}

/// A one-worker daemon on `cache`, running requests with `jobs = 1`.
fn start_daemon(cache: &Path) -> ServerHandle {
    Server::start(ServerConfig {
        port: 0,
        cache_dir: Some(cache.to_path_buf()),
        workers: 1,
        jobs_per_request: 1,
        ..ServerConfig::default()
    })
    .expect("the daemon binds a loopback port")
}

/// Run `perfbench daemon-setup <cache>` and read its (set-up, build) secs.
fn cold_setup(cache: &Path) -> Option<(f64, f64)> {
    let exe = std::env::current_exe().ok()?;
    let out = Command::new(exe)
        .arg("daemon-setup")
        .arg(cache)
        .stdin(Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let mut f = text.lines().last()?.strip_prefix("setup ")?.split(' ');
    Some((f.next()?.parse().ok()?, f.next()?.parse().ok()?))
}

/// `perfbench daemon-setup <cache>`: one cold set-up, as a user pays it to
/// bring `gsd` up in a new process: build the test-scale programs and start
/// a one-worker daemon on an empty cache.  Repeated in one process, the
/// set-up runs warm (about 0.15 ms against 0.45 ms cold on a 2-core VM) and
/// sometimes jumps to about 1 ms partway, so every timed set-up gets a
/// process of its own.
pub fn setup_child(argv: &[String]) -> ExitCode {
    let [cache] = argv else {
        eprintln!("perfbench daemon-setup: expected one cache directory, got {argv:?}");
        return ExitCode::from(2);
    };
    let t0 = Instant::now();
    let workloads = all_workloads(Scale::Test);
    let build = t0.elapsed().as_secs_f64();
    let handle = start_daemon(&sys::fresh_dir(Path::new(cache)));
    let secs = t0.elapsed().as_secs_f64();
    drop(workloads);
    handle.shutdown();
    println!("setup {secs} {build}");
    ExitCode::SUCCESS
}

/// POST one body, retrying 429s; returns the reply and the retries made.
fn post(conn: &mut ClientConn, body: &[u8]) -> (std::io::Result<HttpResponse>, u32) {
    let mut retries = 0;
    loop {
        match conn.request("POST", "/run", body) {
            Ok(resp) if resp.status == 429 && retries < MAX_RETRIES => {
                retries += 1;
                std::thread::sleep(Duration::from_millis(50));
            }
            other => return (other, retries),
        }
    }
}

/// Replies to requests `range`, with their latencies in seconds.
struct Loop {
    secs: Vec<f64>,
    replies: Vec<Option<Vec<u8>>>,
    retries: u32,
}

fn closed_loop(
    s: &Service,
    conn: &mut ClientConn,
    range: std::ops::Range<usize>,
    r: &mut Report,
) -> Loop {
    let mut l = Loop {
        secs: Vec::new(),
        replies: Vec::new(),
        retries: 0,
    };
    for i in range {
        let t0 = Instant::now();
        let body = request_to_json(&s.requests[i].request).to_compact();
        let (resp, retries) = post(conn, body.as_bytes());
        l.secs.push(t0.elapsed().as_secs_f64());
        l.retries += retries;
        r.attempted += 1;
        l.replies.push(match resp {
            Ok(resp) if resp.status == 200 => Some(resp.body),
            Ok(resp) => {
                r.failed += 1;
                r.notes.push(format!("request {i}: HTTP {}", resp.status));
                None
            }
            Err(e) => {
                r.failed += 1;
                r.notes.push(format!("request {i}: {e}"));
                None
            }
        });
    }
    l
}

/// The offline spec of a request, built from the benchmark's own programs.
fn offline_spec(req: &protocol::RunRequest, ws: &[Workload]) -> (ExperimentSpec, usize) {
    let (p, text) = match &req.workloads[0] {
        WorkloadReq::Builtin(n) => (gen::PROGRAMS.iter().position(|x| x == n), false),
        WorkloadReq::Text { name, .. } => (gen::TEXT_NAMES.iter().position(|x| x == name), true),
        WorkloadReq::Bin { .. } => (None, false),
    };
    let p = p.expect("a generated request names a generated program");
    let w = &ws[p];
    let workload = Workload {
        name: if text { gen::TEXT_NAMES[p] } else { w.name },
        description: w.description,
        program: w.program.clone(),
        // The daemon verifies builtins against their golden results and
        // takes ad-hoc text as is.
        expected: if text { Vec::new() } else { w.expected.clone() },
    };
    let c = &req.cells[0];
    let spec = ExperimentSpec {
        name: req.name.clone(),
        scale: Scale::Test,
        workloads: vec![workload],
        cells: vec![CellSpec {
            workload: 0,
            label: c.label.clone(),
            transform: c.options.clone(),
            scheme: c.scheme,
            cfg: c.config.clone(),
        }],
    };
    (spec, p)
}

/// The benchmark's own references for the test-scale programs.
fn references(s: &mut Service) {
    s.refs = check::reference(&s.workloads).unwrap_or_else(|e| {
        eprintln!("perfbench: reference computation failed: {e}");
        std::process::exit(1);
    });
}

/// Every 200 reply against `stable_json` of the same spec run offline in a
/// separate cache; returns committed instructions per request.
fn check_replies(run: &Run, s: &Service, l: &Loop, first: usize, r: &mut Report) -> Vec<u64> {
    // Builtin and text requests of one program share profile and trace
    // keys but not golden digests; one cache each keeps the reference runs
    // from discarding each other's trace blobs.
    let caches = [
        sys::fresh_dir(&run.dir.join("offline-cache-builtin")),
        sys::fresh_dir(&run.dir.join("offline-cache-text")),
    ];
    let mut expected: BTreeMap<usize, (String, u64)> = BTreeMap::new();
    let mut committed = Vec::new();
    for (k, reply) in l.replies.iter().enumerate() {
        let i = first + k;
        let src = s.requests[i].repeat_of.unwrap_or(i);
        let (want, n) = expected
            .entry(src)
            .or_insert_with(|| {
                let (spec, p) = offline_spec(&s.requests[src].request, &s.workloads);
                let text = matches!(
                    s.requests[src].request.workloads[0],
                    WorkloadReq::Text { .. }
                );
                let res = run_experiment(
                    &spec,
                    &RunOptions {
                        jobs: 1,
                        cache_dir: Some(caches[usize::from(text)].clone()),
                        ..RunOptions::default()
                    },
                );
                let refs = [s.refs[p].clone()];
                match check::cell(&res.cells[0], spec.cells[0].cfg.commit_width, &refs[0]) {
                    Ok(()) => (stable_json(&res).to_pretty(), res.cells[0].stats.committed),
                    Err(e) => (format!("offline reference failed its check: {e}"), 0),
                }
            })
            .clone();
        committed.push(n);
        if let Some(body) = reply {
            if let Err(e) = check::identical(&format!("reply {i}"), body, want.as_bytes()) {
                r.check_failed(e);
            }
        }
    }
    committed
}

/// Each request class's share of the loop's op time, in percent.
fn class_shares(s: &Service, l: &Loop, first: usize) -> [f64; 3] {
    let mut secs = [0.0; 3];
    for (k, t) in l.secs.iter().enumerate() {
        secs[s.requests[first + k].class()] += t;
    }
    let total: f64 = secs.iter().sum();
    secs.map(|x| if total > 0.0 { 100.0 * x / total } else { 0.0 })
}

fn class_note(shares: &[f64; 3]) -> String {
    let parts: Vec<String> = gen::CLASSES
        .iter()
        .zip(shares)
        .map(|(c, x)| format!("{c} {x:.1}%"))
        .collect();
    format!("op time by request class: {}", parts.join(", "))
}

pub fn service_sweep(run: &Run) -> Report {
    let mut r = Report::new();
    let n = run.ops(REQUEST_S);
    let mut s = setup(run, SETUP_REPS, n);
    let mut conn = ClientConn::with_timeout(&s.addr, REQUEST_TIMEOUT);
    let l = closed_loop(&s, &mut conn, 0..n, &mut r);
    drop(conn);
    r.notes.push(class_note(&class_shares(&s, &l, 0)));
    let peak_rss_kb = sys::own_peak_rss_kb();
    let cache_bytes = sys::dir_bytes(&s.cache);
    references(&mut s);
    check_replies(run, &s, &l, 0, &mut r);
    s.handle.shutdown();
    EndToEnd {
        setup_secs: s.setup_secs,
        op_secs: l.secs,
        peak_rss_kb,
        cache_bytes,
    }
    .report(&mut r);
    r
}

pub fn service_sweep_traced(run: &Run, tr: &mut Tracer) -> (Report, BTreeMap<&'static str, f64>) {
    let mut r = Report::new();
    let n = run.ops(REQUEST_S);
    let half = n / 2;
    let mut s = setup(run, 1, n);
    references(&mut s);
    let mut conn = ClientConn::with_timeout(&s.addr, REQUEST_TIMEOUT);
    let l = closed_loop(&s, &mut conn, 0..half, &mut r);
    // The second half alternates: even requests are replayed traced, odd
    // ones through an off tracer, the untraced baseline of the same replay.
    let mut off = Tracer::off();
    let (mut traced_secs, mut untraced_secs) = (Vec::new(), Vec::new());
    let mut replies = Vec::new();
    let mut retries = l.retries;
    for i in half..n {
        let on = (i - half).is_multiple_of(2);
        let t0 = Instant::now();
        let (reply, tries) = replay_request(
            if on { &mut *tr } else { &mut off },
            &s,
            &mut conn,
            i,
            &mut r,
        );
        let t1 = Instant::now();
        let secs = t1.duration_since(t0).as_secs_f64();
        if on {
            tr.enclose(&format!("request {i}"), "op", t0, t1);
            traced_secs.push(secs);
        } else {
            untraced_secs.push(secs);
        }
        replies.push(reply);
        retries += tries;
    }
    let connections = conn.connections_opened();
    let daemon = daemon_metrics(&s.addr);
    drop(conn);
    let committed = check_replies(run, &s, &l, 0, &mut r);
    let replayed = Loop {
        secs: Vec::new(),
        replies,
        retries: 0,
    };
    check_replies(run, &s, &replayed, half, &mut r);
    let shares = class_shares(&s, &l, 0);
    s.handle.shutdown();

    let mut v = crate::layer_values(tr, traced_secs.len() as f64);
    r.notes.push(class_note(&shares));
    for (name, x) in [
        "server.request.new_share",
        "server.request.text_share",
        "server.request.repeat_share",
    ]
    .into_iter()
    .zip(shares)
    {
        v.insert(name, x);
    }
    v.insert("workloads.build_ms", stats::median(&s.build_secs) * 1e3);
    v.insert("server.connections", connections as f64);
    v.insert("server.retries", retries as f64);
    v.insert("req_p95_ms", stats::p95(&l.secs) * 1e3);
    let good: f64 = l
        .secs
        .iter()
        .zip(&l.replies)
        .filter(|(_, b)| b.is_some())
        .map(|(s, _)| s)
        .sum();
    if good > 0.0 {
        v.insert(
            "sim_mips",
            committed.iter().sum::<u64>() as f64 / good / 1e6,
        );
    }
    v.insert("trace.replay_ms", stats::median(&traced_secs) * 1e3);
    v.insert("trace.untraced_ms", stats::median(&untraced_secs) * 1e3);
    match daemon {
        Some((hits, misses, run_ms)) => {
            v.insert("harness.cache.hits", hits / n as f64);
            v.insert("harness.cache.lookups", (hits + misses) / n as f64);
            v.insert("harness.run_ms", run_ms);
        }
        None => r.notes.push("daemon /metrics unreadable".to_string()),
    }
    (r, v)
}

/// One request, layer by layer on the client side (what the daemon's
/// loop and worker do with it), then the real round trip.
fn replay_request(
    tr: &mut Tracer,
    s: &Service,
    conn: &mut ClientConn,
    i: usize,
    r: &mut Report,
) -> (Option<Vec<u8>>, u32) {
    let req = &s.requests[i];
    let (body, secs) = tr.span("request_to_json", "server", || {
        request_to_json(&req.request).to_compact()
    });
    tr.rate("harness.json.encode_mbps", body.len() as f64, secs);
    let raw = format!(
        "POST /run HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
        s.addr,
        body.len()
    );
    let (parsed, secs) = tr.span("http::try_parse", "server", || {
        http::try_parse(raw.as_bytes())
    });
    tr.rate("server.http.parse_mbps", raw.len() as f64, secs);
    if !matches!(parsed, http::Parsed::Complete { .. }) {
        r.check_failed(format!(
            "request {i}: http::try_parse rejected a well-formed request"
        ));
    }
    let (j, secs) = tr.span("json::parse request", "harness", || json::parse(&body));
    tr.rate("harness.json.parse_mbps.request", body.len() as f64, secs);
    let (decoded, secs) = tr.span("request_from_json", "server", || {
        j.and_then(|j| request_from_json(&j))
    });
    tr.sample("server.protocol.decode_us", secs * 1e6);
    if let Ok(decoded) = decoded {
        let (_, secs) = tr.span("to_spec", "server", || protocol::to_spec(&decoded));
        tr.sample("server.protocol.to_spec_us", secs * 1e6);
        if let WorkloadReq::Text { program, .. } = &decoded.workloads[0] {
            let (_, secs) = tr.span("parse_program", "ir", || {
                guardspec_ir::parse::parse_program(program, None)
            });
            tr.rate("ir.parse_mbps", program.len() as f64, secs);
        }
    }
    let hit = req.repeat_of.is_some();
    let ((resp, tries), secs) = tr.span("POST /run", "server", || post(conn, body.as_bytes()));
    r.attempted += 1;
    let class = if hit {
        "server.request.hit_p50_ms"
    } else {
        "server.request.miss_p50_ms"
    };
    tr.sample(class, secs * 1e3);
    match resp {
        Ok(resp) if resp.status == 200 => {
            let text = String::from_utf8_lossy(&resp.body).into_owned();
            let (_, secs) = tr.span("json::parse artifact", "harness", || json::parse(&text));
            tr.rate("harness.json.parse_mbps.artifact", text.len() as f64, secs);
            (Some(resp.body), tries)
        }
        other => {
            r.failed += 1;
            r.notes
                .push(format!("request {i}: {:?}", other.map(|x| x.status)));
            (None, tries)
        }
    }
}

/// The daemon's cache hits and misses and its mean `run_experiment` ms,
/// read from `GET /metrics` (JSON form).
fn daemon_metrics(addr: &str) -> Option<(f64, f64, f64)> {
    let (status, body) = http::get_json(addr, "/metrics").ok()?;
    if status != 200 {
        return None;
    }
    let j = json::parse(&body).ok()?;
    let num = |j: &Json, k: &str| j.get(k).and_then(Json::as_u64).unwrap_or(0) as f64;
    let counters = j.get("counters")?;
    let executed = num(counters, "jobs.executed").max(1.0);
    Some((
        num(&j, "cache_hits"),
        num(&j, "cache_misses"),
        num(counters, "jobs.wall_us") / executed / 1e3,
    ))
}
