//! The offline workloads: `paper-cold`, `config-sweep` and `warm-rerun`,
//! each timed through `run_experiment`, plus their layer-by-layer replays
//! for the traced mode and the child-process entry points.

use crate::check::{self, ProgramRef};
use crate::child::{self, Outcome};
use crate::gen::{self, Rng};
use crate::tracer::Tracer;
use crate::{stats, sys, EndToEnd, Report, Run};
use guardspec_core::DriverOptions;
use guardspec_harness::codec;
use guardspec_harness::json::{self, Json};
use guardspec_harness::key;
use guardspec_harness::{
    run_experiment, stable_json, DiskCache, ExperimentResult, ExperimentSpec, RunOptions,
};
use guardspec_interp::{tracefile, ChunkRecorder, Interp, Profiler, SharedTrace, StaticLayout};
use guardspec_predict::Scheme;
use guardspec_sim::{
    simulate_compiled_shared_in, simulate_sampled_in, CompiledProgram, MachineConfig, SampleParams,
    SimContext,
};
use guardspec_workloads::{Scale, Workload};
use std::collections::{BTreeMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

/// Set-up is repeated this often per run and its median reported: often
/// where one set-up takes milliseconds (paper-cold), less where it fills a
/// cache (config-sweep, about 1 s) or is a cold run (warm-rerun, about 3 s).
const CHEAP_SETUP_REPS: usize = 25;
const SWEEP_SETUP_REPS: usize = 5;
const WARM_SETUP_REPS: usize = 3;
/// Nominal op lengths, measured on a 2-core x86-64 box, which fix the op
/// count per run.
const PAPER_OP_S: f64 = 3.6;
const SWEEP_OP_S: f64 = 2.4;
const WARM_OP_S: f64 = 3.5;
/// Machine configurations per `config-sweep` op: 4 programs x 2 schemes
/// x 4 configurations = 32 cells.
const SWEEP_CONFIGS: usize = 4;
const SWEEP_SCHEMES: [Scheme; 2] = [Scheme::TwoBit, Scheme::Perfect];

/// The fault every warm rerun runs into.
pub const JSON_FAULT: &str = "Parser::string in crates/harness/src/json.rs runs from_utf8 over \
the whole rest of the buffer for every character, so parsing the multi-MB transform cache \
entries is quadratic";

fn options(cache: &Path, sample: Option<SampleParams>) -> RunOptions {
    RunOptions {
        jobs: 1,
        cache_dir: Some(cache.to_path_buf()),
        sample,
        ..RunOptions::default()
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

/// Run one op, turning a panic (the harness's own golden assertion) into
/// an error.
fn attempt<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "op panicked".to_string())
    })
}

fn copy_workloads(ws: &[Workload]) -> Vec<Workload> {
    ws.iter()
        .map(|w| Workload {
            name: w.name,
            description: w.description,
            program: w.program.clone(),
            expected: w.expected.clone(),
        })
        .collect()
}

fn reference_or_exit(ws: &[Workload]) -> Vec<ProgramRef> {
    check::reference(ws).unwrap_or_else(|e| {
        eprintln!("perfbench: reference computation failed: {e}");
        std::process::exit(1);
    })
}

/// Committed instructions a result's cells stand for (sampled cells count
/// the whole trace they estimate).
fn committed(r: &ExperimentResult) -> u64 {
    r.cells
        .iter()
        .map(|c| {
            c.sampling
                .as_ref()
                .map_or(c.stats.committed, |s| s.total_entries)
        })
        .sum()
}

/// Every cell of `r` against the references.
fn check_cells(
    r: &ExperimentResult,
    spec: &ExperimentSpec,
    refs: &[ProgramRef],
) -> Result<(), String> {
    for (c, cs) in r.cells.iter().zip(&spec.cells) {
        check::cell(c, cs.cfg.commit_width, &refs[cs.workload])?;
    }
    for (w, rf) in r.workloads.iter().zip(refs) {
        if w.profile.retired != rf.retired {
            return Err(format!(
                "{}: profile retired {} != {}",
                w.name, w.profile.retired, rf.retired
            ));
        }
    }
    Ok(())
}

/// Per op: its time, and whether it is still counted as good.
struct Ops {
    secs: Vec<f64>,
    ok: Vec<bool>,
    committed: u64,
    /// Peak RSS read right after the ops, before any check ran.
    peak_rss_kb: u64,
}

impl Ops {
    fn new() -> Ops {
        Ops {
            secs: Vec::new(),
            ok: Vec::new(),
            committed: 0,
            peak_rss_kb: 0,
        }
    }

    /// Mark op `i` failed by a check (once).
    fn fail(&mut self, r: &mut Report, i: usize, why: String) {
        if std::mem::replace(&mut self.ok[i], false) {
            r.check_failed(why);
        }
    }
}

// --- paper-cold -------------------------------------------------------------

struct Cold {
    spec: ExperimentSpec,
    refs: Vec<ProgramRef>,
    setup_secs: Vec<f64>,
}

fn cold_setup(reps: usize) -> Cold {
    let mut setup_secs = Vec::new();
    let mut spec = None;
    for _ in 0..reps {
        let (s, t) = timed(|| ExperimentSpec::three_schemes("table4", Scale::Paper));
        setup_secs.push(t);
        spec = Some(s);
    }
    Cold {
        spec: spec.expect("at least one set-up"),
        refs: Vec::new(),
        setup_secs,
    }
}

/// `n` cold table4 runs, each into an empty cache; then the references
/// (into `c.refs`) and the checks.
fn cold_ops(run: &Run, c: &mut Cold, n: usize, r: &mut Report) -> (Ops, u64) {
    let mut ops = Ops::new();
    let mut cache_bytes = 0;
    // Held-out cells: one scheme per program, drawn from the seed.
    let mut rng = Rng::new(run.seed);
    let held: Vec<usize> = (0..c.spec.workloads.len())
        .map(|w| w * Scheme::ALL.len() + rng.below(Scheme::ALL.len()))
        .collect();
    let mut results = Vec::new();
    for _ in 0..n {
        let cache = sys::fresh_dir(&run.dir.join("cold"));
        let (res, secs) = timed(|| attempt(|| run_experiment(&c.spec, &options(&cache, None))));
        r.attempted += 1;
        ops.secs.push(secs);
        ops.ok.push(true);
        cache_bytes = sys::dir_bytes(&cache);
        results.push(res);
    }
    ops.peak_rss_kb = sys::own_peak_rss_kb();
    c.refs = reference_or_exit(&c.spec.workloads);
    let mut held_stats = Vec::new();
    for (i, res) in results.into_iter().enumerate() {
        match res {
            Ok(res) => {
                if let Err(e) = check_cells(&res, &c.spec, &c.refs) {
                    ops.fail(r, i, format!("op {i}: {e}"));
                }
                ops.committed += committed(&res);
                let held: Vec<_> = held.iter().map(|&ci| res.cells[ci].stats.clone()).collect();
                held_stats.push((i, held));
            }
            Err(e) => ops.fail(r, i, format!("op {i}: {e}")),
        }
    }
    // The interpreted reference pipeline over the held-out cells.
    let hspec = ExperimentSpec {
        name: "held-out".to_string(),
        scale: c.spec.scale,
        workloads: copy_workloads(&c.spec.workloads),
        cells: held.iter().map(|&ci| c.spec.cells[ci].clone()).collect(),
    };
    let reference = attempt(|| {
        run_experiment(
            &hspec,
            &RunOptions {
                jobs: 1,
                cache_dir: None,
                compile: false,
                ..RunOptions::default()
            },
        )
    });
    match reference {
        Ok(reference) => {
            for (i, got) in held_stats {
                for (k, st) in got.iter().enumerate() {
                    let what = format!(
                        "op {i} held-out {}/{}",
                        reference.cells[k].workload, reference.cells[k].label
                    );
                    if let Err(e) = check::same_stats(&what, st, &reference.cells[k].stats) {
                        ops.fail(r, i, e);
                    }
                }
            }
        }
        Err(e) => {
            r.correct = false;
            r.notes
                .push(format!("interpreted reference pipeline failed: {e}"));
        }
    }
    (ops, cache_bytes)
}

pub fn paper_cold(run: &Run) -> Report {
    let mut r = Report::new();
    let mut c = cold_setup(CHEAP_SETUP_REPS);
    let (ops, cache_bytes) = cold_ops(run, &mut c, run.ops(PAPER_OP_S), &mut r);
    EndToEnd {
        setup_secs: c.setup_secs,
        op_secs: ops.secs,
        peak_rss_kb: ops.peak_rss_kb,
        cache_bytes,
    }
    .report(&mut r);
    r
}

pub fn paper_cold_traced(run: &Run, tr: &mut Tracer) -> (Report, BTreeMap<&'static str, f64>) {
    let mut r = Report::new();
    let mut c = cold_setup(1);
    let n = (run.ops(PAPER_OP_S) / 2).max(1);
    let (ops, _) = cold_ops(run, &mut c, n, &mut r);
    let replays = replay_pairs(tr, n, "paper-cold", |tr| {
        let cache = DiskCache::new(sys::fresh_dir(&run.dir.join("replay")));
        replay_cold(tr, &c, &cache, &mut r);
    });
    let mut v = crate::layer_values(tr, n as f64);
    let transform_ms: f64 = gen::PROGRAMS
        .iter()
        .map(|p| {
            v.get(format!("core.transform_ms.{p}").as_str())
                .copied()
                .unwrap_or(0.0)
        })
        .sum();
    v.insert("core.transform_ms", transform_ms);
    offline_values(&mut v, &c.setup_secs, &ops, &replays);
    (r, v)
}

/// Replay `n` ops twice over, alternating a pass through an off tracer
/// with a traced pass, so that the two differ only in the tracing; returns
/// the (traced, untraced) times.
fn replay_pairs(
    tr: &mut Tracer,
    n: usize,
    what: &str,
    mut replay: impl FnMut(&mut Tracer),
) -> (Vec<f64>, Vec<f64>) {
    let mut off = Tracer::off();
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    for i in 0..n {
        untraced.push(timed(|| replay(&mut off)).1);
        let t0 = Instant::now();
        replay(tr);
        let t1 = Instant::now();
        tr.enclose(&format!("{what} replay {i}"), "op", t0, t1);
        traced.push(t1.duration_since(t0).as_secs_f64());
    }
    (traced, untraced)
}

/// Values every traced offline workload reports from its untraced ops and
/// its (traced, untraced) replays.
fn offline_values(
    v: &mut BTreeMap<&'static str, f64>,
    build: &[f64],
    ops: &Ops,
    (traced, untraced): &(Vec<f64>, Vec<f64>),
) {
    v.insert("workloads.build_ms", stats::median(build) * 1e3);
    v.insert("harness.run_ms", stats::median(&ops.secs) * 1e3);
    let good: f64 = ops
        .secs
        .iter()
        .zip(&ops.ok)
        .filter(|(_, ok)| **ok)
        .map(|(s, _)| s)
        .sum();
    if good > 0.0 {
        v.insert("sim_mips", ops.committed as f64 / good / 1e6);
    }
    v.insert("trace.replay_ms", stats::median(traced) * 1e3);
    v.insert("trace.untraced_ms", stats::median(untraced) * 1e3);
}

/// Look a key up the way the runner does, counting the lookup, the hit
/// and the bytes read.
fn get_text(tr: &mut Tracer, cache: &DiskCache, k: &str) -> Option<String> {
    let (v, secs) = tr.span("DiskCache::get", "harness", || cache.get(k));
    lookup(tr, v.as_ref().map(String::len), secs);
    v
}

fn get_blob(tr: &mut Tracer, cache: &DiskCache, k: &str) -> Option<Vec<u8>> {
    let (v, secs) = tr.span("DiskCache::get_bytes", "harness", || cache.get_bytes(k));
    lookup(tr, v.as_ref().map(Vec::len), secs);
    v
}

fn lookup(tr: &mut Tracer, hit_bytes: Option<usize>, secs: f64) {
    tr.count("harness.cache.lookups", 1.0);
    if let Some(n) = hit_bytes {
        tr.count("harness.cache.hits", 1.0);
        tr.rate("harness.cache.get_mbps", n as f64, secs);
    }
}

fn put_text(tr: &mut Tracer, cache: &DiskCache, k: &str, v: &str) {
    let (_, secs) = tr.span("DiskCache::put", "harness", || cache.put(k, v));
    tr.rate("harness.cache.put_mbps", v.len() as f64, secs);
}

fn put_blob(tr: &mut Tracer, cache: &DiskCache, k: &str, v: &[u8]) {
    let (_, secs) = tr.span("DiskCache::put_bytes", "harness", || cache.put_bytes(k, v));
    tr.rate("harness.cache.put_mbps", v.len() as f64, secs);
}

fn encode_json(tr: &mut Tracer, what: &str, j: impl FnOnce() -> Json) -> String {
    let (s, secs) = tr.span(&format!("json encode {what}"), "harness", || {
        j().to_compact()
    });
    tr.rate("harness.json.encode_mbps", s.len() as f64, secs);
    s
}

fn print_program(tr: &mut Tracer, p: &guardspec_ir::Program) -> String {
    let (text, secs) = tr.span("ir print", "ir", || p.to_string());
    tr.rate("ir.print_mbps", text.len() as f64, secs);
    text
}

/// Record `p`'s trace blob in the cache, as a cold run does.
fn store_trace(
    tr: &mut Tracer,
    cache: &DiskCache,
    p: &guardspec_ir::Program,
    text: &str,
    t: &SharedTrace,
) {
    let layout = StaticLayout::build(p);
    let (blob, secs) = tr.span("tracefile::encode", "interp", || {
        tracefile::encode(&layout, t.iter(), 0)
    });
    tr.rate("interp.tracefile.encode_mbps", blob.len() as f64, secs);
    put_blob(tr, cache, &key::trace_key(text, Scale::Paper), &blob);
}

fn compile(tr: &mut Tracer, p: &guardspec_ir::Program) -> CompiledProgram {
    let (comp, secs) = tr.span("CompiledProgram::build", "sim", || {
        CompiledProgram::build(p)
    });
    tr.sample("sim.compile_us", secs * 1e6);
    comp
}

/// One cold table4 run, stage by stage through the layers' own functions.
fn replay_cold(tr: &mut Tracer, c: &Cold, cache: &DiskCache, r: &mut Report) {
    let cfg = MachineConfig::r10000();
    let mut ctx = SimContext::default();
    for (w, rf) in c.spec.workloads.iter().zip(&c.refs) {
        let text = print_program(tr, &w.program);
        let _ = get_text(tr, cache, &key::profile_key(&text, Scale::Paper));
        let _ = get_blob(tr, cache, &key::trace_key(&text, Scale::Paper));
        let mut profiler = Profiler::new(&w.program);
        let mut rec = ChunkRecorder::new(&w.program);
        let (exec, secs) = tr.span(
            &format!("interp profile+trace {}", w.name),
            "interp",
            || Interp::new(&w.program).run_with(&mut (&mut profiler, &mut rec)),
        );
        tr.count("interp.interpretations", 1.0);
        match exec {
            Ok(e) => {
                tr.rate("interp.profile_mips", e.summary.retired as f64, secs);
                if let Err(e) = check::golden(w, &e.machine.mem, "replayed base") {
                    r.check_failed(e);
                }
            }
            Err(e) => r.check_failed(format!("{}: replay interpretation failed: {e}", w.name)),
        }
        let profile = profiler.finish();
        let base_trace = rec.finish();
        let pjson = encode_json(tr, "profile", || codec::profile_to_json(&profile));
        put_text(tr, cache, &key::profile_key(&text, Scale::Paper), &pjson);
        store_trace(tr, cache, &w.program, &text, &base_trace);

        let opts = DriverOptions::proposed();
        let tkey = key::transform_key(&text, Scale::Paper, &opts);
        let _ = get_text(tr, cache, &tkey);
        let mut t = w.program.clone();
        let (report, secs) = tr.span(&format!("transform_program {}", w.name), "core", || {
            guardspec_core::transform_program(&mut t, &profile, &opts)
        });
        tr.sample(&format!("core.transform_ms.{}", w.name), secs * 1e3);
        let ttext = print_program(tr, &t);
        let (words, secs) = tr.span("encode_program", "ir", || {
            guardspec_ir::encode::encode_program(&t)
        });
        tr.rate("ir.encode_mbps", (words.len() * 4) as f64, secs);
        // What a warm run decodes from the entry's `bin` field.
        let (back, secs) = tr.span("decode_program", "ir", || {
            guardspec_ir::encode::decode_program(&words)
        });
        tr.rate("ir.decode_mbps", (words.len() * 4) as f64, secs);
        if back.map(|p| p.to_string()).as_deref() != Ok(ttext.as_str()) {
            r.check_failed(format!(
                "{}: transformed program does not survive encode/decode",
                w.name
            ));
        }
        let summary = codec::ReportSummary::from(&report);
        let entry = encode_json(tr, "transform", || {
            Json::obj(vec![
                ("program", Json::str(&ttext)),
                ("bin", Json::str(codec::words_to_hex(&words))),
                ("report", codec::report_to_json(&summary)),
            ])
        });
        put_text(tr, cache, &tkey, &entry);

        let _ = get_blob(tr, cache, &key::trace_key(&ttext, Scale::Paper));
        let mut rec = ChunkRecorder::new(&t);
        let (exec, secs) = tr.span(&format!("interp trace {}", w.name), "interp", || {
            Interp::new(&t).run_with(&mut rec)
        });
        tr.count("interp.interpretations", 1.0);
        match exec {
            Ok(e) => {
                tr.rate("interp.trace_mips", e.summary.retired as f64, secs);
                if let Err(e) = check::golden(w, &e.machine.mem, "replayed transformed") {
                    r.check_failed(e);
                }
            }
            Err(e) => r.check_failed(format!("{}: replay trace failed: {e}", w.name)),
        }
        let tx_trace = rec.finish();
        store_trace(tr, cache, &t, &ttext, &tx_trace);

        let base_comp = compile(tr, &w.program);
        let tx_comp = compile(tr, &t);
        for scheme in Scheme::ALL {
            let (comp, trace, text, want) = if scheme == Scheme::Proposed {
                (&tx_comp, &tx_trace, &ttext, rf.transformed_retired)
            } else {
                (&base_comp, &base_trace, &text, rf.retired)
            };
            let skey = key::sim_key(text, Scale::Paper, scheme, &cfg);
            let _ = get_text(tr, cache, &skey);
            let (stats, secs) = tr.span(
                &format!("simulate {}/{}", w.name, scheme.label()),
                "sim",
                || simulate_compiled_shared_in(&mut ctx, comp, trace, scheme, &cfg),
            );
            match stats {
                Ok(s) => {
                    tr.rate("sim.exact_mips", s.committed as f64, secs);
                    if s.committed_total != want || s.ipc() > cfg.commit_width as f64 {
                        r.check_failed(format!(
                            "{}/{}: replayed cell out of bounds",
                            w.name,
                            scheme.label()
                        ));
                    }
                    let sj = encode_json(tr, "sim", || codec::stats_to_json(&s));
                    put_text(tr, cache, &skey, &sj);
                }
                Err(e) => r.check_failed(format!(
                    "{}/{}: replay simulate failed: {e}",
                    w.name,
                    scheme.label()
                )),
            }
        }
    }
}

// --- config-sweep -----------------------------------------------------------

struct Sweep {
    workloads: Vec<Workload>,
    refs: Vec<ProgramRef>,
    cache: PathBuf,
    setup_secs: Vec<f64>,
    build_secs: Vec<f64>,
}

/// Build the programs and fill a cache with their profiles and traces (one
/// exact R10000 2-bit cell each, a configuration no op draws as sampled).
fn sweep_setup(run: &Run, reps: usize) -> Sweep {
    let cache = run.dir.join("sweep-cache");
    let (mut setup_secs, mut build_secs) = (Vec::new(), Vec::new());
    let mut workloads = Vec::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        let (mut spec, build) =
            timed(|| ExperimentSpec::profiles_only("config-sweep-setup", Scale::Paper));
        build_secs.push(build);
        for w in 0..spec.workloads.len() {
            spec.push_cell(w, "fill", None, Scheme::TwoBit, MachineConfig::r10000());
        }
        run_experiment(&spec, &options(&sys::fresh_dir(&cache), None));
        setup_secs.push(t0.elapsed().as_secs_f64());
        workloads = spec.workloads;
    }
    Sweep {
        workloads,
        refs: Vec::new(),
        cache,
        setup_secs,
        build_secs,
    }
}

fn sweep_spec(ws: &[Workload], configs: &[MachineConfig]) -> ExperimentSpec {
    let mut spec = ExperimentSpec {
        name: "config-sweep".to_string(),
        scale: Scale::Paper,
        workloads: copy_workloads(ws),
        cells: Vec::new(),
    };
    for w in 0..ws.len() {
        for scheme in SWEEP_SCHEMES {
            for (k, cfg) in configs.iter().enumerate() {
                spec.push_cell(
                    w,
                    format!("{}/cfg{k}", scheme.label()),
                    None,
                    scheme,
                    cfg.clone(),
                );
            }
        }
    }
    spec
}

/// `n` sweep ops; then the references (into `s.refs`) and the checks.
fn sweep_ops(
    s: &mut Sweep,
    rng: &mut Rng,
    seen: &mut HashSet<String>,
    n: usize,
    r: &mut Report,
) -> Ops {
    let mut ops = Ops::new();
    let mut specs = Vec::new();
    let mut results = Vec::new();
    for _ in 0..n {
        let spec = sweep_spec(&s.workloads, &gen::fresh_configs(rng, seen, SWEEP_CONFIGS));
        let opts = options(&s.cache, Some(SampleParams::default()));
        let (res, secs) = timed(|| attempt(|| run_experiment(&spec, &opts)));
        r.attempted += 1;
        ops.secs.push(secs);
        ops.ok.push(true);
        results.push(res);
        specs.push(spec);
    }
    ops.peak_rss_kb = sys::own_peak_rss_kb();
    s.refs = reference_or_exit(&s.workloads);
    let results: Vec<Option<ExperimentResult>> = results
        .into_iter()
        .enumerate()
        .map(|(i, res)| match res {
            Ok(res) => {
                if let Err(e) = check_cells(&res, &specs[i], &s.refs) {
                    ops.fail(r, i, format!("op {i}: {e}"));
                }
                ops.committed += committed(&res);
                Some(res)
            }
            Err(e) => {
                ops.fail(r, i, format!("op {i}: {e}"));
                None
            }
        })
        .collect();
    // Held-out cells, one per program, drawn from the seed: exact compiled
    // and interpreted reference runs in caches of their own must agree,
    // and the sampled interval must cover the exact IPC.
    let picks: Vec<(usize, usize)> = (0..s.workloads.len())
        .map(|w| {
            (
                rng.below(n),
                w * SWEEP_SCHEMES.len() * SWEEP_CONFIGS
                    + rng.below(SWEEP_SCHEMES.len() * SWEEP_CONFIGS),
            )
        })
        .collect();
    let held = |compile: bool| {
        let spec = ExperimentSpec {
            name: "held-out".to_string(),
            scale: Scale::Paper,
            workloads: copy_workloads(&s.workloads),
            cells: picks
                .iter()
                .map(|&(i, ci)| specs[i].cells[ci].clone())
                .collect(),
        };
        attempt(|| {
            run_experiment(
                &spec,
                &RunOptions {
                    jobs: 1,
                    cache_dir: None,
                    compile,
                    ..RunOptions::default()
                },
            )
        })
    };
    match (held(true), held(false)) {
        (Ok(exact), Ok(interp)) => {
            for (k, &(i, ci)) in picks.iter().enumerate() {
                let what = format!(
                    "op {i} held-out {}/{}",
                    exact.cells[k].workload, exact.cells[k].label
                );
                let mut verdict =
                    check::same_stats(&what, &exact.cells[k].stats, &interp.cells[k].stats);
                if let Some(res) = &results[i] {
                    let smp = res.cells[ci].sampling.as_ref();
                    verdict = verdict.and_then(|_| match smp {
                        Some(smp) => check::ci_covers(&what, smp, exact.cells[k].stats.ipc()),
                        None => Err(format!("{what}: sampled cell has no estimate")),
                    });
                }
                if let Err(e) = verdict {
                    ops.fail(r, i, e);
                }
            }
        }
        (a, b) => {
            r.correct = false;
            r.notes.push(format!(
                "held-out reference runs failed: {:?} / {:?}",
                a.err(),
                b.err()
            ));
        }
    }
    ops
}

pub fn config_sweep(run: &Run) -> Report {
    let mut r = Report::new();
    let mut s = sweep_setup(run, SWEEP_SETUP_REPS);
    let mut rng = Rng::new(run.seed);
    let ops = sweep_ops(
        &mut s,
        &mut rng,
        &mut HashSet::new(),
        run.ops(SWEEP_OP_S),
        &mut r,
    );
    EndToEnd {
        setup_secs: s.setup_secs,
        op_secs: ops.secs,
        peak_rss_kb: ops.peak_rss_kb,
        cache_bytes: sys::dir_bytes(&s.cache),
    }
    .report(&mut r);
    r
}

pub fn config_sweep_traced(run: &Run, tr: &mut Tracer) -> (Report, BTreeMap<&'static str, f64>) {
    let mut r = Report::new();
    let mut s = sweep_setup(run, 1);
    let mut rng = Rng::new(run.seed);
    let mut seen = HashSet::new();
    let n = (run.ops(SWEEP_OP_S) / 2).max(1);
    let ops = sweep_ops(&mut s, &mut rng, &mut seen, n, &mut r);
    let cache = DiskCache::new(&s.cache);
    let replays = replay_pairs(tr, n, "config-sweep", |tr| {
        let configs = gen::fresh_configs(&mut rng, &mut seen, SWEEP_CONFIGS);
        replay_sweep(tr, &s, &cache, &configs, &mut r);
    });
    let mut v = crate::layer_values(tr, n as f64);
    offline_values(&mut v, &s.build_secs, &ops, &replays);
    (r, v)
}

/// Decode a cached profile entry the way a warm run does.
fn load_profile(
    tr: &mut Tracer,
    cache: &DiskCache,
    text: &str,
) -> Option<guardspec_interp::Profile> {
    let src = get_text(tr, cache, &key::profile_key(text, Scale::Paper))?;
    let (j, _) = tr.span_rate(
        "json::parse profile",
        "harness",
        "harness.json.parse_mbps.profile",
        src.len() as f64,
        || json::parse(&src),
    );
    let (p, _) = tr.span("codec::profile_from_json", "harness", || {
        codec::profile_from_json(&j.ok()?).ok()
    });
    p
}

fn load_trace(tr: &mut Tracer, cache: &DiskCache, text: &str) -> Option<SharedTrace> {
    let blob = get_blob(tr, cache, &key::trace_key(text, Scale::Paper))?;
    let (d, _) = tr.span_rate(
        "tracefile::decode",
        "interp",
        "interp.tracefile.decode_mbps",
        blob.len() as f64,
        || tracefile::decode(&blob),
    );
    d.ok().map(|d| d.trace)
}

/// One sweep op, layer by layer: cached profile and trace in, sampled
/// simulations out.
fn replay_sweep(
    tr: &mut Tracer,
    s: &Sweep,
    cache: &DiskCache,
    configs: &[MachineConfig],
    r: &mut Report,
) {
    let mut ctx = SimContext::default();
    let params = SampleParams::default();
    for (w, rf) in s.workloads.iter().zip(&s.refs) {
        let text = print_program(tr, &w.program);
        let profile = load_profile(tr, cache, &text);
        let trace = load_trace(tr, cache, &text);
        let (Some(profile), Some(trace)) = (profile, trace) else {
            r.check_failed(format!("{}: set-up cache entries did not load", w.name));
            continue;
        };
        if profile.retired != rf.retired {
            r.check_failed(format!(
                "{}: cached profile retired {} != {}",
                w.name, profile.retired, rf.retired
            ));
        }
        let comp = compile(tr, &w.program);
        for scheme in SWEEP_SCHEMES {
            for cfg in configs {
                let skey =
                    key::sampled_sim_key(&text, Scale::Paper, scheme, cfg, &params.normalized());
                let _ = get_text(tr, cache, &skey);
                let (out, secs) = tr.span(
                    &format!("simulate_sampled {}/{}", w.name, scheme.label()),
                    "sim",
                    || simulate_sampled_in(&mut ctx, &comp, &trace, scheme, cfg, params),
                );
                match out {
                    Ok((stats, smp)) => {
                        tr.rate("sim.sampled_mips", smp.total_entries as f64, secs);
                        tr.count("sim.sampled_windows", smp.windows as f64);
                        if smp.total_entries != rf.retired || smp.ipc_ci95 <= 0.0 {
                            r.check_failed(format!(
                                "{}/{}: replayed sampled cell out of bounds",
                                w.name,
                                scheme.label()
                            ));
                        }
                        let j = encode_json(tr, "sim", || {
                            Json::obj(vec![
                                ("stats", codec::stats_to_json(&stats)),
                                ("sampling", codec::sample_to_json(&smp)),
                            ])
                        });
                        put_text(tr, cache, &skey, &j);
                    }
                    Err(e) => {
                        r.check_failed(format!("{}: replay sampled simulate failed: {e}", w.name))
                    }
                }
            }
        }
    }
}

// --- warm-rerun -------------------------------------------------------------

struct Warm {
    cache: PathBuf,
    cold_json: String,
    deadline: Duration,
    cold_secs: Vec<f64>,
    setup_secs: Vec<f64>,
    build_secs: Vec<f64>,
}

/// Fill a cache with a cold table4 run; the median cold time is the
/// deadline of every rerun against it.
fn warm_setup(run: &Run, reps: usize) -> Warm {
    let cache = run.dir.join("warm-cache");
    let (mut setup_secs, mut build_secs, mut cold_secs) = (Vec::new(), Vec::new(), Vec::new());
    let mut cold_json = String::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        let (spec, build) = timed(|| ExperimentSpec::three_schemes("table4", Scale::Paper));
        build_secs.push(build);
        let opts = options(&sys::fresh_dir(&cache), None);
        let (res, cold) = timed(|| run_experiment(&spec, &opts));
        setup_secs.push(t0.elapsed().as_secs_f64());
        cold_secs.push(cold);
        cold_json = stable_json(&res).to_pretty();
    }
    Warm {
        cache,
        cold_json,
        deadline: Duration::from_secs_f64(stats::median(&cold_secs)),
        cold_secs,
        setup_secs,
        build_secs,
    }
}

fn child_cmd(args: &[&str]) -> Command {
    let exe = std::env::current_exe().expect("the benchmark knows its own executable");
    let mut cmd = Command::new(exe);
    cmd.arg("child").args(args);
    cmd
}

fn warm_ops(run: &Run, w: &Warm, n: usize, r: &mut Report) -> (Ops, u64) {
    let mut ops = Ops::new();
    let mut peak = 0;
    let mut stopped = 0;
    for i in 0..n {
        let out = run.dir.join(format!("rerun-{i}.json"));
        let cache = w.cache.display().to_string();
        let op = child::run(
            child_cmd(&["rerun", &cache, &out.display().to_string()]),
            w.deadline,
            |_, _, _| {},
        );
        r.attempted += 1;
        ops.secs.push(op.secs);
        ops.ok.push(true);
        peak = peak.max(op.peak_rss_kb);
        match op.outcome {
            Outcome::Done => {
                let got = std::fs::read(&out).unwrap_or_default();
                match check::identical(&format!("rerun {i}"), &got, w.cold_json.as_bytes()) {
                    Ok(()) => ops.committed += cold_committed(&w.cold_json),
                    Err(e) => ops.fail(r, i, e),
                }
            }
            Outcome::Stopped => {
                stopped += 1;
                r.failed += 1;
                ops.ok[i] = false;
            }
            Outcome::Broken(why) => {
                r.failed += 1;
                ops.ok[i] = false;
                r.notes.push(format!("rerun {i} broke: {why}"));
            }
        }
    }
    let cold: Vec<String> = w
        .cold_secs
        .iter()
        .map(|s| format!("{:.0}", s * 1e3))
        .collect();
    r.notes
        .push(format!("set-up cold runs (ms): {}", cold.join(" ")));
    if stopped > 0 {
        r.notes.push(format!(
            "warm-rerun: {stopped} of {n} reruns stopped at their {:.2} s deadline (the cold run's time); \
             fault: {JSON_FAULT}",
            w.deadline.as_secs_f64()
        ));
    }
    (ops, peak)
}

/// Committed instructions of the cells in a stable artifact.
fn cold_committed(stable: &str) -> u64 {
    json::parse(stable)
        .ok()
        .and_then(|j| {
            j.get("cells")?
                .as_arr()?
                .iter()
                .map(|c| c.get("stats")?.get("committed")?.as_u64())
                .sum::<Option<u64>>()
        })
        .unwrap_or(0)
}

pub fn warm_rerun(run: &Run) -> Report {
    let mut r = Report::new();
    let w = warm_setup(run, WARM_SETUP_REPS);
    let (ops, child_peak) = warm_ops(run, &w, run.ops(WARM_OP_S), &mut r);
    EndToEnd {
        setup_secs: w.setup_secs.clone(),
        op_secs: ops.secs,
        // The reruns' own peak: this process's covers set-up's cold runs.
        peak_rss_kb: child_peak,
        cache_bytes: sys::dir_bytes(&w.cache),
    }
    .report(&mut r);
    r
}

pub fn warm_rerun_traced(run: &Run, tr: &mut Tracer) -> (Report, BTreeMap<&'static str, f64>) {
    let mut r = Report::new();
    let w = warm_setup(run, 1);
    let n = (run.ops(WARM_OP_S) / 2).max(1);
    let (ops, _) = warm_ops(run, &w, n, &mut r);
    let cache = w.cache.display().to_string();
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let mut stopped = 0.0;
    for i in 0..n {
        // The untraced half: the same replay through an off tracer.
        let op = child::run(child_cmd(&["replay-off", &cache]), w.deadline, |_, _, _| {});
        untraced.push(op.secs);
        let mut origin = None;
        let op = child::run(
            child_cmd(&["replay", &cache]),
            w.deadline,
            |line, at, started| {
                let offset = *origin.get_or_insert_with(|| tr.us(started));
                tr.apply_line(line, at, offset);
            },
        );
        let Some(t0) = op.started else {
            r.notes
                .push(format!("warm replay {i} never started: {:?}", op.outcome));
            continue;
        };
        let t1 = t0 + Duration::from_secs_f64(op.secs);
        traced.push(op.secs);
        match op.outcome {
            Outcome::Stopped => {
                stopped += 1.0;
                let call = tr.stop_child(t1).unwrap_or_else(|| "no call".to_string());
                r.notes.push(format!(
                    "warm replay {i} stopped at its {:.2} s deadline inside `{call}`; fault: {JSON_FAULT}",
                    w.deadline.as_secs_f64()
                ));
            }
            Outcome::Done => r
                .notes
                .push(format!("warm replay {i} finished in {:.2} s", op.secs)),
            Outcome::Broken(why) => r.notes.push(format!("warm replay {i} broke: {why}")),
        }
    }
    let mut v = crate::layer_values(tr, n as f64);
    offline_values(&mut v, &w.build_secs, &ops, &(traced, untraced));
    v.insert("trace.stopped_ops", stopped);
    (r, v)
}

/// A warm table4 rerun, layer by layer, streamed to the parent.
fn replay_warm(tr: &mut Tracer, spec: &ExperimentSpec, cache: &DiskCache) {
    let cfg = MachineConfig::r10000();
    let opts = DriverOptions::proposed();
    for w in &spec.workloads {
        let text = print_program(tr, &w.program);
        let _ = load_profile(tr, cache, &text);
        let _ = load_trace(tr, cache, &text);
        let _ = compile(tr, &w.program);
        for scheme in [Scheme::TwoBit, Scheme::Perfect] {
            load_stats(tr, cache, &key::sim_key(&text, Scale::Paper, scheme, &cfg));
        }
        let Some(src) = get_text(tr, cache, &key::transform_key(&text, Scale::Paper, &opts)) else {
            continue;
        };
        let (j, _) = tr.span_rate(
            &format!("json::parse transform {} ({} bytes)", w.name, src.len()),
            "harness",
            "harness.json.parse_mbps.transform",
            src.len() as f64,
            || json::parse(&src),
        );
        let Ok(j) = j else { continue };
        let Some(words) = j
            .get("bin")
            .and_then(Json::as_str)
            .and_then(|h| codec::words_from_hex(h).ok())
        else {
            continue;
        };
        let (p, _) = tr.span_rate(
            "decode_program",
            "ir",
            "ir.decode_mbps",
            (words.len() * 4) as f64,
            || guardspec_ir::encode::decode_program(&words),
        );
        let (Ok(p), Some(ttext)) = (p, j.get("program").and_then(Json::as_str)) else {
            continue;
        };
        let _ = load_trace(tr, cache, ttext);
        let _ = compile(tr, &p);
        load_stats(
            tr,
            cache,
            &key::sim_key(ttext, Scale::Paper, Scheme::Proposed, &cfg),
        );
    }
}

fn load_stats(tr: &mut Tracer, cache: &DiskCache, k: &str) {
    let Some(src) = get_text(tr, cache, k) else {
        return;
    };
    let (j, _) = tr.span_rate(
        "json::parse sim",
        "harness",
        "harness.json.parse_mbps.sim",
        src.len() as f64,
        || json::parse(&src),
    );
    let _ = tr.span("codec::stats_from_json", "harness", || {
        j.map(|j| codec::stats_from_json(&j))
    });
}

/// `child rerun <cache> <out>`, `child replay <cache>` and `child
/// replay-off <cache>`: the deadline-bounded halves of `warm-rerun`.
pub fn child_main(argv: &[String]) -> ExitCode {
    let args: Vec<&str> = argv.iter().map(String::as_str).collect();
    let spec = ExperimentSpec::three_schemes("table4", Scale::Paper);
    match args.as_slice() {
        ["rerun", cache, out] => {
            println!("ready");
            let res = run_experiment(&spec, &options(Path::new(cache), None));
            if std::fs::write(out, stable_json(&res).to_pretty()).is_err() {
                return ExitCode::FAILURE;
            }
        }
        ["replay", cache] => {
            let mut tr = Tracer::streaming();
            println!("ready");
            replay_warm(&mut tr, &spec, &DiskCache::new(cache));
        }
        ["replay-off", cache] => {
            println!("ready");
            replay_warm(&mut Tracer::off(), &spec, &DiskCache::new(cache));
        }
        _ => {
            eprintln!("perfbench child: unknown arguments {args:?}");
            return ExitCode::from(2);
        }
    }
    println!("done {}", sys::own_peak_rss_kb());
    ExitCode::SUCCESS
}
