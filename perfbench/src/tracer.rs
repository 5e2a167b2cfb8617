//! Spans and per-layer accumulators for the traced mode.
//!
//! Spans are recorded here, in the benchmark, around each call into a
//! layer; they stay in memory and are written once as a Chrome trace.  A
//! child process (the deadline-bounded warm replay) streams the same
//! events as text lines, which the parent folds back in with
//! [`Tracer::apply_line`].

use guardspec_harness::{chrome_trace_json, validate_chrome_trace, Json, Span, SpanRecorder};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Track id of spans streamed from a child process.
pub const CHILD_TID: u64 = 1000;

/// A rate's work units and busy seconds.
#[derive(Default)]
struct Acc {
    work: f64,
    secs: f64,
}

pub struct Tracer {
    origin: Instant,
    rec: SpanRecorder,
    /// Print events as lines instead of keeping them (child side).
    stream: bool,
    /// Record nothing: spans only run their call, so a replay through an
    /// off tracer is the untraced baseline of the same replay.
    off: bool,
    acc: BTreeMap<String, Acc>,
    counts: BTreeMap<String, f64>,
    samples: BTreeMap<String, Vec<f64>>,
    /// The child call in progress: name, begin instant, metric, work.
    open: Option<(String, Instant, String, f64)>,
    /// End of the last streamed child span, so the stopped call that
    /// follows it never overlaps it on the child's track.
    child_end_us: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        let origin = Instant::now();
        Tracer {
            origin,
            rec: SpanRecorder::with_origin(true, origin),
            stream: false,
            off: false,
            acc: BTreeMap::new(),
            counts: BTreeMap::new(),
            samples: BTreeMap::new(),
            open: None,
            child_end_us: 0,
        }
    }

    /// A child-side tracer: every event goes to stdout as one line.
    pub fn streaming() -> Tracer {
        Tracer {
            stream: true,
            ..Tracer::new()
        }
    }

    /// A tracer whose span, rate, count and sample calls do nothing.
    pub fn off() -> Tracer {
        Tracer {
            off: true,
            ..Tracer::new()
        }
    }

    /// Time `f` as a span named `name`.  `metric`/`work` name the rate the
    /// call feeds when it is known up front (a streamed child reports it
    /// with its `begin` line, so a call cut off by a deadline still says
    /// how much it was working on).
    pub fn span<T>(&mut self, name: &str, cat: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        self.span_rate(name, cat, "", 0.0, f)
    }

    pub fn span_rate<T>(
        &mut self,
        name: &str,
        cat: &'static str,
        metric: &str,
        work: f64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        if self.off {
            return (f(), 0.0);
        }
        if self.stream {
            emit(&format!("begin\t{name}\t{cat}\t{metric}\t{work}"));
        }
        let t0 = Instant::now();
        let v = f();
        let t1 = Instant::now();
        let secs = t1.duration_since(t0).as_secs_f64();
        if self.stream {
            let us = |t: Instant| t.duration_since(self.origin).as_micros();
            emit(&format!("span\t{name}\t{cat}\t{}\t{}", us(t0), us(t1)));
        } else {
            self.rec.record_to(name, cat, t0, t1, Vec::new());
        }
        if !metric.is_empty() {
            self.rate(metric, work, secs);
        }
        (v, secs)
    }

    /// Record an outer span the caller timed itself.
    pub fn enclose(&self, name: &str, cat: &'static str, t0: Instant, t1: Instant) {
        if self.off {
            return;
        }
        self.rec.record_to(name, cat, t0, t1, Vec::new());
    }

    /// `work` units done in `secs` towards a throughput metric.
    pub fn rate(&mut self, metric: &str, work: f64, secs: f64) {
        if self.off {
            return;
        }
        if self.stream {
            return emit(&format!("rate\t{metric}\t{work}\t{secs}"));
        }
        let a = self.acc.entry(metric.to_string()).or_default();
        a.work += work;
        a.secs += secs;
    }

    pub fn count(&mut self, metric: &str, n: f64) {
        if self.off {
            return;
        }
        if self.stream {
            return emit(&format!("count\t{metric}\t{n}"));
        }
        *self.counts.entry(metric.to_string()).or_default() += n;
    }

    /// One observation of a per-call time or a latency (reported as a mean
    /// or a median by the caller).
    pub fn sample(&mut self, metric: &str, v: f64) {
        if self.off {
            return;
        }
        if self.stream {
            return emit(&format!("sample\t{metric}\t{v}"));
        }
        self.samples.entry(metric.to_string()).or_default().push(v);
    }

    /// Fold one streamed child line in; `offset` maps the child's clock
    /// (microseconds since its own origin) onto this tracer's.
    pub fn apply_line(&mut self, line: &str, at: Instant, offset_us: u64) {
        let f: Vec<&str> = line.split('\t').collect();
        let num = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
        match f.first().copied() {
            Some("begin") if f.len() == 5 => {
                self.open = Some((f[1].to_string(), at, f[3].to_string(), num(4)));
            }
            Some("span") if f.len() == 5 => {
                self.open = None;
                let (ts_us, end_us) = (offset_us + num(3) as u64, offset_us + num(4) as u64);
                self.child_end_us = self.child_end_us.max(end_us);
                self.rec.record_span(Span {
                    name: f[1].to_string(),
                    cat: category(f[2]),
                    ts_us,
                    dur_us: end_us.saturating_sub(ts_us),
                    tid: CHILD_TID,
                    args: Vec::new(),
                });
            }
            Some("rate") if f.len() == 4 => self.rate(f[1], num(2), num(3)),
            Some("count") if f.len() == 3 => self.count(f[1], num(2)),
            Some("sample") if f.len() == 3 => self.sample(f[1], num(2)),
            _ => {}
        }
    }

    /// The streamed child was stopped at `end`: close the call it was in,
    /// crediting its rate with the work it had not finished (an upper
    /// bound), and return that call's name.
    pub fn stop_child(&mut self, end: Instant) -> Option<String> {
        let (name, t0, metric, work) = self.open.take()?;
        let ts_us = self.us(t0).max(self.child_end_us);
        self.rec.record_span(Span {
            name: format!("{name} (stopped at deadline)"),
            cat: "stopped",
            ts_us,
            dur_us: self.us(end).saturating_sub(ts_us),
            tid: CHILD_TID,
            args: vec![("stopped".to_string(), "deadline".to_string())],
        });
        if !metric.is_empty() {
            self.rate(&metric, work, end.duration_since(t0).as_secs_f64());
        }
        Some(name)
    }

    pub fn us(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_micros() as u64
    }

    /// `work / secs / 1e6` for a rate metric (0 when never measured).
    pub fn rate_value(&self, metric: &str) -> f64 {
        self.acc
            .get(metric)
            .filter(|a| a.secs > 0.0)
            .map_or(0.0, |a| a.work / a.secs / 1e6)
    }

    pub fn count_value(&self, metric: &str) -> f64 {
        self.counts.get(metric).copied().unwrap_or(0.0)
    }

    pub fn samples(&self, metric: &str) -> &[f64] {
        self.samples.get(metric).map_or(&[], Vec::as_slice)
    }

    /// Every span so far as a validated Chrome trace, with its span count.
    pub fn trace_doc(&self) -> Result<(Json, usize), String> {
        let spans = self.rec.finish();
        let doc = chrome_trace_json(&spans, &[]);
        validate_chrome_trace(&doc)?;
        Ok((doc, spans.len()))
    }

    /// Write [`Tracer::trace_doc`] to `path`.
    pub fn write_trace(&self, path: &std::path::Path) -> Result<usize, String> {
        let (doc, n) = self.trace_doc()?;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
        std::fs::write(path, doc.to_pretty()).map_err(|e| e.to_string())?;
        Ok(n)
    }
}

fn emit(line: &str) {
    let mut out = std::io::stdout().lock();
    // A parent that stopped listening has killed us or is about to.
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

/// Span categories are `&'static str`; streamed ones map onto this set.
fn category(s: &str) -> &'static str {
    const CATS: [&str; 9] = [
        "workloads",
        "ir",
        "interp",
        "core",
        "sim",
        "harness",
        "server",
        "op",
        "stopped",
    ];
    CATS.into_iter().find(|c| *c == s).unwrap_or("other")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streamed_lines_fold_into_spans_rates_and_a_stopped_call() {
        let mut t = Tracer::new();
        let t0 = Instant::now();
        t.apply_line(
            "begin\tjson.parse profile\tharness\tharness.json.parse_mbps.profile\t2000000",
            t0,
            0,
        );
        t.apply_line("span\tjson.parse profile\tharness\t10\t1010", t0, 5);
        t.apply_line(
            "rate\tharness.json.parse_mbps.profile\t2000000\t0.001",
            t0,
            5,
        );
        t.apply_line("count\tharness.cache.lookups\t1", t0, 5);
        assert!((t.rate_value("harness.json.parse_mbps.profile") - 2000.0).abs() < 1e-6);
        assert_eq!(t.count_value("harness.cache.lookups"), 1.0);
        assert_eq!(t.stop_child(Instant::now()), None);
        t.apply_line(
            "begin\tjson.parse transform\tharness\tharness.json.parse_mbps.transform\t1e6",
            t0,
            5,
        );
        let end = t0 + std::time::Duration::from_secs(2);
        assert_eq!(t.stop_child(end).as_deref(), Some("json.parse transform"));
        assert!((t.rate_value("harness.json.parse_mbps.transform") - 0.5).abs() < 1e-6);
        let (_, spans) = t.trace_doc().expect("streamed spans form a valid trace");
        assert_eq!(spans, 2);
    }

    #[test]
    fn an_off_tracer_runs_calls_and_records_nothing() {
        let mut t = Tracer::off();
        let (v, secs) = t.span_rate("x", "ir", "ir.print_mbps", 1e6, || 7);
        assert_eq!((v, secs), (7, 0.0));
        t.rate("ir.print_mbps", 1e6, 1.0);
        t.count("harness.cache.hits", 1.0);
        t.sample("sim.compile_us", 3.0);
        t.enclose("op", "op", Instant::now(), Instant::now());
        assert_eq!(t.rate_value("ir.print_mbps"), 0.0);
        assert_eq!(t.count_value("harness.cache.hits"), 0.0);
        assert!(t.samples("sim.compile_us").is_empty());
        assert!(t.rec.finish().is_empty());
    }
}
