//! Operations that can hang run in a child process with a deadline.
//!
//! Protocol on the child's stdout, one line each:
//! * `ready` — set-up is over; the parent starts the op's clock here.
//! * `done <peak_rss_kb>` — the op finished.
//! * anything else is handed to the caller's line callback with the
//!   instant it arrived and the instant `ready` arrived (the traced replay
//!   streams span events this way).
//!
//! A child that has not said `done` by the deadline is killed and reaped,
//! and the op counts as failed with its full time up to the kill.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long a child may take before `ready` (building paper-scale inputs).
const READY_LIMIT: Duration = Duration::from_secs(120);

#[derive(Debug, PartialEq)]
pub enum Outcome {
    /// Finished within the deadline.
    Done,
    /// Killed at the deadline.
    Stopped,
    /// Exited (or never became ready) without finishing.
    Broken(String),
}

#[derive(Debug)]
pub struct ChildOp {
    pub outcome: Outcome,
    /// From `ready` to `done`, or to the kill.
    pub secs: f64,
    /// The child's peak resident set, when known.
    pub peak_rss_kb: u64,
    /// When `ready` arrived (the op's time origin).
    pub started: Option<Instant>,
}

/// Run `cmd` with stdout piped, stopping it `deadline` after it says
/// `ready`.
pub fn run(
    mut cmd: Command,
    deadline: Duration,
    mut on_line: impl FnMut(&str, Instant, Instant),
) -> ChildOp {
    let mut child = match cmd.stdout(Stdio::piped()).stdin(Stdio::null()).spawn() {
        Ok(c) => c,
        Err(e) => {
            return ChildOp {
                outcome: Outcome::Broken(format!("spawn failed: {e}")),
                secs: 0.0,
                peak_rss_kb: 0,
                started: None,
            }
        }
    };
    let stdout = child.stdout.take().expect("stdout was piped");
    let (tx, rx) = mpsc::channel::<(String, Instant)>();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send((line, Instant::now())).is_err() {
                break;
            }
        }
    });
    let spawned = Instant::now();
    let mut started: Option<Instant> = None;
    let mut peak_rss_kb = 0;
    let outcome = loop {
        let limit = match started {
            Some(t0) => t0 + deadline,
            None => spawned + READY_LIMIT,
        };
        let wait = limit.saturating_duration_since(Instant::now());
        match rx.recv_timeout(wait) {
            Ok((line, at)) => {
                if line == "ready" {
                    started = Some(at);
                } else if let Some(kb) = line.strip_prefix("done") {
                    peak_rss_kb = kb.trim().parse().unwrap_or(0);
                    break Outcome::Done;
                } else {
                    on_line(&line, at, started.unwrap_or(at));
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) if started.is_some() => {
                peak_rss_kb = crate::sys::peak_rss_kb_of(child.id()).unwrap_or(0);
                break Outcome::Stopped;
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                break Outcome::Broken("never became ready".to_string())
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                break Outcome::Broken("exited without finishing".to_string())
            }
        }
    };
    let end = Instant::now();
    if outcome != Outcome::Done {
        let _ = child.kill();
    }
    let status = child.wait();
    let _ = reader.join();
    let outcome = match (outcome, status) {
        (Outcome::Done, Ok(s)) if !s.success() => Outcome::Broken(format!("exit status {s}")),
        (o, _) => o,
    };
    ChildOp {
        outcome,
        secs: started.map_or(0.0, |t0| end.duration_since(t0).as_secs_f64()),
        peak_rss_kb,
        started,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str) -> Command {
        let mut c = Command::new("sh");
        c.arg("-c").arg(script);
        c
    }

    #[test]
    fn a_child_that_never_finishes_is_stopped_and_failed() {
        let t0 = Instant::now();
        let op = run(
            sh("echo ready; exec sleep 30"),
            Duration::from_millis(200),
            |_, _, _| {},
        );
        assert_eq!(op.outcome, Outcome::Stopped);
        assert!(op.secs >= 0.2 && op.secs < 5.0, "{}", op.secs);
        assert!(t0.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn a_finishing_child_is_done_and_passes_other_lines_through() {
        let mut seen = Vec::new();
        let op = run(
            sh("echo ready; echo begin x; echo done 1234"),
            Duration::from_secs(20),
            |l, _, _| seen.push(l.to_string()),
        );
        assert_eq!(op.outcome, Outcome::Done);
        assert_eq!(op.peak_rss_kb, 1234);
        assert_eq!(seen, vec!["begin x".to_string()]);
    }

    #[test]
    fn a_child_that_dies_early_is_broken() {
        let op = run(
            sh("echo ready; exit 3"),
            Duration::from_secs(20),
            |_, _, _| {},
        );
        assert!(matches!(op.outcome, Outcome::Broken(_)));
        let op = run(
            sh("echo ready; echo done 1; exit 3"),
            Duration::from_secs(20),
            |_, _, _| {},
        );
        assert!(matches!(op.outcome, Outcome::Broken(_)));
    }
}
