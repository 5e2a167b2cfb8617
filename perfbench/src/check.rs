//! Output checks, made outside every timed region against computations
//! done apart from the op being timed, or against properties the model
//! must have.  Each returns `Err` with a readable reason.

use guardspec_core::DriverOptions;
use guardspec_harness::codec::{report_to_json, ReportSummary};
use guardspec_harness::CellResult;
use guardspec_interp::{Interp, Profiler};
use guardspec_sim::{SampleSummary, SimStats};
use guardspec_workloads::Workload;

/// What the benchmark itself computes for one program: the interpreter's
/// retired counts, base and transformed, and the Proposed transform report.
#[derive(Clone, Debug)]
pub struct ProgramRef {
    pub retired: u64,
    pub transformed_retired: u64,
    pub report: String,
}

/// Interpret every program and its Proposed transform, checking each
/// against its Rust golden model.
pub fn reference(workloads: &[Workload]) -> Result<Vec<ProgramRef>, String> {
    workloads
        .iter()
        .map(|w| {
            let mut profiler = Profiler::new(&w.program);
            let base = Interp::new(&w.program)
                .run_with(&mut profiler)
                .map_err(|e| format!("{}: interpreter failed: {e}", w.name))?;
            golden(w, &base.machine.mem, "base")?;
            let mut t = w.program.clone();
            let report = guardspec_core::transform_program(
                &mut t,
                &profiler.finish(),
                &DriverOptions::proposed(),
            );
            let tx = guardspec_interp::run(&t)
                .map_err(|e| format!("{}: transformed program failed: {e}", w.name))?;
            golden(w, &tx.machine.mem, "transformed")?;
            Ok(ProgramRef {
                retired: base.summary.retired,
                transformed_retired: tx.summary.retired,
                report: report_to_json(&ReportSummary::from(&report)).to_compact(),
            })
        })
        .collect()
}

/// A kernel's memory image against its golden results.
pub fn golden(w: &Workload, mem: &[i64], what: &str) -> Result<(), String> {
    let bad = w.verify(mem);
    if bad.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} ({what}) miscomputed: {:?}",
            w.name,
            &bad[..bad.len().min(4)]
        ))
    }
}

/// One cell against its program's reference and the model's bounds:
/// IPC within the commit width, an untransformed cell committing exactly
/// what the interpreter retires, a transformed one carrying the reference
/// transform report, and a sampled one with a positive-width interval.
pub fn cell(c: &CellResult, commit_width: usize, r: &ProgramRef) -> Result<(), String> {
    let at = format!("{}/{}", c.workload, c.label);
    let width = commit_width as f64;
    if c.stats.ipc() > width {
        return Err(format!(
            "{at}: IPC {} above commit width {width}",
            c.stats.ipc()
        ));
    }
    let want = match &c.report {
        None => r.retired,
        Some(rep) => {
            let got = report_to_json(rep).to_compact();
            if got != r.report {
                return Err(format!(
                    "{at}: transform report {got} != reference {}",
                    r.report
                ));
            }
            r.transformed_retired
        }
    };
    let committed = match &c.sampling {
        None => c.stats.committed_total,
        Some(s) => {
            if s.ipc_mean > width {
                return Err(format!(
                    "{at}: sampled IPC {} above commit width",
                    s.ipc_mean
                ));
            }
            if s.ipc_ci95 <= 0.0 {
                return Err(format!("{at}: sampled 95% CI has width {}", s.ipc_ci95));
            }
            s.total_entries
        }
    };
    if committed != want {
        return Err(format!(
            "{at}: committed {committed} != interpreter's {want}"
        ));
    }
    Ok(())
}

/// Two simulations of one cell must agree on every counter.
pub fn same_stats(what: &str, got: &SimStats, want: &SimStats) -> Result<(), String> {
    for ((name, a), (_, b)) in got.field_list().into_iter().zip(want.field_list()) {
        if a != b {
            return Err(format!("{what}: {name} {a} != reference {b}"));
        }
    }
    Ok(())
}

/// A sampled 95% interval has positive width and covers the exact IPC.
pub fn ci_covers(what: &str, s: &SampleSummary, exact_ipc: f64) -> Result<(), String> {
    if s.ipc_ci95 <= 0.0 || (s.ipc_mean - exact_ipc).abs() > s.ipc_ci95 {
        return Err(format!(
            "{what}: sampled IPC {} ± {} does not cover exact {exact_ipc}",
            s.ipc_mean, s.ipc_ci95
        ));
    }
    Ok(())
}

/// Byte identity, naming the first differing offset.
pub fn identical(what: &str, got: &[u8], want: &[u8]) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let at = got
        .iter()
        .zip(want)
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(want.len()));
    Err(format!(
        "{what}: {} bytes differ from the {}-byte reference at byte {at}",
        got.len(),
        want.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use guardspec_harness::runner::StageTiming;
    use guardspec_predict::Scheme;

    fn reference_of(retired: u64) -> ProgramRef {
        ProgramRef {
            retired,
            transformed_retired: retired + 5,
            report: report_to_json(&ReportSummary::default()).to_compact(),
        }
    }

    fn cell_with(stats: SimStats) -> CellResult {
        CellResult {
            workload: "k".into(),
            label: "2-bit BP".into(),
            scheme: Scheme::TwoBit,
            stats,
            report: None,
            transform_timing: None,
            trace_timing: None,
            sim_timing: StageTiming::default(),
            accounting: None,
            sampling: None,
        }
    }

    fn good_stats() -> SimStats {
        SimStats {
            cycles: 100,
            committed: 200,
            committed_total: 200,
            ..SimStats::default()
        }
    }

    #[test]
    fn cell_check_accepts_a_good_cell_and_rejects_tampering() {
        let r = reference_of(200);
        assert!(cell(&cell_with(good_stats()), 4, &r).is_ok());
        let mut fast = good_stats();
        fast.cycles = 40; // IPC 5 > commit width 4
        assert!(cell(&cell_with(fast), 4, &r).is_err());
        let mut short = good_stats();
        short.committed_total = 199;
        assert!(cell(&cell_with(short), 4, &r).is_err());
        let mut tx = cell_with(good_stats());
        tx.report = Some(ReportSummary::default());
        assert!(
            cell(&tx, 4, &r).is_err(),
            "transformed cell must commit the transformed count"
        );
        tx.stats.committed_total = 205;
        assert!(cell(&tx, 4, &r).is_ok());
        tx.report.as_mut().unwrap().ifconversions = 1;
        assert!(cell(&tx, 4, &r).is_err());
    }

    fn sample(mean: f64, ci: f64, total: u64) -> SampleSummary {
        SampleSummary {
            windows: 5,
            detail: 10,
            warmup: 10,
            interval: 100,
            measured_entries: 50,
            total_entries: total,
            ipc_mean: mean,
            ipc_ci95: ci,
            est_cycles: 100,
        }
    }

    #[test]
    fn sampled_cells_need_positive_width_and_covering_intervals() {
        let r = reference_of(200);
        let mut c = cell_with(good_stats());
        c.sampling = Some(sample(1.5, 0.1, 200));
        assert!(cell(&c, 4, &r).is_ok());
        c.sampling = Some(sample(1.5, 0.0, 200));
        assert!(cell(&c, 4, &r).is_err());
        c.sampling = Some(sample(1.5, 0.1, 190));
        assert!(cell(&c, 4, &r).is_err());
        assert!(ci_covers("x", &sample(1.5, 0.1, 200), 1.55).is_ok());
        assert!(ci_covers("x", &sample(1.5, 0.1, 200), 1.7).is_err());
        assert!(ci_covers("x", &sample(1.5, 0.0, 200), 1.5).is_err());
    }

    #[test]
    fn stats_and_bytes_must_match_exactly() {
        let mut other = good_stats();
        assert!(same_stats("x", &other, &good_stats()).is_ok());
        other.mispredicts = 1;
        let e = same_stats("x", &other, &good_stats()).unwrap_err();
        assert!(e.contains("mispredicts"), "{e}");
        assert!(identical("r", b"{\"a\": 1}", b"{\"a\": 1}").is_ok());
        let e = identical("r", b"{\"a\": 2}", b"{\"a\": 1}").unwrap_err();
        assert!(e.contains("byte 6"), "{e}");
        assert!(identical("r", b"{\"a\": 1}\n", b"{\"a\": 1}").is_err());
    }

    #[test]
    fn golden_check_rejects_a_wrong_memory_image() {
        let w = Workload {
            name: "k",
            description: "",
            program: guardspec_ir::Program::default(),
            expected: vec![(2, 5)],
        };
        assert!(golden(&w, &[0, 0, 5], "base").is_ok());
        assert!(golden(&w, &[0, 0, 4], "base").is_err());
    }
}
