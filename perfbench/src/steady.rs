//! Steadiness mode: run one workload several times on the same commit,
//! each with its own seed and tracing off, and print every end-to-end
//! metric's median and quartiles next to the bound `BENCHMARK.json` gives
//! it.  The bounds in `BENCHMARK.json` were set from these figures.

use crate::stats;
use guardspec_harness::json::{self, Json};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

pub fn main(argv: &[String]) -> ExitCode {
    let mut opt: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if ["--workload", "--runs", "--seconds", "--seed"].contains(&k.as_str()) => {
                opt.insert(&k[2..], v);
            }
            _ => {
                eprintln!(
                    "perfbench steady: expected --workload, --runs, --seconds and --seed \
                     with values, got {argv:?}"
                );
                return ExitCode::from(2);
            }
        }
    }
    let Some(workload) = opt.get("workload").copied() else {
        eprintln!("perfbench steady: --workload is required");
        return ExitCode::from(2);
    };
    let num = |k: &str, d: u64| opt.get(k).and_then(|v| v.parse().ok()).unwrap_or(d);
    let (runs, seconds, first) = (num("runs", 10), num("seconds", 10), num("seed", 1));
    let exe = std::env::current_exe().expect("the benchmark knows its own executable");

    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut units: BTreeMap<String, String> = BTreeMap::new();
    let mut shares = Vec::new();
    for k in 0..runs {
        let seed = (first + k).to_string();
        let out = Command::new(&exe)
            .args([
                "--workload",
                workload,
                "--seed",
                &seed,
                "--seconds",
                &seconds.to_string(),
                "--trace",
                "0",
            ])
            .output();
        let Ok(out) = out else {
            eprintln!("perfbench steady: could not start a run");
            return ExitCode::FAILURE;
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let Some(j) = stdout.lines().last().and_then(|l| json::parse(l).ok()) else {
            eprintln!("perfbench steady: run with seed {seed} printed no result");
            return ExitCode::FAILURE;
        };
        let attempted = j.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        let failed = j.get("failed").and_then(Json::as_u64).unwrap_or(0);
        let correct = j.get("correct").and_then(Json::as_bool).unwrap_or(false);
        shares.push(format!("{failed}/{attempted}"));
        let mut line = format!("seed {seed}: correct {correct}, {failed}/{attempted} failed");
        if let Some(Json::Obj(ms)) = j.get("metrics") {
            for (name, m) in ms {
                let v = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                values.entry(name.clone()).or_default().push(v);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                units.insert(name.clone(), unit.to_string());
                if ms.len() <= 8 {
                    line.push_str(&format!(", {name} {v:.4}"));
                }
            }
        }
        println!("{line}");
    }
    let bounds = bounds();
    println!(
        "{workload}: {runs} runs of {seconds} s, failed shares {}",
        shares.join(" ")
    );
    println!(
        "{:<36} {:>14} {:>14} {:>14} {:>8} {:>7}",
        "metric", "median", "q1", "q3", "spread", "bound"
    );
    for (name, xs) in &values {
        if xs.len() < 2 {
            continue;
        }
        let q = stats::quantiles(xs, 4);
        let bound = bounds
            .get(name)
            .map_or("-".to_string(), |b| format!("{b:.3}"));
        println!(
            "{:<36} {:>14.4} {:>14.4} {:>14.4} {:>8.4} {:>7} {}",
            name,
            stats::median(xs),
            q[0],
            q[2],
            stats::spread(xs),
            bound,
            units[name]
        );
    }
    ExitCode::SUCCESS
}

/// End-to-end bounds from `BENCHMARK.json` in the working directory.
fn bounds() -> BTreeMap<String, f64> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return BTreeMap::new();
    };
    let Ok(j) = json::parse(&text) else {
        return BTreeMap::new();
    };
    j.get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}
