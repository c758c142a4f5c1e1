//! The benchmark's own tests, on the reduced `--small` workloads: every
//! metric `BENCHMARK.json` declares is printed with its unit, a
//! corrupted report is counted as failed, and the probed timed run
//! reproduces the plain run.

use lsm_perfbench::check::{bad_migrations, failed_migrations, fingerprint, paths_agree};
use lsm_perfbench::gen::{generate, Size, Workload};
use lsm_perfbench::probe::Probe;
use lsm_perfbench::runner::{self, Path};
use lsm_perfbench::timed::run_once;
use serde::Value;
use std::process::Command;

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(root).expect("BENCHMARK.json at the repository root");
    let doc = serde_json::parse(&text).expect("BENCHMARK.json is JSON");
    let Some(Value::Seq(items)) = doc.get(list) else {
        panic!("BENCHMARK.json has no {list} list");
    };
    items
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
            _ => panic!("malformed metric in {list}"),
        })
        .collect()
}

/// Run the benchmark binary and parse its last line.
fn run_bench(workload: &str, trace: &str) -> (Value, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_lsm-perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--trace", trace, "--small"])
        .output()
        .expect("benchmark runs");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("some output").to_string();
    (serde_json::parse(&last).expect("last line is JSON"), stdout)
}

#[test]
fn every_declared_metric_prints_with_its_unit() {
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = declared(list);
        for w in Workload::ALL {
            let (result, stdout) = run_bench(w.name(), trace);
            assert!(
                matches!(result.get("correct"), Some(Value::Bool(true))),
                "{} --trace {trace} not correct:\n{stdout}",
                w.name()
            );
            assert!(matches!(result.get("failed"), Some(Value::U64(0))));
            let Some(Value::Map(metrics)) = result.get("metrics") else {
                panic!("no metrics object");
            };
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| match (m.get("value"), m.get("unit")) {
                    (Some(Value::F64(_) | Value::U64(_) | Value::I64(_)), Some(Value::Str(u))) => {
                        (name.clone(), u.clone())
                    }
                    _ => panic!("{name}: malformed metric"),
                })
                .collect();
            assert_eq!(got, want, "{} --trace {trace}", w.name());
            assert!(stdout.contains("\"git_rev\""), "no stamp:\n{stdout}");
        }
    }
}

#[test]
fn corrupted_reports_count_as_failed() {
    let gen = generate(Workload::FleetMono, Size::Small, 1);
    let (report, _) = run_once(&gen.toml, Path::Mono).expect("runs");
    let n = gen.migrations;
    let fp = fingerprint(&report);
    assert_eq!(bad_migrations(&report), 0);
    assert_eq!(failed_migrations(&report, n, 0, Some(&fp)), 0);

    // One migration's destination disk diverged: a changed report.
    let mut bad = report.clone();
    bad.migrations[0].consistent = Some(false);
    assert_eq!(bad_migrations(&bad), 1);
    assert_eq!(failed_migrations(&bad, n, 0, Some(&fp)), n);

    // A different event count on a repetition of the same seed.
    let mut bad = report.clone();
    bad.events += 1;
    assert_eq!(failed_migrations(&bad, n, 0, Some(&fp)), n);

    // A lost migration record, and a lint error.
    let mut bad = report.clone();
    bad.migrations.pop();
    assert_eq!(failed_migrations(&bad, n, 0, None), n);
    assert_eq!(failed_migrations(&report, n, 1, None), n);

    // The shards may count only the wakes the monolith coalesced.
    let mut sharded = report.clone();
    assert!(paths_agree(&report, &sharded, 0));
    sharded.events += 2;
    assert!(paths_agree(&report, &sharded, 2));
    assert!(!paths_agree(&report, &sharded, 1));
    sharded.events -= 2;
    sharded.migration_traffic += 1;
    assert!(!paths_agree(&report, &sharded, 0));
}

#[test]
fn probed_runs_reproduce_plain_runs() {
    for w in Workload::ALL {
        let gen = generate(w, Size::Small, 2);
        let path = Path::of(w, 2);
        let (plain, _) = run_once(&gen.toml, path).expect("runs");
        let (s, built) = runner::setup(&gen.toml, path).expect("sets up");
        let mut probe = Probe::new();
        let (probed, secs) = runner::run_probed(built, runner::horizon(&s.spec), &mut probe);
        assert_eq!(fingerprint(&probed), fingerprint(&plain), "{}", w.name());
        assert!(secs > 0.0 && probe.to_reference() > 0.0, "{}", w.name());
    }
}
