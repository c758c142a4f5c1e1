//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints notes, one line per metric, the provenance stamp, and as its
//! last line the JSON result object. Exits 2 on a usage error and 1 when
//! a workload cannot be set up.

use lsm_perfbench::gen::{Size, Workload};
use lsm_perfbench::{cores, stamp, timed, trace};
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::FleetMono,
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::from_name(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            "--small" => args.size = Size::Small,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <fleet_mono|fleet_sharded|control_mixed> \
                 --seed <n> --seconds <s> --trace <0|1> [--small]"
            );
            return ExitCode::from(2);
        }
    };
    let cores = cores();
    let started = Instant::now();
    let outcome = if args.trace {
        trace::run(args.workload, args.size, args.seed, cores)
    } else {
        timed::run(args.workload, args.size, args.seed, args.seconds, cores)
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            return ExitCode::from(1);
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for m in &outcome.sheet.metrics {
        println!("{:<34} {:>20} {}", m.name, m.value, m.unit);
    }
    for name in outcome.sheet.missing() {
        println!("# MISSING metric {name}");
    }
    println!(
        "stamp {}",
        stamp::line(
            args.workload.name(),
            args.seed,
            args.seconds,
            started.elapsed().as_secs_f64(),
            args.trace,
            cores,
            outcome.threads,
        )
    );
    println!(
        "{}",
        lsm_perfbench::metrics::result_line(
            outcome.correct(),
            outcome.attempted,
            outcome.failed,
            &outcome.sheet.metrics,
        )
    );
    ExitCode::SUCCESS
}
