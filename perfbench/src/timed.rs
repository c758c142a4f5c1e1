//! The untraced run: repeated set-up and run of one workload for the
//! requested host time, reported as medians of host times rescaled to
//! the reference machine speed ([`crate::probe`]), with the output
//! checks.

use crate::check::{coalesced_wakes, failed_migrations, fingerprint, paths_agree, NetCompletions};
use crate::gen::{generate, Size, Workload};
use crate::metrics::{end_to_end, median, percentile_sorted, Sheet};
use crate::probe::Probe;
use crate::runner::{self, horizon, Path};
use lsm_core::RunReport;
use std::time::Instant;

/// Fewest repetitions a timed run makes, however long each takes.
pub const MIN_REPS: usize = 3;

/// Set-ups timed per repetition: the one whose engine runs, then more
/// whose engines are dropped, each followed by a probe slice. Set-up
/// takes milliseconds against a run of seconds, so one sample per
/// repetition would leave its median to a handful of noisy readings.
pub const SETUPS_PER_REP: usize = 8;

/// What a run produced, checked.
pub struct Outcome {
    /// The metrics.
    pub sheet: Sheet,
    /// Migrations requested, over every checked repetition.
    pub attempted: u64,
    /// Migrations failed (a failed check fails all of a repetition's).
    pub failed: u64,
    /// Human-readable notes printed before the result line.
    pub notes: Vec<String>,
    /// Worker threads the workload's engine path used.
    pub threads: usize,
}

impl Outcome {
    /// True when every check passed and every metric was measured.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.sheet.missing().is_empty()
    }
}

/// Peak resident set of this process, MiB (`VmHWM`); NaN if unknown.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Both engine paths of a fleet, for the cross-path check: the monolith,
/// and the shards on at least two threads, observed for the instants
/// of their network completions.
pub struct CrossCheck {
    /// The monolithic report.
    pub mono: RunReport,
    /// Host time of the monolithic run.
    pub mono_s: f64,
    /// The sharded report.
    pub sharded: RunReport,
    /// Network-completion wakes the monolith shares between shards.
    pub coalesced: u64,
}

impl CrossCheck {
    /// Run `text` on both paths. `None` for a workload the partitioner
    /// rejects.
    pub fn run(workload: Workload, text: &str, cores: usize) -> Result<Option<Self>, String> {
        if workload == Workload::ControlMixed {
            return Ok(None);
        }
        let (s, built) = runner::setup(text, Path::Threaded(cores.max(2)))?;
        let (sharded, done, _) =
            runner::run_observed(built, horizon(&s.spec), |_| NetCompletions::default());
        let coalesced = coalesced_wakes(done.iter().map(|(_, o)| &o.instants));
        let (mono, mono_s) = run_once(text, Path::Mono)?;
        Ok(Some(CrossCheck {
            mono,
            mono_s,
            sharded,
            coalesced,
        }))
    }

    /// The report of the path that ran sharded (or not).
    pub fn report(&self, sharded: bool) -> &RunReport {
        if sharded {
            &self.sharded
        } else {
            &self.mono
        }
    }

    /// Whether the two paths agree ([`paths_agree`]).
    pub fn agree(&self) -> bool {
        paths_agree(&self.mono, &self.sharded, self.coalesced)
    }

    /// One line for the notes.
    pub fn note(&self) -> String {
        format!(
            "cross-check: monolith {} events + {} coalesced wakes vs shards {} events: {}",
            self.mono.events,
            self.coalesced,
            self.sharded.events,
            if self.agree() {
                "reports agree"
            } else {
                "REPORTS DIFFER"
            }
        )
    }
}

/// Run `text` once on `path`, returning the report and its run time.
pub fn run_once(text: &str, path: Path) -> Result<(RunReport, f64), String> {
    let (s, built) = runner::setup(text, path)?;
    let t = Instant::now();
    let report = runner::run(built, horizon(&s.spec));
    Ok((report, t.elapsed().as_secs_f64()))
}

/// The simulated (deterministic) end-to-end metrics of one report.
pub fn sim_metrics(report: &RunReport, sheet: &mut Sheet) {
    let mut times: Vec<f64> = report
        .migrations
        .iter()
        .filter_map(|m| m.migration_time.map(|d| d.as_secs_f64()))
        .collect();
    times.sort_by(f64::total_cmp);
    let mut down: Vec<f64> = report
        .migrations
        .iter()
        .map(|m| m.downtime.as_secs_f64() * 1e3)
        .collect();
    down.sort_by(f64::total_cmp);
    sheet.set("sim_migration_s_p50", percentile_sorted(&times, 0.5));
    sheet.set("sim_migration_s_p90", percentile_sorted(&times, 0.9));
    sheet.set("sim_downtime_ms_p90", percentile_sorted(&down, 0.9));
    sheet.set(
        "sim_migration_gib",
        report.migration_traffic as f64 / (1u64 << 30) as f64,
    );
    sheet.set("sim_sla_violation_s", report.sla.total_violation_secs);
    sheet.set("sim_useful_compute_s", report.total_useful_compute());
}

/// `q1 / median / q3` of `v`, for the notes.
fn quartiles(v: &[f64]) -> String {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    format!(
        "{:.4} / {:.4} / {:.4}",
        percentile_sorted(&s, 0.25),
        median(&s),
        percentile_sorted(&s, 0.75)
    )
}

/// Repeat set-up and run of `workload` until `seconds` of host time have
/// passed (at least [`MIN_REPS`] times), then check the report against
/// both engine paths.
pub fn run(
    workload: Workload,
    size: Size,
    seed: u64,
    seconds: f64,
    cores: usize,
) -> Result<Outcome, String> {
    let gen = generate(workload, size, seed);
    let path = Path::of(workload, cores);
    let requested = gen.migrations;
    let (mut setup_s, mut run_s) = (Vec::new(), Vec::new());
    let (mut raw_run_s, mut slice_us) = (Vec::new(), Vec::new());
    let mut probe = Probe::new();
    let mut reference: Option<(String, RunReport)> = None;
    let mut failed = 0usize;
    let (mut threads, mut sharded) = (1, false);
    let mut peak = f64::NAN;
    let started = Instant::now();
    while run_s.len() < MIN_REPS || started.elapsed().as_secs_f64() < seconds {
        // Every host time of a repetition is rescaled by the probe's
        // speed over that repetition.
        probe.reset();
        probe.bracket();
        let (s, built) = runner::setup(&gen.toml, path)?;
        threads = built.threads();
        sharded = built.shards() > 1;
        let (report, secs) = runner::run_probed(built, horizon(&s.spec), &mut probe);
        let mut setups = vec![s.times.total().as_secs_f64()];
        let fp = reference.as_ref().map(|(fp, _)| fp.as_str());
        failed += failed_migrations(&report, requested, s.lint_errors, fp);
        if reference.is_none() {
            // The footprint of one set-up and run: later repetitions
            // only add allocator reuse, and their number depends on the
            // machine's speed.
            peak = peak_rss_mib();
            reference = Some((fingerprint(&report), report));
        }
        for _ in 1..SETUPS_PER_REP {
            let (s, built) = runner::setup(&gen.toml, path)?;
            setups.push(s.times.total().as_secs_f64());
            drop(built);
            probe.slice();
        }
        probe.bracket();
        let scale = probe.to_reference();
        run_s.push(secs * scale);
        setup_s.extend(setups.iter().map(|t| t * scale));
        raw_run_s.push(secs);
        slice_us.push(probe.mean_slice_s() * 1e6);
    }
    let reps = run_s.len();
    let (_, report) = reference.expect("at least one repetition ran");
    let last_done = report
        .migrations
        .iter()
        .filter_map(|m| m.completed_at)
        .max()
        .map_or(f64::NAN, |t| t.as_secs_f64());
    let finished = report
        .vms
        .iter()
        .filter(|v| v.finished_at.is_some())
        .count();
    let mut notes = vec![
        format!(
            "reps={reps} measured_s={:.3} engine.events={} migrations={requested}",
            started.elapsed().as_secs_f64(),
            report.events
        ),
        format!("run_s quartiles {}", quartiles(&run_s)),
        format!("host run time quartiles {} s", quartiles(&raw_run_s)),
        format!(
            "probe slice quartiles {} us (reference {} us)",
            quartiles(&slice_us),
            crate::probe::REFERENCE_SLICE_S * 1e6
        ),
        format!(
            "last migration completed at {last_done:.3} sim s; {finished}/{} guests finished by the horizon",
            report.vms.len()
        ),
    ];
    if let Some(cc) = CrossCheck::run(workload, &gen.toml, cores)? {
        notes.push(cc.note());
        let reproduced = fingerprint(cc.report(sharded)) == fingerprint(&report);
        if !reproduced {
            notes.push("the cross-check run on this path DIFFERS from the timed run".into());
        }
        if !reproduced || !cc.agree() {
            failed = requested * reps;
        }
    }
    let mut sheet = Sheet::new(end_to_end());
    sheet.set("run_s", median(&run_s));
    sheet.set("setup_s", median(&setup_s));
    sheet.set("peak_rss_mib", peak);
    let attempted = (requested * reps) as u64;
    sheet.set(
        "migrations_completed_frac",
        1.0 - failed as f64 / attempted as f64,
    );
    sim_metrics(&report, &mut sheet);
    Ok(Outcome {
        sheet,
        attempted,
        failed: failed as u64,
        notes,
        threads,
    })
}
