//! Set-up and run of one workload through the program's public API,
//! split at the point where the engine is built: set-up is parse, lint,
//! partition and build; the run is the engine from built to report.

use crate::gen::Workload;
use crate::probe::Probe;
use lsm_analyze::Severity;
use lsm_core::builder::Simulation;
use lsm_core::engine::{Engine, NullObserver, Observer};
use lsm_core::parallel::{run_sharded, run_sharded_observed, FleetShape, ParallelOpts, Shard};
use lsm_core::RunReport;
use lsm_experiments::scenario::{build_scenario, ScenarioSpec};
use lsm_experiments::shard::partition;
use lsm_simcore::time::SimTime;
use std::time::{Duration, Instant};

/// How a workload is executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    /// The monolithic engine, never partitioned (`lsm run --threads 1`).
    Mono,
    /// The CLI default: partition, then run the shards on this many
    /// worker threads, or the monolithic engine if the partitioner
    /// rejects the scenario or there is only one thread.
    Threaded(usize),
}

impl Path {
    /// The path a workload runs on, given the machine's core count.
    pub fn of(workload: Workload, cores: usize) -> Path {
        match workload {
            Workload::FleetMono => Path::Mono,
            Workload::FleetSharded | Workload::ControlMixed => Path::Threaded(cores),
        }
    }
}

/// A built engine (or shard set), ready to run.
pub enum Built {
    /// One monolithic simulation.
    Mono(Box<Simulation>),
    /// Partitioned shard engines.
    Sharded {
        /// The shard engines.
        shards: Vec<Shard>,
        /// Global fleet dimensions for the merge.
        shape: FleetShape,
        /// Worker threads.
        threads: usize,
    },
}

impl Built {
    /// Number of engines (1 when monolithic).
    pub fn shards(&self) -> usize {
        match self {
            Built::Mono(_) => 1,
            Built::Sharded { shards, .. } => shards.len(),
        }
    }

    /// Worker threads the run uses.
    pub fn threads(&self) -> usize {
        match self {
            Built::Mono(_) => 1,
            Built::Sharded {
                shards, threads, ..
            } => (*threads).min(shards.len()).max(1),
        }
    }
}

/// Host time of each set-up stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `ScenarioSpec::from_toml`.
    pub parse: Duration,
    /// `lsm_analyze::lint`.
    pub lint: Duration,
    /// `shard::partition` (zero on the monolithic path).
    pub partition: Duration,
    /// `build_scenario` / shard engine construction.
    pub build: Duration,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total(&self) -> Duration {
        self.parse + self.lint + self.partition + self.build
    }
}

/// Everything set-up produces.
pub struct Setup {
    /// The parsed scenario.
    pub spec: ScenarioSpec,
    /// Lint diagnostics at error severity.
    pub lint_errors: usize,
    /// Per-stage host times.
    pub times: SetupTimes,
}

/// The scenario horizon.
pub fn horizon(spec: &ScenarioSpec) -> SimTime {
    SimTime::from_secs_f64(spec.horizon_secs)
}

/// Set up `text` completely: parse, lint, partition (on the threaded
/// path), build.
pub fn setup(text: &str, path: Path) -> Result<(Setup, Built), String> {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let spec = ScenarioSpec::from_toml(text).map_err(|e| format!("scenario rejected: {e}"))?;
    times.parse = t.elapsed();
    let t = Instant::now();
    let diags = lsm_analyze::lint(&spec);
    times.lint = t.elapsed();
    let lint_errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let subs = match path {
        Path::Threaded(threads) if threads > 1 => {
            let t = Instant::now();
            let subs = partition(&spec).ok();
            times.partition = t.elapsed();
            subs
        }
        _ => None,
    };
    let t = Instant::now();
    let built = match (path, subs) {
        (Path::Threaded(threads), Some(subs)) => {
            let mut shards = Vec::with_capacity(subs.len());
            for sub in subs {
                let sim = build_scenario(&sub.spec).map_err(|e| e.to_string())?;
                shards.push(Shard {
                    engine: sim.into_engine(),
                    vms: sub.vms,
                    jobs: sub.jobs,
                    nodes: sub.nodes,
                });
            }
            Built::Sharded {
                shards,
                shape: FleetShape {
                    vms: spec.vms.len() as u32,
                    jobs: spec.migrations.len() as u32,
                    switch_capacity: spec.cluster_config().switch_bw,
                },
                threads,
            }
        }
        _ => Built::Mono(Box::new(build_scenario(&spec).map_err(|e| e.to_string())?)),
    };
    times.build = t.elapsed();
    Ok((
        Setup {
            spec,
            lint_errors,
            times,
        },
        built,
    ))
}

/// Run a built engine to `horizon` and return its report.
pub fn run(built: Built, horizon: SimTime) -> RunReport {
    match built {
        Built::Mono(mut sim) => sim.run_until(horizon),
        Built::Sharded {
            shards,
            shape,
            threads,
        } => run_sharded(
            shards,
            shape,
            horizon,
            ParallelOpts {
                threads,
                ..ParallelOpts::default()
            },
        ),
    }
}

/// Simulated length of one segment of a probed monolithic run.
pub const SEGMENT_SECS: f64 = 1.0;

/// Run a built engine to `horizon` with `probe` slices interleaved,
/// returning the report and the run's host time without the slices.
/// The monolith is stepped with `Engine::step_until` one
/// [`SEGMENT_SECS`] window at a time (the same events as `run_until`,
/// under the null observer) with a slice after each window, then its
/// report is built. The sharded runner's windows are inside
/// `core::parallel`, so a sharded run gets a bracket of slices on its
/// worker threads before and after it instead.
pub fn run_probed(built: Built, horizon: SimTime, probe: &mut Probe) -> (RunReport, f64) {
    match built {
        Built::Mono(sim) => {
            let mut eng = sim.into_engine();
            let step = SimTime::from_secs_f64(SEGMENT_SECS).as_nanos();
            let end = horizon.as_nanos();
            let mut secs = 0.0;
            let mut until = 0u64;
            while until < end {
                until = until.saturating_add(step).min(end);
                let t = Instant::now();
                eng.step_until(SimTime::from_nanos(until), &mut NullObserver);
                secs += t.elapsed().as_secs_f64();
                probe.slice();
            }
            let t = Instant::now();
            let report = eng.finish_run(horizon, false);
            drop(eng);
            (report, secs + t.elapsed().as_secs_f64())
        }
        sharded => {
            let threads = sharded.threads();
            probe.bracket_on(threads);
            let t = Instant::now();
            let report = run(sharded, horizon);
            let secs = t.elapsed().as_secs_f64();
            probe.bracket_on(threads);
            (report, secs)
        }
    }
}

/// Run `built` to `horizon` with one observer per engine, made by
/// `make`; returns the report, each observer with its finished engine,
/// and the host time of the run.
pub fn run_observed<O, F>(
    built: Built,
    horizon: SimTime,
    mut make: F,
) -> (RunReport, Vec<(Engine, O)>, f64)
where
    O: Observer + Send,
    F: FnMut(&Engine) -> O,
{
    match built {
        Built::Mono(mut sim) => {
            let mut obs = make(sim.engine());
            let t = Instant::now();
            let report = sim.run_observed(horizon, &mut obs);
            let secs = t.elapsed().as_secs_f64();
            (report, vec![(sim.into_engine(), obs)], secs)
        }
        Built::Sharded {
            shards,
            shape,
            threads,
        } => {
            let observers = shards.iter().map(|s| make(&s.engine)).collect();
            let opts = ParallelOpts {
                threads,
                ..ParallelOpts::default()
            };
            let t = Instant::now();
            let (report, done) = run_sharded_observed(shards, observers, shape, horizon, opts);
            let secs = t.elapsed().as_secs_f64();
            let pairs = done.into_iter().map(|(s, o)| (s.engine, o)).collect();
            (report, pairs, secs)
        }
    }
}
