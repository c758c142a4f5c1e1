//! What an observer's `Stop` means on the sharded runner: the stopping
//! shard ends at that event, exactly as a stopped run of its component
//! alone would, and every other shard runs on to the horizon. Each
//! shard's outcome depends only on its own events, so the merged report
//! is the same at any thread count.

use lsm_core::{Engine, Observer, RunControl, RunReport};
use lsm_experiments::scenario::{build_scenario, ScenarioSpec};
use lsm_experiments::shard::{partition, run_scenario_sharded_observed, ShardedRun};
use lsm_experiments::stress::scale1024_quick_spec;
use lsm_netsim::SolverMode;
use lsm_simcore::time::SimTime;

/// The shard whose observer stops it, and the event it stops at.
const STOPPED: usize = 5;
const STOP_AT_EVENT: u64 = 300;

/// Stops its engine right after its `limit`-th event, or never.
struct StopAfter {
    limit: Option<u64>,
    seen: u64,
}

impl Observer for StopAfter {
    fn on_tick(&mut self, _eng: &Engine) -> RunControl {
        self.seen += 1;
        if Some(self.seen) == self.limit {
            RunControl::Stop
        } else {
            RunControl::Continue
        }
    }
}

fn run(spec: &ScenarioSpec, threads: usize, stop: Option<usize>) -> ShardedRun<StopAfter> {
    let mut next = 0usize;
    run_scenario_sharded_observed(spec, threads, SolverMode::default(), || {
        let limit = (stop == Some(next)).then_some(STOP_AT_EVENT);
        next += 1;
        StopAfter { limit, seen: 0 }
    })
    .expect("shards build")
    .expect("scale1024-quick is shardable")
}

fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string_pretty(v).expect("serializes")
}

/// The serialized VM and migration records a report holds for the
/// given global VMs and jobs.
fn records(report: &RunReport, vms: &[u32], jobs: &[u32]) -> Vec<String> {
    vms.iter()
        .map(|&v| json(&report.vms[v as usize]))
        .chain(jobs.iter().map(|&j| json(&report.migrations[j as usize])))
        .collect()
}

#[test]
fn a_stopped_shard_ends_alone_and_the_merge_ignores_thread_count() {
    let spec = scale1024_quick_spec();
    let horizon = SimTime::from_secs_f64(spec.horizon_secs);
    let subs = partition(&spec).expect("shardable");
    let full = run(&spec, 2, None);
    assert!(
        full.shards[STOPPED].0.engine.events_processed() > STOP_AT_EVENT,
        "the chosen shard must have more than {STOP_AT_EVENT} events for the stop to bite"
    );

    let stopped = run(&spec, 2, Some(STOPPED));
    let stopped8 = run(&spec, 8, Some(STOPPED));
    assert_eq!(
        json(&stopped.report),
        json(&stopped8.report),
        "the merged report of a stopped run depends on the thread count"
    );

    // The stopped shard ended at its STOP_AT_EVENT-th event, and its
    // records equal those of its component run alone and stopped at the
    // same event, with ids mapped back to global.
    let shard = &stopped.shards[STOPPED].0;
    assert_eq!(shard.engine.events_processed(), STOP_AT_EVENT);
    assert!(shard.engine.now() < horizon);
    let sub = &subs[STOPPED];
    assert_eq!(sub.vms, shard.vms);
    let mut alone = build_scenario(&sub.spec).expect("component builds");
    let mut obs = StopAfter {
        limit: Some(STOP_AT_EVENT),
        seen: 0,
    };
    let mut expected = alone.run_observed(horizon, &mut obs);
    assert_eq!(alone.now(), shard.engine.now());
    for rec in &mut expected.vms {
        rec.vm = sub.vms[rec.vm as usize];
        rec.final_host = sub.nodes[rec.final_host as usize];
    }
    for rec in &mut expected.migrations {
        rec.vm = sub.vms[rec.vm as usize];
    }
    let got = records(&stopped.report, &sub.vms, &sub.jobs);
    let want: Vec<String> = expected
        .vms
        .iter()
        .map(json)
        .chain(expected.migrations.iter().map(json))
        .collect();
    assert_eq!(got, want, "the stopped shard's records");
    assert_ne!(
        got,
        records(&full.report, &sub.vms, &sub.jobs),
        "stopping at event {STOP_AT_EVENT} left the shard's records unchanged"
    );

    // Every other shard reached the horizon with the records of the
    // unstopped run.
    for (i, ((shard, _), (full_shard, _))) in stopped.shards.iter().zip(&full.shards).enumerate() {
        if i == STOPPED {
            continue;
        }
        assert_eq!(shard.engine.now(), horizon, "shard {i} stopped early");
        assert_eq!(
            shard.engine.events_processed(),
            full_shard.engine.events_processed(),
            "shard {i}"
        );
        assert_eq!(
            records(&stopped.report, &shard.vms, &shard.jobs),
            records(&full.report, &shard.vms, &shard.jobs),
            "shard {i}"
        );
    }
}
