//! The sharded parallel runner: many independent shard engines, each
//! run once to the horizon on a worker-thread pool, merged into one
//! [`RunReport`] that is **bit-identical** to the monolithic engine's.
//!
//! # Execution model
//!
//! A *shard* is a complete [`Engine`] over one connected component of
//! the scenario's migration graph (nodes joined by a migration, plus
//! every VM they host). Components share no links, no disks, no chunk
//! stores and — on the decoupled fabrics the partitioner admits — never
//! contend on the switch aggregate, so their event streams are causally
//! independent: each shard owns its nodes' event sub-queue, guest
//! compute/dirty-rate updates, and the node-local flow state outright.
//!
//! Because nothing crosses between shards, nothing needs to meet
//! mid-run. The runner spawns one scoped pool of workers; each worker
//! claims the next unclaimed shard, runs it to the horizon and builds
//! its report ([`Engine::run_until_observed`]), then claims again. The calling thread only waits for the pool, then
//! merges. The switch aggregate, the one resource shards could share,
//! is audited once at entry: twice the shards' summed NIC capacity must
//! fit it (the partitioner's admission rule), which bounds the summed
//! flow rate at every instant of the run.
//!
//! # Determinism
//!
//! The shard structure is a pure function of the scenario — never of
//! the thread count. Threads only *execute* shards, and a shard's run
//! depends only on its own events, so the order in which workers claim
//! shards cannot influence any shard's state. Cross-shard outputs meet
//! only in the merge, which orders every record by global identity and
//! time — migrations and VMs by their global index, planner decisions
//! by `(decided_at, job)` (exactly the `(time, sequence)` order the
//! monolithic event loop admits them in), traffic by integer per-shard
//! counters whose sum is order-independent. The result: byte-identical
//! serialized reports for any thread count. Against the monolithic
//! engine every output matches except the event count: the monolith
//! serves same-nanosecond network completions of different components
//! with one `NetWake`, each shard with its own, so the merged `events`
//! can be higher by the number of coalesced wakes. The shipped
//! scenarios never coalesce across components, so for them the
//! monolith's report is byte-identical too — pinned by `lsm`'s
//! determinism suite at `--threads 1/2/8` under both solver modes,
//! including a zero horizon (only the t = 0 events run) and a horizon
//! of 10⁹ s.

use crate::engine::{Engine, MigrationRecord, NullObserver, Observer, RunReport, VmRecord};
use lsm_netsim::TrafficTag;
use lsm_simcore::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One shard: a complete engine over one migration-graph component,
/// plus the maps back to global identity (the merge's vocabulary).
pub struct Shard {
    /// The shard's engine, built over the component's nodes re-indexed
    /// densely in ascending global order (which preserves the
    /// monolithic solver's lowest-index tie-breaks).
    pub engine: Engine,
    /// Shard-local VM index → global VM index.
    pub vms: Vec<u32>,
    /// Shard-local migration-job index → global job index.
    pub jobs: Vec<u32>,
    /// Shard-local node index → global node index.
    pub nodes: Vec<u32>,
}

/// Global fleet dimensions the merged report must cover.
#[derive(Clone, Copy, Debug)]
pub struct FleetShape {
    /// Total VMs in the scenario.
    pub vms: u32,
    /// Total migration jobs in the scenario.
    pub jobs: u32,
    /// The fabric's switch aggregate capacity (bytes/second) — the one
    /// shared resource, audited against the shards' NIC capacity when
    /// the run starts.
    pub switch_capacity: f64,
}

/// Knobs of the sharded runner.
#[derive(Clone, Copy, Debug)]
pub struct ParallelOpts {
    /// Worker threads. `1` still runs the sharded path (the caller
    /// chooses monolithic vs sharded); values are clamped to the shard
    /// count.
    pub threads: usize,
    /// Unused by the runner, which runs every shard to the horizon in
    /// one pass. Kept for callers that size their own timing windows
    /// from the default (5 s).
    pub window_secs: f64,
}

impl Default for ParallelOpts {
    fn default() -> Self {
        ParallelOpts {
            threads: available_threads(),
            window_secs: 5.0,
        }
    }
}

/// The machine's available parallelism (1 if unknown).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run `shards` to `horizon` and merge the results. Convenience wrapper
/// of [`run_sharded_observed`] with null observers, discarding the
/// finished shard engines.
pub fn run_sharded(
    shards: Vec<Shard>,
    shape: FleetShape,
    horizon: SimTime,
    opts: ParallelOpts,
) -> RunReport {
    let observers = shards.iter().map(|_| NullObserver).collect();
    run_sharded_observed(shards, observers, shape, horizon, opts).0
}

/// Run every shard once to `horizon` on `opts.threads` workers, with
/// one observer per shard (`observers[i]` watches `shards[i]` — e.g. a
/// per-shard invariant checker), and merge the shard reports into the
/// fleet-wide [`RunReport`]. Returns the merged report and the finished
/// `(shard, observer)` pairs so callers can audit per-shard state
/// (`lsm run --check` finalizes each checker against its shard engine).
///
/// An observer that returns [`crate::engine::RunControl::Stop`] ends
/// **its own shard** at that event: the shard's records reflect the
/// stop instant, exactly as a stopped monolithic run of that component
/// would. Every other shard still runs to the horizon. A shard's
/// outcome depends only on its own events, so the merged report is the
/// same for any thread count.
///
/// # Panics
///
/// If twice the shards' summed NIC capacity exceeds
/// `shape.switch_capacity`: the partition is then unsound, because the
/// shards could contend on the switch aggregate.
pub fn run_sharded_observed<O: Observer + Send>(
    shards: Vec<Shard>,
    observers: Vec<O>,
    shape: FleetShape,
    horizon: SimTime,
    opts: ParallelOpts,
) -> (RunReport, Vec<(Shard, O)>) {
    assert_eq!(shards.len(), observers.len(), "one observer per shard");
    // The switch aggregate is the only resource shards could share. On a
    // fabric whose switch carries at least twice the summed NIC capacity
    // it can never bind (the partitioner's admission rule), so the
    // summed flow rate fits it at every instant of the run.
    let nic_total: f64 = shards
        .iter()
        .map(|s| s.engine.config().nodes as f64 * s.engine.config().nic_bw)
        .sum();
    assert!(
        2.0 * nic_total <= shape.switch_capacity * (1.0 + 1e-9),
        "shards carry {nic_total} B/s of NIC capacity, more than half the \
         switch aggregate {} B/s — unsound partition",
        shape.switch_capacity
    );
    let threads = opts.threads.clamp(1, shards.len().max(1));
    // A Mutex per slot lets idle workers claim whichever shard is next
    // without partitioning; each slot is only ever locked by the one
    // worker that claimed it.
    let slots: Vec<Mutex<(Shard, O, Option<RunReport>)>> = shards
        .into_iter()
        .zip(observers)
        .map(|(s, o)| Mutex::new((s, o, None)))
        .collect();
    let claim = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = claim.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = slots.get(i) else { break };
                let (shard, obs, report) = &mut *slot.lock().expect("shard lock");
                shard.engine.enable_load_log();
                // The report is built here rather than after the pool,
                // from memory the worker already touched while stepping.
                *report = Some(shard.engine.run_until_observed(horizon, obs));
            });
        }
    });
    let (finished, reports): (Vec<_>, Vec<_>) = slots
        .into_iter()
        .map(|slot| {
            let (shard, obs, report) = slot.into_inner().expect("shard lock");
            ((shard, obs), report.expect("every shard ran"))
        })
        .unzip();
    let merged = merge_reports(&finished, &reports, &shape, horizon);
    (merged, finished)
}

/// Merge per-shard reports into the fleet-wide report, every record
/// re-keyed to global identity. See the module docs for why each field
/// is bit-identical to the monolithic engine's.
fn merge_reports<O>(
    shards: &[(Shard, O)],
    reports: &[RunReport],
    shape: &FleetShape,
    horizon: SimTime,
) -> RunReport {
    let mut migrations: Vec<Option<MigrationRecord>> = vec![None; shape.jobs as usize];
    let mut vms: Vec<Option<VmRecord>> = vec![None; shape.vms as usize];
    let mut sla_jobs: Vec<Option<crate::qos::SlaJob>> = vec![None; shape.jobs as usize];
    let mut planner = Vec::new();
    let mut horizon_seen = horizon;
    for ((shard, _), rep) in shards.iter().zip(reports) {
        horizon_seen = horizon_seen.max(rep.horizon);
        debug_assert!(
            rep.planner_skips.is_empty() && rep.rebalance.is_empty() && rep.resilience.is_empty(),
            "the partitioner only admits scenarios without orchestrated \
             intents, rebalancing or resilience state"
        );
        for (local, rec) in rep.migrations.iter().enumerate() {
            let mut rec = rec.clone();
            rec.vm = shard.vms[rec.vm as usize];
            migrations[shard.jobs[local] as usize] = Some(rec);
        }
        for rec in &rep.vms {
            let mut rec = rec.clone();
            let global = shard.vms[rec.vm as usize];
            rec.vm = global;
            rec.final_host = shard.nodes[rec.final_host as usize];
            vms[global as usize] = Some(rec);
        }
        for job in &rep.sla.jobs {
            let mut job = *job;
            job.job = shard.jobs[job.job as usize];
            job.vm = shard.vms[job.vm as usize];
            sla_jobs[job.job as usize] = Some(job);
        }
        for dec in &rep.planner {
            let mut dec = dec.clone();
            debug_assert!(
                dec.request.is_none(),
                "orchestrated requests are not shardable"
            );
            dec.job = shard.jobs[dec.job as usize];
            dec.vm = shard.vms[dec.vm as usize];
            dec.source = shard.nodes[dec.source as usize];
            dec.dest = shard.nodes[dec.dest as usize];
            planner.push(dec);
        }
    }
    // Admission order: the monolithic loop pops equal-time
    // `MigrationStart` events in schedule order — ascending job index —
    // and each admits synchronously, so `(decided_at, job)` is exactly
    // its decision order.
    planner.sort_by_key(|d| (d.decided_at, d.job));
    let traffic: Vec<(TrafficTag, u64)> = TrafficTag::ALL
        .iter()
        .map(|&t| (t, reports.iter().map(|r| r.traffic_for(t)).sum()))
        .collect();
    let logs: Vec<&[(SimTime, u32)]> = shards
        .iter()
        .map(|(s, _)| s.engine.network().load_log())
        .collect();
    RunReport {
        horizon: horizon_seen,
        migrations: migrations
            .into_iter()
            .map(|m| m.expect("partition covers every migration job"))
            .collect(),
        vms: vms
            .into_iter()
            .map(|v| v.expect("partition covers every VM"))
            .collect(),
        planner,
        planner_skips: Vec::new(),
        rebalance: Vec::new(),
        resilience: Vec::new(),
        sla: crate::qos::SlaReport::from_jobs(
            sla_jobs
                .into_iter()
                .map(|j| j.expect("partition covers every SLA row"))
                .collect(),
        ),
        traffic,
        total_traffic: reports.iter().map(|r| r.total_traffic).sum(),
        migration_traffic: reports.iter().map(|r| r.migration_traffic).sum(),
        events: reports.iter().map(|r| r.events).sum(),
        peak_flows: merged_peak(&logs, horizon_seen) as u64,
    }
}

/// Reconstruct the global concurrent-flow peak from per-shard
/// changepoint logs, each sorted by time: a k-way heap merge over
/// `(time, count)` entries, taking the summed count at the end of every
/// instant at which any shard's flow set changed. This reproduces the
/// monolithic engine's end-of-instant sampling exactly — including its
/// blind spot for an instant coinciding with the horizon, which no
/// later advance samples. O(E log k) time and O(k) space for E entries
/// over k logs.
fn merged_peak(logs: &[&[(SimTime, u32)]], horizon: SimTime) -> usize {
    let mut next = vec![0usize; logs.len()];
    let mut cur = vec![0u64; logs.len()];
    let mut heap: BinaryHeap<Reverse<(SimTime, usize)>> = logs
        .iter()
        .enumerate()
        .filter_map(|(k, log)| log.first().map(|e| Reverse((e.0, k))))
        .collect();
    let mut total = 0u64;
    let mut peak = 0u64;
    while let Some(Reverse((t, k))) = heap.pop() {
        let log = logs[k];
        while let Some(&(_, n)) = log.get(next[k]).filter(|e| e.0 == t) {
            total = total - cur[k] + n as u64;
            cur[k] = n as u64;
            next[k] += 1;
        }
        if let Some(e) = log.get(next[k]) {
            heap.push(Reverse((e.0, k)));
        }
        let instant_over = heap.peek().is_none_or(|Reverse((tn, _))| *tn > t);
        if instant_over && t < horizon {
            peak = peak.max(total);
        }
    }
    peak as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    /// The original O(entries × shards) sweep, kept as the oracle: at
    /// every distinct instant it rescans every log.
    fn merged_peak_reference(logs: &[&[(SimTime, u32)]], horizon: SimTime) -> usize {
        let mut idx = vec![0usize; logs.len()];
        let mut cur = vec![0u64; logs.len()];
        let mut total = 0u64;
        let mut peak = 0u64;
        while let Some(t) = logs
            .iter()
            .zip(&idx)
            .filter_map(|(log, &i)| log.get(i).map(|e| e.0))
            .min()
        {
            for (k, log) in logs.iter().enumerate() {
                while idx[k] < log.len() && log[idx[k]].0 == t {
                    let n = log[idx[k]].1 as u64;
                    total = total - cur[k] + n;
                    cur[k] = n;
                    idx[k] += 1;
                }
            }
            if t < horizon {
                peak = peak.max(total);
            }
        }
        peak as usize
    }

    #[test]
    fn merged_peak_sums_concurrent_shards() {
        // Shard A: 1 flow during [0, 10), Shard B: 2 flows during [5, 8).
        let a: Vec<(SimTime, u32)> = vec![(t(0.0), 1), (t(10.0), 0)];
        let b: Vec<(SimTime, u32)> = vec![(t(5.0), 2), (t(8.0), 0)];
        assert_eq!(merged_peak(&[&a, &b], t(100.0)), 3);
    }

    #[test]
    fn merged_peak_ignores_instants_at_the_horizon() {
        // A changepoint exactly at the horizon is never sampled by the
        // monolithic engine either.
        let a: Vec<(SimTime, u32)> = vec![(t(0.0), 1), (t(10.0), 5)];
        assert_eq!(merged_peak(&[&a], t(10.0)), 1);
        assert_eq!(merged_peak(&[&a], t(11.0)), 5);
    }

    #[test]
    fn merged_peak_samples_only_the_end_of_an_instant() {
        // At t = 5 shard A drops a flow and shard B adds two: the sum
        // passes through 3 mid-instant but ends at 2.
        let a: Vec<(SimTime, u32)> = vec![(t(0.0), 1), (t(5.0), 0)];
        let b: Vec<(SimTime, u32)> = vec![(t(5.0), 2), (t(9.0), 0)];
        assert_eq!(merged_peak(&[&a, &b], t(100.0)), 2);
        assert_eq!(merged_peak(&[], t(100.0)), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The heap merge equals the rescanning sweep on random logs:
        /// up to five shards (so a single shard too), empty logs,
        /// entries on a coarse 0–20 ns grid (so different shards often
        /// change at the same instant) and a horizon on the same grid
        /// (so entries fall at and past it).
        #[test]
        fn merged_peak_matches_the_rescanning_sweep(
            shards in prop::collection::vec(
                prop::collection::vec((0u64..4, 0u32..6), 0..8),
                1..6,
            ),
            horizon in 0u64..22,
        ) {
            // Each shard's steps become a sorted log; a zero step
            // repeats the previous instant (the last entry wins).
            let logs: Vec<Vec<(SimTime, u32)>> = shards
                .iter()
                .map(|steps| {
                    let mut at = 0u64;
                    steps
                        .iter()
                        .map(|&(dt, n)| {
                            at += dt;
                            (SimTime::from_nanos(at), n)
                        })
                        .collect()
                })
                .collect();
            let views: Vec<&[(SimTime, u32)]> = logs.iter().map(Vec::as_slice).collect();
            let horizon = SimTime::from_nanos(horizon);
            prop_assert_eq!(
                merged_peak(&views, horizon),
                merged_peak_reference(&views, horizon)
            );
        }
    }
}
