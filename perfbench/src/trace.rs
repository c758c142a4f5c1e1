//! The traced run: per-layer metrics measured from outside, by timing
//! calls into each layer's public functions and by observers attached
//! to the engine. Each concern gets its own pass over the same scenario
//! so that one pass's instrumentation does not inflate another's
//! timings. A pass on the workload's own engine path must reproduce the
//! untraced report exactly, one on the other path that path's report in
//! the cross-check.

use crate::check::{bad_migrations, fingerprint};
use crate::gen::{generate, Size, Workload};
use crate::metrics::{median, per_layer, percentile_sorted, Sheet, STRATEGIES, TAGS};
use crate::runner::{self, horizon, run_observed, Built, Path};
use crate::timed::{CrossCheck, Outcome};
use lsm_check::InvariantObserver;
use lsm_core::engine::{Engine, Observer, RunControl};
use lsm_core::parallel::ParallelOpts;
use lsm_core::policy::StrategyKind;
use lsm_core::RunReport;
use lsm_netsim::{FlowId, FlowNet, FlowView, NodeId, Topology, TrafficTag};
use lsm_simcore::time::SimTime;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Set-up repetitions whose per-stage median the traced run reports.
const SETUP_REPS: usize = 3;

/// Times every dispatched event: the host time between consecutive
/// `on_tick` calls, and its sum per simulated window. The first event
/// after a window change is not sampled (on the sharded path the gap
/// spans a barrier) unless the caller re-armed the timer.
struct EventTimer {
    window_ns: u64,
    last: Option<(Instant, u64)>,
    armed: bool,
    samples: Vec<u32>,
    per_window_ns: Vec<u64>,
}

impl EventTimer {
    fn new(window_ns: u64) -> Self {
        EventTimer {
            window_ns,
            last: None,
            armed: false,
            samples: Vec::new(),
            per_window_ns: Vec::new(),
        }
    }

    /// Count the next event from now, whatever its window.
    fn arm(&mut self) {
        self.last = Some((Instant::now(), 0));
        self.armed = true;
    }
}

impl Observer for EventTimer {
    fn on_tick(&mut self, eng: &Engine) -> RunControl {
        let now = Instant::now();
        let w = eng.now().as_nanos() / self.window_ns;
        if let Some((last, lw)) = self.last {
            if self.armed || lw == w {
                let ns = (now - last).as_nanos().min(u32::MAX as u128) as u64;
                self.samples.push(ns as u32);
                if self.per_window_ns.len() <= w as usize {
                    self.per_window_ns.resize(w as usize + 1, 0);
                }
                self.per_window_ns[w as usize] += ns;
            }
        }
        self.armed = false;
        self.last = Some((now, w));
        RunControl::Continue
    }
}

/// One network operation seen from outside the engine.
enum FlowOp {
    Start {
        at: SimTime,
        id: FlowId,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        cap: Option<f64>,
        tag: TrafficTag,
    },
    End {
        at: SimTime,
        id: FlowId,
    },
    /// The end of an event that changed the flow set.
    EventEnd,
}

/// Records flow starts and ends by diffing `FlowNet::flow_views` (which
/// ascend by id) after every event.
struct FlowCapture {
    topology: Topology,
    live: Vec<FlowId>,
    views: Vec<FlowView>,
    ops: Vec<FlowOp>,
}

impl FlowCapture {
    fn new(eng: &Engine) -> Self {
        FlowCapture {
            topology: eng.network().topology().clone(),
            live: Vec::new(),
            views: Vec::new(),
            ops: Vec::new(),
        }
    }
}

impl Observer for FlowCapture {
    fn on_tick(&mut self, eng: &Engine) -> RunControl {
        let at = eng.now();
        self.views.clear();
        self.views.extend(eng.network().flow_views());
        let (mut i, mut j) = (0, 0);
        let mut changed = false;
        while i < self.live.len() || j < self.views.len() {
            let old = self.live.get(i).copied();
            let new = self.views.get(j).map(|v| v.id);
            match (old, new) {
                (Some(o), Some(n)) if o == n => {
                    i += 1;
                    j += 1;
                }
                (Some(o), n) if n.is_none_or(|n| o < n) => {
                    self.ops.push(FlowOp::End { at, id: o });
                    changed = true;
                    i += 1;
                }
                _ => {
                    let v = self.views[j];
                    self.ops.push(FlowOp::Start {
                        at,
                        id: v.id,
                        src: v.src,
                        dst: v.dst,
                        bytes: v.remaining.round() as u64,
                        cap: v.cap,
                        tag: v.tag,
                    });
                    changed = true;
                    j += 1;
                }
            }
        }
        if changed {
            self.ops.push(FlowOp::EventEnd);
            self.live.clear();
            self.live.extend(self.views.iter().map(|v| v.id));
        }
        RunControl::Continue
    }
}

/// Host time and counts of a netsim replay.
#[derive(Default)]
struct Replay {
    starts: u64,
    ends: u64,
    nexts: u64,
    start: Duration,
    end: Duration,
    next: Duration,
    live_sum: u64,
    ops: u64,
    peak: usize,
}

impl Replay {
    /// Drive a fresh `FlowNet` over `topology` through `ops`, reading
    /// the next completion where the engine reads it: after every start
    /// and cancel (`Engine::resync_net`), before each completion it
    /// drains, and twice more in an event that drained completions (the
    /// read that ends the drain loop and the closing resync).
    fn run(&mut self, topology: Topology, ops: &[FlowOp]) {
        let mut net = FlowNet::new(topology);
        let mut ids: HashMap<FlowId, FlowId> = HashMap::new();
        let mut drained = false;
        for op in ops {
            match *op {
                FlowOp::Start {
                    at,
                    id,
                    src,
                    dst,
                    bytes,
                    cap,
                    tag,
                } => {
                    let t = Instant::now();
                    let rid = net.start_flow(at, src, dst, bytes, cap, tag);
                    self.start += t.elapsed();
                    self.starts += 1;
                    ids.insert(id, rid);
                    self.next_completion(&net);
                }
                FlowOp::End { at, id } => {
                    let Some(rid) = ids.remove(&id) else { continue };
                    net.advance(at);
                    if net.remaining_of(rid) == Some(0) {
                        self.next_completion(&net);
                        let t = Instant::now();
                        net.complete(at, rid);
                        self.end += t.elapsed();
                        drained = true;
                    } else {
                        let t = Instant::now();
                        black_box(net.cancel_flow(at, rid));
                        self.end += t.elapsed();
                        self.next_completion(&net);
                    }
                    self.ends += 1;
                }
                FlowOp::EventEnd => {
                    if drained {
                        self.next_completion(&net);
                        self.next_completion(&net);
                        drained = false;
                    }
                }
            }
            self.live_sum += net.active() as u64;
            self.peak = self.peak.max(net.active());
            self.ops += 1;
        }
    }

    fn next_completion(&mut self, net: &FlowNet) {
        let t = Instant::now();
        black_box(net.next_completion());
        self.next += t.elapsed();
        self.nexts += 1;
    }

    fn total(&self) -> Duration {
        self.start + self.end + self.next
    }
}

fn mean_us(d: Duration, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        d.as_secs_f64() * 1e6 / n as f64
    }
}

/// What the timing pass measured: the report, the engine metrics' raw
/// inputs and the traced run's total host time.
struct Timing {
    report: RunReport,
    step_s: f64,
    report_s: f64,
    total_s: f64,
    samples: Vec<u32>,
    window_ms_max: f64,
}

/// The timing pass: the engine stepped in simulated windows under an
/// [`EventTimer`].
fn timing_pass(built: Built, h: SimTime) -> Timing {
    let window_secs = ParallelOpts::default().window_secs;
    let window_ns = SimTime::from_secs_f64(window_secs).as_nanos();
    match built {
        Built::Mono(sim) => {
            let mut eng = sim.into_engine();
            let mut timer = EventTimer::new(window_ns);
            let (mut step, mut window_max) = (Duration::ZERO, Duration::ZERO);
            let mut until = 0u64;
            loop {
                until = until.saturating_add(window_ns).min(h.as_nanos());
                timer.arm();
                let t = Instant::now();
                eng.step_until(SimTime::from_nanos(until), &mut timer);
                let d = t.elapsed();
                step += d;
                window_max = window_max.max(d);
                if until >= h.as_nanos() {
                    break;
                }
            }
            let t = Instant::now();
            let report = eng.finish_run(h, false);
            let report_s = t.elapsed().as_secs_f64();
            Timing {
                report,
                step_s: step.as_secs_f64(),
                report_s,
                total_s: step.as_secs_f64() + report_s,
                samples: timer.samples,
                window_ms_max: window_max.as_secs_f64() * 1e3,
            }
        }
        sharded @ Built::Sharded { .. } => {
            let (report, mut done, secs) = run_observed(sharded, h, |_| EventTimer::new(window_ns));
            // The shards' reports were built inside the run; rebuilding
            // them from the finished engines times that step alone.
            let t = Instant::now();
            for (eng, _) in &mut done {
                black_box(eng.finish_run(h, false));
            }
            let report_s = t.elapsed().as_secs_f64();
            let mut per_window: Vec<u64> = Vec::new();
            let mut samples = Vec::new();
            for (_, timer) in done {
                if per_window.len() < timer.per_window_ns.len() {
                    per_window.resize(timer.per_window_ns.len(), 0);
                }
                for (w, ns) in timer.per_window_ns.iter().enumerate() {
                    per_window[w] += ns;
                }
                samples.extend(timer.samples);
            }
            let window_max = per_window.into_iter().max().unwrap_or(0);
            Timing {
                report,
                step_s: secs,
                report_s,
                total_s: secs,
                samples,
                window_ms_max: window_max as f64 / 1e6,
            }
        }
    }
}

/// Counters read exactly from a report: storage, block device,
/// hypervisor, per-tag traffic and planner.
fn report_counters(r: &RunReport, sheet: &mut Sheet) {
    let vm_sum = |f: fn(&lsm_core::VmRecord) -> u64| r.vms.iter().map(f).sum::<u64>() as f64;
    sheet.set("blockdev.reads_hit_bytes", vm_sum(|v| v.reads_hit_bytes));
    sheet.set("blockdev.reads_miss_bytes", vm_sum(|v| v.reads_miss_bytes));
    sheet.set(
        "blockdev.writes_buffered_bytes",
        vm_sum(|v| v.writes_buffered_bytes),
    );
    sheet.set(
        "blockdev.writes_throttled_bytes",
        vm_sum(|v| v.writes_throttled_bytes),
    );
    sheet.set(
        "blockdev.reads_pull_blocked",
        vm_sum(|v| v.reads_pull_blocked),
    );
    let mig_sum =
        |f: fn(&lsm_core::MigrationRecord) -> u64| r.migrations.iter().map(f).sum::<u64>() as f64;
    sheet.set("storage.pushed_chunks", mig_sum(|m| m.pushed_chunks));
    sheet.set("storage.pulled_chunks", mig_sum(|m| m.pulled_chunks));
    sheet.set("storage.ondemand_chunks", mig_sum(|m| m.ondemand_chunks));
    sheet.set("hypervisor.mem_rounds", mig_sum(|m| m.mem_rounds as u64));
    for (tag, name) in TrafficTag::ALL.iter().zip(TAGS) {
        sheet.set(&format!("netsim.bytes.{name}"), r.traffic_for(*tag) as f64);
    }
    sheet.set("planner.decisions", r.planner.len() as f64);
    sheet.set(
        "planner.deferred",
        r.planner.iter().filter(|d| d.deferred).count() as f64,
    );
    sheet.set("planner.skips", r.planner_skips.len() as f64);
    for (kind, name) in StrategyKind::ALL.iter().zip(STRATEGIES) {
        let n = r.planner.iter().filter(|d| d.strategy == *kind).count();
        sheet.set(&format!("planner.strategy.{name}"), n as f64);
    }
}

/// The traced run of `workload`.
pub fn run(workload: Workload, size: Size, seed: u64, cores: usize) -> Result<Outcome, String> {
    let gen = generate(workload, size, seed);
    let path = Path::of(workload, cores);
    let requested = gen.migrations;
    let mut sheet = Sheet::new(per_layer());
    let mut notes = Vec::new();

    // Set-up stages, as medians over a few repetitions; the last build
    // gives the untraced reference run.
    let mut stages: [Vec<f64>; 4] = Default::default();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let (s, built) = runner::setup(&gen.toml, path)?;
        let t = s.times;
        for (v, d) in stages
            .iter_mut()
            .zip([t.parse, t.lint, t.partition, t.build])
        {
            v.push(d.as_secs_f64());
        }
        last = Some((s, built));
    }
    let (setup, built) = last.expect("set-up ran");
    let h = horizon(&setup.spec);
    let shards = built.shards();
    let threads = built.threads();
    let own_sharded = shards > 1;
    sheet.set("parse.s", median(&stages[0]));
    sheet.set("parse.bytes", gen.toml.len() as f64);
    sheet.set("lint.s", median(&stages[1]));
    sheet.set("lint.errors", setup.lint_errors as f64);
    // The monolithic path never partitions; time the partitioner anyway
    // so every workload reports what it costs.
    let t = Instant::now();
    let components = lsm_experiments::shard::partition(&setup.spec).map_or(1, |s| s.len());
    let partition_s = match path {
        Path::Mono => t.elapsed().as_secs_f64(),
        Path::Threaded(_) => median(&stages[2]),
    };
    sheet.set("shard.partition_s", partition_s);
    sheet.set("shard.components", components as f64);
    sheet.set("build.s", median(&stages[3]));

    let t = Instant::now();
    let reference = runner::run(built, h);
    let untraced_s = t.elapsed().as_secs_f64();
    // Every pass's report, and whether it ran sharded.
    let mut passes: Vec<(&str, RunReport, bool)> = Vec::new();

    // Engine timing pass.
    let (_, built) = runner::setup(&gen.toml, path)?;
    let timing = timing_pass(built, h);
    let mut samples = timing.samples;
    samples.sort_unstable();
    let events = timing.report.events;
    sheet.set("engine.step_s", timing.step_s);
    sheet.set("engine.events", events as f64);
    sheet.set(
        "engine.ns_per_event",
        timing.step_s * 1e9 / events.max(1) as f64,
    );
    sheet.set("engine.event_ns_p50", percentile_sorted(&samples, 0.5));
    sheet.set("engine.event_ns_p99", percentile_sorted(&samples, 0.99));
    sheet.set("engine.window_ms_max", timing.window_ms_max);
    sheet.set("report.s", timing.report_s);
    sheet.set("trace.overhead", timing.total_s / untraced_s);
    passes.push(("timing", timing.report, own_sharded));

    // Flow capture pass, then the replay against fresh networks.
    let (_, built) = runner::setup(&gen.toml, path)?;
    let (report, captured, capture_s) = run_observed(built, h, FlowCapture::new);
    passes.push(("flow capture", report, own_sharded));
    notes.push(format!("flow capture pass {capture_s:.3} s"));
    let mut replay = Replay::default();
    for (_, cap) in captured {
        replay.run(cap.topology, &cap.ops);
    }
    notes.push(format!(
        "netsim replay: {} next_completion reads",
        replay.nexts
    ));
    sheet.set("netsim.flow_starts", replay.starts as f64);
    sheet.set("netsim.flow_ends", replay.ends as f64);
    sheet.set("netsim.replay_s", replay.total().as_secs_f64());
    sheet.set("netsim.start_us", mean_us(replay.start, replay.starts));
    sheet.set("netsim.end_us", mean_us(replay.end, replay.ends));
    sheet.set(
        "netsim.next_completion_us",
        mean_us(replay.next, replay.nexts),
    );
    sheet.set(
        "netsim.live_flows_mean",
        replay.live_sum as f64 / replay.ops.max(1) as f64,
    );
    sheet.set("netsim.peak_flows", replay.peak as f64);
    sheet.set("netsim.share", replay.total().as_secs_f64() / timing.step_s);

    // Invariant-check pass. The fleets are checked shard by shard, as
    // `lsm run --check` does on its default threaded path: on the
    // monolith the checker's periodic deep scan walks every chunk of
    // every VM and the pass takes some 35 times the run.
    let check_path = match workload {
        Workload::FleetMono => Path::Threaded(cores.max(2)),
        _ => path,
    };
    let (_, built) = runner::setup(&gen.toml, check_path)?;
    let check_sharded = built.shards() > 1;
    let (report, mut checked, check_s) = run_observed(built, h, |_| InvariantObserver::new());
    notes.push(format!(
        "invariant check pass on {} engine(s): {check_s:.3} s",
        checked.len()
    ));
    let (mut checks, mut violations) = (0u64, 0u64);
    for (eng, obs) in &mut checked {
        obs.finish(eng);
        checks += obs.checks_run();
        violations += obs.total_violations();
        for v in obs.violations().iter().take(4) {
            notes.push(format!("violation: {v}"));
        }
    }
    sheet.set("check.checks_run", checks as f64);
    sheet.set("check.violations", violations as f64);
    passes.push(("invariant check", report, check_sharded));

    let mut failed = bad_migrations(&reference);
    if setup.lint_errors > 0 || violations > 0 || reference.migrations.len() != requested {
        failed = requested;
    }

    // Both engine paths of the fleets: they must agree, and on the
    // sharded fleet the monolith's time is the speed-up's baseline.
    let cross = CrossCheck::run(workload, &gen.toml, cores)?;
    let mut speedup = 1.0;
    if let Some(cc) = &cross {
        notes.push(cc.note());
        if own_sharded {
            speedup = cc.mono_s / untraced_s;
        }
        if !cc.agree() {
            failed = requested;
        }
        passes.push(("cross-check", cc.report(own_sharded).clone(), own_sharded));
    }
    sheet.set("parallel.threads", threads as f64);
    sheet.set("parallel.shards", shards as f64);
    sheet.set("parallel.speedup_vs_mono", speedup);
    report_counters(&reference, &mut sheet);

    // A pass on the workload's own path must reproduce the untraced
    // report, one on the other path the cross-check's report there.
    let exact = fingerprint(&reference);
    for (what, r, sharded) in &passes {
        let same = match &cross {
            Some(cc) if *sharded != own_sharded => {
                fingerprint(r) == fingerprint(cc.report(*sharded))
            }
            _ => fingerprint(r) == exact,
        };
        if !same {
            notes.push(format!("{what} pass: REPORT DIFFERS from the untraced run"));
            failed = requested;
        }
    }
    sheet.set("migrations_failed_frac", failed as f64 / requested as f64);
    notes.insert(
        0,
        format!("traced: engine.events={events} untraced_run_s={untraced_s:.3}"),
    );
    Ok(Outcome {
        sheet,
        attempted: requested as u64,
        failed: failed as u64,
        notes,
        threads,
    })
}
