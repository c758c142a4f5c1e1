//! Seeded workload generators.
//!
//! Each workload is emitted directly as scenario TOML text: the program
//! under test receives nothing but that text, and the workload does not
//! drift when the repository's own scenario builders change. The same
//! `(workload, size, seed)` always yields byte-identical text.

use lsm_simcore::rng::DetRng;
use std::fmt::Write;

/// One benchmark workload (see `README.md` for why each exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Pair-partner AsyncWR fleet on the monolithic engine.
    FleetMono,
    /// The same fleet through the sharded parallel engine.
    FleetSharded,
    /// Switch-coupled, orchestrated, QoS-shaped mixed fleet.
    ControlMixed,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::FleetMono,
        Workload::FleetSharded,
        Workload::ControlMixed,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetMono => "fleet_mono",
            Workload::FleetSharded => "fleet_sharded",
            Workload::ControlMixed => "control_mixed",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Workload scale: the measured size, or a seconds-long reduction with
/// the same structure for the benchmark's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// The reduced test size.
    Small,
}

/// A generated workload: the scenario text and the number of
/// migrations it requests.
#[derive(Clone, Debug)]
pub struct Generated {
    /// Scenario TOML text.
    pub toml: String,
    /// Migrations the scenario requests.
    pub migrations: usize,
}

/// Generate `workload` at `size` from `seed`.
pub fn generate(workload: Workload, size: Size, seed: u64) -> Generated {
    match workload {
        Workload::FleetMono | Workload::FleetSharded => fleet(size, seed),
        Workload::ControlMixed => control_mixed(size, seed),
    }
}

const MIB: u64 = 1 << 20;

/// `Fisher–Yates` permutation of `0..n` drawn from `rng`.
fn permutation(n: u32, rng: &mut DetRng) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n).collect();
    for i in (1..p.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        p.swap(i, j);
    }
    p
}

/// The `[cluster]` section: the paper's graphene node (the repository's
/// `ClusterConfig::graphene` values, spelled out so the workload does
/// not move with the program's defaults) with the given overrides.
fn cluster(out: &mut String, nodes: u32, switch_bw: f64, vm_ram: u64, image_size: u64) {
    let _ = write!(
        out,
        "[cluster]
nodes = {nodes}
nic_bw = 123207680.0
switch_bw = {switch_bw:?}
net_latency = 100000
disk_bw = 57671680.0
cache_read_bw = 1073741824.0
cache_write_bw = 278921216.0
vm_ram = {vm_ram}
image_size = {image_size}
chunk_size = 262144
repo_replication = 2
postcopy_memory = false
postcopy_fault_slowdown = 0.6
threshold = 3
transfer_batch = 4
transfer_window = 2
migration_cpu_steal = 0.08
io_mem_dirty_factor = 0.35
writeback_depth = 2
dirty_expire_secs = 10.0
prefetch_priority = true
linger_round_cap = 10000
pvfs_stripe = 65536
pvfs_op_overhead = 2000000
pvfs_write_overhead = 16000000
seed = 42

[cluster.mem]
downtime_target = 30000000
max_rounds = 30
"
    );
}

fn header(out: &mut String, name: &str, horizon: f64) {
    let _ = write!(
        out,
        "name = \"{name}\"\nstrategy = \"Hybrid\"\ngrouped = false\nhorizon_secs = {horizon:?}\n\n"
    );
}

fn migration(out: &mut String, vm: u32, dest: u32, at: f64, adaptive: bool) {
    let _ = write!(
        out,
        "\n[[migrations]]\nvm = {vm}\ndest = {dest}\nat_secs = {at:?}\n"
    );
    if adaptive {
        out.push_str("adaptive = true\n");
    }
}

/// The pair-partner fleet: VM `i` lives on node `i % nodes` and moves to
/// its pair partner `node ^ 1`, so the migration graph splits into
/// `nodes / 2` two-node components on a switch-decoupled fabric. The
/// seed permutes which VM takes which request slot. Every VM start
/// (`i / 128` s) and request (`30 + 7/64 · slot` s) is a distinct dyadic
/// time, so no two scripted events anywhere coincide; network
/// completions in different components still can (see
/// `check::coalesced_wakes`).
fn fleet(size: Size, seed: u64) -> Generated {
    let (nodes, iterations, horizon) = match size {
        Size::Full => (256u32, 90u32, 140.0),
        Size::Small => (8, 8, 120.0),
    };
    let vms = 2 * nodes;
    let nic_bw = 123_207_680.0;
    let mut out = String::new();
    header(&mut out, "fleet", horizon);
    cluster(
        &mut out,
        nodes,
        2.0 * nodes as f64 * nic_bw,
        4096 * MIB,
        4096 * MIB,
    );
    for i in 0..vms {
        let start = i as f64 / 128.0;
        let _ = write!(
            out,
            "\n[[vms]]\nnode = {node}\nstart_secs = {start:?}\n\n[vms.workload.AsyncWr]\n\
             iterations = {iterations}\ndata_per_iter = {data}\ncompute_per_iter = 1666666667\n\
             file_offset = {offset}\n",
            node = i % nodes,
            data = 10 * MIB,
            offset = 512 * MIB,
        );
    }
    let mut rng = DetRng::new(seed);
    for (slot, vm) in permutation(vms, &mut rng).into_iter().enumerate() {
        let at = 30.0 + 7.0 / 64.0 * slot as f64;
        migration(&mut out, vm, (vm % nodes) ^ 1, at, false);
    }
    Generated {
        toml: out,
        migrations: vms as usize,
    }
}

/// Guest classes of the mixed fleet, in fixed proportions.
#[derive(Clone, Copy)]
enum Class {
    /// Read-heavy Zipf hotspot: on-demand pulls after switchover.
    Hotspot,
    /// IOR write-then-read passes.
    Ior,
    /// AsyncWR checkpoint writer.
    Writer,
    /// Pure compute.
    Idle,
}

/// The orchestrated mixed fleet: two guests per node on a switch-coupled
/// fabric, every guest migrated half-way across the cluster with its
/// transfer scheme left to the cost planner, under an admission cap and
/// a `[qos]` section. The planner's on-demand penalty is zero, so it
/// sends many read-heavy guests post-copy and their reads block on
/// on-demand pulls. The seed shuffles which guest runs which class
/// (the class counts are fixed) and seeds each hotspot's access stream.
fn control_mixed(size: Size, seed: u64) -> Generated {
    let (nodes, hot_ops, horizon) = match size {
        Size::Full => (64u32, 20_000u64, 115.0),
        Size::Small => (8, 1_500, 150.0),
    };
    let vms = 2 * nodes;
    // 3 : 1 : 2 : 2 hotspot : IOR : writer : idle.
    let classes: Vec<Class> = (0..vms)
        .map(|i| match i % 8 {
            0..=2 => Class::Hotspot,
            3 => Class::Ior,
            4 | 5 => Class::Writer,
            _ => Class::Idle,
        })
        .collect();
    let mut rng = DetRng::new(seed);
    let order = permutation(vms, &mut rng);
    let mut out = String::new();
    header(&mut out, "control_mixed", horizon);
    cluster(&mut out, nodes, 2147483648.0, 512 * MIB, 256 * MIB);
    out.push_str(
        "
[orchestrator]
max_concurrent = 8
planner = \"cost\"
telemetry_window_secs = 5.0
adaptive_write_hi_frac = 0.05
adaptive_write_lo_frac = 0.005
adaptive_read_hi_frac = 0.05
cost_bytes_weight = 1.0
cost_ondemand_penalty = 0.0
cost_nonconverge_penalty_secs = 1000000.0
cost_sla_weight = 0.0
placement_retry_limit = 4

[qos]
bandwidth_cap_mb = 60.0
streams = 4
compress_mem_ratio = 0.55
compress_storage_ratio = 0.7
compress_cpu_frac = 0.03
",
    );
    for i in 0..vms {
        let _ = write!(
            out,
            "\n[[vms]]\nnode = {}\nstart_secs = {:?}\n\n",
            i % nodes,
            0.25 * (i % 8) as f64
        );
        let workload = match classes[order[i as usize] as usize] {
            Class::Hotspot => format!(
                "[vms.workload.HotspotMixed]\noffset = 0\nregion_blocks = 256\nblock = 262144\n\
                 count = {hot_ops}\ntheta = 0.85\nread_fraction = 0.8\nthink_secs = 0.005\nseed = {}\n",
                rng.below(1 << 32)
            ),
            Class::Ior => format!(
                "[vms.workload.Ior]\nfile_size = {}\nblock_size = 262144\niterations = 4\n\
                 file_offset = {}\nfsync_per_phase = false\n",
                64 * MIB,
                128 * MIB
            ),
            Class::Writer => format!(
                "[vms.workload.AsyncWr]\niterations = 24\ndata_per_iter = {}\n\
                 compute_per_iter = 5000000000\nfile_offset = {}\n",
                8 * MIB,
                32 * MIB
            ),
            Class::Idle => "[vms.workload.Idle]\nbursts = 120\nburst_secs = 1.0\n".to_string(),
        };
        out.push_str(&workload);
    }
    for vm in 0..vms {
        let dest = (vm % nodes + nodes / 2) % nodes;
        migration(&mut out, vm, dest, 20.0 + 0.25 * vm as f64, true);
    }
    Generated {
        toml: out,
        migrations: vms as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsm_experiments::scenario::ScenarioSpec;

    #[test]
    fn same_seed_same_text_and_every_workload_parses() {
        for w in Workload::ALL {
            for size in [Size::Small, Size::Full] {
                let a = generate(w, size, 7);
                assert_eq!(a.toml, generate(w, size, 7).toml);
                let spec = ScenarioSpec::from_toml(&a.toml)
                    .unwrap_or_else(|e| panic!("{} does not parse: {e}", w.name()));
                assert_eq!(spec.migrations.len(), a.migrations);
            }
        }
    }

    #[test]
    fn seeds_change_the_fleet_permutation_but_keep_times_distinct() {
        let a =
            ScenarioSpec::from_toml(&generate(Workload::FleetMono, Size::Full, 1).toml).unwrap();
        let b =
            ScenarioSpec::from_toml(&generate(Workload::FleetMono, Size::Full, 2).toml).unwrap();
        assert_ne!(a.migrations, b.migrations);
        let mut times: Vec<u64> = a
            .vms
            .iter()
            .map(|v| v.start_secs.unwrap().to_bits())
            .chain(a.migrations.iter().map(|m| m.at_secs.to_bits()))
            .collect();
        let n = times.len();
        times.sort_unstable();
        times.dedup();
        assert_eq!(times.len(), n, "duplicate event times");
        for m in &a.migrations {
            assert_eq!(a.vms[m.vm as usize].node ^ 1, m.dest);
        }
    }
}
