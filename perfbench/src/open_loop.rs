//! `open_loop_k16`: `LoadConfig::k16_acceptance(Themis)` through
//! `run_open_loop` — 1024 hosts, 1200 jobs, 200 tenants, 14,153 QPs,
//! 12 windows of 4 ms, 32 guarded evictions per window.

use crate::out::Metrics;
use crate::stats::{sim_fingerprint, OpTally};
use crate::trace::Tracer;
use collectives::driver::{setup_collective, Driver, QpAllocator};
use collectives::open_loop::{sample_load, LoadPlan};
use netsim::types::HostId;
use simcore::rng::Xoshiro256;
use std::hint::black_box;
use std::time::Instant;
use themis_harness::experiment::driver_of;
use themis_harness::load::{run_open_loop, LoadConfig, LoadReport};
use themis_harness::oracle::{self, DropTally, OracleConfig};
use themis_harness::{build_fat_tree_cluster_sharded, Cluster, Scheme};

/// Engine shards of the traced run's parallel leg (one per CPU of the
/// reference box). The measured run is serial: on a shared 2-CPU host
/// the 2-shard run's wall time follows the scheduling latency of its
/// window barrier and swings by tens of percent between runs.
pub const SHARDS: usize = 2;

/// The workload's configuration for `seed`.
pub fn config(seed: u64, shards: usize) -> LoadConfig {
    LoadConfig {
        shards,
        ..LoadConfig::k16_acceptance(Scheme::Themis, seed)
    }
}

/// One finished run and its checks.
pub struct LoadRun {
    /// Host seconds of `run_open_loop`.
    pub wall_s: f64,
    /// The report.
    pub report: LoadReport,
    /// The cluster after the run.
    pub cluster: Cluster,
    /// Ops attempted / failed.
    pub tally: OpTally,
    /// Failed checks.
    pub problems: Vec<String>,
    /// Fingerprint of the final telemetry.
    pub fingerprint: String,
    /// Simulated time of the last job completion, µs.
    pub last_completion_us: f64,
}

/// Run `cfg` and check it: every job completes and the oracle (which
/// `run_open_loop` runs with the exact byte count pinned) is clean.
pub fn run(cfg: &LoadConfig) -> LoadRun {
    let t = Instant::now();
    let (report, cluster) = run_open_loop(cfg).expect("the acceptance config is valid");
    let wall_s = t.elapsed().as_secs_f64();
    let mut problems: Vec<String> = report
        .violations()
        .iter()
        .map(|v| format!("oracle {}: {}", v.invariant, v.detail))
        .collect();
    if report.jobs_completed != report.jobs_total {
        problems.push(format!(
            "{} of {} jobs completed",
            report.jobs_completed, report.jobs_total
        ));
    }
    let driver = driver_of(&cluster);
    let last_completion_us = (0..driver.num_instances())
        .filter_map(|i| driver.completion_of(i))
        .map(|t| t.as_nanos())
        .max()
        .unwrap_or(0) as f64
        / 1e3;
    let tally = OpTally {
        attempted: report.jobs_total as u64,
        failed_ops: (report.jobs_total - report.jobs_completed) as u64,
        violation: !report.violations().is_empty(),
    };
    let doc = crate::sim::telemetry_doc("run", &report.final_telemetry);
    LoadRun {
        wall_s,
        fingerprint: sim_fingerprint(&doc),
        report,
        cluster,
        tally,
        problems,
        last_completion_us,
    }
}

/// Host seconds of the workload's setup: the k=16 build plus
/// `sample_load`.
pub fn setup_once(cfg: &LoadConfig) -> f64 {
    let t = Instant::now();
    let cluster = build_fat_tree_cluster_sharded(&cfg.fabric, cfg.nic, cfg.scheme, cfg.shards);
    let plan = sample_load(&cfg.spec, cfg.seed);
    let s = t.elapsed().as_secs_f64();
    black_box((&cluster, &plan));
    s
}

/// Wire every job of `plan` into `cluster` the way `run_open_loop`
/// places them (seeded host picks, one QP per rank pair); returns the
/// QP count. Only timed: the measured run wires its own copy.
fn wire(cfg: &LoadConfig, plan: &LoadPlan, cluster: &mut Cluster) -> u32 {
    let n_hosts = cluster.hosts.len();
    let mut place_rng = Xoshiro256::seeded(cfg.seed ^ 0x905E_7AB1);
    let mut alloc = QpAllocator::new(cfg.seed ^ 0xC0_11EC);
    let mut driver = Driver::new();
    for job in &plan.jobs {
        let mut hosts: Vec<HostId> = Vec::with_capacity(job.ranks);
        while hosts.len() < job.ranks {
            let h = HostId(place_rng.next_index(n_hosts) as u32);
            if !hosts.contains(&h) {
                hosts.push(h);
            }
        }
        let spec = setup_collective(
            &mut cluster.world,
            cluster.driver,
            &hosts,
            job.schedule(),
            &mut alloc,
        );
        driver.add_instance_deferred(spec);
    }
    black_box(&driver);
    alloc.allocated()
}

/// The traced run: set-up layers timed on a replica, then the measured
/// serial run and the same run on [`SHARDS`] shards, then the telemetry
/// and oracle layers on the finished clusters. Returns the serial run.
pub fn run_traced(seed: u64, tr: &mut Tracer, m: &mut Metrics) -> LoadRun {
    let cfg = config(seed, 1);
    let (mut serial, sharded) = tr.span("workload", |tr| {
        let mut replica = tr.span("harness.fat_tree.build", |_| {
            build_fat_tree_cluster_sharded(&cfg.fabric, cfg.nic, cfg.scheme, cfg.shards)
        });
        let plan = tr.span("collectives.sample_load", |_| {
            sample_load(&cfg.spec, cfg.seed)
        });
        let qps = tr.span("collectives.wire", |_| wire(&cfg, &plan, &mut replica));
        drop(replica);
        let mut serial = tr.span("harness.load.run_open_loop", |_| run(&cfg));
        let sharded = tr.span("harness.load.run_open_loop.sharded", |_| {
            run(&config(seed, SHARDS))
        });
        if qps != serial.report.qps {
            serial.problems.push(format!(
                "replica wiring made {qps} QPs, run_open_loop {}",
                serial.report.qps
            ));
            serial.tally.violation = true;
        }
        tr.span("telemetry.snapshot", |_| {
            black_box(serial.cluster.snapshot_merged())
        });
        let parts: Vec<_> = sharded.cluster.sinks.iter().map(|s| s.snapshot()).collect();
        tr.span("telemetry.merge", |_| {
            black_box(telemetry::RunReport::merge(parts))
        });
        let doc_bytes = tr.span("telemetry.to_json", |_| {
            crate::sim::telemetry_doc("run", &serial.report.final_telemetry).len()
                + serial.report.windowed.to_json().len()
        });
        m.put("telemetry.doc_bytes", doc_bytes as f64, "B");
        tr.span("harness.oracle.audit", |_| {
            let mut ocfg = OracleConfig::for_scheme(cfg.scheme).without_rto_bound();
            ocfg.expected_bytes = Some(plan.total_schedule_bytes());
            ocfg.quiesced = serial.cluster.world.now() < cfg.horizon();
            let violations = oracle::audit_with_tally(
                &serial.cluster,
                &ocfg,
                &DropTally::gather(&serial.cluster),
            )
            .violations;
            for v in violations {
                serial
                    .problems
                    .push(format!("standalone oracle {}: {}", v.invariant, v.detail));
                serial.tally.violation = true;
            }
        });
        (serial, sharded)
    });
    let ms = |name: &str| tr.total_ns(name) as f64 / 1e6;
    m.put(
        "harness.fat_tree.build_ms.workload",
        ms("harness.fat_tree.build"),
        "ms",
    );
    m.put(
        "collectives.sample_load_ms",
        ms("collectives.sample_load"),
        "ms",
    );
    m.count("collectives.qps", serial.report.qps as u64);
    m.put("collectives.wire_ms", ms("collectives.wire"), "ms");
    m.count(
        "collectives.jobs_completed",
        serial.report.jobs_completed as u64,
    );
    m.put("telemetry.snapshot_ms", ms("telemetry.snapshot"), "ms");
    m.put_note(
        "telemetry.merge_ms",
        ms("telemetry.merge"),
        "ms",
        format!("{SHARDS} shard snapshots"),
    );
    m.put("harness.oracle.audit_ms", ms("harness.oracle.audit"), "ms");
    m.put_note(
        "netsim.world.shard_speedup_2c",
        serial.wall_s / sharded.wall_s,
        "x",
        format!(
            "serial {:.3} s / {SHARDS}-shard {:.3} s",
            serial.wall_s, sharded.wall_s
        ),
    );
    if serial.fingerprint != sharded.fingerprint {
        serial
            .problems
            .push(format!("serial and {SHARDS}-shard telemetry differ"));
        serial.tally.violation = true;
    }
    serial
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_config_is_the_acceptance_config_on_two_shards() {
        let cfg = config(1, SHARDS);
        assert_eq!(cfg.shards, 2);
        assert_eq!(config(1, 1).shards, 1);
        assert_eq!(cfg.fabric.k, 16);
        assert_eq!(cfg.spec.n_jobs, 1200);
        assert_eq!(cfg.spec.n_tenants, 200);
        assert_eq!(cfg.windows, 12);
        assert_eq!(cfg.evict_per_window, 32);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn replica_wiring_matches_the_run() {
        let mut cfg = LoadConfig::small(Scheme::Themis, 5);
        cfg.shards = 1;
        let plan = sample_load(&cfg.spec, cfg.seed);
        let mut cluster = build_fat_tree_cluster_sharded(&cfg.fabric, cfg.nic, cfg.scheme, 1);
        let qps = wire(&cfg, &plan, &mut cluster);
        let r = run(&cfg);
        assert!(r.problems.is_empty(), "{:?}", r.problems);
        assert_eq!(qps, r.report.qps);
    }
}
