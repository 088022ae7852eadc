//! The two leaf-spine workloads, `paper_alltoall` and `incast_lossy`:
//! the §5 fabric (16×16 leaf-spine, 400 Gbps, DCQCN T_I=900 µs /
//! T_D=4 µs) under Themis on the serial engine.
//!
//! The untraced run is one call to `run_collective_with_faults`. The
//! traced run assembles the same run from the public pieces
//! (`build_cluster_sharded`, `setup_collective`, `Driver::set_telemetry`,
//! `World::run_until` in fixed windows), puts a span around each, and
//! must reproduce the untraced telemetry byte for byte.

use crate::out::Metrics;
use crate::stats::{sim_fingerprint, OpTally};
use crate::trace::Tracer;
use collectives::driver::{setup_collective, Driver, QpAllocator, START_TOKEN};
use collectives::groups::all_groups;
use netsim::event::Event;
use netsim::trace::fabric_summary;
use simcore::time::{Nanos, TimeDelta};
use std::time::Instant;
use themis_harness::experiment::{
    aggregate_nics, expected_delivered_bytes, run_collective_with_faults, Collective,
    ExperimentConfig, ExperimentResult, MSG_LATENCY_BINS, MSG_LATENCY_BIN_NS,
};
use themis_harness::faults::{Fault, FaultEvent, FaultPlan};
use themis_harness::oracle::{self, OracleConfig, Violation};
use themis_harness::{build_cluster_sharded, Cluster, Scheme};

/// Bytes per group for both leaf-spine workloads.
pub const GROUP_BYTES: u64 = 4 << 20;

/// Loss rate of the `incast_lossy` uplinks, packets per million.
pub const INCAST_LOSS_PPM: u32 = 1000;

/// Uplinks of every leaf that drop at [`INCAST_LOSS_PPM`].
pub const INCAST_LOSSY_UPLINKS: [u16; 4] = [0, 4, 8, 12];

/// Simulated width of one traced window.
pub const TRACE_WINDOW: TimeDelta = TimeDelta::from_micros(10);

/// One leaf-spine workload: configuration, collective and fault plan.
#[derive(Debug, Clone)]
pub struct SimSpec {
    /// Fabric, NIC, scheme and seed.
    pub cfg: ExperimentConfig,
    /// Collective run on every group.
    pub collective: Collective,
    /// Bytes per group.
    pub bytes: u64,
    /// Faults installed before the run.
    pub plan: FaultPlan,
}

impl SimSpec {
    /// §5 Fig 5b: alltoall, 4 MB per group, no faults.
    pub fn paper_alltoall(seed: u64) -> SimSpec {
        SimSpec {
            cfg: paper_cfg(seed),
            collective: Collective::Alltoall,
            bytes: GROUP_BYTES,
            plan: FaultPlan::none(),
        }
    }

    /// Incast, 4 MB per group, with uplinks {0,4,8,12} of every leaf
    /// dropping 1000 ppm from t=0.
    pub fn incast_lossy(seed: u64) -> SimSpec {
        let cfg = paper_cfg(seed);
        let events = (0..cfg.fabric.n_leaves as u16)
            .flat_map(|leaf| {
                INCAST_LOSSY_UPLINKS.iter().map(move |&uplink| FaultEvent {
                    at: Nanos::ZERO,
                    fault: Fault::UplinkLoss {
                        leaf,
                        uplink,
                        rate_ppm: INCAST_LOSS_PPM,
                    },
                })
            })
            .collect();
        SimSpec {
            cfg,
            collective: Collective::Incast,
            bytes: GROUP_BYTES,
            plan: FaultPlan { events },
        }
    }

    /// A small variant on the Fig 1 motivation fabric, for self-tests.
    #[cfg(test)]
    pub fn small(seed: u64, collective: Collective) -> SimSpec {
        let mut cfg = ExperimentConfig::motivation_small(Scheme::Themis, seed);
        cfg.shards = 1;
        SimSpec {
            cfg,
            collective,
            bytes: 256 << 10,
            plan: FaultPlan::none(),
        }
    }

    /// Ops of one run: the groups.
    pub fn ops(&self) -> u64 {
        self.cfg.fabric.hosts_per_leaf as u64
    }

    /// Payload bytes a complete run delivers.
    pub fn expected_bytes(&self) -> u64 {
        expected_delivered_bytes(&self.cfg, self.collective, self.bytes)
    }

    /// Oracle expectations. Random-loss plans drop the RTO bound, as the
    /// fuzzing corpus does for every such plan: tail losses are
    /// recovered by the RTO by design.
    pub fn oracle_config(&self, quiesced: bool) -> OracleConfig {
        let mut o =
            OracleConfig::for_scheme(self.cfg.scheme).with_expected_bytes(self.expected_bytes());
        if self.plan.has_random_loss() || self.plan.drops_control() {
            o = o.without_rto_bound();
        }
        o.quiesced = quiesced;
        o
    }
}

fn paper_cfg(seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_eval(Scheme::Themis, 900, 4, seed);
    cfg.shards = 1;
    cfg
}

/// The output checks of one finished run.
#[derive(Debug, Clone)]
pub struct Checked {
    /// Ops attempted / failed.
    pub tally: OpTally,
    /// Oracle violations plus failed workload checks.
    pub problems: Vec<String>,
}

/// Check a finished cluster: every group completed, delivered bytes
/// equal the workload's, and the oracle is clean.
pub fn check(spec: &SimSpec, result: &ExperimentResult, cluster: &Cluster) -> Checked {
    let quiesced = cluster.world.now() < spec.cfg.horizon;
    let mut problems: Vec<String> = oracle::check(cluster, &spec.oracle_config(quiesced))
        .iter()
        .map(|v| format!("oracle {}: {}", v.invariant, v.detail))
        .collect();
    let incomplete = result.group_cts.iter().filter(|c| c.is_none()).count() as u64;
    if result.group_cts.len() as u64 != spec.ops() {
        problems.push(format!(
            "{} groups ran, {} expected",
            result.group_cts.len(),
            spec.ops()
        ));
    }
    let delivered = aggregate_nics(cluster).bytes_delivered;
    if delivered != spec.expected_bytes() {
        problems.push(format!(
            "delivered {delivered} bytes, expected {}",
            spec.expected_bytes()
        ));
    }
    Checked {
        tally: OpTally {
            attempted: spec.ops(),
            failed_ops: incomplete,
            violation: !problems.is_empty(),
        },
        problems,
    }
}

/// The telemetry document of a run report (the same writer every
/// binary of the repository uses).
pub fn telemetry_doc(label: &str, run: &telemetry::RunReport) -> String {
    let mut report = telemetry::Report::new();
    report.add_run(label, run.clone());
    report.to_json()
}

/// One untraced run.
pub struct SimRun {
    /// Host seconds of `run_collective_with_faults`.
    pub wall_s: f64,
    /// The run's metrics.
    pub result: ExperimentResult,
    /// Output checks.
    pub checked: Checked,
    /// Fingerprint of the run's telemetry.
    pub fingerprint: String,
    /// The live telemetry (`Cluster::snapshot_merged`) as JSON.
    pub live_doc: String,
}

/// Run `spec` once through `run_collective_with_faults` and check it.
pub fn run_untraced(spec: &SimSpec) -> SimRun {
    let t = Instant::now();
    let (result, cluster) =
        run_collective_with_faults(&spec.cfg, spec.collective, spec.bytes, &spec.plan);
    let wall_s = t.elapsed().as_secs_f64();
    let checked = check(spec, &result, &cluster);
    SimRun {
        wall_s,
        fingerprint: sim_fingerprint(&telemetry_doc("run", &result.telemetry)),
        live_doc: telemetry_doc("run", &cluster.snapshot_merged()),
        result,
        checked,
    }
}

/// Wire the workload into a freshly built cluster exactly as
/// `run_collective_with_faults` does; returns the QP count.
pub fn wire(spec: &SimSpec, cluster: &mut Cluster) -> u32 {
    let groups = all_groups(spec.cfg.fabric.n_leaves, spec.cfg.fabric.hosts_per_leaf);
    let mut alloc = QpAllocator::new(spec.cfg.seed ^ 0xC0_11EC);
    let mut driver = Driver::new();
    for hosts in &groups {
        let schedule = spec.collective.schedule(hosts.len(), spec.bytes);
        let instance = setup_collective(
            &mut cluster.world,
            cluster.driver,
            hosts,
            schedule,
            &mut alloc,
        );
        driver.add_instance(instance);
    }
    let hist = cluster
        .sinks
        .iter()
        .map(|s| {
            s.time_hist(
                "collective.msg_latency",
                MSG_LATENCY_BIN_NS,
                MSG_LATENCY_BINS,
            )
        })
        .next()
        .expect("a cluster has at least one telemetry sink");
    driver.set_telemetry(cluster.telemetry.clone(), hist);
    cluster.world.install(cluster.driver, Box::new(driver));
    cluster.world.seed_event(
        Nanos::ZERO,
        cluster.driver,
        Event::Timer { token: START_TOKEN },
    );
    spec.plan.install(cluster);
    alloc.allocated()
}

/// Host seconds to build the fabric and wire the workload.
pub fn setup_once(spec: &SimSpec) -> f64 {
    let t = Instant::now();
    let mut cluster = build_cluster_sharded(
        &spec.cfg.fabric,
        spec.cfg.nic,
        spec.cfg.scheme,
        spec.cfg.shards,
    );
    wire(spec, &mut cluster);
    let s = t.elapsed().as_secs_f64();
    std::hint::black_box(&cluster);
    s
}

/// A traced run and what it measured.
pub struct TracedSim {
    /// Host seconds of the traced workload span.
    pub wall_s: f64,
    /// Host seconds of the windowed run span.
    pub run_s: f64,
    /// Peak pending-event depth at window boundaries.
    pub pending_peak: usize,
    /// Windows advanced.
    pub windows: u64,
    /// The live telemetry as JSON.
    pub live_doc: String,
    /// The cluster after the run.
    pub cluster: Cluster,
    /// Output checks (oracle on the traced cluster).
    pub violations: Vec<Violation>,
    /// Host ms of the fabric build.
    pub build_ms: f64,
    /// Host ms of the workload wiring.
    pub wire_ms: f64,
    /// Host ms of `Cluster::snapshot_merged`.
    pub snapshot_ms: f64,
    /// Host ms of the oracle audit.
    pub audit_ms: f64,
}

/// Assemble and run `spec` with a span around every layer call.
pub fn run_traced(spec: &SimSpec, tr: &mut Tracer) -> TracedSim {
    let t0 = Instant::now();
    let mut pending_peak = 0usize;
    let mut windows = 0u64;
    let (cluster, live_doc, violations) = tr.span("workload", |tr| {
        let mut cluster = tr.span("harness.cluster.build", |_| {
            build_cluster_sharded(
                &spec.cfg.fabric,
                spec.cfg.nic,
                spec.cfg.scheme,
                spec.cfg.shards,
            )
        });
        tr.span("collectives.wire", |_| wire(spec, &mut cluster));
        tr.span("netsim.world.run", |tr| loop {
            windows += 1;
            let boundary =
                Nanos((TRACE_WINDOW.as_nanos() * windows).min(spec.cfg.horizon.as_nanos()));
            tr.span("netsim.world.run_until", |_| {
                cluster.world.run_until(boundary)
            });
            let pending = cluster.world.engine.pending();
            pending_peak = pending_peak.max(pending);
            if pending == 0 || boundary >= spec.cfg.horizon {
                break;
            }
        });
        let snap = tr.span("telemetry.snapshot", |_| cluster.snapshot_merged());
        let doc = tr.span("telemetry.to_json", |_| telemetry_doc("run", &snap));
        let quiesced = cluster.world.now() < spec.cfg.horizon;
        let violations = tr.span("harness.oracle.audit", |_| {
            oracle::check(&cluster, &spec.oracle_config(quiesced))
        });
        (cluster, doc, violations)
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let ms = |name: &str| tr.total_ns(name) as f64 / 1e6;
    TracedSim {
        wall_s,
        run_s: tr.total_ns("netsim.world.run") as f64 / 1e9,
        pending_peak,
        windows,
        live_doc,
        violations,
        build_ms: ms("harness.cluster.build"),
        wire_ms: ms("collectives.wire"),
        snapshot_ms: ms("telemetry.snapshot"),
        audit_ms: ms("harness.oracle.audit"),
        cluster,
    }
}

/// The per-layer counters of a finished run: engine events plus the
/// fabric, Themis and NIC aggregates of its cluster.
pub fn layer_counts(events: u64, cluster: &Cluster, m: &mut Metrics) {
    let fabric = fabric_summary(&cluster.world, &cluster.all_switches());
    let themis = cluster.themis_stats();
    let nics = aggregate_nics(cluster);
    m.count("simcore.events", events);
    m.count("netsim.switch.forwarded", fabric.forwarded);
    m.count("netsim.port.ecn_marked", fabric.ecn_marked);
    m.put(
        "netsim.port.peak_buffer_kb",
        fabric.peak_buffer_bytes as f64 / 1024.0,
        "KiB",
    );
    m.count("netsim.port.drops", fabric.total_drops());
    m.count("rnic.qp.data_packets", nics.data_packets);
    m.count("rnic.qp.ooo_packets", nics.ooo_packets);
    m.count("rnic.qp.retx_packets", nics.retx_packets);
    m.count("rnic.qp.rto_fires", nics.rto_fires);
    m.count("rnic.dcqcn.cnps", nics.cnps_received);
    m.count("core.themis_s.sprayed", themis.sprayed);
    m.count("core.themis_d.nacks_seen", themis.nacks_seen);
    m.count("core.themis_d.nacks_blocked", themis.nacks_blocked);
    m.count("core.themis_d.compensations", themis.compensations);
    m.count("core.themis_d.blocked_uncertain", themis.blocked_uncertain);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incast_plan_covers_four_uplinks_of_every_leaf() {
        let spec = SimSpec::incast_lossy(1);
        assert_eq!(spec.plan.events.len(), 16 * 4);
        assert!(spec.plan.has_random_loss());
        assert_eq!(spec.oracle_config(true).max_rto_fires, None);
        assert!(SimSpec::paper_alltoall(1)
            .oracle_config(true)
            .max_rto_fires
            .is_some());
        assert_eq!(spec.ops(), 16);
    }

    #[test]
    fn traced_assembly_reproduces_the_untraced_run() {
        for collective in [Collective::Alltoall, Collective::Incast] {
            let spec = SimSpec::small(3, collective);
            let plain = run_untraced(&spec);
            assert!(
                plain.checked.problems.is_empty(),
                "{:?}",
                plain.checked.problems
            );
            let mut tr = Tracer::new();
            let traced = run_traced(&spec, &mut tr);
            assert!(traced.windows > 1, "the small run spans several windows");
            assert_eq!(traced.live_doc, plain.live_doc, "{collective:?}");
            assert!(traced.violations.is_empty());
        }
    }
}
