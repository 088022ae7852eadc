//! Layered benchmark of the Themis simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats the workload for about `--seconds` host seconds
//! and reports the end-to-end metrics (medians over the repeats).
//! `--trace 1` runs it once untraced and once with spans around every
//! layer call, runs the isolated layer timings, and reports the
//! per-layer metrics. Both print a table of every metric, write it to
//! `perfbench/out/`, and end with one JSON result line carrying the
//! metrics `BENCHMARK.json` declares for the mode.

mod layers;
mod open_loop;
mod out;
mod service;
mod sim;
mod stats;
mod trace;

use out::Metrics;
use stats::{median, nearest_rank, sorted, tail_percentile, OpTally};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use themis_harness::json::{self, Json};
use trace::Tracer;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "paper_alltoall",
    "incast_lossy",
    "open_loop_k16",
    "service_k16",
];

/// End-to-end metrics every untraced run reports on its last line.
pub const END_TO_END: [&str; 4] = ["wall_s", "setup_s", "peak_rss_mb", "sim_op_ct_p50_us"];

/// Per-layer metrics every traced run reports on its last line.
pub const PER_LAYER: [&str; 15] = [
    "simcore.schedule_step_ns",
    "netsim.switch.forward_ns",
    "netsim.switch.forward_hook_ns",
    "netsim.port.enqueue_tx_ns",
    "rnic.qp.tx_ns",
    "rnic.qp.rx_ooo_ns",
    "rnic.dcqcn.update_ns",
    "core.themis_s.spray_ns",
    "core.themis_d.data_ns",
    "core.themis_d.nack_ns",
    "harness.json.parse_ns_per_byte_1k",
    "harness.json.parse_ns_per_byte_snapshot",
    "telemetry.to_json_ns_per_byte",
    "harness.cluster.build_ms",
    "harness.fat_tree.build_ms",
];

/// Set-ups timed before each measured repeat: at least this many...
const SETUP_BATCH_REPS: usize = 3;
/// ...and at least this many host seconds of them.
const SETUP_BATCH_SECS: f64 = 0.2;

const USAGE: &str =
    "usage: perfbench --workload <paper_alltoall|incast_lossy|open_loop_k16|service_k16> \
[--seed N] [--seconds S] [--trace 0|1]";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value:?}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = num()?,
            "--seconds" => a.seconds = num()?.max(1),
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    Ok(a)
}

/// Everything one benchmark run produced.
#[derive(Default)]
struct Outcome {
    metrics: Metrics,
    tally: OpTally,
    problems: Vec<String>,
    fingerprint: String,
    tracer: Option<Tracer>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.tally.clean() && self.problems.is_empty()
    }

    /// Fold in one repeat's fingerprint: every repeat of the same seed
    /// must reproduce the first one.
    fn fingerprint(&mut self, fp: &str) {
        if self.fingerprint.is_empty() {
            self.fingerprint = fp.to_string();
        } else if self.fingerprint != fp {
            self.problems.push(format!(
                "rerun fingerprint {fp} differs from {}",
                self.fingerprint
            ));
            self.tally.violation = true;
        }
    }
}

/// Alternate a batch of `setup` calls with one call of `iteration`
/// (each returns its host seconds) until about `seconds` have passed;
/// at least once. Spreading the set-up samples over the whole run lets
/// their median see the same host as the repeats do, and gives a
/// set-up of a millisecond as steady a median as one of a second.
/// Returns the set-up samples.
fn repeat_for(
    seconds: u64,
    mut setup: impl FnMut() -> f64,
    mut iteration: impl FnMut() -> f64,
) -> Vec<f64> {
    let start = Instant::now();
    let mut setups = Vec::new();
    loop {
        let (mut reps, mut total) = (0, 0.0);
        while reps < SETUP_BATCH_REPS || total < SETUP_BATCH_SECS {
            let s = setup();
            setups.push(s);
            total += s;
            reps += 1;
        }
        let last = iteration();
        if start.elapsed().as_secs_f64() + (last + total) / 2.0 >= seconds as f64 {
            return setups;
        }
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn secs_note(samples: &[f64]) -> String {
    format!("median of {}", samples.len())
}

/// Untraced run of a leaf-spine workload.
fn sim_untraced(spec: &sim::SimSpec, seconds: u64) -> Outcome {
    let mut o = Outcome::default();
    let mut walls = Vec::new();
    let mut last = None;
    let setups = repeat_for(
        seconds,
        || sim::setup_once(spec),
        || {
            let r = sim::run_untraced(spec);
            walls.push(r.wall_s);
            o.tally.add(r.checked.tally);
            o.problems.extend(r.checked.problems.iter().cloned());
            o.fingerprint(&r.fingerprint);
            let s = r.wall_s;
            last = Some(r);
            s
        },
    );
    let r = last.expect("at least one run");
    let m = &mut o.metrics;
    m.put_note("wall_s", median(&walls), "s", secs_note(&walls));
    m.put_note("setup_s", median(&setups), "s", secs_note(&setups));
    let tail = r.result.tail_ct.map_or(f64::NAN, |t| t.as_micros_f64());
    m.put_note("sim_tail_ct_us", tail, "us", "sim, slowest group".into());
    let cts: Vec<f64> = r
        .result
        .group_cts
        .iter()
        .flatten()
        .map(|t| t.as_micros_f64())
        .collect();
    m.put_note(
        "sim_op_ct_p50_us",
        median_or_nan(&cts),
        "us",
        format!("sim, median of {} groups", cts.len()),
    );
    m.count("simcore.events", r.result.events);
    o
}

fn median_or_nan(v: &[f64]) -> f64 {
    if v.is_empty() {
        f64::NAN
    } else {
        median(v)
    }
}

/// Traced run of a leaf-spine workload.
fn sim_traced(spec: &sim::SimSpec, seed: u64) -> Outcome {
    let mut o = Outcome::default();
    let plain = sim::run_untraced(spec);
    o.tally.add(plain.checked.tally);
    o.problems.extend(plain.checked.problems.iter().cloned());
    o.fingerprint(&plain.fingerprint);
    let mut tr = Tracer::new();
    let traced = sim::run_traced(spec, &mut tr);
    if traced.live_doc != plain.live_doc {
        o.problems
            .push("traced telemetry differs from run_collective_with_faults".into());
        o.tally.violation = true;
    }
    for v in &traced.violations {
        o.problems
            .push(format!("traced oracle {}: {}", v.invariant, v.detail));
        o.tally.violation = true;
    }
    let m = &mut o.metrics;
    sim::layer_counts(traced.cluster.world.engine.dispatched(), &traced.cluster, m);
    m.put_note(
        "simcore.pending_peak",
        traced.pending_peak as f64,
        "count",
        format!("{} windows", traced.windows),
    );
    m.put("harness.cluster.build_ms.workload", traced.build_ms, "ms");
    m.put("collectives.wire_ms", traced.wire_ms, "ms");
    m.put("telemetry.snapshot_ms", traced.snapshot_ms, "ms");
    m.put("harness.oracle.audit_ms", traced.audit_ms, "ms");
    m.put_note(
        "telemetry.to_json_ns_per_byte",
        tr.total_ns("telemetry.to_json") as f64 / traced.live_doc.len() as f64,
        "ns/B",
        format!("{} B document", traced.live_doc.len()),
    );
    let traced_wall = traced.wall_s - traced.audit_ms / 1e3;
    m.put("wall_s.untraced", plain.wall_s, "s");
    m.put("wall_s.traced", traced_wall, "s");
    m.put("trace.overhead_s", traced_wall - plain.wall_s, "s");
    layers::measure(seed, &mut tr, m);
    attribute(m, traced.run_s * 1e9, "netsim.world.run");
    o.tracer = Some(tr);
    o
}

/// Estimated share of the run span each inner layer accounts for:
/// its count × isolated ns/op ÷ the span. The isolated switch and port
/// timings include the engine calls they make, so the shares can
/// overlap a little with `simcore`'s.
fn attribute(m: &mut Metrics, span_ns: f64, span_name: &str) {
    let g = |name: &str| m.get(name).unwrap_or(0.0);
    let sent = g("rnic.qp.data_packets") + g("rnic.qp.retx_packets");
    let received = sent - g("netsim.port.drops");
    let terms = [
        (
            "simcore",
            g("simcore.events") * g("simcore.schedule_step_ns"),
        ),
        (
            "netsim.switch",
            g("netsim.switch.forwarded") * g("netsim.switch.forward_ns"),
        ),
        ("netsim.port", sent * g("netsim.port.enqueue_tx_ns")),
        (
            "rnic.qp",
            sent * g("rnic.qp.tx_ns") + received * g("rnic.qp.rx_ooo_ns"),
        ),
        (
            "rnic.dcqcn",
            g("rnic.dcqcn.cnps") * g("rnic.dcqcn.update_ns"),
        ),
        (
            "core.themis_s",
            g("core.themis_s.sprayed") * g("core.themis_s.spray_ns"),
        ),
        (
            "core.themis_d",
            received * g("core.themis_d.data_ns")
                + g("core.themis_d.nacks_seen") * g("core.themis_d.nack_ns"),
        ),
    ];
    let mut total = 0.0;
    for (layer, ns) in terms {
        let share = ns / span_ns;
        total += share;
        m.put_note(
            &format!("attrib.{layer}.share"),
            share,
            "frac",
            format!("of {span_name}"),
        );
    }
    m.put_note(
        "attrib.unattributed",
        1.0 - total,
        "frac",
        format!("of {span_name}"),
    );
}

/// Untraced run of `open_loop_k16`.
fn open_loop_untraced(seed: u64, seconds: u64) -> Outcome {
    let mut o = Outcome::default();
    let cfg = open_loop::config(seed, 1);
    let mut walls = Vec::new();
    let mut last = None;
    let setups = repeat_for(
        seconds,
        || open_loop::setup_once(&cfg),
        || {
            let r = open_loop::run(&cfg);
            walls.push(r.wall_s);
            o.tally.add(r.tally);
            o.problems.extend(r.problems.iter().cloned());
            o.fingerprint(&r.fingerprint);
            let s = r.wall_s;
            last = Some(r);
            s
        },
    );
    let r = last.expect("at least one run");
    let m = &mut o.metrics;
    m.put_note("wall_s", median(&walls), "s", secs_note(&walls));
    m.put_note("setup_s", median(&setups), "s", secs_note(&setups));
    m.put_note(
        "sim_tail_ct_us",
        r.last_completion_us,
        "us",
        "sim, last job completion".into(),
    );
    let driver = themis_harness::experiment::driver_of(&r.cluster);
    let fcts: Vec<f64> = (0..driver.num_instances())
        .filter_map(|i| driver.fct_of(i))
        .map(|t| t.as_micros_f64())
        .collect();
    m.put_note(
        "sim_op_ct_p50_us",
        median_or_nan(&fcts),
        "us",
        format!("sim, median FCT of {} jobs", fcts.len()),
    );
    m.put_note(
        "sim_fct_p99_us",
        nearest_rank(&sorted(&fcts), 99.0).unwrap_or(f64::NAN),
        "us",
        format!("sim, p99 of {} jobs", fcts.len()),
    );
    m.count("simcore.events", r.report.events);
    o
}

/// Traced run of `open_loop_k16`.
fn open_loop_traced(seed: u64) -> Outcome {
    let mut o = Outcome::default();
    let plain = open_loop::run(&open_loop::config(seed, 1));
    let mut tr = Tracer::new();
    let mut m = Metrics::default();
    let run = open_loop::run_traced(seed, &mut tr, &mut m);
    for r in [&plain, &run] {
        o.tally.add(r.tally);
        o.problems.extend(r.problems.iter().cloned());
        o.fingerprint(&r.fingerprint);
    }
    sim::layer_counts(run.report.events, &run.cluster, &mut m);
    m.put("wall_s.untraced", plain.wall_s, "s");
    m.put("wall_s.traced", run.wall_s, "s");
    m.put_note(
        "trace.overhead_s",
        run.wall_s - plain.wall_s,
        "s",
        "no span inside run_open_loop: about 0 by construction, the rest is run-to-run noise"
            .into(),
    );
    let doc_bytes = m.get("telemetry.doc_bytes").unwrap_or(f64::NAN);
    m.put_note(
        "telemetry.to_json_ns_per_byte",
        tr.total_ns("telemetry.to_json") as f64 / doc_bytes,
        "ns/B",
        format!("final + windowed documents, {doc_bytes} B"),
    );
    layers::measure(seed, &mut tr, &mut m);
    attribute(&mut m, run.wall_s * 1e9, "harness.load.run_open_loop");
    o.metrics = m;
    o.tracer = Some(tr);
    o
}

/// Host-latency metrics of a set of service sessions.
fn service_metrics(sessions: &[service::Session], m: &mut Metrics) {
    let us = |ns: u64| ns as f64 / 1e3;
    let all = || sessions.iter().flat_map(|s| s.samples.iter());
    let ops: Vec<f64> = sorted(
        &all()
            .filter(|s| service::OPS[s.op] != "advance")
            .map(|s| us(s.total_ns))
            .collect::<Vec<_>>(),
    );
    let n = ops.len();
    let note = |p: f64| format!("p{p} of {n} requests");
    m.put_note(
        "op_p50_us",
        nearest_rank(&ops, 50.0).unwrap_or(f64::NAN),
        "us",
        note(50.0),
    );
    m.put_note(
        "op_p99_us",
        nearest_rank(&ops, 99.0).unwrap_or(f64::NAN),
        "us",
        note(99.0),
    );
    if let Some(p) = tail_percentile(n) {
        m.put_note(
            &format!("op_p{p}_us"),
            nearest_rank(&ops, p).unwrap_or(f64::NAN),
            "us",
            note(p),
        );
    }
    let adv: Vec<f64> = all()
        .filter(|s| service::OPS[s.op] == "advance")
        .map(|s| s.total_ns as f64 / 1e6)
        .collect();
    m.put_note(
        "advance_p50_ms",
        median_or_nan(&adv),
        "ms",
        format!("median of {}", adv.len()),
    );
    let requests: usize = sessions.iter().map(|s| s.samples.len()).sum();
    let busy: f64 = sessions.iter().map(|s| s.session_s).sum();
    m.put_note(
        "ops_per_s",
        requests as f64 / busy,
        "1/s",
        format!("{requests} requests, set-up and rounds"),
    );
    let restores: Vec<f64> = sessions.iter().map(|s| s.restore_s).collect();
    m.put_note("restore_s", median(&restores), "s", secs_note(&restores));
    let last = sessions.last().expect("at least one session");
    let tail = last.completions_ns.iter().copied().max().unwrap_or(0) as f64 / 1e3;
    m.put_note(
        "sim_tail_ct_us",
        tail,
        "us",
        "sim, last WR completion".into(),
    );
    let fcts: Vec<f64> = sorted(
        &last
            .fcts_ns
            .iter()
            .map(|&f| f as f64 / 1e3)
            .collect::<Vec<_>>(),
    );
    m.put_note(
        "sim_op_ct_p50_us",
        median_or_nan(&fcts),
        "us",
        format!("sim, median FCT of {} WRs", fcts.len()),
    );
    m.put_note(
        "sim_fct_p99_us",
        nearest_rank(&fcts, 99.0).unwrap_or(f64::NAN),
        "us",
        format!("sim, p99 of {} WRs", fcts.len()),
    );
}

fn fold_session(o: &mut Outcome, s: &service::Session) {
    o.tally.add(s.tally);
    o.problems.extend(s.problems.iter().cloned());
    o.fingerprint(&stats::sim_fingerprint(&s.telemetry));
}

/// Untraced run of `service_k16`: whole sessions, repeated.
fn service_untraced(seed: u64, seconds: u64) -> Outcome {
    let mut o = Outcome::default();
    let plan = service::SessionPlan::k16(seed);
    let mut sessions = Vec::new();
    let setups = repeat_for(
        seconds,
        || service::setup_once(&plan),
        || {
            let s = service::run_session(&plan, None);
            fold_session(&mut o, &s);
            let wall = s.wall_s();
            sessions.push(s);
            wall
        },
    );
    let walls: Vec<f64> = sessions.iter().map(service::Session::wall_s).collect();
    o.metrics
        .put_note("wall_s", median(&walls), "s", secs_note(&walls));
    o.metrics
        .put_note("setup_s", median(&setups), "s", secs_note(&setups));
    service_metrics(&sessions, &mut o.metrics);
    o
}

/// Traced run of `service_k16`.
fn service_traced(seed: u64) -> Outcome {
    let mut o = Outcome::default();
    let plan = service::SessionPlan::k16(seed);
    let plain = service::run_session(&plan, None);
    fold_session(&mut o, &plain);
    let mut tr = Tracer::new();
    let s = tr.span("workload", |tr| service::run_session(&plan, Some(tr)));
    fold_session(&mut o, &s);
    let m = &mut o.metrics;
    m.put("wall_s.untraced", plain.wall_s(), "s");
    m.put("wall_s.traced", s.wall_s(), "s");
    m.put("trace.overhead_s", s.wall_s() - plain.wall_s(), "s");
    for (i, op) in service::OPS.iter().enumerate() {
        let ns: Vec<f64> = s
            .samples
            .iter()
            .filter(|x| x.op == i)
            .map(|x| x.handle_ns as f64)
            .collect();
        m.put_note(
            &format!("harness.service.{op}_p50_us"),
            median_or_nan(&ns) / 1e3,
            "us",
            format!("SimService::handle, median of {}", ns.len()),
        );
    }
    let poll_p50 = |lo: usize, hi: usize| {
        let ns: Vec<f64> = s
            .samples
            .iter()
            .filter(|x| service::OPS[x.op] == "poll_cq" && (lo..hi).contains(&x.round))
            .map(|x| x.handle_ns as f64)
            .collect();
        median_or_nan(&ns)
    };
    let q = plan.rounds / 4;
    let (first, last) = (
        poll_p50(1, q + 1),
        poll_p50(plan.rounds - q + 1, plan.rounds + 1),
    );
    m.put_note(
        "harness.service.poll_growth",
        last / first,
        "x",
        format!(
            "poll_cq p50 {:.2} us in the last quarter / {:.2} us in the first",
            last / 1e3,
            first / 1e3
        ),
    );
    m.put_note(
        "harness.service.replay_s",
        s.restore_s - s.snapshot_parse_s,
        "s",
        format!(
            "restore {:.3} s - parse {:.3} s of {} B",
            s.restore_s, s.snapshot_parse_s, s.snapshot_bytes
        ),
    );
    let counters = service_counters(&s.telemetry);
    for (name, key) in [
        ("core.themis_s.sprayed", "themis.sprayed"),
        ("core.themis_d.nacks_blocked", "themis.nacks.blocked"),
        ("core.themis_d.compensations", "themis.nacks.compensated"),
        ("netsim.port.ecn_marked", "fabric.ecn_marked"),
        ("rnic.qp.rto_fires", "rnic.rto_fired"),
    ] {
        m.count(
            name,
            counters.iter().find(|(k, _)| k == key).map_or(0, |c| c.1),
        );
    }
    let drops = counters
        .iter()
        .filter(|(k, _)| k.starts_with("fabric.drops."))
        .map(|c| c.1)
        .sum();
    m.count("netsim.port.drops", drops);
    m.put_note(
        "telemetry.to_json_ns_per_byte",
        s.telemetry_ns as f64 / s.telemetry.len() as f64,
        "ns/B",
        format!("SimService::telemetry_json, {} B", s.telemetry.len()),
    );
    layers::measure(seed, &mut tr, m);
    o.tracer = Some(tr);
    o
}

/// The counters of a service telemetry document.
fn service_counters(doc: &str) -> Vec<(String, u64)> {
    let Ok(v) = json::parse(doc) else {
        return Vec::new();
    };
    let counters = v
        .get("runs")
        .and_then(|r| r.get("service"))
        .and_then(|r| r.get("counters"));
    match counters {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
            .collect(),
        _ => Vec::new(),
    }
}

fn run(a: &Args) -> Outcome {
    match (a.workload.as_str(), a.trace) {
        ("paper_alltoall", false) => sim_untraced(&sim::SimSpec::paper_alltoall(a.seed), a.seconds),
        ("paper_alltoall", true) => sim_traced(&sim::SimSpec::paper_alltoall(a.seed), a.seed),
        ("incast_lossy", false) => sim_untraced(&sim::SimSpec::incast_lossy(a.seed), a.seconds),
        ("incast_lossy", true) => sim_traced(&sim::SimSpec::incast_lossy(a.seed), a.seed),
        ("open_loop_k16", false) => open_loop_untraced(a.seed, a.seconds),
        ("open_loop_k16", true) => open_loop_traced(a.seed),
        ("service_k16", false) => service_untraced(a.seed, a.seconds),
        ("service_k16", true) => service_traced(a.seed),
        (w, _) => unreachable!("workload {w} was validated"),
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_doc(name: &str, doc: &Json) -> Result<PathBuf, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, doc.to_string() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut o = run(&a);
    match peak_rss_mb() {
        Ok(mb) => o.metrics.put("peak_rss_mb", mb, "MB"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    let tag = format!("{}-seed{}-trace{}", a.workload, a.seed, a.trace as u8);
    println!(
        "perfbench {} seed {} trace {} ({} CPUs)",
        a.workload,
        a.seed,
        a.trace as u8,
        cpus()
    );
    print!("{}", o.metrics.table());
    println!(
        "  sim_fingerprint {}  attempted {}  failed {}  fail_frac {}",
        o.fingerprint,
        o.tally.attempted,
        o.tally.failed(),
        o.tally.fail_frac()
    );
    for p in o.problems.iter().take(20) {
        println!("  problem: {p}");
    }
    let result = Json::obj(vec![
        ("kind", Json::str("perfbench-result")),
        ("v", Json::Int(1)),
        ("workload", Json::str(&a.workload)),
        ("seed", Json::Int(a.seed as i64)),
        ("trace", Json::Bool(a.trace)),
        ("cpus", Json::Int(cpus() as i64)),
        ("correct", Json::Bool(o.correct())),
        ("attempted", Json::Int(o.tally.attempted as i64)),
        ("failed", Json::Int(o.tally.failed() as i64)),
        ("fail_frac", Json::Float(o.tally.fail_frac())),
        ("sim_fingerprint", Json::str(&o.fingerprint)),
        (
            "problems",
            Json::Arr(o.problems.iter().map(|p| Json::str(p)).collect()),
        ),
        ("metrics", o.metrics.to_json()),
    ]);
    let mut written = vec![write_doc(&format!("{tag}.json"), &result)];
    if let Some(tr) = &o.tracer {
        written.push(write_doc(
            &format!("{tag}-spans.json"),
            &tr.to_json(&a.workload, a.seed),
        ));
    }
    for w in written {
        match w {
            Ok(path) => println!("  wrote {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let names: &[&str] = if a.trace { &PER_LAYER } else { &END_TO_END };
    match out::result_line(o.correct(), o.tally, &o.metrics, names) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse_args(&argv(
            "--workload incast_lossy --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "incast_lossy".into(),
                seed: 7,
                seconds: 3,
                trace: true
            }
        );
        assert_eq!(parse_args(&argv("--workload service_k16")).unwrap().seed, 1);
        for bad in [
            "",
            "--workload nope",
            "--workload service_k16 --trace 2",
            "--workload service_k16 --seed",
            "--x 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn declared_metrics_are_valid_and_match_benchmark_json() {
        for name in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(stats::valid_metric_name(name), "{name}");
        }
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(|m| m.get("name").and_then(Json::as_str).map(str::to_string))
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
        assert_eq!(names("workloads"), WORKLOADS);
    }

    #[test]
    fn seeds_change_inputs_and_reruns_reproduce() {
        // Same seed: identical counts and fingerprints.
        let spec = sim::SimSpec::small(5, themis_harness::Collective::Alltoall);
        let (a, b) = (sim::run_untraced(&spec), sim::run_untraced(&spec));
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.result.events, b.result.events);
        // Another seed: other inputs.
        let other = sim::run_untraced(&sim::SimSpec::small(
            6,
            themis_harness::Collective::Alltoall,
        ));
        assert_ne!(other.fingerprint, a.fingerprint);
        for (a, b) in [
            (
                sim::SimSpec::paper_alltoall(1),
                sim::SimSpec::paper_alltoall(2),
            ),
            (sim::SimSpec::incast_lossy(1), sim::SimSpec::incast_lossy(2)),
        ] {
            assert_ne!(
                (a.cfg.seed, a.cfg.fabric.seed),
                (b.cfg.seed, b.cfg.fabric.seed)
            );
        }
        assert_ne!(service::SessionPlan::k16(1), service::SessionPlan::k16(2));
        let jobs = |seed| {
            format!(
                "{:?}",
                collectives::open_loop::sample_load(&open_loop::config(seed, 2).spec, seed).jobs
            )
        };
        assert_ne!(jobs(1), jobs(2));
    }
}
