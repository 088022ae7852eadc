//! `service_k16`: one warm `SimService` on the k=16 fat tree, driven
//! in process through `json::parse` → `SimService::handle` →
//! `Json::to_string`, as a closed loop of 32 clients with 4 QPs each
//! and one request in flight.
//!
//! Each round every client posts one send of seeded size (drawn as
//! [`send_sizes`] says), one `advance` runs, then every client polls
//! its completion queue. Every 50 rounds one client reads its scoped
//! telemetry and a snapshot is taken. The session is fixed at 200
//! rounds (13,136 requests), because `poll_cq` and `post_send` scan
//! every posted WR and QP and so slow down as the session grows; more
//! samples come from more sessions. The session ends by restoring the
//! last snapshot, whose telemetry must equal the live service's byte
//! for byte.

use crate::stats::OpTally;
use crate::trace::Tracer;
use collectives::open_loop::OpenLoopSpec;
use simcore::rng::Xoshiro256;
use std::time::Instant;
use themis_harness::json::{self, Json};
use themis_harness::load::LoadConfig;
use themis_harness::service::{ServiceConfig, SimService};
use themis_harness::Scheme;

/// Logical clients.
pub const CLIENTS: usize = 32;
/// QPs per client.
pub const QPS_PER_CLIENT: usize = 4;
/// Rounds per session.
pub const ROUNDS: usize = 200;
/// Rounds between telemetry reads and snapshots.
pub const CHECKPOINT_EVERY: usize = 50;

/// The size rule of every posted send: the one `open_loop_k16` draws a
/// job's bytes with, from `LoadConfig::k16_acceptance` — the web-search
/// flow-size CDF (after the DCTCP workload), capped at 128 KiB. The cap
/// lets the last round's sends complete within its one `advance`.
pub fn send_sizes() -> OpenLoopSpec {
    LoadConfig::k16_acceptance(Scheme::Themis, 1).spec
}

/// Request kinds, in the order reports list them.
pub const OPS: [&str; 6] = [
    "create_qp",
    "post_send",
    "poll_cq",
    "advance",
    "telemetry",
    "snapshot",
];

/// The seeded inputs of one session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionPlan {
    /// Radix of the fat tree.
    pub k: usize,
    /// Root seed of the service.
    pub seed: u64,
    /// `(src, dst)` host pair of each QP; client `c` owns QPs
    /// `c * QPS_PER_CLIENT ..`.
    pub pairs: Vec<(u32, u32)>,
    /// `sends[round][client] = (qp slot, bytes)`.
    pub sends: Vec<Vec<(usize, u64)>>,
    /// Rounds per session.
    pub rounds: usize,
}

impl SessionPlan {
    /// The service_k16 session for `seed`.
    pub fn k16(seed: u64) -> SessionPlan {
        SessionPlan::new(16, seed, ROUNDS)
    }

    /// A session of `rounds` rounds on a radix-`k` fat tree.
    pub fn new(k: usize, seed: u64, rounds: usize) -> SessionPlan {
        let hosts = (k * k * k / 4) as u64;
        let mut rng = Xoshiro256::seeded(seed ^ 0x5E55_1011);
        let pairs = (0..CLIENTS * QPS_PER_CLIENT)
            .map(|_| {
                let src = rng.next_below(hosts) as u32;
                let dst = (src as u64 + 1 + rng.next_below(hosts - 1)) % hosts;
                (src, dst as u32)
            })
            .collect();
        let sizes = send_sizes();
        let sends = (0..rounds)
            .map(|_| {
                (0..CLIENTS)
                    .map(|_| {
                        let slot = rng.next_index(QPS_PER_CLIENT);
                        (slot, sizes.cdf.sample(&mut rng).min(sizes.max_bytes))
                    })
                    .collect()
            })
            .collect();
        SessionPlan {
            k,
            seed,
            pairs,
            sends,
            rounds,
        }
    }

    /// Requests one session sends.
    pub fn requests(&self) -> u64 {
        let per_round = 2 * CLIENTS as u64 + 1;
        let checkpoints = (self.rounds / CHECKPOINT_EVERY) as u64;
        self.pairs.len() as u64 + self.rounds as u64 * per_round + 2 * checkpoints
    }

    fn config(&self) -> ServiceConfig {
        ServiceConfig {
            k: self.k,
            seed: self.seed,
            ..ServiceConfig::k16()
        }
    }
}

/// One request's host timing.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    /// Index into [`OPS`].
    pub op: usize,
    /// Round it was sent in (0 for set-up requests).
    pub round: usize,
    /// Parse + handle + serialize, ns.
    pub total_ns: u64,
    /// `SimService::handle` alone, ns.
    pub handle_ns: u64,
}

/// What one session measured.
pub struct Session {
    /// Set-up plus every round, s.
    pub session_s: f64,
    /// `SimService::from_snapshot` of the final snapshot, s.
    pub restore_s: f64,
    /// `json::parse` of the final snapshot alone, s (traced runs only).
    pub snapshot_parse_s: f64,
    /// Size of the final snapshot, bytes.
    pub snapshot_bytes: usize,
    /// Every request's timing.
    pub samples: Vec<OpSample>,
    /// Simulated completion (`start + fct`) of every WR, ns.
    pub completions_ns: Vec<u64>,
    /// Simulated FCT of every WR, ns.
    pub fcts_ns: Vec<u64>,
    /// Requests attempted / failed.
    pub tally: OpTally,
    /// Failed checks.
    pub problems: Vec<String>,
    /// The live service's final telemetry document.
    pub telemetry: String,
    /// Host ns of `SimService::telemetry_json` for that document.
    pub telemetry_ns: u64,
}

impl Session {
    /// Host seconds of the whole workload: set-up, rounds and restore.
    pub fn wall_s(&self) -> f64 {
        self.session_s + self.restore_s
    }
}

struct Driver<'a> {
    svc: SimService,
    samples: Vec<OpSample>,
    failed: u64,
    problems: Vec<String>,
    round: usize,
    tracer: Option<&'a mut Tracer>,
}

impl Driver<'_> {
    /// Send one request through the in-process front door. Only the
    /// server side (parse, handle, serialize) is timed.
    fn call(&mut self, op: usize, req: Json) -> Json {
        let text = req.to_string();
        let t0 = Instant::now();
        let parsed = json::parse(&text).expect("client requests are well-formed JSON");
        let t1 = Instant::now();
        let reply = self.svc.handle(&parsed);
        let t2 = Instant::now();
        std::hint::black_box(reply.to_string());
        let t3 = Instant::now();
        if let Some(tr) = self.tracer.as_deref_mut() {
            tr.record("harness.json.parse", t0, t1);
            tr.record(&format!("harness.service.{}", OPS[op]), t1, t2);
            tr.record("harness.json.to_string", t2, t3);
        }
        self.samples.push(OpSample {
            op,
            round: self.round,
            total_ns: (t3 - t0).as_nanos() as u64,
            handle_ns: (t2 - t1).as_nanos() as u64,
        });
        if reply.get("ok").and_then(Json::as_bool) != Some(true) {
            self.failed += 1;
            self.problems
                .push(format!("{} failed: {}", OPS[op], reply.to_string()));
        }
        reply
    }
}

fn int(v: u64) -> Json {
    Json::Int(v as i64)
}

fn client(c: usize) -> Json {
    Json::str(&format!("c{c}"))
}

/// The session's set-up: a warm service plus every `create_qp`; returns
/// the driver and the QP ids.
fn set_up<'a>(plan: &SessionPlan, tracer: Option<&'a mut Tracer>) -> (Driver<'a>, Vec<u64>) {
    let svc = SimService::new(plan.config()).expect("the k=16 service config is valid");
    let mut d = Driver {
        svc,
        samples: Vec::with_capacity(plan.requests() as usize),
        failed: 0,
        problems: Vec::new(),
        round: 0,
        tracer,
    };
    let qps = plan
        .pairs
        .iter()
        .enumerate()
        .map(|(i, &(src, dst))| {
            let reply = d.call(
                0,
                Json::obj(vec![
                    ("op", Json::str("create_qp")),
                    ("client", client(i / QPS_PER_CLIENT)),
                    ("src", int(src as u64)),
                    ("dst", int(dst as u64)),
                ]),
            );
            reply.get("qp").and_then(Json::as_u64).unwrap_or(u64::MAX)
        })
        .collect();
    (d, qps)
}

/// Host seconds of the session's set-up alone.
pub fn setup_once(plan: &SessionPlan) -> f64 {
    let t = Instant::now();
    let (d, qps) = set_up(plan, None);
    let s = t.elapsed().as_secs_f64();
    assert!(
        d.failed == 0 && qps.len() == plan.pairs.len(),
        "set-up failed: {:?}",
        d.problems
    );
    s
}

/// Run one session of `plan`. With a tracer, every request and round
/// gets a span.
pub fn run_session(plan: &SessionPlan, tracer: Option<&mut Tracer>) -> Session {
    let t0 = Instant::now();
    let (mut d, qps) = set_up(plan, tracer);

    // Per client: WRs posted but not yet reaped.
    let mut outstanding: Vec<Vec<u64>> = vec![Vec::new(); CLIENTS];
    let mut completions_ns = Vec::new();
    let mut fcts_ns = Vec::new();
    let mut snapshot = String::new();
    for round in 1..=plan.rounds {
        d.round = round;
        let round_start = Instant::now();
        for (c, &(slot, bytes)) in plan.sends[round - 1].iter().enumerate() {
            let reply = d.call(
                1,
                Json::obj(vec![
                    ("op", Json::str("post_send")),
                    ("client", client(c)),
                    ("qp", int(qps[c * QPS_PER_CLIENT + slot])),
                    ("bytes", int(bytes)),
                ]),
            );
            if let Some(wr) = reply.get("wr").and_then(Json::as_u64) {
                outstanding[c].push(wr);
            }
        }
        d.call(
            3,
            Json::obj(vec![("op", Json::str("advance")), ("windows", int(1))]),
        );
        for (c, pending) in outstanding.iter_mut().enumerate() {
            let since = pending.iter().copied().min().unwrap_or(u64::MAX);
            if since == u64::MAX {
                continue;
            }
            let reply = d.call(
                2,
                Json::obj(vec![
                    ("op", Json::str("poll_cq")),
                    ("client", client(c)),
                    ("since", int(since)),
                ]),
            );
            for done in reply
                .get("completions")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
            {
                let field = |k: &str| done.get(k).and_then(Json::as_u64).unwrap_or(0);
                let wr = field("wr");
                if let Some(pos) = pending.iter().position(|&w| w == wr) {
                    pending.swap_remove(pos);
                    completions_ns.push(field("start_ns") + field("fct_ns"));
                    fcts_ns.push(field("fct_ns"));
                }
            }
        }
        if round % CHECKPOINT_EVERY == 0 {
            let c = (round / CHECKPOINT_EVERY) % CLIENTS;
            d.call(
                4,
                Json::obj(vec![("op", Json::str("telemetry")), ("client", client(c))]),
            );
            let reply = d.call(5, Json::obj(vec![("op", Json::str("snapshot"))]));
            snapshot = reply
                .get("snapshot")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string();
        }
        if let Some(tr) = d.tracer.as_deref_mut() {
            tr.record("harness.service.round", round_start, Instant::now());
        }
    }
    let session_s = t0.elapsed().as_secs_f64();

    let unreaped: u64 = outstanding.iter().map(|p| p.len() as u64).sum();
    if unreaped > 0 {
        d.problems
            .push(format!("{unreaped} posted WRs never completed"));
    }
    let t = Instant::now();
    let telemetry = d.svc.telemetry_json(None);
    let telemetry_ns = t.elapsed().as_nanos() as u64;

    let t0 = Instant::now();
    let restored = SimService::from_snapshot(&snapshot);
    let t1 = Instant::now();
    let restore_s = (t1 - t0).as_secs_f64();
    // The traced run also parses the snapshot alone, to split the
    // restore into parsing and journal replay.
    let mut snapshot_parse_s = f64::NAN;
    if let Some(tr) = d.tracer.as_deref_mut() {
        std::hint::black_box(json::parse(&snapshot).is_ok());
        let t2 = Instant::now();
        snapshot_parse_s = (t2 - t1).as_secs_f64();
        tr.record("harness.service.restore", t0, t1);
        tr.record("harness.json.parse.snapshot", t1, t2);
    }
    let restore_ok = match restored {
        Ok(r) => r.telemetry_json(None) == telemetry,
        Err(e) => {
            d.problems.push(format!("restore failed: {e}"));
            false
        }
    };
    if !restore_ok {
        d.problems
            .push("restored telemetry differs from the live service".into());
    }
    Session {
        session_s,
        restore_s,
        snapshot_parse_s,
        snapshot_bytes: snapshot.len(),
        tally: OpTally {
            attempted: d.samples.len() as u64,
            failed_ops: d.failed + unreaped,
            violation: !restore_ok,
        },
        samples: d.samples,
        completions_ns,
        fcts_ns,
        problems: d.problems,
        telemetry,
        telemetry_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_k16_session_sends_13136_requests() {
        assert_eq!(SessionPlan::k16(1).requests(), 13_136);
    }

    #[test]
    fn the_plan_is_a_function_of_the_seed() {
        let a = SessionPlan::new(4, 1, 20);
        assert_eq!(a, SessionPlan::new(4, 1, 20));
        assert_ne!(a, SessionPlan::new(4, 2, 20));
        assert!(a.pairs.iter().all(|&(s, d)| s != d && s < 16 && d < 16));
        let cap = send_sizes().max_bytes;
        assert_eq!(cap, 128 << 10);
        let sizes: Vec<u64> = a.sends.iter().flatten().map(|&(_, b)| b).collect();
        assert!(sizes.iter().all(|&b| (1 << 10..=cap).contains(&b)));
        assert!(sizes.iter().any(|&b| b == cap) && sizes.iter().any(|&b| b < cap / 2));
    }

    #[test]
    fn a_small_session_completes_and_restores_identically() {
        let plan = SessionPlan::new(4, 7, 50);
        let s = run_session(&plan, None);
        assert!(s.problems.is_empty(), "{:?}", s.problems);
        assert_eq!(s.tally.attempted, plan.requests());
        assert!(s.tally.clean());
        assert_eq!(s.fcts_ns.len(), CLIENTS * 50);
        let again = run_session(&plan, None);
        assert_eq!(again.telemetry, s.telemetry);
        assert_eq!(again.completions_ns, s.completions_ns);
    }
}
