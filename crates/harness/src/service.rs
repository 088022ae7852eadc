//! Sim-as-a-service: a verbs-shaped front door over one warm fabric.
//!
//! The batch binaries rebuild a topology per invocation; this module
//! keeps a single simulated cluster alive behind a small verbs-like
//! API — `create_qp`, `post_send`, `poll_cq`, `query_fabric`,
//! `snapshot`/`restore` — so external clients can multiplex many
//! experiments over one warm k=16 fat tree without per-run
//! construction cost (ROADMAP open item 2; the host-facing contract
//! REPS-style transports and in-network-compute stacks assume).
//!
//! ## Batching model
//!
//! The engine only advances inside the `advance` op, window by window
//! (the same conservative-window execution [`crate::load`] uses, so
//! sharded and serial service runs stay bit-identical). Every mutating
//! op therefore lands **at a window boundary** while the engine is
//! idle: `create_qp` provisions NIC state directly, `post_send` wires a
//! deferred driver instance whose start timer is seeded at the current
//! boundary. Concurrent clients are serialized by the service lock; the
//! resulting op order is recorded in a journal.
//!
//! ## Snapshot / restore
//!
//! A snapshot is **not** a dump of engine internals — it is the service
//! config plus the op journal (`themis-service-snapshot` v1, JSON).
//! Because the simulator is deterministic, replaying the journal
//! against a freshly built cluster reconstructs the exact engine, QP
//! and telemetry state: a restored service continues with telemetry
//! byte-identical to one that never stopped. This keeps checkpoints
//! small, versionable and diffable.
//!
//! ## Wire protocol
//!
//! Length-prefixed JSON over a Unix or TCP socket: each direction sends
//! a 4-byte big-endian payload length followed by one JSON document.
//! Requests are objects with an `"op"` field; responses carry
//! `"ok": true` plus op-specific fields, or `"ok": false` with an
//! `"error"` message. See [`SimService::handle`] for the op table.

use crate::cluster::Cluster;
use crate::experiment::attach_driver_telemetry;
use crate::fat_tree::build_fat_tree_cluster_sharded;
use crate::json::{self, Json};
use crate::load::InvalidConfig;
use crate::scheme::Scheme;
use collectives::driver::{
    provision_qp, single_transfer_spec, Driver, QpAllocator, JOB_TOKEN_BASE,
};
use netsim::event::Event;
use netsim::fat_tree::FatTreeConfig;
use netsim::types::{HostId, QpId};
use rnic::{Nic, NicConfig};
use simcore::time::{Nanos, TimeDelta};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};

const GBPS100: u64 = 100_000_000_000;

/// Largest accepted frame payload (a defensive cap, far above any
/// legitimate request or telemetry document).
pub const MAX_FRAME_BYTES: u32 = 64 << 20;

/// Snapshot format identifier.
pub const SNAPSHOT_KIND: &str = "themis-service-snapshot";
/// Snapshot format version.
pub const SNAPSHOT_VERSION: i64 = 1;

/// Static configuration of one service instance — everything needed to
/// rebuild its fabric deterministically (and thus everything a
/// snapshot must carry besides the journal).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Fat-tree radix (4, 8, 16, 32).
    pub k: usize,
    /// Scheme the fabric runs.
    pub scheme: Scheme,
    /// Root seed (drives QP entropy).
    pub seed: u64,
    /// Engine shards (1 = serial; any value is bit-identical).
    pub shards: usize,
    /// Batching window width: the `advance` op moves simulated time in
    /// multiples of this.
    pub window: TimeDelta,
}

impl ServiceConfig {
    /// CI-sized default: k=4 (16 hosts), Themis, 500 µs windows.
    pub fn small() -> ServiceConfig {
        ServiceConfig {
            k: 4,
            scheme: Scheme::Themis,
            seed: 1,
            shards: 1,
            window: TimeDelta::from_micros(500),
        }
    }

    /// The warm acceptance fabric: k=16 (1024 hosts).
    pub fn k16() -> ServiceConfig {
        ServiceConfig {
            k: 16,
            ..ServiceConfig::small()
        }
    }

    /// Reject degenerate knob combinations with a usage error instead
    /// of a downstream panic (`--window-us 0`, odd radix, more shards
    /// than hosts, …).
    pub fn validate(&self) -> Result<(), InvalidConfig> {
        let fail = |msg: String| Err(InvalidConfig(msg));
        if self.k < 4 || self.k % 2 != 0 || !(self.k / 2).is_power_of_two() {
            return fail(format!(
                "--k must be even with k/2 a power of two (4, 8, 16, 32), got {}",
                self.k
            ));
        }
        if self.window.as_nanos() == 0 {
            return fail("--window-us must be > 0 (the advance op moves time by it)".into());
        }
        if self.shards == 0 {
            return fail("--shards must be >= 1 (1 = serial engine)".into());
        }
        let n_hosts = FatTreeConfig::small(self.k).n_hosts();
        if self.shards > n_hosts {
            return fail(format!(
                "--shards {} exceeds the fabric's {n_hosts} hosts; shards partition hosts",
                self.shards
            ));
        }
        Ok(())
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("k", Json::Int(self.k as i64)),
            ("scheme", Json::str(self.scheme.cli_name())),
            ("seed", Json::Int(self.seed as i64)),
            ("shards", Json::Int(self.shards as i64)),
            ("window_ns", Json::Int(self.window.as_nanos() as i64)),
        ])
    }

    fn from_json(v: &Json) -> Result<ServiceConfig, String> {
        let scheme_name = v
            .get("scheme")
            .and_then(Json::as_str)
            .ok_or("config.scheme missing")?;
        Ok(ServiceConfig {
            k: v.get("k")
                .and_then(Json::as_u64)
                .ok_or("config.k missing")? as usize,
            scheme: Scheme::parse(scheme_name)
                .ok_or_else(|| format!("unknown scheme {scheme_name:?}"))?,
            seed: v
                .get("seed")
                .and_then(Json::as_u64)
                .ok_or("config.seed missing")?,
            shards: v
                .get("shards")
                .and_then(Json::as_u64)
                .ok_or("config.shards missing")? as usize,
            window: TimeDelta::from_nanos(
                v.get("window_ns")
                    .and_then(Json::as_u64)
                    .ok_or("config.window_ns missing")?,
            ),
        })
    }
}

/// One replayable mutating op. The journal (ordered list of these) plus
/// [`ServiceConfig`] *is* the checkpoint: replay reconstructs the
/// engine bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
enum JournalOp {
    CreateQp { client: String, src: u32, dst: u32 },
    PostSend { client: String, qp: u32, bytes: u64 },
    Advance { windows: u64 },
}

impl JournalOp {
    fn to_json(&self) -> Json {
        match self {
            JournalOp::CreateQp { client, src, dst } => Json::obj(vec![
                ("op", Json::str("create_qp")),
                ("client", Json::str(client)),
                ("src", Json::Int(*src as i64)),
                ("dst", Json::Int(*dst as i64)),
            ]),
            JournalOp::PostSend { client, qp, bytes } => Json::obj(vec![
                ("op", Json::str("post_send")),
                ("client", Json::str(client)),
                ("qp", Json::Int(*qp as i64)),
                ("bytes", Json::Int(*bytes as i64)),
            ]),
            JournalOp::Advance { windows } => Json::obj(vec![
                ("op", Json::str("advance")),
                ("windows", Json::Int(*windows as i64)),
            ]),
        }
    }

    fn from_json(v: &Json) -> Result<JournalOp, String> {
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or("journal op missing")?;
        let client = || {
            v.get("client")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or("journal client missing".to_string())
        };
        let num = |key: &str| {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("journal field {key} missing"))
        };
        match op {
            "create_qp" => Ok(JournalOp::CreateQp {
                client: client()?,
                src: num("src")? as u32,
                dst: num("dst")? as u32,
            }),
            "post_send" => Ok(JournalOp::PostSend {
                client: client()?,
                qp: num("qp")? as u32,
                bytes: num("bytes")?,
            }),
            "advance" => Ok(JournalOp::Advance {
                windows: num("windows")?,
            }),
            other => Err(format!("unknown journal op {other:?}")),
        }
    }
}

/// A client-visible QP record.
#[derive(Debug, Clone)]
struct QpRecord {
    qp: QpId,
    sport: u16,
    client: String,
    src: HostId,
    dst: HostId,
}

/// A posted work request: `wr` is the driver instance index.
#[derive(Debug, Clone)]
struct WorkRecord {
    wr: usize,
    client: String,
    qp: QpId,
}

/// The service state machine: one warm cluster plus the verbs front
/// door over it. Wrap in a `Mutex` to share between connection threads
/// (see [`serve`]); ops are serialized, so the journal order is the
/// canonical op order.
pub struct SimService {
    cfg: ServiceConfig,
    cluster: Cluster,
    alloc: QpAllocator,
    /// Completed `advance` steps; simulated time never exceeds
    /// `window * window_idx`.
    window_idx: u64,
    journal: Vec<JournalOp>,
    qps: Vec<QpRecord>,
    work: Vec<WorkRecord>,
}

impl SimService {
    /// Build a warm fabric for `cfg` (validated first).
    pub fn new(cfg: ServiceConfig) -> Result<SimService, InvalidConfig> {
        cfg.validate()?;
        let fabric = FatTreeConfig::small(cfg.k);
        let mut cluster = build_fat_tree_cluster_sharded(
            &fabric,
            NicConfig::nic_sr(GBPS100),
            cfg.scheme,
            cfg.shards,
        );
        let mut driver = Driver::new();
        attach_driver_telemetry(&mut driver, &cluster);
        let node = cluster.driver;
        cluster.world.install(node, Box::new(driver));
        Ok(SimService {
            alloc: QpAllocator::new(cfg.seed ^ 0x5E21_ACE5),
            cfg,
            cluster,
            window_idx: 0,
            journal: Vec::new(),
            qps: Vec::new(),
            work: Vec::new(),
        })
    }

    /// Rebuild a service from a snapshot document: parse the config,
    /// build a fresh fabric and replay the journal. Deterministic
    /// replay makes the result bit-identical to the checkpointed
    /// instance — including its telemetry.
    pub fn from_snapshot(text: &str) -> Result<SimService, String> {
        let doc = json::parse(text).map_err(|e| format!("snapshot: {e}"))?;
        if doc.get("kind").and_then(Json::as_str) != Some(SNAPSHOT_KIND) {
            return Err(format!("snapshot: kind must be {SNAPSHOT_KIND:?}"));
        }
        if doc.get("v").and_then(Json::as_i64) != Some(SNAPSHOT_VERSION) {
            return Err(format!(
                "snapshot: unsupported version (want {SNAPSHOT_VERSION})"
            ));
        }
        let cfg = ServiceConfig::from_json(doc.get("config").ok_or("snapshot: config missing")?)?;
        // Take the journal by value so each parsed entry is freed once
        // replayed: the parsed document and the replayed service never
        // peak in memory together.
        let journal = match doc {
            Json::Obj(pairs) => pairs.into_iter().find(|(k, _)| k == "journal"),
            _ => None,
        };
        let Some((_, Json::Arr(journal))) = journal else {
            return Err("snapshot: journal missing".into());
        };
        let mut svc = SimService::new(cfg).map_err(|e| e.to_string())?;
        for entry in journal {
            let op = JournalOp::from_json(&entry)?;
            svc.apply(op)?;
        }
        Ok(svc)
    }

    /// Serialize the checkpoint: config + journal, as a compact JSON
    /// document (stable field order, so identical histories produce
    /// identical bytes).
    pub fn snapshot(&self) -> String {
        Json::obj(vec![
            ("kind", Json::str(SNAPSHOT_KIND)),
            ("v", Json::Int(SNAPSHOT_VERSION)),
            ("config", self.cfg.to_json()),
            (
                "journal",
                Json::Arr(self.journal.iter().map(JournalOp::to_json).collect()),
            ),
        ])
        .to_string()
    }

    /// Current simulated window boundary (`window * window_idx`).
    pub fn boundary(&self) -> Nanos {
        Nanos(self.cfg.window.as_nanos() * self.window_idx)
    }

    /// Execute one mutating op and append it to the journal. Both the
    /// live request path and snapshot replay run through here, so the
    /// two can never diverge.
    fn apply(&mut self, op: JournalOp) -> Result<Json, String> {
        let reply = match &op {
            JournalOp::CreateQp { client, src, dst } => {
                let n_hosts = self.cluster.hosts.len() as u32;
                if *src >= n_hosts || *dst >= n_hosts {
                    return Err(format!(
                        "create_qp: hosts {src}->{dst} out of range (fabric has {n_hosts})"
                    ));
                }
                if src == dst {
                    return Err("create_qp: src and dst must differ".into());
                }
                let (qp, sport) = provision_qp(
                    &mut self.cluster.world,
                    self.cluster.driver,
                    HostId(*src),
                    HostId(*dst),
                    &mut self.alloc,
                );
                self.qps.push(QpRecord {
                    qp,
                    sport,
                    client: client.clone(),
                    src: HostId(*src),
                    dst: HostId(*dst),
                });
                Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("qp", Json::Int(qp.0 as i64)),
                    ("sport", Json::Int(sport as i64)),
                ])
            }
            JournalOp::PostSend { client, qp, bytes } => {
                let rec = self
                    .qps
                    .iter()
                    .find(|r| r.qp.0 == *qp)
                    .ok_or_else(|| format!("post_send: unknown qp {qp}"))?
                    .clone();
                if rec.client != *client {
                    return Err(format!(
                        "post_send: qp {qp} belongs to client {:?}, not {:?}",
                        rec.client, client
                    ));
                }
                if *bytes == 0 {
                    return Err("post_send: bytes must be > 0".into());
                }
                let spec = single_transfer_spec(rec.src, rec.dst, rec.qp, *bytes);
                let start_at = self.boundary();
                let node = self.cluster.driver;
                let driver: &mut Driver = self
                    .cluster
                    .world
                    .get_mut(node)
                    .ok_or("post_send: driver entity missing")?;
                let idx = driver.add_instance_deferred(spec);
                // The transfer starts at the current window boundary —
                // i.e. at the beginning of the next `advance` — never
                // mid-window, which is what keeps concurrent clients'
                // interleavings deterministic.
                self.cluster.world.seed_event(
                    start_at,
                    node,
                    Event::Timer {
                        token: JOB_TOKEN_BASE + idx as u64,
                    },
                );
                self.work.push(WorkRecord {
                    wr: idx,
                    client: client.clone(),
                    qp: rec.qp,
                });
                Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("wr", Json::Int(idx as i64)),
                ])
            }
            JournalOp::Advance { windows } => {
                if *windows == 0 {
                    return Err("advance: windows must be >= 1".into());
                }
                for _ in 0..*windows {
                    self.window_idx += 1;
                    let horizon = self.boundary();
                    self.cluster.world.run_until(horizon);
                }
                Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("window", Json::Int(self.window_idx as i64)),
                    (
                        "now_ns",
                        Json::Int(self.cluster.world.now().as_nanos() as i64),
                    ),
                ])
            }
        };
        self.journal.push(op);
        Ok(reply)
    }

    /// Completions for `client` with `wr >= since`, oldest first.
    /// Read-only (poll again with a higher `since` to page): the reap
    /// cursor lives client-side so polling never perturbs the journal.
    fn poll_cq(&self, client: &str, since: u64) -> Json {
        let driver: &Driver = self
            .cluster
            .world
            .get(self.cluster.driver)
            .expect("driver installed at build time");
        let completions: Vec<Json> = self
            .work
            .iter()
            .filter(|w| w.client == client && (w.wr as u64) >= since)
            .filter_map(|w| {
                let fct = driver.fct_of(w.wr)?;
                let start = driver.start_of(w.wr)?;
                Some(Json::obj(vec![
                    ("wr", Json::Int(w.wr as i64)),
                    ("qp", Json::Int(w.qp.0 as i64)),
                    ("start_ns", Json::Int(start.as_nanos() as i64)),
                    ("fct_ns", Json::Int(fct.as_nanos() as i64)),
                ]))
            })
            .collect();
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("completions", Json::Arr(completions)),
        ])
    }

    fn query_fabric(&self) -> Json {
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("k", Json::Int(self.cfg.k as i64)),
            ("hosts", Json::Int(self.cluster.hosts.len() as i64)),
            ("leaves", Json::Int(self.cluster.leaves.len() as i64)),
            ("spines", Json::Int(self.cluster.spines.len() as i64)),
            ("n_paths", Json::Int(self.cluster.n_paths as i64)),
            ("scheme", Json::str(self.cfg.scheme.cli_name())),
            ("shards", Json::Int(self.cfg.shards as i64)),
            ("window_ns", Json::Int(self.cfg.window.as_nanos() as i64)),
            ("window", Json::Int(self.window_idx as i64)),
            (
                "now_ns",
                Json::Int(self.cluster.world.now().as_nanos() as i64),
            ),
            ("qps", Json::Int(self.qps.len() as i64)),
            ("posted", Json::Int(self.work.len() as i64)),
        ])
    }

    /// The QP table (optionally restricted to one client): the handles
    /// a reconnecting client needs to resume driving its flows.
    fn list_qps(&self, scope: Option<&str>) -> Json {
        let qps: Vec<Json> = self
            .qps
            .iter()
            .filter(|r| scope.map_or(true, |c| r.client == c))
            .map(|r| {
                Json::obj(vec![
                    ("qp", Json::Int(r.qp.0 as i64)),
                    ("client", Json::str(&r.client)),
                    ("src", Json::Int(r.src.0 as i64)),
                    ("dst", Json::Int(r.dst.0 as i64)),
                    ("sport", Json::Int(r.sport as i64)),
                ])
            })
            .collect();
        Json::obj(vec![("ok", Json::Bool(true)), ("qps", Json::Arr(qps))])
    }

    fn query_qp(&self, qp: u32) -> Result<Json, String> {
        let rec = self
            .qps
            .iter()
            .find(|r| r.qp.0 == qp)
            .ok_or_else(|| format!("query_qp: unknown qp {qp}"))?;
        let nic: &Nic = self
            .cluster
            .world
            .get(netsim::types::NodeId(rec.src.0))
            .ok_or("query_qp: sender NIC missing")?;
        let d = nic
            .describe_send_qp(rec.qp)
            .ok_or_else(|| format!("query_qp: qp {qp} has no sender half on host {}", rec.src.0))?;
        Ok(Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("qp", Json::Int(d.qp.0 as i64)),
            ("src", Json::Int(d.src.0 as i64)),
            ("dst", Json::Int(d.dst.0 as i64)),
            ("sport", Json::Int(d.sport as i64)),
            ("snd_una", Json::Int(d.snd_una as i64)),
            ("snd_nxt", Json::Int(d.snd_nxt as i64)),
            ("retx_pending", Json::Int(d.retx_pending as i64)),
            ("busy", Json::Bool(d.busy)),
        ]))
    }

    /// The merged telemetry document (`themis-telemetry` v1 text).
    /// `scope` prefixes every metric name (`<scope>.`) — per-client
    /// views of the shared fabric stay distinguishable downstream.
    /// Appends deterministic `service.*` counters derived from the
    /// journal, so restored-vs-continuous comparisons cover the service
    /// layer too.
    pub fn telemetry_json(&self, scope: Option<&str>) -> String {
        let mut run = self.cluster.snapshot_merged();
        run.push_counter("service.window", self.window_idx);
        run.push_counter("service.qps", self.qps.len() as u64);
        run.push_counter("service.posted", self.work.len() as u64);
        run.push_counter("service.journal_ops", self.journal.len() as u64);
        run.sort();
        if let Some(prefix) = scope {
            run = run.scoped(prefix);
        }
        let mut report = telemetry::Report::new();
        report.add_run("service", run);
        report.to_json()
    }

    /// Dispatch one protocol request. Op table:
    ///
    /// | op | fields | reply |
    /// |----|--------|-------|
    /// | `create_qp` | `client, src, dst` | `qp, sport` |
    /// | `post_send` | `client, qp, bytes` | `wr` |
    /// | `advance` | `windows` | `window, now_ns` |
    /// | `poll_cq` | `client[, since]` | `completions[]` |
    /// | `query_fabric` | — | topology + clock |
    /// | `list_qps` | `[client]` | QP table |
    /// | `query_qp` | `qp` | QP descriptor |
    /// | `telemetry` | `[client][, path]` | document or file write |
    /// | `snapshot` | `[path]` | document or file write |
    /// | `shutdown` | — | `ok` (server closes after replying) |
    ///
    /// Malformed requests yield `{"ok":false,"error":...}` — the
    /// service never panics on client input.
    pub fn handle(&mut self, req: &Json) -> Json {
        match self.dispatch(req) {
            Ok(reply) => reply,
            Err(msg) => Json::obj(vec![("ok", Json::Bool(false)), ("error", Json::str(&msg))]),
        }
    }

    fn dispatch(&mut self, req: &Json) -> Result<Json, String> {
        let op = req
            .get("op")
            .and_then(Json::as_str)
            .ok_or("request needs a string \"op\" field")?;
        let client = |req: &Json| -> Result<String, String> {
            req.get("client")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or("request needs a string \"client\" field".into())
        };
        let num = |req: &Json, key: &str| -> Result<u64, String> {
            req.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("request needs a non-negative \"{key}\" field"))
        };
        match op {
            "create_qp" => self.apply(JournalOp::CreateQp {
                client: client(req)?,
                src: num(req, "src")? as u32,
                dst: num(req, "dst")? as u32,
            }),
            "post_send" => self.apply(JournalOp::PostSend {
                client: client(req)?,
                qp: num(req, "qp")? as u32,
                bytes: num(req, "bytes")?,
            }),
            "advance" => self.apply(JournalOp::Advance {
                windows: num(req, "windows")?,
            }),
            "poll_cq" => {
                let since = req.get("since").and_then(Json::as_u64).unwrap_or(0);
                Ok(self.poll_cq(&client(req)?, since))
            }
            "query_fabric" => Ok(self.query_fabric()),
            "list_qps" => Ok(self.list_qps(req.get("client").and_then(Json::as_str))),
            "query_qp" => self.query_qp(num(req, "qp")? as u32),
            "telemetry" => {
                let scope = req.get("client").and_then(Json::as_str);
                let doc = self.telemetry_json(scope);
                self.reply_doc(req, "telemetry", doc)
            }
            "snapshot" => {
                let doc = self.snapshot();
                self.reply_doc(req, "snapshot", doc)
            }
            "shutdown" => Ok(Json::obj(vec![("ok", Json::Bool(true))])),
            other => Err(format!("unknown op {other:?}")),
        }
    }

    /// Return `doc` inline, or — when the request carries a `path` —
    /// write it server-side and return the byte count (the scripted CI
    /// client diffs files with `cmp`).
    fn reply_doc(&self, req: &Json, field: &str, doc: String) -> Result<Json, String> {
        if let Some(path) = req.get("path").and_then(Json::as_str) {
            std::fs::write(path, doc.as_bytes())
                .map_err(|e| format!("{field}: cannot write {path}: {e}"))?;
            Ok(Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("path", Json::str(path)),
                ("bytes", Json::Int(doc.len() as i64)),
            ]))
        } else {
            Ok(Json::obj(vec![
                ("ok", Json::Bool(true)),
                (field, Json::Str(doc)),
            ]))
        }
    }
}

// ---------------------------------------------------------------------
// Framing + transport
// ---------------------------------------------------------------------

/// Write one length-prefixed frame (4-byte big-endian length + payload).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame; `Ok(None)` on clean EOF at a frame boundary.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut hdr = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        let n = r.read(&mut hdr[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "truncated frame header",
            ));
        }
        filled += n;
    }
    let len = u32::from_be_bytes(hdr);
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds cap"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Where the server listens (and clients connect).
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// A Unix-domain socket path.
    Unix(std::path::PathBuf),
    /// A TCP address, e.g. `127.0.0.1:7117`.
    Tcp(String),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(p) => write!(f, "unix:{}", p.display()),
            Endpoint::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

enum Stream {
    Unix(std::os::unix::net::UnixStream),
    Tcp(std::net::TcpStream),
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// A blocking protocol client: connect, then [`Client::call`] per
/// request.
pub struct Client {
    stream: Stream,
}

impl Client {
    /// Connect to a listening server.
    pub fn connect(ep: &Endpoint) -> std::io::Result<Client> {
        let stream = match ep {
            Endpoint::Unix(path) => Stream::Unix(std::os::unix::net::UnixStream::connect(path)?),
            Endpoint::Tcp(addr) => Stream::Tcp(std::net::TcpStream::connect(addr)?),
        };
        Ok(Client { stream })
    }

    /// Send one request, wait for its reply.
    pub fn call(&mut self, req: &Json) -> std::io::Result<Json> {
        write_frame(&mut self.stream, req.to_string().as_bytes())?;
        let payload = read_frame(&mut self.stream)?.ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "server closed mid-call")
        })?;
        let text = String::from_utf8(payload)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        json::parse(&text).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

enum Listener {
    Unix(std::os::unix::net::UnixListener),
    Tcp(std::net::TcpListener),
}

impl Listener {
    fn bind(ep: &Endpoint) -> std::io::Result<Listener> {
        match ep {
            Endpoint::Unix(path) => {
                // A previous unclean exit may have left the socket file.
                let _ = std::fs::remove_file(path);
                let l = std::os::unix::net::UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Ok(Listener::Unix(l))
            }
            Endpoint::Tcp(addr) => {
                let l = std::net::TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                Ok(Listener::Tcp(l))
            }
        }
    }

    fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Unix(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(false)?;
                Ok(Stream::Unix(s))
            }
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(false)?;
                Ok(Stream::Tcp(s))
            }
        }
    }
}

/// One forwarded request: the parsed document plus the channel its
/// reply goes back on.
type ForwardedRequest = (Json, mpsc::Sender<Json>);

/// Serve `service` on `endpoint` until a client sends `shutdown` (or
/// `stop` is set externally).
///
/// The cluster is not `Send` (its telemetry sinks are `Rc`-based), so
/// the service never leaves this thread: connection threads only read
/// frames and forward parsed requests over an mpsc channel; the serve
/// loop executes them one at a time against the owned [`SimService`].
/// Concurrent clients therefore serialize into one deterministic
/// journal order by construction. Returns after the acceptor drains —
/// a clean shutdown, which the CI leg gates on.
pub fn serve(
    mut service: SimService,
    endpoint: &Endpoint,
    stop: Arc<AtomicBool>,
) -> std::io::Result<()> {
    let listener = Listener::bind(endpoint)?;
    let (tx, rx) = mpsc::channel::<ForwardedRequest>();
    let acceptor_stop = Arc::clone(&stop);
    let acceptor = std::thread::spawn(move || accept_loop(listener, tx, acceptor_stop));
    while !stop.load(Ordering::SeqCst) {
        match rx.recv_timeout(std::time::Duration::from_millis(20)) {
            Ok((req, reply_tx)) => {
                let is_shutdown = req.get("op").and_then(Json::as_str) == Some("shutdown");
                let reply = service.handle(&req);
                let _ = reply_tx.send(reply);
                if is_shutdown {
                    stop.store(true, Ordering::SeqCst);
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    let _ = acceptor.join();
    if let Endpoint::Unix(path) = endpoint {
        let _ = std::fs::remove_file(path);
    }
    Ok(())
}

fn accept_loop(listener: Listener, tx: mpsc::Sender<ForwardedRequest>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(mut stream) => {
                let tx = tx.clone();
                std::thread::spawn(move || serve_connection(&mut stream, &tx));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
}

fn serve_connection(stream: &mut Stream, tx: &mpsc::Sender<ForwardedRequest>) {
    loop {
        let payload = match read_frame(stream) {
            Ok(Some(p)) => p,
            Ok(None) | Err(_) => return,
        };
        let reply = match std::str::from_utf8(&payload)
            .map_err(|e| e.to_string())
            .and_then(|t| json::parse(t).map_err(|e| e.to_string()))
        {
            Ok(req) => {
                let (reply_tx, reply_rx) = mpsc::channel();
                if tx.send((req, reply_tx)).is_err() {
                    // Serve loop gone: tell the client and drop the
                    // connection.
                    let bye = Json::obj(vec![
                        ("ok", Json::Bool(false)),
                        ("error", Json::str("server is shutting down")),
                    ]);
                    let _ = write_frame(stream, bye.to_string().as_bytes());
                    return;
                }
                match reply_rx.recv() {
                    Ok(reply) => reply,
                    Err(_) => return,
                }
            }
            Err(msg) => Json::obj(vec![
                ("ok", Json::Bool(false)),
                ("error", Json::str(&format!("bad request: {msg}"))),
            ]),
        };
        if write_frame(stream, reply.to_string().as_bytes()).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(pairs: Vec<(&str, Json)>) -> Json {
        Json::obj(pairs)
    }

    #[test]
    fn create_post_advance_poll_roundtrip_in_process() {
        let mut svc = SimService::new(ServiceConfig::small()).unwrap();
        let r = svc.handle(&req(vec![
            ("op", Json::str("create_qp")),
            ("client", Json::str("a")),
            ("src", Json::Int(0)),
            ("dst", Json::Int(5)),
        ]));
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r:?}");
        let qp = r.get("qp").and_then(Json::as_i64).unwrap();
        let r = svc.handle(&req(vec![
            ("op", Json::str("post_send")),
            ("client", Json::str("a")),
            ("qp", Json::Int(qp)),
            ("bytes", Json::Int(64 << 10)),
        ]));
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r:?}");
        let r = svc.handle(&req(vec![
            ("op", Json::str("advance")),
            ("windows", Json::Int(4)),
        ]));
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r:?}");
        let r = svc.handle(&req(vec![
            ("op", Json::str("poll_cq")),
            ("client", Json::str("a")),
        ]));
        let completions = r.get("completions").and_then(Json::as_arr).unwrap();
        assert_eq!(completions.len(), 1, "the posted send must complete: {r:?}");
        assert!(completions[0].get("fct_ns").and_then(Json::as_i64).unwrap() > 0);
    }

    #[test]
    fn malformed_requests_error_instead_of_panicking() {
        let mut svc = SimService::new(ServiceConfig::small()).unwrap();
        for bad in [
            req(vec![("op", Json::str("warp"))]),
            req(vec![("no_op", Json::Int(1))]),
            req(vec![
                ("op", Json::str("create_qp")),
                ("client", Json::str("a")),
            ]),
            req(vec![
                ("op", Json::str("create_qp")),
                ("client", Json::str("a")),
                ("src", Json::Int(0)),
                ("dst", Json::Int(0)),
            ]),
            req(vec![
                ("op", Json::str("create_qp")),
                ("client", Json::str("a")),
                ("src", Json::Int(0)),
                ("dst", Json::Int(10_000)),
            ]),
            req(vec![
                ("op", Json::str("post_send")),
                ("client", Json::str("a")),
                ("qp", Json::Int(99)),
                ("bytes", Json::Int(1)),
            ]),
            req(vec![
                ("op", Json::str("advance")),
                ("windows", Json::Int(0)),
            ]),
            req(vec![("op", Json::str("query_qp")), ("qp", Json::Int(7))]),
        ] {
            let r = svc.handle(&bad);
            assert_eq!(r.get("ok"), Some(&Json::Bool(false)), "{bad:?} -> {r:?}");
            assert!(r.get("error").is_some());
        }
        // Rejected ops must not have landed in the journal.
        assert!(svc.journal.is_empty());
    }

    #[test]
    fn degenerate_service_configs_are_rejected() {
        let mut cfg = ServiceConfig::small();
        cfg.window = TimeDelta::from_nanos(0);
        assert!(
            SimService::new(cfg).is_err(),
            "zero window must be rejected"
        );
        let mut cfg = ServiceConfig::small();
        cfg.k = 6; // k/2 == 3: not a power of two
        assert!(ServiceConfig {
            k: 6,
            ..ServiceConfig::small()
        }
        .validate()
        .is_err());
        cfg.k = 4;
        cfg.shards = 17; // 16 hosts on k=4
        assert!(cfg.validate().is_err(), "shards > hosts must be rejected");
    }

    #[test]
    fn snapshot_restore_is_byte_identical_to_continuous() {
        let script_prefix = |svc: &mut SimService| {
            for (src, dst) in [(0i64, 5i64), (2, 9)] {
                svc.handle(&req(vec![
                    ("op", Json::str("create_qp")),
                    ("client", Json::str("a")),
                    ("src", Json::Int(src)),
                    ("dst", Json::Int(dst)),
                ]));
            }
            for qp in [0i64, 1] {
                svc.handle(&req(vec![
                    ("op", Json::str("post_send")),
                    ("client", Json::str("a")),
                    ("qp", Json::Int(qp)),
                    ("bytes", Json::Int(32 << 10)),
                ]));
            }
            svc.handle(&req(vec![
                ("op", Json::str("advance")),
                ("windows", Json::Int(2)),
            ]));
        };
        let continue_ops = |svc: &mut SimService| {
            svc.handle(&req(vec![
                ("op", Json::str("post_send")),
                ("client", Json::str("a")),
                ("qp", Json::Int(0)),
                ("bytes", Json::Int(8 << 10)),
            ]));
            svc.handle(&req(vec![
                ("op", Json::str("advance")),
                ("windows", Json::Int(3)),
            ]));
        };

        // Continuous run.
        let mut cont = SimService::new(ServiceConfig::small()).unwrap();
        script_prefix(&mut cont);
        continue_ops(&mut cont);

        // Checkpointed run: same prefix, snapshot, restore, continue.
        let mut a = SimService::new(ServiceConfig::small()).unwrap();
        script_prefix(&mut a);
        let snap = a.snapshot();
        drop(a);
        let mut b = SimService::from_snapshot(&snap).unwrap();
        continue_ops(&mut b);

        assert_eq!(
            cont.telemetry_json(None),
            b.telemetry_json(None),
            "restored continuation must be byte-identical to the uninterrupted run"
        );
        assert_eq!(cont.snapshot(), b.snapshot(), "journals must agree too");
    }

    #[test]
    fn scoped_telemetry_prefixes_every_metric() {
        let mut svc = SimService::new(ServiceConfig::small()).unwrap();
        svc.handle(&req(vec![
            ("op", Json::str("advance")),
            ("windows", Json::Int(1)),
        ]));
        let doc = svc.telemetry_json(Some("tenant-a"));
        assert!(doc.contains("tenant-a.service.window"));
        assert!(!doc.contains("\"service.window\""));
    }
}
