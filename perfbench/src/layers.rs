//! Isolated layer timings: each `*_ns` metric times calls into one
//! layer's public functions, with inputs shaped after the workload that
//! loads the layer most (queue depth, reorder pattern, PSN window). The
//! calls run unmodified, so every check the code performs still runs;
//! each timing also checks the outcome it expects (packets forwarded,
//! NACKs blocked, messages delivered).

use crate::out::Metrics;
use crate::service::{SessionPlan, QPS_PER_CLIENT};
use crate::stats::median;
use crate::trace::Tracer;
use netsim::arena::PacketArena;
use netsim::event::{Event, Routed};
use netsim::fat_tree::FatTreeConfig;
use netsim::hooks::ReverseAction;
use netsim::switch::RouteEntry;
use netsim::types::{HostId, QpId};
use netsim::{
    Ctx, EcnConfig, EgressPort, Entity, LbPolicy, LinkSpec, NodeId, Packet, PortId, SharedBuffer,
    Switch, SwitchConfig,
};
use rnic::qp::{RecvQp, SendQp};
use rnic::{wire_psn, CcConfig, Dcqcn, NicConfig};
use simcore::engine::Engine;
use simcore::rng::Xoshiro256;
use simcore::time::{Nanos, TimeDelta};
use std::hint::black_box;
use std::time::Instant;
use themis_core::{SprayMode, ThemisConfig, ThemisD, ThemisMiddleware, ThemisS};
use themis_harness::json::{self, Json};
use themis_harness::{
    build_cluster_sharded, build_fat_tree_cluster_sharded, ExperimentConfig, Scheme,
};

/// Batches per timing; the median batch is reported.
const REPS: usize = 5;

/// Pending-event depth of the engine timing: the peak depth sampled at
/// window boundaries of `paper_alltoall` (seed 1).
pub const PAPER_PENDING_DEPTH: usize = 72_015;

/// Bytes queued ahead of the port timing: between the 400 Gbps WRED
/// thresholds (400 KB–1.6 MB), as on the incast receiver's port.
const DEEP_QUEUE_BYTES: u64 = 1 << 20;

/// Line rate of the paper fabric.
const LINE_BPS: u64 = 400_000_000_000;

/// Paths (spines) of the paper fabric.
const PATHS: usize = 16;

/// One reordered arrival per this many packets: `paper_alltoall` sees
/// 117k OOO arrivals among 672k data packets.
const REORDER_EVERY: u64 = 6;

/// Median over [`REPS`] batches of host ns per op; `batch` returns the
/// ops it ran. One untimed warm-up batch runs first.
fn ns_per_op(mut batch: impl FnMut() -> u64) -> f64 {
    batch();
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            let ops = batch();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// Arrival order of PSNs at a receiver: every [`REORDER_EVERY`]-th pair
/// swapped, the pattern spraying over equal paths produces.
fn reordered(n: u64) -> impl Iterator<Item = u64> {
    (0..n).map(move |i| match i % REORDER_EVERY {
        0 if i + 1 < n => i + 1,
        1 => i - 1,
        _ => i,
    })
}

fn paper_nic() -> NicConfig {
    let mut nic = NicConfig::nic_sr(LINE_BPS);
    nic.cc = CcConfig::with_ti_td(LINE_BPS, 900, 4);
    nic
}

fn themis_config() -> ThemisConfig {
    let nic = paper_nic();
    let link = LinkSpec::gbps(400, 1);
    let mtu_ser = link.serialization(nic.mtu_payload as u64 + 64);
    let rtt = TimeDelta::from_nanos(2 * (link.latency.as_nanos() + mtu_ser.as_nanos()));
    ThemisConfig::for_fabric(PATHS, LINE_BPS, rtt, nic.mtu_payload)
}

fn data(qp: u32, src: u32, dst: u32, psn: u64, payload: u32) -> Packet {
    Packet::data(
        QpId(qp),
        HostId(src),
        HostId(dst),
        49_152 + qp as u16,
        wire_psn(psn),
        psn / 256,
        psn % 256 == 255,
        payload,
        false,
    )
}

/// `engine.step` + `schedule_at` with the queue held at the paper's
/// pending depth.
fn engine_schedule_step() -> f64 {
    let mut rng = Xoshiro256::seeded(7);
    let mut e: Engine<u64> = Engine::new();
    for i in 0..PAPER_PENDING_DEPTH as u64 {
        e.schedule_at(Nanos(rng.next_below(2_000)), i);
    }
    ns_per_op(|| {
        for _ in 0..200_000 {
            let ev = e.step().expect("the queue never drains");
            e.schedule_at(
                ev.at + TimeDelta::from_nanos(1 + rng.next_below(2_000)),
                ev.payload,
            );
        }
        200_000
    })
}

/// A paper-fabric leaf: 16 host ports, 16 uplinks, WRED on, optionally
/// the Themis middleware.
fn leaf(themis: bool) -> Switch {
    let mut sw = Switch::new(&SwitchConfig {
        lb: LbPolicy::Ecmp,
        seed: 11,
        ..SwitchConfig::default()
    });
    let link = LinkSpec::gbps(400, 1);
    for p in 0..2 * PATHS as u32 {
        sw.add_port(
            EgressPort::new(NodeId(1000 + p), PortId(0), link),
            p < PATHS as u32,
        );
    }
    sw.set_uplinks((PATHS..2 * PATHS).collect());
    for dst in 0..256u32 {
        let entry = if dst < PATHS as u32 {
            RouteEntry::Port(dst as u16)
        } else {
            RouteEntry::Uplinks
        };
        sw.set_route(HostId(dst), entry);
    }
    sw.set_ecn_all_ports(|_| Some(EcnConfig::for_bandwidth(LINE_BPS)));
    if themis {
        sw.set_hook(Box::new(ThemisMiddleware::new(themis_config())));
    }
    sw
}

/// `Switch::handle` of one upstream data packet plus the `TxDone` of
/// its egress port (the engine calls they schedule included).
fn switch_forward(themis: bool) -> f64 {
    let mut sw = leaf(themis);
    let mut engine: Engine<Routed> = Engine::new();
    let mut psn = 0u64;
    let mut forwarded = 0u64;
    let ns = ns_per_op(|| {
        const OPS: u64 = 100_000;
        for i in 0..OPS {
            let qp = (i % 240) as u32;
            let pkt = data(qp, qp % PATHS as u32, PATHS as u32 + qp, psn, 4096);
            psn += (qp == 239) as u64;
            let now = engine.now();
            sw.handle(
                Event::Packet {
                    pkt,
                    in_port: PortId((qp % PATHS as u32) as u16),
                },
                &mut Ctx::for_tests(NodeId(0), now, &mut engine),
            );
            while let Some(ev) = engine.step() {
                if let Event::TxDone { .. } = ev.payload.ev {
                    let now = engine.now();
                    sw.handle(
                        ev.payload.ev,
                        &mut Ctx::for_tests(NodeId(0), now, &mut engine),
                    );
                }
            }
        }
        forwarded += OPS;
        OPS
    });
    assert_eq!(sw.stats.forwarded, forwarded, "every packet forwarded");
    assert_eq!(sw.total_drops(), 0);
    ns
}

/// `EgressPort::enqueue` + `on_tx_done` on a port holding
/// [`DEEP_QUEUE_BYTES`], where WRED marks a share of the packets.
fn port_enqueue_tx() -> f64 {
    let mut port = EgressPort::new(NodeId(1), PortId(0), LinkSpec::gbps(400, 1));
    port.ecn = Some(EcnConfig::for_bandwidth(LINE_BPS));
    let mut buf = SharedBuffer::new(64 << 20);
    let mut arena = PacketArena::new();
    let mut rng = Xoshiro256::seeded(5);
    let mut engine: Engine<Routed> = Engine::new();
    let mut psn = 0u64;
    let next = |psn: &mut u64| {
        *psn += 1;
        data(1, 0, 17, *psn, 4096)
    };
    while port.queued_bytes() < DEEP_QUEUE_BYTES {
        let pkt = next(&mut psn);
        port.enqueue(
            pkt,
            PortId(0),
            &mut Ctx::for_tests(NodeId(0), Nanos::ZERO, &mut engine),
            Some(&mut buf),
            &mut rng,
            &mut arena,
        );
    }
    let ns = ns_per_op(|| {
        const OPS: u64 = 100_000;
        for _ in 0..OPS {
            let pkt = next(&mut psn);
            let now = engine.now();
            let mut ctx = Ctx::for_tests(NodeId(0), now, &mut engine);
            port.enqueue(
                pkt,
                PortId(0),
                &mut ctx,
                Some(&mut buf),
                &mut rng,
                &mut arena,
            );
            black_box(port.on_tx_done(PortId(0), &mut ctx, Some(&mut buf), &mut arena));
            while engine.step().is_some() {}
        }
        OPS
    });
    let stats = port.stats;
    assert!(
        stats.ecn_marked > 0,
        "the queue sits in the WRED marking band"
    );
    assert!(port.queued_bytes() >= DEEP_QUEUE_BYTES - 8192);
    ns
}

/// `SendQp::next_packet` at line rate, with a cumulative ACK every 16
/// packets and a new 1 MB message whenever the last one is sent.
fn qp_tx() -> f64 {
    let nic = paper_nic();
    let mut qp = SendQp::new(
        QpId(1),
        HostId(0),
        HostId(17),
        49_153,
        nic.mtu_payload,
        nic.transport,
        Dcqcn::new(nic.cc, LINE_BPS),
    );
    let mut now = Nanos::ZERO;
    let mut tag = 0u64;
    let mut sent = 0u64;
    let ns = ns_per_op(|| {
        const OPS: u64 = 200_000;
        for _ in 0..OPS {
            if !qp.has_work() {
                tag += 1;
                qp.post(1 << 20, tag);
            }
            now += TimeDelta::from_nanos(100);
            assert!(
                qp.ready(now),
                "line-rate pacing admits one packet per 100 ns"
            );
            let pkt = qp.next_packet(now);
            sent += 1;
            if sent.is_multiple_of(16) {
                let psn = pkt.data_psn().expect("a data packet");
                black_box(qp.on_ack(wire_psn(psn as u64 + 1)));
            }
        }
        OPS
    });
    assert_eq!(qp.stats.data_packets, sent);
    ns
}

/// `RecvQp::on_data` over a stream where one arrival in
/// [`REORDER_EVERY`] overtakes its predecessor.
fn qp_rx_ooo() -> f64 {
    let nic = paper_nic();
    let new_qp = || {
        RecvQp::new(
            QpId(1),
            HostId(17),
            HostId(0),
            49_153,
            nic.transport,
            nic.ack_coalescing,
            nic.cc.cnp_interval,
        )
    };
    let mut rq = new_qp();
    const OPS: u64 = 240_000;
    let ns = ns_per_op(|| {
        rq = new_qp();
        let mut delivered = 0usize;
        for (i, psn) in reordered(OPS).enumerate() {
            let out = rq.on_data(
                wire_psn(psn),
                psn / 256,
                psn % 256 == 255,
                4096,
                false,
                Nanos(i as u64 * 100),
            );
            delivered += out.delivered.len();
        }
        assert_eq!(
            delivered as u64,
            OPS / 256,
            "every message delivered in order"
        );
        OPS
    });
    assert!(rq.stats.ooo_packets > 0);
    ns
}

/// A DCQCN call mix per MTU sent: `on_bytes_sent` every packet,
/// `on_increase_timer` every 64, `on_cnp` every 512.
fn dcqcn_update() -> f64 {
    let mut cc = Dcqcn::new(CcConfig::with_ti_td(LINE_BPS, 900, 4), LINE_BPS);
    let mut now = Nanos::ZERO;
    let mut cuts = 0u64;
    let ns = ns_per_op(|| {
        const PKTS: u64 = 512 * 400;
        let mut calls = 0;
        for i in 0..PKTS {
            now += TimeDelta::from_nanos(100);
            cc.on_bytes_sent(4160);
            calls += 1;
            if i % 64 == 0 {
                cc.on_increase_timer();
                calls += 1;
            }
            if i % 512 == 0 {
                cuts += cc.on_cnp(now) as u64;
                calls += 1;
            }
        }
        calls
    });
    assert!(cuts > 0 && cc.rate_bps() > 0.0);
    ns
}

/// `ThemisS::spray` over 240 QPs (one paper group's alltoall).
fn themis_s_spray() -> f64 {
    let mut s = ThemisS::new(PATHS, SprayMode::DirectEgress);
    let mut psn = 0u64;
    ns_per_op(|| {
        const OPS: u64 = 240_000;
        for i in 0..OPS {
            let qp = (i % 240) as u32;
            psn += (qp == 239) as u64;
            let mut pkt = data(qp, 0, 17, psn, 4096);
            let path = s.spray(&mut pkt).expect("direct mode picks an uplink");
            assert!(path < PATHS);
        }
        OPS
    })
}

/// `ThemisD::on_downstream_data` over a reordered stream, and
/// `on_reverse_nack` for the NACK each reordering provokes (timed as
/// the difference between the stream with and without the NACKs).
fn themis_d() -> (f64, f64) {
    let cap = themis_config().queue_capacity;
    const PKTS: u64 = 120_000;
    let run = |with_nacks: bool| {
        let mut d = ThemisD::new(PATHS, cap, true);
        d.on_handshake(QpId(1));
        let mut blocked = 0u64;
        let t = Instant::now();
        for psn in reordered(PKTS) {
            black_box(d.on_downstream_data(&data(1, 0, 17, psn, 4096)));
            if with_nacks && psn % REORDER_EVERY == 1 {
                blocked +=
                    (d.on_reverse_nack(QpId(1), wire_psn(psn - 1)) == ReverseAction::Block) as u64;
            }
        }
        let ns = t.elapsed().as_nanos() as f64;
        if with_nacks {
            assert_eq!(
                blocked,
                PKTS / REORDER_EVERY,
                "every reordering NACK is blocked"
            );
        }
        ns
    };
    let nacks = (PKTS / REORDER_EVERY) as f64;
    run(true);
    let mut data_ns = Vec::new();
    let mut nack_ns = Vec::new();
    for _ in 0..REPS {
        let plain = run(false);
        let with = run(true);
        data_ns.push(plain / PKTS as f64);
        nack_ns.push((with - plain) / nacks);
    }
    (median(&data_ns), median(&nack_ns))
}

/// A `themis-service-snapshot` document with the journal of a
/// `rounds`-round service_k16 session, cut to at most `max_entries`
/// journal entries.
pub fn snapshot_doc(seed: u64, rounds: usize, max_entries: usize) -> String {
    let plan = SessionPlan::new(16, seed, rounds);
    let client = |c: usize| Json::str(&format!("c{c}"));
    let int = |v: u64| Json::Int(v as i64);
    let mut journal: Vec<Json> = plan
        .pairs
        .iter()
        .enumerate()
        .map(|(i, &(src, dst))| {
            Json::obj(vec![
                ("op", Json::str("create_qp")),
                ("client", client(i / QPS_PER_CLIENT)),
                ("src", int(src as u64)),
                ("dst", int(dst as u64)),
            ])
        })
        .collect();
    for sends in &plan.sends {
        for (c, &(slot, bytes)) in sends.iter().enumerate() {
            journal.push(Json::obj(vec![
                ("op", Json::str("post_send")),
                ("client", client(c)),
                ("qp", int((c * QPS_PER_CLIENT + slot) as u64)),
                ("bytes", int(bytes)),
            ]));
        }
        journal.push(Json::obj(vec![
            ("op", Json::str("advance")),
            ("windows", int(1)),
        ]));
    }
    journal.truncate(max_entries);
    Json::obj(vec![
        ("kind", Json::str("themis-service-snapshot")),
        ("v", int(1)),
        (
            "config",
            Json::obj(vec![
                ("k", int(16)),
                ("scheme", Json::str("themis")),
                ("seed", int(seed)),
                ("shards", int(1)),
                ("window_ns", int(500_000)),
            ]),
        ),
        ("journal", Json::Arr(journal)),
    ])
    .to_string()
}

/// `json::parse` host ns per input byte of `doc`, median of `reps`.
fn parse_ns_per_byte(doc: &str, reps: usize) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            assert!(json::parse(black_box(doc)).is_ok());
            t.elapsed().as_nanos() as f64 / doc.len() as f64
        })
        .collect();
    median(&samples)
}

/// Median host ms of `reps` calls of `f`.
fn ms_of<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Run every isolated timing, each inside a span of its own name.
pub fn measure(seed: u64, tr: &mut Tracer, m: &mut Metrics) {
    tr.span("layers", |tr| {
        let mut timed =
            |name: &str, unit: &'static str, note: String, f: &mut dyn FnMut() -> f64| {
                let v = tr.span(name, |_| f());
                m.put_note(name, v, unit, note);
            };
        timed(
            "simcore.schedule_step_ns",
            "ns",
            format!("depth {PAPER_PENDING_DEPTH}"),
            &mut engine_schedule_step,
        );
        timed(
            "netsim.switch.forward_ns",
            "ns",
            "packet + TxDone, ECMP".into(),
            &mut || switch_forward(false),
        );
        timed(
            "netsim.switch.forward_hook_ns",
            "ns",
            "packet + TxDone, ThemisMiddleware".into(),
            &mut || switch_forward(true),
        );
        timed(
            "netsim.port.enqueue_tx_ns",
            "ns",
            format!("queue {DEEP_QUEUE_BYTES} B"),
            &mut port_enqueue_tx,
        );
        timed(
            "rnic.qp.tx_ns",
            "ns",
            "next_packet, ACK per 16".into(),
            &mut qp_tx,
        );
        timed(
            "rnic.qp.rx_ooo_ns",
            "ns",
            format!("1 OOO per {REORDER_EVERY}"),
            &mut qp_rx_ooo,
        );
        timed(
            "rnic.dcqcn.update_ns",
            "ns",
            "per call".into(),
            &mut dcqcn_update,
        );
        timed(
            "core.themis_s.spray_ns",
            "ns",
            "240 QPs".into(),
            &mut themis_s_spray,
        );
        let (data_ns, nack_ns) = tr.span("core.themis_d", |_| themis_d());
        m.put_note(
            "core.themis_d.data_ns",
            data_ns,
            "ns",
            format!("1 OOO per {REORDER_EVERY}"),
        );
        m.put_note(
            "core.themis_d.nack_ns",
            nack_ns,
            "ns",
            "blocked NACK".into(),
        );

        let small = (1..)
            .map(|n| snapshot_doc(seed, 0, n))
            .take_while(|d| d.len() <= 1024)
            .last()
            .expect("a one-entry snapshot fits in 1 KiB");
        let big = snapshot_doc(seed, crate::service::ROUNDS, usize::MAX);
        let v = tr.span("harness.json.parse_1k", |_| parse_ns_per_byte(&small, 501));
        m.put_note(
            "harness.json.parse_ns_per_byte_1k",
            v,
            "ns/B",
            format!("{} B document", small.len()),
        );
        let v = tr.span("harness.json.parse_snapshot", |_| {
            parse_ns_per_byte(&big, 1)
        });
        m.put_note(
            "harness.json.parse_ns_per_byte_snapshot",
            v,
            "ns/B",
            format!("{} B snapshot", big.len()),
        );

        let paper = ExperimentConfig::paper_eval(Scheme::Themis, 900, 4, seed);
        let v = tr.span("harness.cluster.build", |_| {
            ms_of(3, || {
                build_cluster_sharded(&paper.fabric, paper.nic, Scheme::Themis, 1)
            })
        });
        m.put_note(
            "harness.cluster.build_ms",
            v,
            "ms",
            "16x16 leaf-spine".into(),
        );
        let k16 = FatTreeConfig::small(16);
        let v = tr.span("harness.fat_tree.build", |_| {
            ms_of(3, || {
                build_fat_tree_cluster_sharded(
                    &k16,
                    NicConfig::nic_sr(100_000_000_000),
                    Scheme::Themis,
                    1,
                )
            })
        });
        m.put_note("harness.fat_tree.build_ms", v, "ms", "k=16, 1 shard".into());
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reordering_swaps_one_pair_in_six() {
        let order: Vec<u64> = reordered(13).collect();
        assert_eq!(order, vec![1, 0, 2, 3, 4, 5, 7, 6, 8, 9, 10, 11, 12]);
    }

    #[test]
    fn the_snapshot_document_parses() {
        let doc = snapshot_doc(1, 2, usize::MAX);
        let v = json::parse(&doc).unwrap();
        assert_eq!(
            v.get("journal").and_then(Json::as_arr).map(<[Json]>::len),
            Some(128 + 2 * 33)
        );
        assert_eq!(snapshot_doc(1, 2, 5).matches("\"op\"").count(), 5);
    }
}
