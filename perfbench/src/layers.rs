//! The traced run: per-layer numbers, measured from outside the program.
//!
//! * Virtual time is split by layer from the program's own spans,
//!   recorded with `Sampling::Always` and classified here by name.
//! * Host time of the layers the benchmark does not call directly comes
//!   from rungs: each replays the workload's op stream one layer lower
//!   through that layer's public API (store client, fabric echo, bare
//!   executor timers, the store codec, the REST protocol stack). A
//!   layer's self time is its rung minus the work of the rungs below
//!   it, priced per poll, per message and per frame; what the rungs do
//!   not explain is reported as the residual.

use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use pcsi_core::{Consistency, Mutability, ObjectId};
use pcsi_net::fabric::RpcHandler;
use pcsi_net::{Fabric, LatencyModel, NetworkGeneration, NodeId, Topology, Transport};
use pcsi_proto::http::{Method, Request as HttpRequest};
use pcsi_proto::sign::{sign_request, verify_request, Credentials};
use pcsi_proto::{json, Value};
use pcsi_sim::executor::LocalBoxFuture;
use pcsi_sim::{Sim, SimTime};
use pcsi_store::engine::Mutation;
use pcsi_store::wire::{self, Request, Response};
use pcsi_store::{ReplicatedStore, StoreConfig, Tag};
use pcsi_trace::Span;

use crate::host;
use crate::spec::{self, Kind, Op, Spec, INITIAL};
use crate::stats::median;
use crate::world::{self, Issue, Mode, OuterLog, Round, FAILED, SIM_SEED};

/// Virtual-time layers, in report order.
pub const VT_LAYERS: [&str; 7] = [
    "kernel", "network", "storage", "protocol", "compute", "stream", "other",
];

/// Maps a span name to its virtual-time layer by prefix.
pub fn classify(name: &str) -> &'static str {
    match name {
        "store.attempt" | "store.backoff" | "rest.transport" => "network",
        n if n.starts_with("kernel.") => "kernel",
        n if n.starts_with("store.") || n.starts_with("replica.") => "storage",
        n if n.starts_with("rest.") => "protocol",
        n if n.starts_with("faas.") => "compute",
        n if n.starts_with("stream.") => "stream",
        _ => "other",
    }
}

/// Splits `[lo, hi]` of span `i` among the layers: each instant goes to
/// the deepest span covering it along the latest-finishing chain, so
/// overlapping children (parallel quorum calls) are never counted twice
/// and the parts add up to `hi - lo` exactly.
fn attribute(
    spans: &[Span],
    children: &[Vec<usize>],
    i: usize,
    lo: u64,
    hi: u64,
    out: &mut BTreeMap<&'static str, u64>,
) {
    let mut cursor = hi;
    let mut kids: Vec<usize> = children[i].clone();
    kids.sort_by_key(|&c| std::cmp::Reverse((spans[c].end, spans[c].seq)));
    let own = classify(spans[i].name);
    for c in kids {
        let (cs, ce) = (
            spans[c].start.as_nanos().max(lo),
            spans[c].end.as_nanos().min(cursor),
        );
        if ce <= cs {
            continue;
        }
        *out.entry(own).or_default() += cursor - ce;
        attribute(spans, children, c, cs, ce, out);
        cursor = cs;
        if cursor <= lo {
            break;
        }
    }
    *out.entry(own).or_default() += cursor.saturating_sub(lo);
}

/// Virtual-time split of the ops of a traced round. Each successful op
/// contributes its latency exactly once: the part its root span covers
/// is split by [`attribute`], the part after it (a pipeline result
/// still streaming to the subscriber) goes to `stream`. The parts add up
/// to the op latencies by construction; what is checked is that the
/// spans explain each op: outside `fn-pipeline`, an op's root span must
/// end exactly when the client saw the op finish.
pub fn vt_split(
    round: &Round,
    ops: &[Op],
    pipeline: bool,
) -> Result<BTreeMap<&'static str, u64>, String> {
    let spans = &round.spans;
    let index: HashMap<(u64, u64), usize> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| ((s.trace.0, s.id.0), i))
        .collect();
    let mut children = vec![Vec::new(); spans.len()];
    // Roots of ops, by start instant (an op's root opens at its due time).
    let mut roots: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        match s.parent {
            Some(p) => {
                if let Some(&pi) = index.get(&(s.trace.0, p.0)) {
                    children[pi].push(i);
                }
            }
            None => roots.entry(s.start.as_nanos()).or_default().push(i),
        }
    }
    let start = round.window_start.as_nanos();
    let mut out: BTreeMap<&'static str, u64> = VT_LAYERS.iter().map(|&l| (l, 0)).collect();
    for (op, &lat) in ops.iter().zip(&round.latency_ns) {
        if lat == FAILED {
            continue;
        }
        let due = start + op.due_ns;
        // Two ops may fall due on the same instant: prefer the root that
        // ends with the op.
        let candidates = roots
            .get_mut(&due)
            .ok_or_else(|| format!("no root span for the op due at {due} ns"))?;
        let is_op = |r: usize| {
            matches!(
                spans[r].name,
                "kernel.read" | "kernel.write" | "kernel.invoke" | "rest.request"
            )
        };
        let pos = candidates
            .iter()
            .position(|&r| is_op(r) && spans[r].end.as_nanos() == due + lat)
            .or_else(|| candidates.iter().position(|&r| is_op(r)))
            .ok_or_else(|| format!("no op root span for the op due at {due} ns"))?;
        let root = candidates.remove(pos);
        let end = spans[root].end.as_nanos();
        if !pipeline && end != due + lat {
            return Err(format!(
                "the op due at {due} ns finished at {} ns, but its root span {} ended at {end} ns",
                due + lat,
                spans[root].name
            ));
        }
        let hi = (due + lat).min(end);
        attribute(spans, &children, root, due, hi, &mut out);
        *out.entry("stream").or_default() += due + lat - hi;
    }
    Ok(out)
}

/// A traced round whose span ring evicted spans cannot be split: the
/// missing spans' time would silently land on their parents.
pub fn trace_errors(round: &Round) -> Vec<String> {
    match round.spans_dropped {
        0 => Vec::new(),
        n => vec![format!("the trace ring dropped {n} spans")],
    }
}

/// Host-time prices of the layers below the client, from the rungs.
#[derive(Debug, Clone, Copy, Default)]
struct Prices {
    ns_per_poll: f64,
    ns_per_msg: f64,
    ns_per_frame: f64,
}

/// One rung's measured window.
#[derive(Debug, Clone, Copy, Default)]
struct RungRun {
    host_ns: f64,
    polls: u64,
    msgs: u64,
}

/// Drives `ops` from `start` with the workloads' own open-loop generator
/// and measures the window. Every op must succeed.
fn measure(
    sim: &mut Sim,
    fabric: Option<&Fabric>,
    start: SimTime,
    ops: &Rc<Vec<Op>>,
    issue: Issue,
) -> RungRun {
    let h = sim.handle();
    let msgs = || fabric.map_or(0, Fabric::message_count);
    let (polls0, msgs0) = (sim.poll_count(), msgs());
    let t = host::thread_cpu();
    let driven = sim.block_on({
        let ops = ops.clone();
        async move { world::drive(&h, start, &ops, issue, &OuterLog::new(false), None).await }
    });
    let host_ns = (host::thread_cpu() - t).as_nanos() as f64;
    assert!(
        driven.ends_ns.iter().all(|&e| e != FAILED),
        "a rung op failed at nominal load"
    );
    RungRun {
        host_ns,
        polls: sim.poll_count() - polls0,
        msgs: msgs() - msgs0,
    }
}

/// Executor-only rung: every op becomes a task that sleeps
/// `sleeps_per_op` times, so the rung makes about the workload's polls.
fn executor_rung(ops: &Rc<Vec<Op>>, sleeps_per_op: u64) -> RungRun {
    let mut sim = Sim::new(SIM_SEED);
    let h = sim.handle();
    let issue: Issue = Rc::new(move |_| {
        let h = h.clone();
        let fut = async move {
            for _ in 0..sleeps_per_op {
                h.sleep(Duration::from_micros(1)).await;
            }
            true
        };
        ("sleep", Box::pin(fut))
    });
    measure(&mut sim, None, SimTime::ZERO, ops, issue)
}

fn fabric(sim: &Sim) -> Fabric {
    Fabric::new(
        sim.handle(),
        Topology::heterogeneous(2, 4),
        LatencyModel::new(NetworkGeneration::Dc2021),
    )
}

/// Fabric-only rung: every op makes `calls_per_op` echo calls of
/// `bytes` each from node 0 to the other nodes in turn.
fn fabric_rung(ops: &Rc<Vec<Op>>, calls_per_op: u64, bytes: usize) -> RungRun {
    let mut sim = Sim::new(SIM_SEED);
    let f = fabric(&sim);
    let echo: RpcHandler = Rc::new(|payload, _ctx| Box::pin(async move { Ok(payload) }));
    let nodes = f.topology().node_ids();
    for &n in &nodes {
        f.bind(n, "echo", echo.clone());
    }
    let payload = Bytes::from(vec![7u8; bytes]);
    let issue: Issue = Rc::new({
        let f = f.clone();
        move |i| {
            let (f, payload, nodes) = (f.clone(), payload.clone(), nodes.clone());
            let fut = async move {
                for c in 0..calls_per_op as usize {
                    let to = nodes[1 + (i + c) % (nodes.len() - 1)];
                    let echoed = f.call(NodeId(0), to, "echo", Transport::Rdma, payload.clone());
                    if echoed.await.is_err() {
                        return false;
                    }
                }
                true
            };
            ("echo", Box::pin(fut))
        }
    });
    measure(&mut sim, Some(&f), SimTime::ZERO, ops, issue)
}

/// Codec-only rung: each write encodes and decodes the frames one
/// replicated write exchanges (coordinate, two applies, their replies);
/// each read those of a two-replica tagged read. Returns
/// `(host ns, frames)`.
fn codec_rung(ops: &[Op], len: usize) -> (f64, u64) {
    let id = ObjectId::from_parts(7, 1);
    let data = Bytes::from(vec![3u8; len]);
    let tag = Tag { seq: 9, writer: 2 };
    let mut frames = 0u64;
    let t = host::thread_cpu();
    for (i, op) in ops.iter().enumerate() {
        let req_id = i as u64;
        if op.write {
            let mutation = Mutation::WriteAt {
                offset: 0,
                data: data.clone(),
            };
            let reqs = [
                Request::Coordinate {
                    id,
                    mutation: mutation.clone(),
                    sync_replicas: 2,
                    req_id,
                    expires_ns: 0,
                },
                Request::Apply {
                    id,
                    tag,
                    mutation: mutation.clone(),
                    req_id,
                },
                Request::Apply {
                    id,
                    tag,
                    mutation,
                    req_id,
                },
            ];
            for r in &reqs {
                let b = wire::encode_request(r);
                std::hint::black_box(wire::decode_request(&b).expect("codec round trip"));
            }
            for r in [
                Response::Coordinated { tag },
                Response::Applied,
                Response::Applied,
            ] {
                let b = wire::encode_response(&r);
                std::hint::black_box(wire::decode_response(&b).expect("codec round trip"));
            }
            frames += 6;
        } else {
            for _ in 0..2 {
                let b = wire::encode_request(&Request::ReadWithTag {
                    id,
                    offset: 0,
                    len: len as u64,
                    inline_limit: 64 * 1024,
                });
                std::hint::black_box(wire::decode_request(&b).expect("codec round trip"));
                let b = wire::encode_response(&Response::Data {
                    tag,
                    mutability: Mutability::Mutable,
                    stable_len: 0,
                    data: data.clone(),
                });
                std::hint::black_box(wire::decode_response(&b).expect("codec round trip"));
            }
            frames += 4;
        }
    }
    ((host::thread_cpu() - t).as_nanos() as f64, frames)
}

/// Store-only rung: `ReplicatedStore::launch` plus one `StoreClient`
/// replaying the op stream against the same key sets the workload
/// creates, at their consistency, from the node the workload's store
/// calls start on.
fn store_rung(spec: &Spec, ops: &Rc<Vec<Op>>) -> RungRun {
    let mut sim = Sim::new(SIM_SEED);
    let f = fabric(&sim);
    let store = ReplicatedStore::launch(f.clone(), f.topology().node_ids(), StoreConfig::default());
    let (origin, read_c, write_c, read_m) = match spec.kind {
        Kind::KvCached => (
            NodeId(0),
            Consistency::Eventual,
            Consistency::Eventual,
            Mutability::Immutable,
        ),
        Kind::KvLinearizable => (
            NodeId(0),
            Consistency::Linearizable,
            Consistency::Linearizable,
            Mutability::Mutable,
        ),
        // The gateway runs the store calls: PUTs linearizable, GETs eventual.
        Kind::RestKv | Kind::FnPipeline => (
            NodeId(5),
            Consistency::Eventual,
            Consistency::Linearizable,
            Mutability::Mutable,
        ),
    };
    let client = store.client(origin);
    let len = spec.value_len;
    // kv-cached writes go to its own eventual write set; the others
    // write their read set.
    let write_realm = if spec.write_keys > 0 { 0xBF } else { 0xBE };
    let h = sim.handle();
    sim.block_on({
        let (client, spec) = (client.clone(), spec.clone());
        async move {
            for k in 0..spec.read_keys {
                let v = Bytes::from(spec::value(k, INITIAL, len));
                let id = ObjectId::from_parts(0xBE, u64::from(k));
                client
                    .put(id, v, read_m, write_c)
                    .await
                    .expect("populate the store rung");
            }
            for k in 0..spec.write_keys {
                let v = Bytes::from(spec::value(k, INITIAL, len));
                let id = ObjectId::from_parts(write_realm, u64::from(k));
                client
                    .put(id, v, Mutability::Mutable, Consistency::Eventual)
                    .await
                    .expect("populate the store rung");
            }
        }
    });
    let start = SimTime::from_millis(h.now().as_nanos() / 1_000_000 + 1);
    let issue: Issue = Rc::new({
        let ops = ops.clone();
        move |i| {
            let (client, op) = (client.clone(), ops[i]);
            let fut = async move {
                if op.write {
                    let v = Bytes::from(spec::value(op.key, i as u64, len));
                    let id = ObjectId::from_parts(write_realm, u64::from(op.key));
                    client.write_at(id, 0, v, write_c).await.is_ok()
                } else {
                    let id = ObjectId::from_parts(0xBE, u64::from(op.key));
                    client.read(id, 0, len as u64, read_c).await.is_ok()
                }
            };
            (
                if op.write {
                    "store.write_at"
                } else {
                    "store.read"
                },
                Box::pin(fut) as LocalBoxFuture<bool>,
            )
        }
    });
    measure(&mut sim, Some(&f), start, ops, issue)
}

/// REST protocol rung at rest-kv's body size: per op, the client's
/// signing plus the gateway's verification, the JSON item marshal and
/// unmarshal, and HTTP framing both ways. Returns per-op host ns of
/// `(sign, json, http)`.
///
/// The parts are microseconds long, so they are timed with the
/// monotonic clock: the thread CPU clock is a system call per read.
fn proto_rung(ops: &[Op], len: usize) -> (f64, f64, f64) {
    let creds = Credentials::new("BENCH", b"bench-secret".to_vec());
    let scope = pcsi_cloud::rest::scope();
    let lookup = |_: &str| Some(creds.clone());
    let (mut sign, mut js, mut http) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    for (i, op) in ops.iter().enumerate() {
        let value = spec::value(op.key, i as u64, len);
        let t = Instant::now();
        let body = json::encode(&Value::object([(
            "value",
            Value::Str(json::base64_encode(&value)),
        )]));
        js += t.elapsed();
        let t = Instant::now();
        let mut req = HttpRequest::new(
            Method::Put,
            format!("/kv/{}/{}", world::REST_TABLE, world::rest_key(op.key)),
        )
        .with_body(body.into_bytes());
        req.headers.insert("host", "api.sim-west-1.pcsi.cloud");
        let wire = req.encode();
        let parsed = HttpRequest::decode(&wire).expect("HTTP round trip");
        http += t.elapsed();
        let t = Instant::now();
        sign_request(&mut req, &creds, &scope, 1_700_000_000);
        let wire = req.encode();
        let signed = HttpRequest::decode(&wire).expect("HTTP round trip");
        verify_request(&signed, lookup, &scope, 1_700_000_000, 300).expect("signature verifies");
        sign += t.elapsed();
        let t = Instant::now();
        let text = String::from_utf8_lossy(&parsed.body).into_owned();
        let item = json::decode(&text).expect("JSON round trip");
        let back = item
            .get("value")
            .and_then(Value::as_str)
            .and_then(json::base64_decode);
        assert_eq!(back.as_deref(), Some(&value[..]), "JSON round trip");
        js += t.elapsed();
    }
    let n = ops.len() as f64;
    (
        sign.as_nanos() as f64 / n,
        js.as_nanos() as f64 / n,
        http.as_nanos() as f64 / n,
    )
}

/// Everything the traced run reports, plus its correctness errors.
pub struct Traced {
    pub metrics: BTreeMap<&'static str, (f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub outer: Vec<world::OuterSpan>,
}

/// Most repeats of each measurement the traced run makes.
const MAX_REPEATS: usize = 2;

/// The traced run: untraced and traced rounds alternate with the rungs
/// until `seconds` have passed (each at least once); host times are the
/// medians over repeats, counts come from the first untraced round.
pub fn run(spec: &Spec, ops: &Rc<Vec<Op>>, seconds: f64) -> Traced {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let n = ops.len() as f64;
    let base = world::run(spec, ops, Mode::TIMED);
    let mut traced = world::run(spec, ops, Mode::TRACED);
    let mut errors: Vec<String> = base.errors.iter().chain(&traced.errors).cloned().collect();
    errors.extend(trace_errors(&traced));
    let vt = match vt_split(&traced, ops, spec.kind == Kind::FnPipeline) {
        Ok(v) => v,
        Err(e) => {
            errors.push(e);
            BTreeMap::new()
        }
    };
    // The spans are the run's largest allocation; nothing needs them
    // past the split.
    traced.spans = Vec::new();
    let c = base.counts;
    let polls_per_op = c.polls as f64 / n;
    let msgs_per_op = c.msgs as f64 / n;
    let bytes_per_msg = if c.msgs > 0 {
        c.msg_bytes as f64 / c.msgs as f64
    } else {
        64.0
    };
    let calls_per_op = ((msgs_per_op / 2.0).round() as u64).max(1);
    let sleeps_per_op = (polls_per_op.round() as u64).saturating_sub(1).max(1);

    let mut t_base = vec![base.window_s * 1e9];
    let mut t_traced = vec![traced.window_s * 1e9];
    let mut t_obs_off = Vec::new();
    let (mut exec, mut fab, mut codec, mut store) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut proto = Vec::new();
    let mut first = true;
    // Finished simulations stay in memory (see `main.rs`), so the
    // repeats are capped as well as timed.
    while first || (Instant::now() < deadline && exec.len() < MAX_REPEATS) {
        if !first {
            t_base.push(world::run(spec, ops, Mode::TIMED).window_s * 1e9);
            t_traced.push(world::run(spec, ops, Mode::TRACED).window_s * 1e9);
        }
        first = false;
        let e = executor_rung(ops, sleeps_per_op);
        let f = fabric_rung(ops, calls_per_op, bytes_per_msg as usize);
        let (cn, frames) = codec_rung(ops, spec.value_len);
        exec.push(e.host_ns / e.polls as f64);
        fab.push(f);
        codec.push(cn / frames as f64);
        match spec.kind {
            Kind::FnPipeline => t_obs_off.push(
                world::run(
                    spec,
                    ops,
                    Mode {
                        obs: false,
                        ..Mode::TIMED
                    },
                )
                .window_s
                    * 1e9,
            ),
            Kind::RestKv => {
                store.push(store_rung(spec, ops));
                proto.push(proto_rung(ops, spec.value_len));
            }
            _ => store.push(store_rung(spec, ops)),
        }
    }
    let ns_per_poll = median(&exec);
    let ns_per_msg = median(
        &fab.iter()
            .map(|f| ((f.host_ns - f.polls as f64 * ns_per_poll) / f.msgs as f64).max(0.0))
            .collect::<Vec<_>>(),
    );
    let prices = Prices {
        ns_per_poll,
        ns_per_msg,
        ns_per_frame: median(&codec),
    };
    let below = |polls: f64, msgs: f64| {
        polls * prices.ns_per_poll + msgs * (prices.ns_per_msg + prices.ns_per_frame)
    };
    let total = median(&t_base) / n;
    let sim_self = polls_per_op * prices.ns_per_poll;
    let net_self = msgs_per_op * prices.ns_per_msg;
    let wire_self = msgs_per_op * prices.ns_per_frame;
    let under = below(polls_per_op, msgs_per_op);
    let (store_self, above_store) = if store.is_empty() {
        (0.0, total - under)
    } else {
        let s_host = median(&store.iter().map(|s| s.host_ns).collect::<Vec<_>>()) / n;
        let s = store[0];
        let s_self = s_host - below(s.polls as f64 / n, s.msgs as f64 / n);
        (s_self.max(0.0), total - under - s_self.max(0.0))
    };
    let (sign, js, http) = if proto.is_empty() {
        (0.0, 0.0, 0.0)
    } else {
        (
            median(&proto.iter().map(|p| p.0).collect::<Vec<_>>()),
            median(&proto.iter().map(|p| p.1).collect::<Vec<_>>()),
            median(&proto.iter().map(|p| p.2).collect::<Vec<_>>()),
        )
    };
    let obs_self = if t_obs_off.is_empty() {
        0.0
    } else {
        (total - median(&t_obs_off) / n).max(0.0)
    };
    let (kernel_self, rest_self) = match spec.kind {
        Kind::RestKv => (0.0, (above_store - sign - js - http).max(0.0)),
        Kind::FnPipeline => ((above_store - obs_self).max(0.0), 0.0),
        _ => (above_store.max(0.0), 0.0),
    };
    let layers_sum = sim_self
        + net_self
        + wire_self
        + store_self
        + kernel_self
        + rest_self
        + sign
        + js
        + http
        + obs_self;

    // Traced calls carry their trace context on the wire, which costs
    // virtual time, so the split is of the traced round's own latencies.
    let ok = traced.latency_ns.iter().filter(|&&l| l != FAILED).count() as f64;
    let lat_sum: u64 = traced.latency_ns.iter().filter(|&&l| l != FAILED).sum();
    let vt_us = |l: &str| vt.get(l).copied().unwrap_or(0) as f64 / ok.max(1.0) / 1e3;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let t_applied = traced.counts.applied.unwrap_or(0);
    // fn-pipeline's measured rounds run the metrics registry; the other
    // workloads stream nothing.
    let frames = c.stream_frames.unwrap_or(0);
    let stalls = c.credit_stalls.unwrap_or(0);
    let events = if spec.kind == Kind::FnPipeline {
        ok as u64
    } else {
        0
    };

    let mut m: BTreeMap<&'static str, (f64, &'static str)> = BTreeMap::new();
    let mut put = |k: &'static str, v: f64, u: &'static str| {
        m.insert(k, (v, u));
    };
    put("sim.polls_per_op", polls_per_op, "count");
    put("sim.live_tasks_peak", c.live_tasks_peak as f64, "count");
    put("sim.host_ns_per_poll", prices.ns_per_poll, "ns");
    put("net.msgs_per_op", msgs_per_op, "count");
    put("net.bytes_per_op", c.msg_bytes as f64 / n, "B");
    put("net.host_ns_per_msg", prices.ns_per_msg, "ns");
    put("wire.host_ns_per_frame", prices.ns_per_frame, "ns");
    put(
        "bytes.pool_miss_ratio",
        ratio(c.pool_misses, c.pool_hits + c.pool_misses),
        "ratio",
    );
    put("alloc.per_op", c.allocs as f64 / n, "count");
    put("alloc.bytes_per_op", c.alloc_bytes as f64 / n, "B");
    put(
        "store.cache_hit_ratio",
        ratio(c.cache_hits, c.cache_hits + c.cache_misses),
        "ratio",
    );
    put("store.retries_per_op", c.retries as f64 / n, "count");
    put("store.host_ns_per_op", store_self, "ns");
    put(
        "replica.coordinates_per_op",
        c.coordinated as f64 / n,
        "count",
    );
    put("replica.applies_per_op", t_applied as f64 / n, "count");
    put("kernel.host_ns_per_op", kernel_self, "ns");
    put("rest.host_ns_per_op", rest_self, "ns");
    put("proto.sign_host_ns", sign, "ns");
    put("proto.json_host_ns", js, "ns");
    put("proto.http_host_ns", http, "ns");
    put(
        "faas.cold_start_ratio",
        ratio(c.cold_starts, c.invocations),
        "ratio",
    );
    put("faas.rejections_per_op", c.rejections as f64 / n, "count");
    put("faas.prewarms_per_op", c.prewarms as f64 / n, "count");
    put(
        "faas.peak_concurrency",
        f64::from(c.peak_concurrency),
        "count",
    );
    put("stream.frames_per_event", ratio(frames, events), "count");
    put(
        "stream.credit_stalls_per_event",
        ratio(stalls, events),
        "count",
    );
    put("obs.host_ns_per_op", obs_self, "ns");
    put(
        "trace.overhead_ratio",
        median(&t_traced) / median(&t_base),
        "ratio",
    );
    put("host.total_ns_per_op", total, "ns");
    put("host.residual_ns_per_op", total - layers_sum, "ns");
    put("billing.usd_per_mop", base.usd / n * 1e6, "USD");
    put("client.failed_ratio", base.failed() as f64 / n, "ratio");
    let slo_ns = spec.slo.as_nanos() as u64;
    let within = base
        .latency_ns
        .iter()
        .filter(|&&l| l != FAILED && l <= slo_ns)
        .count();
    put("client.slo_attainment", within as f64 / n, "ratio");
    let sorted = base.sorted_ok();
    put(
        "client.op_p50_us",
        crate::stats::percentile(&sorted, 0.5).unwrap_or(0) as f64 / 1e3,
        "us",
    );
    put("vt.kernel_us_per_op", vt_us("kernel"), "us");
    put("vt.network_us_per_op", vt_us("network"), "us");
    put("vt.storage_us_per_op", vt_us("storage"), "us");
    put("vt.protocol_us_per_op", vt_us("protocol"), "us");
    put("vt.compute_us_per_op", vt_us("compute"), "us");
    put("vt.stream_us_per_op", vt_us("stream"), "us");
    put("vt.other_us_per_op", vt_us("other"), "us");
    put(
        "vt.mean_latency_us",
        lat_sum as f64 / ok.max(1.0) / 1e3,
        "us",
    );

    Traced {
        metrics: m,
        attempted: base.attempted(),
        failed: base.failed(),
        errors,
        outer: traced.outer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcsi_trace::{SpanId, TraceId};

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            trace: TraceId(1),
            id: SpanId(id),
            parent: parent.map(SpanId),
            name,
            start: SimTime::from_nanos(start),
            end: SimTime::from_nanos(end),
            attrs: Vec::new(),
            seq: id,
        }
    }

    /// Every span name the four workloads emit, with its layer. The
    /// classifier below is what the benchmark uses; this list is what the
    /// self-test holds it to, so a new span name shows up as a test failure
    /// instead of silently landing in `other`.
    const KNOWN_SPANS: [(&str, &str); 29] = [
        ("kernel.read", "kernel"),
        ("kernel.write", "kernel"),
        ("kernel.create", "kernel"),
        ("kernel.invoke", "kernel"),
        ("kernel.subscribe", "kernel"),
        ("kernel.append", "kernel"),
        ("store.read", "storage"),
        ("store.mutate", "storage"),
        ("store.cache", "storage"),
        ("store.attempt", "network"),
        ("store.backoff", "network"),
        ("replica.coordinate", "storage"),
        ("replica.apply", "storage"),
        ("replica.read", "storage"),
        ("replica.fetch", "storage"),
        ("replica.push", "storage"),
        ("replica.tag_of", "storage"),
        ("rest.request", "protocol"),
        ("rest.sign", "protocol"),
        ("rest.marshal", "protocol"),
        ("rest.transport", "network"),
        ("rest.lb", "protocol"),
        ("rest.gateway", "protocol"),
        ("rest.http_parse", "protocol"),
        ("rest.auth", "protocol"),
        ("rest.route", "protocol"),
        ("faas.schedule", "compute"),
        ("faas.invoke", "compute"),
        ("faas.cold_start", "compute"),
    ];

    /// Span names a traced round of `spec` emitted over its window.
    fn span_names(round: &Round) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = round.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    #[test]
    fn classifier_covers_every_span_the_workloads_emit() {
        for spec in Spec::all() {
            let ops: Vec<Op> = spec::round_ops(&spec, 5).into_iter().take(300).collect();
            let r = world::run(&spec, &Rc::new(ops), Mode::TRACED);
            assert!(r.errors.is_empty(), "{}: {:?}", spec.name, r.errors);
            assert!(trace_errors(&r).is_empty());
            let names = span_names(&r);
            let unlisted: Vec<_> = names
                .iter()
                .filter(|n| !KNOWN_SPANS.iter().any(|(k, _)| k == *n))
                .collect();
            assert!(
                unlisted.is_empty(),
                "{} emits unlisted spans {unlisted:?}",
                spec.name
            );
            let pipeline = spec.kind == Kind::FnPipeline;
            assert!(vt_split(&r, &spec::round_ops(&spec, 5)[..300], pipeline).is_ok());
        }
    }

    #[test]
    fn a_split_whose_spans_do_not_explain_the_latency_is_rejected() {
        let spec = Spec::of(Kind::KvLinearizable);
        let ops: Vec<Op> = spec::round_ops(&spec, 5).into_iter().take(100).collect();
        let mut r = world::run(&spec, &Rc::new(ops.clone()), Mode::TRACED);
        assert!(vt_split(&r, &ops, false).is_ok());
        // An op the client saw finish 1 ns after its root span closed.
        r.latency_ns[7] += 1;
        assert!(vt_split(&r, &ops, false).is_err());
    }

    #[test]
    fn a_trace_whose_ring_dropped_spans_is_rejected() {
        let spec = Spec::of(Kind::KvCached);
        let ops = Rc::new(
            spec::round_ops(&spec, 5)
                .into_iter()
                .take(200)
                .collect::<Vec<_>>(),
        );
        let small = world::run(
            &spec,
            &ops,
            Mode {
                trace: Some(64),
                ..Mode::TRACED
            },
        );
        assert!(small.spans_dropped > 0);
        assert!(!trace_errors(&small).is_empty());
        let full = world::run(&spec, &ops, Mode::TRACED);
        assert!(trace_errors(&full).is_empty());
    }

    #[test]
    fn known_spans_classify_as_listed() {
        for (name, layer) in KNOWN_SPANS {
            assert_eq!(classify(name), layer, "{name}");
        }
        assert_eq!(classify("something.new"), "other");
    }

    #[test]
    fn attribution_partitions_overlapping_children() {
        // A kernel op [0,100] with a store call [10,90] whose two
        // parallel replica applies overlap ([20,60] and [30,80]).
        let spans = vec![
            span(1, None, "kernel.write", 0, 100),
            span(2, Some(1), "store.attempt", 10, 90),
            span(3, Some(2), "replica.apply", 20, 60),
            span(4, Some(2), "replica.apply", 30, 80),
        ];
        let children = vec![vec![1], vec![2, 3], vec![], vec![]];
        let mut out = BTreeMap::new();
        attribute(&spans, &children, 0, 0, 100, &mut out);
        assert_eq!(out.values().sum::<u64>(), 100);
        assert_eq!(out["kernel"], 20);
        assert_eq!(out["storage"], 60, "[20,80] once, not 40+50");
        assert_eq!(out["network"], 20);
        // Clipping to a shorter interval still partitions it exactly.
        let mut out = BTreeMap::new();
        attribute(&spans, &children, 0, 0, 50, &mut out);
        assert_eq!(out.values().sum::<u64>(), 50);
    }
}
