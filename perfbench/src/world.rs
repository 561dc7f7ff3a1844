//! One measured round: build a fresh simulated cloud, populate it, drive
//! the workload's op stream open loop through the public client APIs,
//! then check every output.
//!
//! Set-up, the measured window and the checks run as separate
//! `block_on` calls, so each one's host time and counters are taken
//! exactly around it.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

use bytes::Bytes;
use pcsi_cloud::rest::{RestClient, RestGateway};
use pcsi_cloud::{Cloud, CloudBuilder, KernelClient, ObsConfig};
use pcsi_core::api::{CreateOptions, InvokeRequest};
use pcsi_core::{CloudInterface, Consistency, Mutability, ObjectKind, Reference};
use pcsi_faas::function::{FunctionImage, Variant, WorkModel};
use pcsi_faas::AutoscaleConfig;
use pcsi_net::NodeId;
use pcsi_proto::sign::Credentials;
use pcsi_sim::executor::LocalBoxFuture;
use pcsi_sim::{Sim, SimHandle, SimTime};
use pcsi_trace::{Sampling, Span};

use crate::host;
use crate::spec::{self, Kind, Op, Spec, INITIAL};

/// Seed of the simulated cloud itself (placement, id allocation,
/// network jitter). It is the same for every workload seed: the
/// benchmark's seed only shapes the inputs, so two seeds compare the
/// same deployment under different op streams.
pub const SIM_SEED: u64 = 2021;

/// Latency slot of an op that failed or was refused.
pub const FAILED: u64 = u64::MAX;

/// Span ring capacity of a traced round: large enough that no span of a
/// round is evicted (a traced round that drops spans is rejected).
pub const TRACE_CAPACITY: usize = 4 << 20;

/// The SLO rule the fn-pipeline cloud evaluates while it runs.
const PIPELINE_RULE: &str =
    "pipeline-p99: p99(kernel.op_ns{op=\"invoke\"}) < 300ms over 1s for 2 clear 3";

/// Compute each pipeline invocation charges.
const STAGE_WORK: Duration = Duration::from_millis(1);

/// First id of the `stream.next` outer spans (op spans use `0..ops`).
const NEXT_SPAN_IDS: u64 = 1 << 32;

/// Credit window of the pipeline's result subscription.
const SUB_WINDOW: u32 = 64;

/// How a round is instrumented.
#[derive(Debug, Clone, Copy)]
pub struct Mode {
    /// Record every span (`Sampling::Always`) into a ring of this many
    /// spans, and time every public call's polls.
    pub trace: Option<usize>,
    /// Run fn-pipeline's metrics registry and SLO evaluator (always on
    /// in measured rounds; off only to price them).
    pub obs: bool,
    /// Interleave the [`host::Reference`] work with the measured window.
    pub reference: bool,
}

impl Mode {
    /// The end-to-end rounds: untraced, host times normalized.
    pub const MEASURED: Mode = Mode {
        trace: None,
        obs: true,
        reference: true,
    };
    pub const TIMED: Mode = Mode {
        trace: None,
        obs: true,
        reference: false,
    };
    pub const TRACED: Mode = Mode {
        trace: Some(TRACE_CAPACITY),
        obs: true,
        reference: false,
    };
}

/// Work counters over the measured window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub polls: u64,
    pub msgs: u64,
    pub msg_bytes: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub retries: u64,
    pub coordinated: u64,
    /// Replica applies; read from the metrics registry, so only known
    /// when the round runs one.
    pub applied: Option<u64>,
    pub invocations: u64,
    pub cold_starts: u64,
    pub rejections: u64,
    pub prewarms: u64,
    pub peak_concurrency: u32,
    pub live_tasks_peak: usize,
    pub stream_frames: Option<u64>,
    pub credit_stalls: Option<u64>,
}

/// A span the benchmark records around one public call it makes.
#[derive(Debug, Clone)]
pub struct OuterSpan {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start: SimTime,
    pub end: SimTime,
    /// Host time spent inside this call's own polls.
    pub host_ns: u64,
}

/// Everything one round measured.
pub struct Round {
    pub setup_s: f64,
    /// Host CPU seconds of the measured window, reference slices excluded.
    pub window_s: f64,
    /// Host CPU seconds the reference slices took (0 without them).
    pub reference_s: f64,
    pub window_start: SimTime,
    /// Per op, in op-stream order: latency from due time to result in
    /// ns, or [`FAILED`].
    pub latency_ns: Vec<u64>,
    /// Requests in flight at each arrival.
    pub in_flight: Vec<u32>,
    /// Modelled billing over the window, USD.
    pub usd: f64,
    pub counts: Counts,
    /// Failed correctness checks (empty when every output was right).
    pub errors: Vec<String>,
    /// Spans of the measured window (traced rounds).
    pub spans: Vec<Span>,
    pub spans_dropped: u64,
    pub outer: Vec<OuterSpan>,
}

impl Round {
    pub fn attempted(&self) -> u64 {
        self.latency_ns.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.latency_ns.iter().filter(|&&l| l == FAILED).count() as u64
    }

    /// Successful latencies, ascending.
    pub fn sorted_ok(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .latency_ns
            .iter()
            .copied()
            .filter(|&l| l != FAILED)
            .collect();
        v.sort_unstable();
        v
    }
}

/// Records [`OuterSpan`]s when enabled; a no-op otherwise.
pub struct OuterLog {
    enabled: bool,
    spans: RefCell<Vec<OuterSpan>>,
}

impl OuterLog {
    pub fn new(enabled: bool) -> Rc<OuterLog> {
        Rc::new(OuterLog {
            enabled,
            spans: RefCell::new(Vec::new()),
        })
    }

    /// Runs `fut`, recording it as span `id` when enabled; `parent`
    /// names the causing span once the output is known.
    pub async fn track<T>(
        &self,
        h: &SimHandle,
        id: u64,
        name: &'static str,
        fut: impl Future<Output = T>,
        parent: impl FnOnce(&T) -> Option<u64>,
    ) -> T {
        if !self.enabled {
            return fut.await;
        }
        let start = h.now();
        let (out, host_ns) = PollTimed { fut, host_ns: 0 }.await;
        self.spans.borrow_mut().push(OuterSpan {
            id,
            parent: parent(&out),
            name,
            start,
            end: h.now(),
            host_ns,
        });
        out
    }

    pub fn take(&self) -> Vec<OuterSpan> {
        std::mem::take(&mut self.spans.borrow_mut())
    }
}

/// Accumulates the host time spent inside the wrapped future's polls.
struct PollTimed<F> {
    fut: F,
    host_ns: u64,
}

impl<F: Future> Future for PollTimed<F> {
    type Output = (F::Output, u64);

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // SAFETY: `fut` is structurally pinned: it is never moved out of
        // `self` and `PollTimed` has no `Drop` or `Unpin` impl of its own.
        let this = unsafe { self.get_unchecked_mut() };
        let t = Instant::now();
        // SAFETY: see above; `this.fut` stays where the pin put it.
        let polled = unsafe { Pin::new_unchecked(&mut this.fut) }.poll(cx);
        this.host_ns += t.elapsed().as_nanos() as u64;
        polled.map(|out| (out, this.host_ns))
    }
}

/// What an issued op reports: its public call's name and future.
pub type Issue = Rc<dyn Fn(usize) -> (&'static str, LocalBoxFuture<bool>)>;

/// Result of driving an op stream open loop.
pub struct Driven {
    pub ends_ns: Vec<u64>,
    pub late_max_ns: u64,
    pub in_flight: Vec<u32>,
    pub live_tasks_peak: usize,
}

/// Slices the [`host::Reference`] work is cut into, spread evenly over
/// a round's op stream.
const REFERENCE_SLICES: usize = 100;

/// Issues `ops` open loop from `start`: each op is spawned at its due
/// time whatever the state of earlier ones. `ends_ns[i]` is when op `i`
/// finished (ns after `start`), or [`FAILED`]. With a `reference`, its
/// whole work runs in slices between the arrivals.
pub async fn drive(
    h: &SimHandle,
    start: SimTime,
    ops: &[Op],
    issue: Issue,
    log: &Rc<OuterLog>,
    mut reference: Option<&mut host::Reference>,
) -> Driven {
    let ends = Rc::new(RefCell::new(vec![FAILED; ops.len()]));
    let outstanding = Rc::new(Cell::new(0u32));
    let mut out = Driven {
        ends_ns: Vec::new(),
        late_max_ns: 0,
        in_flight: Vec::with_capacity(ops.len()),
        live_tasks_peak: 0,
    };
    let mut joins = Vec::with_capacity(ops.len());
    let mut slices = 0;
    for (i, op) in ops.iter().enumerate() {
        if let Some(r) = reference.as_deref_mut() {
            while slices < (i + 1) * REFERENCE_SLICES / ops.len() {
                r.slice(host::REFERENCE_ITERATIONS / REFERENCE_SLICES as u64);
                slices += 1;
            }
        }
        let due = start + Duration::from_nanos(op.due_ns);
        h.sleep_until(due).await;
        out.late_max_ns = out
            .late_max_ns
            .max(h.now().saturating_since(due).as_nanos() as u64);
        out.in_flight.push(outstanding.get());
        out.live_tasks_peak = out.live_tasks_peak.max(h.live_tasks());
        outstanding.set(outstanding.get() + 1);
        let (name, fut) = issue(i);
        let (h2, ends, outstanding, log) =
            (h.clone(), ends.clone(), outstanding.clone(), log.clone());
        joins.push(h.spawn(async move {
            if log.track(&h2, i as u64, name, fut, |_| None).await {
                ends.borrow_mut()[i] = h2.now().saturating_since(start).as_nanos() as u64;
            }
            outstanding.set(outstanding.get() - 1);
        }));
    }
    for j in joins {
        j.await;
    }
    out.ends_ns = ends.take();
    out
}

/// The deployed workload: the cloud plus whatever objects and clients
/// the op stream needs.
struct World {
    cloud: Cloud,
    client: KernelClient,
    /// Objects reads target, and their creation values.
    reads: Vec<Reference>,
    read_values: Vec<Bytes>,
    /// Objects writes target (kv-cached only).
    writes: Vec<Reference>,
    rest: Option<Rc<RestClient>>,
    pipeline: Option<Pipeline>,
}

/// One result the pipeline's subscriber consumed.
#[derive(Debug, Clone, Copy)]
pub struct Delivery {
    /// FIFO sequence number.
    pub seq: u64,
    /// The op whose invocation produced it.
    pub op: u64,
    /// The input key the invocation read.
    pub key: u32,
    pub at: SimTime,
}

struct Pipeline {
    function: Reference,
    fifo: Reference,
    delivered: Rc<RefCell<Vec<Delivery>>>,
    sub: Rc<pcsi_stream::Subscription>,
}

pub const REST_TABLE: &str = "bench";

pub fn rest_key(k: u32) -> String {
    format!("k{k:05}")
}

fn build(spec: &Spec, h: &SimHandle, mode: Mode) -> Cloud {
    let mut b = CloudBuilder::new();
    if let Some(capacity) = mode.trace {
        b = b
            .tracing(Sampling::Always)
            .trace_capacity(capacity)
            .metrics(true);
    }
    if spec.kind == Kind::FnPipeline {
        b = b.autoscale(AutoscaleConfig {
            enabled: true,
            ..AutoscaleConfig::default()
        });
    }
    if spec.kind == Kind::FnPipeline && mode.obs {
        b = b.metrics(true).observability(ObsConfig {
            rules: vec![PIPELINE_RULE.into()],
            interval: Duration::from_millis(100),
            ..ObsConfig::default()
        });
    }
    b.build(h)
}

async fn setup(spec: Spec, h: SimHandle, mode: Mode, log: Rc<OuterLog>) -> World {
    let cloud = build(&spec, &h, mode);
    let client = cloud.kernel.client(NodeId(0), "bench");
    let len = spec.value_len;
    let mut world = World {
        client: client.clone(),
        reads: Vec::new(),
        read_values: Vec::new(),
        writes: Vec::new(),
        rest: None,
        pipeline: None,
        cloud,
    };
    if spec.kind == Kind::RestKv {
        let cloud = &world.cloud;
        let creds = Credentials::new("BENCH", b"bench-secret".to_vec());
        let gateway = RestGateway::deploy(
            cloud.fabric.clone(),
            cloud.store.clone(),
            cloud.billing.clone(),
            NodeId(1),
            NodeId(5),
            HashMap::from([("BENCH".to_owned(), creds.clone())]),
        );
        gateway.set_tracer(cloud.tracer.clone());
        gateway.set_metrics(cloud.metrics.clone());
        let rest = Rc::new(gateway.client(NodeId(0), creds));
        for k in 0..spec.read_keys {
            rest.kv_put(REST_TABLE, &rest_key(k), &spec::value(k, INITIAL, len))
                .await
                .expect("populate a REST key");
        }
        world.rest = Some(rest);
        return world;
    }
    let (mutability, consistency) = match spec.kind {
        Kind::KvLinearizable => (Mutability::Mutable, Consistency::Linearizable),
        _ => (Mutability::Immutable, Consistency::Eventual),
    };
    for k in 0..spec.read_keys {
        let v = Bytes::from(spec::value(k, INITIAL, len));
        let opts = CreateOptions::regular()
            .with_mutability(mutability)
            .with_consistency(consistency)
            .with_initial(v.clone());
        world
            .reads
            .push(client.create(opts).await.expect("create a read object"));
        world.read_values.push(v);
    }
    for k in 0..spec.write_keys {
        let opts = CreateOptions::regular()
            .with_consistency(Consistency::Eventual)
            .with_initial(spec::value(k, INITIAL, len));
        world
            .writes
            .push(client.create(opts).await.expect("create a write object"));
    }
    if spec.kind == Kind::FnPipeline {
        world.pipeline = Some(setup_pipeline(&world, &h, len, log).await);
    }
    world
}

/// Registers the stage function, creates the result FIFO and opens the
/// subscription that tails it from another rack.
async fn setup_pipeline(world: &World, h: &SimHandle, len: usize, log: Rc<OuterLog>) -> Pipeline {
    world.cloud.kernel.register_body(
        "stage",
        Rc::new(move |ctx| {
            Box::pin(async move {
                let input = ctx.data.read(&ctx.inputs[0], 0, len as u64).await?;
                ctx.compute(STAGE_WORK).await;
                // The result names the request and the input key it read.
                let (key, _) = spec::parse_value(&input, len).ok_or_else(|| {
                    pcsi_core::PcsiError::BadPayload("stage input is corrupt".into())
                })?;
                let mut result = ctx.body.to_vec();
                result.extend_from_slice(&key.to_le_bytes());
                let seq = ctx
                    .data
                    .append(&ctx.outputs[0], Bytes::from(result))
                    .await?;
                Ok(Bytes::from(seq.to_le_bytes().to_vec()))
            })
        }),
    );
    let image = FunctionImage {
        name: "stage".into(),
        work: WorkModel::fixed(STAGE_WORK),
        variants: vec![Variant::wasm(1)],
    };
    let function = world
        .client
        .create(CreateOptions {
            kind: ObjectKind::Function,
            mutability: Mutability::Mutable,
            consistency: Consistency::Linearizable,
            initial: image.encode(),
            fifo_capacity: None,
        })
        .await
        .expect("create the stage function");
    let fifo = world
        .client
        .create(CreateOptions::fifo())
        .await
        .expect("create the result fifo");
    let sub = Rc::new(
        world
            .cloud
            .kernel
            .client(NodeId(9), "bench")
            .subscribe(&fifo, SUB_WINDOW)
            .await
            .expect("subscribe to the result fifo"),
    );
    let delivered = Rc::new(RefCell::new(Vec::new()));
    h.spawn_detached({
        let (sub, delivered, h) = (sub.clone(), delivered.clone(), h.clone());
        let field = |b: &[u8], at: usize, n: usize| {
            b.get(at..at + n)
                .map(|f| f.iter().rev().fold(0u64, |a, &x| a << 8 | u64::from(x)))
        };
        async move {
            for n in 0u64.. {
                // `next` spans are numbered after every op's span and name
                // the op whose result they delivered as their parent.
                let next = log.track(&h, NEXT_SPAN_IDS + n, "stream.next", sub.next(), |ev| {
                    ev.as_ref().and_then(|e| field(&e.payload, 0, 8))
                });
                let Some(ev) = next.await else { break };
                delivered.borrow_mut().push(Delivery {
                    seq: ev.seq,
                    op: field(&ev.payload, 0, 8).unwrap_or(u64::MAX),
                    key: field(&ev.payload, 8, 4).map_or(u32::MAX, |k| k as u32),
                    at: h.now(),
                });
            }
        }
    });
    Pipeline {
        function,
        fifo,
        delivered,
        sub,
    }
}

/// What each op observed, for the checks after the window.
struct Seen {
    /// Per op: the writer index a read returned, or the FIFO seq an
    /// invocation's result got.
    value: Vec<u64>,
    errors: Vec<String>,
}

fn issue_for(spec: &Spec, world: &Rc<World>, ops: &Rc<Vec<Op>>, seen: &Rc<RefCell<Seen>>) -> Issue {
    let spec = spec.clone();
    let (world, ops, seen) = (world.clone(), ops.clone(), seen.clone());
    Rc::new(move |i| {
        let op = ops[i];
        let (world, seen) = (world.clone(), seen.clone());
        let len = spec.value_len;
        let k = op.key as usize;
        match (spec.kind, op.write) {
            (Kind::KvCached, false) => (
                "kernel.read",
                Box::pin(async move {
                    let got = world.client.read(&world.reads[k], 0, len as u64).await;
                    match got {
                        Ok(b) if b == world.read_values[k] => true,
                        Ok(_) => {
                            seen.borrow_mut()
                                .errors
                                .push(format!("op {i}: IMMUTABLE read returned other bytes"));
                            true
                        }
                        Err(_) => false,
                    }
                }),
            ),
            (Kind::KvCached | Kind::KvLinearizable, true) => (
                "kernel.write",
                Box::pin(async move {
                    let target = if spec.kind == Kind::KvCached {
                        &world.writes[k]
                    } else {
                        &world.reads[k]
                    };
                    let v = Bytes::from(spec::value(op.key, i as u64, len));
                    world.client.write(target, 0, v).await.is_ok()
                }),
            ),
            (Kind::KvLinearizable, false) => (
                "kernel.read",
                Box::pin(async move {
                    match world.client.read(&world.reads[k], 0, len as u64).await {
                        Ok(b) => {
                            record_read(&seen, i, op.key, spec::parse_value(&b, len));
                            true
                        }
                        Err(_) => false,
                    }
                }),
            ),
            (Kind::RestKv, false) => (
                "rest.kv_get",
                Box::pin(async move {
                    let rest = world.rest.as_ref().expect("rest-kv deploys a gateway");
                    match rest.kv_get(REST_TABLE, &rest_key(op.key)).await {
                        Ok(b) => {
                            record_read(&seen, i, op.key, spec::parse_value(&b, len));
                            true
                        }
                        Err(_) => false,
                    }
                }),
            ),
            (Kind::RestKv, true) => (
                "rest.kv_put",
                Box::pin(async move {
                    let rest = world.rest.as_ref().expect("rest-kv deploys a gateway");
                    let v = spec::value(op.key, i as u64, len);
                    rest.kv_put(REST_TABLE, &rest_key(op.key), &v).await.is_ok()
                }),
            ),
            (Kind::FnPipeline, _) => (
                "kernel.invoke",
                Box::pin(async move {
                    let p = world
                        .pipeline
                        .as_ref()
                        .expect("fn-pipeline deploys a pipeline");
                    let req = InvokeRequest::with_body((i as u64).to_le_bytes().to_vec())
                        .input(world.reads[k].clone())
                        .output(p.fifo.clone());
                    match world.client.invoke(&p.function, req).await {
                        Ok(resp) if resp.body.len() == 8 => {
                            seen.borrow_mut().value[i] =
                                u64::from_le_bytes(resp.body[..8].try_into().unwrap());
                            true
                        }
                        Ok(_) => {
                            seen.borrow_mut()
                                .errors
                                .push(format!("op {i}: malformed invocation result"));
                            false
                        }
                        Err(_) => false,
                    }
                }),
            ),
        }
    })
}

fn record_read(seen: &Rc<RefCell<Seen>>, i: usize, key: u32, parsed: Option<(u32, u64)>) {
    let mut s = seen.borrow_mut();
    match parsed {
        Some((k, writer)) if k == key => s.value[i] = writer,
        _ => s.errors.push(format!(
            "op {i}: read of key {key} returned a corrupt or foreign value"
        )),
    }
}

/// Runs one round of `ops` (due times relative to the window start).
pub fn run(spec: &Spec, ops: &Rc<Vec<Op>>, mode: Mode) -> Round {
    let t0 = host::thread_cpu();
    let mut sim = Sim::new(SIM_SEED);
    let h = sim.handle();
    let log = OuterLog::new(mode.trace.is_some());
    let world = Rc::new(sim.block_on(setup(spec.clone(), h.clone(), mode, log.clone())));
    let setup_s = (host::thread_cpu() - t0).as_secs_f64();

    let cloud = world.cloud.clone();
    if let Some(t) = &cloud.tracer {
        t.sink().take();
    }
    let seen = Rc::new(RefCell::new(Seen {
        value: vec![u64::MAX; ops.len()],
        errors: Vec::new(),
    }));
    let issue = issue_for(spec, &world, ops, &seen);
    let before = Snapshot::take(&sim, &cloud);
    // A round starts on a whole millisecond after set-up settles.
    let start = SimTime::from_millis(h.now().as_nanos() / 1_000_000 + 1);
    let t1 = host::thread_cpu();
    let (driven, reference) = sim.block_on({
        let (h, ops, log) = (h.clone(), ops.clone(), log.clone());
        let mut reference = mode.reference.then(host::Reference::default);
        async move {
            let driven = drive(&h, start, &ops, issue, &log, reference.as_mut()).await;
            (driven, reference)
        }
    });
    let reference_s = reference.map_or(0.0, |r| r.spent.as_secs_f64());
    let window_s = (host::thread_cpu() - t1).as_secs_f64() - reference_s;
    let after = Snapshot::take(&sim, &cloud);
    let usd = after.usd - before.usd;
    let mut counts = after.minus(&before);
    counts.live_tasks_peak = driven.live_tasks_peak;
    let (spans, spans_dropped) = match &cloud.tracer {
        Some(t) => (t.sink().take(), t.sink().dropped()),
        None => (Vec::new(), 0),
    };
    let outer = log.take();

    let mut latency_ns: Vec<u64> = driven
        .ends_ns
        .iter()
        .zip(ops.iter())
        .map(|(&end, op)| {
            if end == FAILED {
                FAILED
            } else {
                end - op.due_ns
            }
        })
        .collect();

    // Checks run after the window, outside every measurement.
    let mut errors = sim.block_on({
        let (spec, h, world, ops, seen) = (
            spec.clone(),
            h.clone(),
            world.clone(),
            ops.clone(),
            seen.clone(),
        );
        let ends = driven.ends_ns.clone();
        async move { check(&spec, &h, &world, &ops, &ends, &seen, start).await }
    });
    if driven.late_max_ns > 0 {
        errors.push(format!(
            "the generator issued an op {} ns late",
            driven.late_max_ns
        ));
    }
    if let Some(p) = &world.pipeline {
        // An invocation's op ends when its result reaches the subscriber.
        let delivered = p.delivered.borrow();
        let at: HashMap<u64, SimTime> = delivered.iter().map(|d| (d.op, d.at)).collect();
        for (i, l) in latency_ns.iter_mut().enumerate() {
            if *l == FAILED {
                continue;
            }
            match at.get(&(i as u64)) {
                Some(t) => *l = t.saturating_since(start).as_nanos() as u64 - ops[i].due_ns,
                None => *l = FAILED,
            }
        }
    }
    Round {
        setup_s,
        window_s,
        reference_s,
        window_start: start,
        latency_ns,
        in_flight: driven.in_flight,
        usd,
        counts,
        errors,
        spans,
        spans_dropped,
        outer,
    }
}

fn usd_total(cloud: &Cloud) -> f64 {
    let b = &cloud.billing;
    b.accounts().iter().map(|a| b.invoice(a).total()).sum()
}

/// Counter values at one instant.
struct Snapshot {
    c: Counts,
    usd: f64,
}

impl Snapshot {
    fn take(sim: &Sim, cloud: &Cloud) -> Snapshot {
        let (pool_hits, pool_misses) = bytes::pool_stats();
        let (allocs, alloc_bytes) = host::counts();
        let cache = cloud.store.cache_stats();
        let rt = &cloud.runtime;
        let reg = cloud.metrics.as_ref();
        let nodes = cloud.fabric.topology().node_ids();
        let applied = reg.map(|m| {
            nodes
                .iter()
                .filter_map(|n| m.find_counter("replica.applied", &[("node", &n.0.to_string())]))
                .map(|c| c.get())
                .sum()
        });
        Snapshot {
            c: Counts {
                polls: sim.poll_count(),
                msgs: cloud.fabric.message_count(),
                msg_bytes: cloud.fabric.bytes_moved(),
                pool_hits,
                pool_misses,
                allocs,
                alloc_bytes,
                cache_hits: cache.hits,
                cache_misses: cache.misses,
                retries: cloud.store.retry_stats().retries,
                coordinated: cloud
                    .store
                    .replicas()
                    .iter()
                    .map(|r| r.coordinated_count())
                    .sum(),
                applied,
                invocations: rt.invocations(),
                cold_starts: rt.cold_starts(),
                rejections: rt.rejections(),
                prewarms: rt.prewarms(),
                peak_concurrency: rt.peak_concurrency(),
                live_tasks_peak: 0,
                stream_frames: reg
                    .and_then(|m| m.find_counter("stream.frames", &[]))
                    .map(|c| c.get()),
                credit_stalls: reg
                    .and_then(|m| m.find_counter("stream.credit_stalls", &[]))
                    .map(|c| c.get()),
            },
            usd: usd_total(cloud),
        }
    }

    fn minus(self, before: &Snapshot) -> Counts {
        let (a, b) = (self.c, before.c);
        let opt = |x: Option<u64>, y: Option<u64>| Some(x? - y.unwrap_or(0));
        Counts {
            polls: a.polls - b.polls,
            msgs: a.msgs - b.msgs,
            msg_bytes: a.msg_bytes - b.msg_bytes,
            pool_hits: a.pool_hits - b.pool_hits,
            pool_misses: a.pool_misses - b.pool_misses,
            allocs: a.allocs - b.allocs,
            alloc_bytes: a.alloc_bytes - b.alloc_bytes,
            cache_hits: a.cache_hits - b.cache_hits,
            cache_misses: a.cache_misses - b.cache_misses,
            retries: a.retries - b.retries,
            coordinated: a.coordinated - b.coordinated,
            applied: opt(a.applied, b.applied),
            invocations: a.invocations - b.invocations,
            cold_starts: a.cold_starts - b.cold_starts,
            rejections: a.rejections - b.rejections,
            prewarms: a.prewarms - b.prewarms,
            peak_concurrency: a.peak_concurrency,
            live_tasks_peak: 0,
            stream_frames: opt(a.stream_frames, b.stream_frames),
            credit_stalls: opt(a.credit_stalls, b.credit_stalls),
        }
    }
}

/// Write history of one key: `(writer op, invoked, acked or FAILED)`.
pub type History = Vec<(u64, u64, u64)>;

/// Checks a read against its key's write history: the value it returned
/// (`writer`) must have been written to the key no later than the read
/// finished, and no write may have both started after `writer` was
/// acknowledged and been acknowledged before the read started (the read
/// returned the last write it could have missed nothing of). Times are
/// ns on one clock; `writer == INITIAL` is the creation value, written
/// before every op.
pub fn check_read(
    history: &History,
    read_invoked: u64,
    read_acked: u64,
    writer: u64,
) -> Result<(), String> {
    let acked = if writer == INITIAL {
        None
    } else {
        match history.iter().find(|w| w.0 == writer) {
            None => {
                return Err(format!(
                    "returned writer {writer}, which never wrote this key"
                ))
            }
            Some(&(_, invoked, _)) if invoked > read_acked => {
                return Err(format!(
                    "returned writer {writer}, invoked after the read finished"
                ))
            }
            // A failed write may still have been applied; it can never
            // be shown stale.
            Some(&(_, _, FAILED)) => return Ok(()),
            Some(&(_, _, acked)) => Some(acked),
        }
    };
    let newer = history.iter().find(|&&(w, invoked, ack)| {
        w != writer && ack != FAILED && ack < read_invoked && acked.is_none_or(|a| invoked > a)
    });
    match newer {
        Some(&(w, _, _)) => Err(format!(
            "returned writer {writer}, but writer {w} had superseded it before the read"
        )),
        None => Ok(()),
    }
}

fn histories(ops: &[Op], ends: &[u64]) -> HashMap<u32, History> {
    let mut h: HashMap<u32, History> = HashMap::new();
    for (i, (op, &end)) in ops.iter().zip(ends).enumerate() {
        if op.write {
            h.entry(op.key)
                .or_default()
                .push((i as u64, op.due_ns, end));
        }
    }
    h
}

/// How long the checks let background replication settle before the
/// final read-back.
const QUIESCE: Duration = Duration::from_secs(1);

async fn check(
    spec: &Spec,
    h: &SimHandle,
    world: &World,
    ops: &[Op],
    ends: &[u64],
    seen: &Rc<RefCell<Seen>>,
    start: SimTime,
) -> Vec<String> {
    let mut errors = std::mem::take(&mut seen.borrow_mut().errors);
    let len = spec.value_len;
    let hist = histories(ops, ends);
    let none = History::new();
    let seen_values = seen.borrow().value.clone();
    // In-window reads returned the last write they could have seen.
    if matches!(spec.kind, Kind::KvLinearizable | Kind::RestKv) {
        for (i, op) in ops.iter().enumerate() {
            if op.write || ends[i] == FAILED || seen_values[i] == u64::MAX {
                continue;
            }
            let history = hist.get(&op.key).unwrap_or(&none);
            if let Err(e) = check_read(history, op.due_ns, ends[i], seen_values[i]) {
                errors.push(format!("op {i} (key {}): {e}", op.key));
            }
        }
    }
    if spec.kind == Kind::FnPipeline {
        let p = world
            .pipeline
            .as_ref()
            .expect("fn-pipeline deploys a pipeline");
        let expected = ends.iter().filter(|&&e| e != FAILED).count();
        let deadline = h.now() + Duration::from_secs(30);
        while p.delivered.borrow().len() < expected && h.now() < deadline {
            h.sleep(Duration::from_millis(1)).await;
        }
        p.sub.cancel();
        errors.extend(check_pipeline(
            ops,
            ends,
            &seen_values,
            &p.delivered.borrow(),
        ));
        return errors;
    }
    // Final read-back of every written key, once replication settled.
    h.sleep(QUIESCE).await;
    let mut keys: Vec<&u32> = hist.keys().collect();
    keys.sort();
    for &key in keys {
        let now = h.now().saturating_since(start).as_nanos() as u64;
        let got = match (spec.kind, &world.rest) {
            (Kind::RestKv, Some(rest)) => rest
                .kv_get(REST_TABLE, &rest_key(key))
                .await
                .map_err(|e| e.to_string()),
            _ => {
                let target = if spec.kind == Kind::KvCached {
                    &world.writes[key as usize]
                } else {
                    &world.reads[key as usize]
                };
                world
                    .client
                    .read(target, 0, len as u64)
                    .await
                    .map(|b| b.to_vec())
                    .map_err(|e| e.to_string())
            }
        };
        let result = match got {
            Ok(b) => match spec::parse_value(&b, len) {
                Some((k, writer)) if k == key => check_read(&hist[&key], now, now, writer),
                _ => Err("read back a corrupt or foreign value".into()),
            },
            Err(e) => Err(format!("read-back failed: {e}")),
        };
        if let Err(e) = result {
            errors.push(format!("final read-back of key {key}: {e}"));
        }
    }
    errors
}

/// Every successful invocation's result reached the subscriber exactly
/// once, carrying the input it read, in FIFO order.
pub fn check_pipeline(
    ops: &[Op],
    ends: &[u64],
    seq_of: &[u64],
    delivered: &[Delivery],
) -> Vec<String> {
    let mut errors = Vec::new();
    let mut got = vec![0u32; ops.len()];
    for (n, &Delivery { seq, op, key, .. }) in delivered.iter().enumerate() {
        if n > 0 && seq != delivered[n - 1].seq + 1 {
            errors.push(format!(
                "delivery {n}: seq {seq} does not follow {}",
                delivered[n - 1].seq
            ));
        }
        let Some(o) = ops.get(op as usize) else {
            errors.push(format!("delivery {n}: names unknown op {op}"));
            continue;
        };
        got[op as usize] += 1;
        if key != o.key {
            errors.push(format!("op {op}: result read key {key}, not {}", o.key));
        }
        if seq_of[op as usize] != seq {
            errors.push(format!(
                "op {op}: delivered as seq {seq}, appended as {}",
                seq_of[op as usize]
            ));
        }
    }
    for (i, &end) in ends.iter().enumerate() {
        match (end != FAILED, got[i]) {
            (true, 1) | (false, 0) => {}
            (ok, n) => errors.push(format!("op {i} (succeeded: {ok}) delivered {n} times")),
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_check_accepts_fresh_and_rejects_stale_or_invented_values() {
        // Writer 1 over [10, 20], writer 2 over [30, 40], writer 3 failed.
        let h: History = vec![(1, 10, 20), (2, 30, 40), (3, 50, FAILED)];
        assert!(check_read(&h, 0, 5, INITIAL).is_ok());
        assert!(
            check_read(&h, 15, 25, INITIAL).is_ok(),
            "concurrent with writer 1"
        );
        assert!(
            check_read(&h, 25, 26, INITIAL).is_err(),
            "writer 1 acked before"
        );
        assert!(check_read(&h, 25, 26, 1).is_ok());
        assert!(
            check_read(&h, 35, 36, 1).is_ok(),
            "writer 2 still in flight"
        );
        assert!(check_read(&h, 45, 46, 1).is_err(), "writer 2 superseded 1");
        assert!(check_read(&h, 45, 46, 2).is_ok());
        assert!(check_read(&h, 5, 9, 1).is_err(), "from the future");
        assert!(check_read(&h, 60, 61, 3).is_ok(), "a failed write may land");
        assert!(check_read(&h, 60, 61, 7).is_err(), "never written");
    }

    #[test]
    fn pipeline_check_wants_each_result_once_and_in_order() {
        let ops = vec![
            Op {
                due_ns: 1,
                key: 4,
                write: false,
            },
            Op {
                due_ns: 2,
                key: 5,
                write: false,
            },
            Op {
                due_ns: 3,
                key: 6,
                write: false,
            },
        ];
        let d = |seq, op, key| Delivery {
            seq,
            op,
            key,
            at: SimTime::ZERO,
        };
        let ends = [10, 11, FAILED];
        let seq_of = [7, 8, u64::MAX];
        let good = [d(7, 0, 4), d(8, 1, 5)];
        assert!(check_pipeline(&ops, &ends, &seq_of, &good).is_empty());
        let dup = [d(7, 0, 4), d(8, 1, 5), d(9, 1, 5)];
        assert!(!check_pipeline(&ops, &ends, &seq_of, &dup).is_empty());
        let lost = [d(7, 0, 4)];
        assert!(!check_pipeline(&ops, &ends, &seq_of, &lost).is_empty());
        let reordered = [d(8, 1, 5), d(7, 0, 4)];
        assert!(!check_pipeline(&ops, &ends, &seq_of, &reordered).is_empty());
        let wrong_input = [d(7, 0, 5), d(8, 1, 5)];
        assert!(!check_pipeline(&ops, &ends, &seq_of, &wrong_input).is_empty());
    }
}
