//! The web-services baseline: a REST gateway (§2.1).
//!
//! A DynamoDB/S3-style front door: clients send signed HTTP requests; a
//! load balancer forwards them to a gateway, which parses the HTTP
//! message, re-verifies the request signature (statelessness — every
//! request re-authenticates), unmarshals JSON, performs the storage
//! operation, and marshals a response. All of this *actually happens* —
//! the byte-level codecs from `pcsi-proto` run on every request — and the
//! provider CPU time each step consumes is charged to virtual time and to
//! the caller's bill through the constants below.
//!
//! ## CPU-time calibration
//!
//! | step | model | Table-1 anchor |
//! |------|-------|----------------|
//! | HTTP parse + format | 50 µs/request | "HTTP protocol: 50,000 ns" |
//! | JSON marshal/unmarshal | 10 µs + 40 ns/byte (1 KB ≈ 50 µs) | "Object marshaling (1k): >50,000 ns" |
//! | signature verification | 15 µs + 5 ns/byte | SigV4 canonicalization + 2 HMAC passes |
//! | load-balancer forwarding | 10 µs/request | L7 proxy cost |
//! | routing/metering/logging | 30 µs/request | typical service-mesh overhead |
//!
//! The NFS baseline (`crate::nfs`) performs the same storage work behind
//! a 3 µs/op binary protocol — the per-operation provider-CPU ratio
//! (~60×) is where the paper's 0.003 vs 0.18 USD/M cost gap comes from.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use pcsi_core::{Consistency, Mutability, ObjectId, PcsiError};
use pcsi_metrics::Metrics;
use pcsi_net::fabric::RpcHandler;
use pcsi_net::{Fabric, NodeId, Transport};
use pcsi_proto::http::{Method, Request, Response};
use pcsi_proto::sign::{sign_request, verify_request, Credentials, Scope};
use pcsi_proto::{json, Value};
use pcsi_store::ReplicatedStore;
use pcsi_trace::{SpanHandle, TraceContext, Tracer};

use crate::billing::Billing;

/// HTTP framing CPU per request.
pub const HTTP_CPU: Duration = Duration::from_micros(50);
/// JSON marshaling CPU: fixed part.
pub const MARSHAL_CPU_FIXED: Duration = Duration::from_micros(10);
/// JSON marshaling CPU: per byte.
pub const MARSHAL_CPU_PER_BYTE: Duration = Duration::from_nanos(40);
/// Signature verification CPU: fixed part.
pub const AUTH_CPU_FIXED: Duration = Duration::from_micros(15);
/// Signature verification CPU: per byte.
pub const AUTH_CPU_PER_BYTE: Duration = Duration::from_nanos(5);
/// Load-balancer forwarding CPU per request.
pub const LB_CPU: Duration = Duration::from_micros(10);
/// Routing, metering, logging CPU per request.
pub const ROUTING_CPU: Duration = Duration::from_micros(30);

/// Signature scope used by the simulated region.
pub fn scope() -> Scope {
    Scope::new("sim-west-1", "storage")
}

pub(crate) fn marshal_cpu(bytes: usize) -> Duration {
    MARSHAL_CPU_FIXED + MARSHAL_CPU_PER_BYTE * (bytes as u32)
}

pub(crate) fn auth_cpu(bytes: usize) -> Duration {
    AUTH_CPU_FIXED + AUTH_CPU_PER_BYTE * (bytes as u32)
}

/// Total modeled provider CPU for one REST data-plane request.
pub fn request_cpu(body_bytes: usize) -> Duration {
    HTTP_CPU + marshal_cpu(body_bytes) + auth_cpu(body_bytes) + LB_CPU + ROUTING_CPU
}

/// The deployed REST service.
#[derive(Clone)]
pub struct RestGateway {
    inner: Rc<Inner>,
}

struct Inner {
    fabric: Fabric,
    lb_node: NodeId,
    gateway_node: NodeId,
    tracer: Rc<RefCell<Option<Tracer>>>,
    metrics: Rc<RefCell<Option<Metrics>>>,
}

/// Derives the storage object id for a REST resource path.
///
/// The REST namespace is flat strings; ids are a stable 128-bit hash of
/// the path (so REST objects and kernel objects never collide: the REST
/// realm has the top bit set).
pub fn path_object_id(path: &str) -> ObjectId {
    let mut h1: u64 = 0xCBF2_9CE4_8422_2325;
    let mut h2: u64 = 0x8422_2325_CBF2_9CE4;
    for &b in path.as_bytes() {
        h1 = (h1 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        h2 = (h2 ^ u64::from(b))
            .wrapping_mul(0x0000_0100_0000_01B3)
            .rotate_left(17);
    }
    ObjectId::from_u128(((u128::from(h1) | (1 << 63)) << 64) | u128::from(h2))
}

impl RestGateway {
    /// Deploys the load balancer on `lb_node` and the gateway on
    /// `gateway_node`, with `keys` as the verifier's credential store.
    pub fn deploy(
        fabric: Fabric,
        store: ReplicatedStore,
        billing: Billing,
        lb_node: NodeId,
        gateway_node: NodeId,
        keys: HashMap<String, Credentials>,
    ) -> Self {
        let keys = Rc::new(keys);
        let tracer: Rc<RefCell<Option<Tracer>>> = Rc::new(RefCell::new(None));
        let metrics: Rc<RefCell<Option<Metrics>>> = Rc::new(RefCell::new(None));

        // Gateway: the real work.
        let gw_handler: RpcHandler = {
            let fabric = fabric.clone();
            let store = store.clone();
            let billing = billing.clone();
            let keys = Rc::clone(&keys);
            let tracer = Rc::clone(&tracer);
            let metrics = Rc::clone(&metrics);
            Rc::new(move |payload, ctx| {
                let fabric = fabric.clone();
                let store = store.clone();
                let billing = billing.clone();
                let keys = Rc::clone(&keys);
                let tracer = tracer.borrow().clone();
                let metrics = metrics.borrow().clone();
                Box::pin(async move {
                    let resp = handle_request(
                        &fabric,
                        &store,
                        &billing,
                        &keys,
                        gateway_node,
                        payload,
                        tracer,
                        ctx.trace,
                        metrics,
                    )
                    .await;
                    Ok(Bytes::from(resp.encode()))
                })
            })
        };
        fabric.bind(gateway_node, "rest-gateway", gw_handler);

        // Load balancer: charge its CPU and forward.
        let lb_handler: RpcHandler = {
            let fabric = fabric.clone();
            let tracer = Rc::clone(&tracer);
            Rc::new(move |payload, ctx| {
                let fabric = fabric.clone();
                let tracer = tracer.borrow().clone();
                Box::pin(async move {
                    let span = match (&tracer, ctx.trace) {
                        (Some(t), Some(c)) => t.child(c, "rest.lb"),
                        _ => SpanHandle::disabled(),
                    };
                    fabric.handle().sleep(LB_CPU).await;
                    // The forward hop is a nested transport span so the
                    // balancer span's self time is purely its CPU.
                    let fwd_span = span.span("rest.transport");
                    let result = fabric
                        .call_traced(
                            lb_node,
                            gateway_node,
                            "rest-gateway",
                            Transport::Tcp,
                            payload,
                            fwd_span.ctx(),
                        )
                        .await;
                    fwd_span.finish();
                    span.finish();
                    result
                })
            })
        };
        fabric.bind(lb_node, "rest-lb", lb_handler);

        RestGateway {
            inner: Rc::new(Inner {
                fabric,
                lb_node,
                gateway_node,
                tracer,
                metrics,
            }),
        }
    }

    /// Installs (or clears) the tracer used by the client, load
    /// balancer, and gateway instrumentation.
    pub fn set_tracer(&self, tracer: Option<Tracer>) {
        *self.inner.tracer.borrow_mut() = tracer;
    }

    /// Installs (or clears) the metrics registry: the gateway then counts
    /// every request by method and status (`rest.requests`) and records
    /// gateway-side latency (`rest.request_ns{method=…}`).
    pub fn set_metrics(&self, metrics: Option<Metrics>) {
        *self.inner.metrics.borrow_mut() = metrics;
    }

    /// The load balancer's node (clients connect here).
    pub fn lb_node(&self) -> NodeId {
        self.inner.lb_node
    }

    /// The gateway's node.
    pub fn gateway_node(&self) -> NodeId {
        self.inner.gateway_node
    }

    /// A client bound to `from` with `creds`.
    pub fn client(&self, from: NodeId, creds: Credentials) -> RestClient {
        RestClient {
            gateway: self.clone(),
            from,
            creds,
            epoch_s: RefCell::new(1_700_000_000),
        }
    }
}

#[allow(clippy::too_many_arguments)]
async fn handle_request(
    fabric: &Fabric,
    store: &ReplicatedStore,
    billing: &Billing,
    keys: &HashMap<String, Credentials>,
    gateway_node: NodeId,
    payload: Bytes,
    tracer: Option<Tracer>,
    trace: Option<TraceContext>,
    metrics: Option<Metrics>,
) -> Response {
    let h = fabric.handle();
    let started = h.now();
    let mut span = match &tracer {
        Some(t) => t.child_of(trace, "rest.gateway"),
        None => SpanHandle::disabled(),
    };

    // 1. HTTP parse (+ later format): framing CPU.
    let parse_span = span.span("rest.http_parse");
    h.sleep(HTTP_CPU).await;
    parse_span.finish();
    let request = match Request::decode(&payload) {
        Ok(r) => r,
        Err(e) => {
            let resp = Response::new(400).with_body(error_json("BadHttp", &e.to_string()));
            record_request(&metrics, "-", &resp, h.now() - started, span.ctx());
            return resp;
        }
    };
    let method = request.method.as_str();

    // 2. Stateless authentication: every request pays signature
    //    verification (the real HMAC work runs here).
    let auth_span = span.span("rest.auth");
    h.sleep(auth_cpu(payload.len())).await;
    let now_s = h.now().as_secs_f64() as u64 + 1_700_000_000;
    let lookup = |id: &str| keys.get(id).cloned();
    if let Err(e) = verify_request(&request, lookup, &scope(), now_s, 3600) {
        let resp = Response::new(403).with_body(error_json("AccessDenied", &e.to_string()));
        record_request(&metrics, method, &resp, h.now() - started, span.ctx());
        return resp;
    }
    auth_span.finish();

    // 3. Routing / metering / logging.
    let route_span = span.span("rest.route");
    h.sleep(ROUTING_CPU).await;
    let account = request
        .headers
        .get(pcsi_proto::sign::KEY_ID_HEADER)
        .unwrap_or("anonymous")
        .to_owned();
    billing.charge_request(&account);
    billing.charge_compute(
        &account,
        &pcsi_net::node::Resources::cpu(1, 0),
        request_cpu(request.body.len()),
    );
    route_span.finish();

    // 4. Dispatch by resource class.
    let path = request.target.clone();
    let client = store.client(gateway_node).traced(span.ctx());
    let id = path_object_id(&path);
    let result: Result<Response, PcsiError> = if path.starts_with("/kv/") {
        match request.method {
            Method::Put => {
                // JSON unmarshal of the item.
                let marshal_span = span.span("rest.marshal");
                h.sleep(marshal_cpu(request.body.len())).await;
                marshal_span.finish();
                let body_text = String::from_utf8_lossy(&request.body).into_owned();
                let value = json::decode(&body_text).map(|item| {
                    item.get("value")
                        .and_then(Value::as_str)
                        .and_then(json::base64_decode)
                });
                match value {
                    // DynamoDB-style durable write (majority).
                    Ok(Some(value)) => client
                        .put(
                            id,
                            Bytes::from(value),
                            Mutability::Mutable,
                            Consistency::Linearizable,
                        )
                        .await
                        .map(|_| Response::new(200).with_body(&b"{\"ok\":true}"[..])),
                    Ok(None) => Ok(Response::new(400).with_body(error_json(
                        "BadJson",
                        "item needs a base64url string \"value\"",
                    ))),
                    Err(e) => {
                        Ok(Response::new(400).with_body(error_json("BadJson", &e.to_string())))
                    }
                }
            }
            Method::Get => match client.read_all(id, Consistency::Eventual).await {
                Ok((_tag, data)) => {
                    // JSON marshal of the response item.
                    let marshal_span = span.span("rest.marshal");
                    let value = Value::object([("value", Value::Str(json::base64_encode(&data)))]);
                    let body = json::encode(&value);
                    h.sleep(marshal_cpu(body.len())).await;
                    marshal_span.finish();
                    Ok(Response::new(200)
                        .with_header("content-type", "application/json")
                        .with_body(body.into_bytes()))
                }
                Err(e) => Err(e),
            },
            Method::Delete => client.delete(id).await.map(|_| Response::new(204)),
            _ => Ok(Response::new(400).with_body(error_json("BadMethod", "unsupported"))),
        }
    } else if path.starts_with("/objects/") {
        // S3-like raw object API (no JSON body, still HTTP + auth).
        match request.method {
            Method::Put => client
                .put(
                    id,
                    request.body.clone(),
                    Mutability::Mutable,
                    Consistency::Linearizable,
                )
                .await
                .map(|_| Response::new(201)),
            Method::Get => client
                .read_all(id, Consistency::Eventual)
                .await
                .map(|(_tag, data)| Response::new(200).with_body(data)),
            Method::Delete => client.delete(id).await.map(|_| Response::new(204)),
            _ => Ok(Response::new(400).with_body(error_json("BadMethod", "unsupported"))),
        }
    } else {
        Ok(Response::new(404).with_body(error_json("NoSuchResource", &path)))
    };

    let resp = match result {
        Ok(resp) => resp,
        Err(PcsiError::NotFound(_)) => Response::new(404).with_body(error_json("NoSuchKey", &path)),
        Err(e) => Response::new(500).with_body(error_json("InternalError", &e.to_string())),
    };
    span.attr("status", u64::from(resp.status));
    let ctx = span.ctx();
    span.finish();
    record_request(&metrics, method, &resp, h.now() - started, ctx);
    resp
}

/// Counts one gateway request by method and status, and records the
/// gateway-side latency histogram. A no-op when metrics are off. Sampled
/// requests (a live trace context) additionally pin a histogram
/// exemplar, joining the latency bucket back to the offending trace.
fn record_request(
    metrics: &Option<Metrics>,
    method: &str,
    resp: &Response,
    elapsed: Duration,
    ctx: Option<pcsi_trace::TraceContext>,
) {
    if let Some(m) = metrics {
        let status = resp.status.to_string();
        m.counter("rest.requests", &[("method", method), ("status", &status)])
            .incr();
        let hist = m.histogram("rest.request_ns", &[("method", method)]);
        hist.record_duration(elapsed);
        if let Some(ctx) = ctx {
            let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
            hist.exemplar(ns, ctx.trace.0);
        }
    }
}

pub(crate) fn error_json(code: &str, message: &str) -> Vec<u8> {
    json::encode(&Value::object([
        ("error", Value::from(code)),
        ("message", Value::from(message)),
    ]))
    .into_bytes()
}

/// Errors surfaced to REST clients.
#[derive(Debug, Clone, PartialEq)]
pub enum RestError {
    /// Transport failure.
    Net(String),
    /// Non-2xx response.
    Http {
        /// Status code.
        status: u16,
        /// Response body.
        body: String,
    },
}

impl std::fmt::Display for RestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestError::Net(m) => write!(f, "network error: {m}"),
            RestError::Http { status, body } => write!(f, "HTTP {status}: {body}"),
        }
    }
}

impl std::error::Error for RestError {}

/// A REST client with credentials.
pub struct RestClient {
    gateway: RestGateway,
    from: NodeId,
    creds: Credentials,
    epoch_s: RefCell<u64>,
}

impl RestClient {
    async fn send(&self, mut request: Request) -> Result<Response, RestError> {
        let h = self.gateway.inner.fabric.handle();
        let mut span = match self.gateway.inner.tracer.borrow().as_ref() {
            Some(t) => t.root("rest.request"),
            None => SpanHandle::disabled(),
        };
        span.attr_with("target", || {
            pcsi_trace::AttrValue::Text(request.target.clone())
        });
        let now_s = h.now().as_secs_f64() as u64 + 1_700_000_000;
        *self.epoch_s.borrow_mut() = now_s;
        request.headers.insert("host", "api.sim-west-1.pcsi.cloud");
        let sign_span = span.span("rest.sign");
        sign_request(&mut request, &self.creds, &scope(), now_s);
        sign_span.finish();
        // Client-side marshal/framing cost is charged to the client's own
        // machine time (not billed).
        let marshal_span = span.span("rest.marshal");
        h.sleep(marshal_cpu(request.body.len()) + HTTP_CPU / 2)
            .await;
        let wire = Bytes::from(request.encode());
        marshal_span.finish();
        let transport_span = span.span("rest.transport");
        let raw = self
            .gateway
            .inner
            .fabric
            .call_traced(
                self.from,
                self.gateway.inner.lb_node,
                "rest-lb",
                Transport::Tcp,
                wire,
                transport_span.ctx(),
            )
            .await
            .map_err(|e| RestError::Net(e.to_string()))?;
        transport_span.finish();
        let response =
            Response::decode(&raw).map_err(|e| RestError::Net(format!("bad response: {e}")))?;
        span.attr("status", u64::from(response.status));
        span.finish();
        if response.is_success() {
            Ok(response)
        } else {
            Err(RestError::Http {
                status: response.status,
                body: String::from_utf8_lossy(&response.body).into_owned(),
            })
        }
    }

    /// `PUT /kv/{table}/{key}` with a JSON-wrapped value.
    pub async fn kv_put(&self, table: &str, key: &str, value: &[u8]) -> Result<(), RestError> {
        let body = json::encode(&Value::object([(
            "value",
            Value::Str(json::base64_encode(value)),
        )]));
        let req =
            Request::new(Method::Put, format!("/kv/{table}/{key}")).with_body(body.into_bytes());
        self.send(req).await.map(|_| ())
    }

    /// `GET /kv/{table}/{key}`, unwrapping the JSON item.
    pub async fn kv_get(&self, table: &str, key: &str) -> Result<Vec<u8>, RestError> {
        let req = Request::new(Method::Get, format!("/kv/{table}/{key}"));
        let resp = self.send(req).await?;
        let text = String::from_utf8_lossy(&resp.body).into_owned();
        let item =
            json::decode(&text).map_err(|e| RestError::Net(format!("bad item JSON: {e}")))?;
        item.get("value")
            .and_then(Value::as_str)
            .and_then(json::base64_decode)
            .ok_or_else(|| RestError::Net("item missing value".into()))
    }

    /// `PUT /objects/{bucket}/{key}` with raw bytes.
    pub async fn object_put(&self, bucket: &str, key: &str, data: &[u8]) -> Result<(), RestError> {
        let req =
            Request::new(Method::Put, format!("/objects/{bucket}/{key}")).with_body(data.to_vec());
        self.send(req).await.map(|_| ())
    }

    /// `GET /objects/{bucket}/{key}`.
    pub async fn object_get(&self, bucket: &str, key: &str) -> Result<Vec<u8>, RestError> {
        let req = Request::new(Method::Get, format!("/objects/{bucket}/{key}"));
        Ok(self.send(req).await?.body.to_vec())
    }

    /// `DELETE /kv/{table}/{key}`.
    pub async fn kv_delete(&self, table: &str, key: &str) -> Result<(), RestError> {
        let req = Request::new(Method::Delete, format!("/kv/{table}/{key}"));
        self.send(req).await.map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcsi_net::{LatencyModel, NetworkGeneration, Topology};
    use pcsi_sim::Sim;
    use pcsi_store::{MediaTier, StoreConfig};

    fn deploy(sim: &Sim) -> (RestGateway, Billing) {
        let fabric = Fabric::new(
            sim.handle(),
            Topology::uniform(3, 3),
            LatencyModel::deterministic(NetworkGeneration::Dc2021),
        );
        let store = ReplicatedStore::launch(
            fabric.clone(),
            fabric.topology().node_ids(),
            StoreConfig {
                n_replicas: 3,
                tier: MediaTier::Nvme,
                anti_entropy: None,
                ..StoreConfig::default()
            },
        );
        let billing = Billing::new();
        let mut keys = HashMap::new();
        keys.insert(
            "AK1".to_owned(),
            Credentials::new("AK1", b"secret1".to_vec()),
        );
        let gw = RestGateway::deploy(fabric, store, billing.clone(), NodeId(1), NodeId(4), keys);
        (gw, billing)
    }

    #[test]
    fn kv_put_get_roundtrip() {
        let mut sim = Sim::new(11);
        let (gw, billing) = deploy(&sim);
        let got = sim.block_on(async move {
            let c = gw.client(NodeId(0), Credentials::new("AK1", b"secret1".to_vec()));
            c.kv_put("users", "alice", b"profile-data").await.unwrap();
            c.kv_get("users", "alice").await.unwrap()
        });
        assert_eq!(got, b"profile-data");
        assert_eq!(billing.request_count("AK1"), 2);
        assert!(billing.invoice("AK1").compute > 0.0);
    }

    #[test]
    fn object_api_roundtrip_and_delete() {
        let mut sim = Sim::new(11);
        let (gw, _) = deploy(&sim);
        sim.block_on(async move {
            let c = gw.client(NodeId(0), Credentials::new("AK1", b"secret1".to_vec()));
            let blob: Vec<u8> = (0..=255).collect();
            c.object_put("bkt", "blob", &blob).await.unwrap();
            assert_eq!(c.object_get("bkt", "blob").await.unwrap(), blob);
            c.kv_put("t", "k", b"v").await.unwrap();
            c.kv_delete("t", "k").await.unwrap();
            let err = c.kv_get("t", "k").await.unwrap_err();
            assert!(matches!(err, RestError::Http { status: 404, .. }), "{err}");
        });
    }

    #[test]
    fn wrong_credentials_rejected() {
        let mut sim = Sim::new(11);
        let (gw, _) = deploy(&sim);
        let err = sim.block_on(async move {
            let c = gw.client(NodeId(0), Credentials::new("AK1", b"WRONG".to_vec()));
            c.kv_put("t", "k", b"v").await.unwrap_err()
        });
        assert!(matches!(err, RestError::Http { status: 403, .. }), "{err}");
    }

    #[test]
    fn unknown_key_id_rejected() {
        let mut sim = Sim::new(11);
        let (gw, _) = deploy(&sim);
        let err = sim.block_on(async move {
            let c = gw.client(NodeId(0), Credentials::new("GHOST", b"x".to_vec()));
            c.kv_get("t", "k").await.unwrap_err()
        });
        assert!(matches!(err, RestError::Http { status: 403, .. }));
    }

    #[test]
    fn missing_key_is_404() {
        let mut sim = Sim::new(11);
        let (gw, _) = deploy(&sim);
        let err = sim.block_on(async move {
            let c = gw.client(NodeId(0), Credentials::new("AK1", b"secret1".to_vec()));
            c.kv_get("none", "nothing").await.unwrap_err()
        });
        assert!(matches!(err, RestError::Http { status: 404, .. }));
    }

    #[test]
    fn rest_fetch_latency_exceeds_network_floor() {
        // E2's shape precondition: the REST path costs several times the
        // raw network RTT because of protocol CPU and extra hops.
        let mut sim = Sim::new(11);
        let (gw, _) = deploy(&sim);
        let h = sim.handle();
        let elapsed = sim.block_on({
            let h = h.clone();
            async move {
                let c = gw.client(NodeId(0), Credentials::new("AK1", b"secret1".to_vec()));
                c.kv_put("t", "k", &vec![7u8; 1024]).await.unwrap();
                let t0 = h.now();
                c.kv_get("t", "k").await.unwrap();
                h.now() - t0
            }
        });
        // One 2021-network RTT is 200 us; the full REST path should cost
        // well over 2x that.
        assert!(
            elapsed > Duration::from_micros(500),
            "REST GET took only {elapsed:?}"
        );
    }

    #[test]
    fn malformed_kv_items_are_rejected_and_store_nothing() {
        let mut sim = Sim::new(11);
        let (gw, _) = deploy(&sim);
        sim.block_on(async move {
            let c = gw.client(NodeId(0), Credentials::new("AK1", b"secret1".to_vec()));
            c.kv_put("t", "k", b"original").await.unwrap();
            for body in [
                r#"{"other":"b3JpZ2luYWw"}"#,
                r#"{"value":42}"#,
                r#"{"value":"not base64!"}"#,
            ] {
                let req = Request::new(Method::Put, "/kv/t/k").with_body(body.as_bytes().to_vec());
                match c.send(req).await {
                    Err(RestError::Http {
                        status: 400,
                        body: err,
                    }) => {
                        assert!(err.contains("BadJson"), "{body}: {err}")
                    }
                    other => panic!("{body}: expected 400 BadJson, got {other:?}"),
                }
                assert_eq!(c.kv_get("t", "k").await.unwrap(), b"original", "{body}");
            }
        });
    }

    #[test]
    fn path_ids_are_stable_and_distinct() {
        let a = path_object_id("/kv/t/a");
        let b = path_object_id("/kv/t/b");
        assert_eq!(a, path_object_id("/kv/t/a"));
        assert_ne!(a, b);
        // REST realm ids have the top bit set (no kernel collision).
        assert_eq!(a.as_u128() >> 127, 1);
    }
}
