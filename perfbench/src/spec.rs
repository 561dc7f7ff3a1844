//! The four workloads and the seeded op streams they replay.
//!
//! Every workload is open loop: arrivals are an inhomogeneous Poisson
//! process in virtual time, drawn from the workload seed alone, so the
//! same seed gives the same op stream on every layer the benchmark
//! replays it through.

use std::time::Duration;

use pcsi_cloud::workload::{RateShape, ZipfKeys};
use pcsi_sim::{DetRng, SimTime};

/// Which of the four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 95/5 read/write; reads hit IMMUTABLE objects the client cache holds.
    KvCached,
    /// 70/30 write/read on LINEARIZABLE MUTABLE objects (cache bypassed).
    KvLinearizable,
    /// Bursty function invocations whose results stream to a subscriber.
    FnPipeline,
    /// YCSB-A 50/50 through the signed REST gateway.
    RestKv,
}

/// Parameters of one workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    /// Offered load at the nominal rate.
    pub shape: RateShape,
    /// Virtual length of one measured round.
    pub window: Duration,
    /// Fixed p99 latency limit for `client.slo_attainment` and the ladder.
    pub slo: Duration,
    /// Objects reads target (and, where `write_keys == 0`, writes too).
    pub read_keys: u32,
    /// A separate set of objects writes target (`0`: writes share the
    /// read set).
    pub write_keys: u32,
    pub value_len: usize,
    /// Fraction of ops that write.
    pub write_frac: f64,
    /// Zipf skew of key popularity.
    pub theta: f64,
    /// Arrivals per capacity-ladder rung.
    pub rung_ops: usize,
    /// Rungs on the doubling ladder, nominal rate included.
    pub rung_steps: u32,
}

impl Spec {
    pub fn all() -> [Spec; 4] {
        [
            Spec::of(Kind::KvCached),
            Spec::of(Kind::KvLinearizable),
            Spec::of(Kind::FnPipeline),
            Spec::of(Kind::RestKv),
        ]
    }

    pub fn by_name(name: &str) -> Option<Spec> {
        Spec::all().into_iter().find(|s| s.name == name)
    }

    pub fn of(kind: Kind) -> Spec {
        match kind {
            Kind::KvCached => Spec {
                kind,
                name: "kv-cached",
                shape: RateShape::Steady { rps: 20_000.0 },
                window: Duration::from_secs(5),
                slo: Duration::from_millis(1),
                read_keys: 1_024,
                write_keys: 256,
                value_len: 4_096,
                write_frac: 0.05,
                theta: 0.99,
                rung_ops: 4_000,
                rung_steps: 8,
            },
            Kind::KvLinearizable => Spec {
                kind,
                name: "kv-linearizable",
                shape: RateShape::Steady { rps: 32_000.0 },
                window: Duration::from_millis(2_500),
                slo: Duration::from_millis(1),
                read_keys: 4_096,
                write_keys: 0,
                value_len: 1_024,
                write_frac: 0.70,
                theta: 0.99,
                rung_ops: 4_000,
                rung_steps: 8,
            },
            Kind::FnPipeline => Spec {
                kind,
                name: "fn-pipeline",
                shape: RateShape::OnOff {
                    burst_rps: 2_000.0,
                    idle_rps: 100.0,
                    period: Duration::from_secs(5),
                },
                window: Duration::from_secs(20),
                slo: Duration::from_millis(300),
                read_keys: 1_024,
                write_keys: 0,
                value_len: 4_096,
                write_frac: 0.0,
                theta: 0.99,
                rung_ops: 4_000,
                rung_steps: 8,
            },
            Kind::RestKv => Spec {
                kind,
                name: "rest-kv",
                shape: RateShape::Steady { rps: 4_000.0 },
                window: Duration::from_secs(5),
                slo: Duration::from_millis(2),
                read_keys: 1_024,
                write_keys: 0,
                value_len: 1_024,
                write_frac: 0.50,
                theta: 0.99,
                rung_ops: 4_000,
                // Above 16 × nominal (from about 224k rps) the gateway's GETs,
                // which read with eventual consistency, return values that an
                // acknowledged PUT had superseded, and the freshness check
                // fails the run. The ladder stops below that.
                rung_steps: 5,
            },
        }
    }

    /// The rate the capacity ladder starts from (the burst rate for
    /// on/off arrivals).
    pub fn nominal_rps(&self) -> f64 {
        self.shape.peak()
    }
}

/// One operation of the op stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Due time, in ns from the start of the measured window.
    pub due_ns: u64,
    /// Key index into the read set (reads) or write set (writes).
    pub key: u32,
    pub write: bool,
}

/// The nominal op stream of one round: `spec.shape` over `spec.window`.
pub fn round_ops(spec: &Spec, seed: u64) -> Vec<Op> {
    generate(spec, seed, spec.shape, |_, t| {
        t < spec.window.as_nanos() as u64
    })
}

/// The op stream of one capacity-ladder rung: `spec.rung_ops` steady
/// arrivals at `rps`.
pub fn rung_ops(spec: &Spec, seed: u64, rps: f64) -> Vec<Op> {
    generate(spec, seed, RateShape::Steady { rps }, |ops, _| {
        ops < spec.rung_ops
    })
}

fn generate(
    spec: &Spec,
    seed: u64,
    shape: RateShape,
    more: impl Fn(usize, u64) -> bool,
) -> Vec<Op> {
    let arrivals = DetRng::seeded(seed ^ 0xA5A5_0001);
    let mix = DetRng::seeded(seed ^ 0xA5A5_0002);
    let reads = ZipfKeys::new(
        DetRng::seeded(seed ^ 0xA5A5_0003),
        u64::from(spec.read_keys),
        spec.theta,
    );
    let writes = (spec.write_keys > 0).then(|| {
        ZipfKeys::new(
            DetRng::seeded(seed ^ 0xA5A5_0004),
            u64::from(spec.write_keys),
            spec.theta,
        )
    });
    let mut ops = Vec::new();
    let mut t = 0u64;
    loop {
        let rate = shape.rate_at(SimTime::from_nanos(t)).max(1e-9);
        t += (arrivals.exp(1.0 / rate) * 1e9) as u64;
        if !more(ops.len(), t) {
            break;
        }
        let write = mix.bool(spec.write_frac);
        let key = match (&writes, write) {
            (Some(w), true) => w.next_key(),
            _ => reads.next_key(),
        } as u32;
        ops.push(Op {
            due_ns: t,
            key,
            write,
        });
    }
    ops
}

/// The bytes of a value: key and writer index up front (so a read can
/// say which write it saw), a filler pattern after. `writer == INITIAL`
/// marks the value an object was created with.
pub fn value(key: u32, writer: u64, len: usize) -> Vec<u8> {
    let mut v = vec![(writer as u8) ^ (key as u8) ^ 0x5A; len.max(HEADER)];
    v[..4].copy_from_slice(&key.to_le_bytes());
    v[4..HEADER].copy_from_slice(&writer.to_le_bytes());
    v
}

/// The writer index of a created object's first value.
pub const INITIAL: u64 = u64::MAX;
const HEADER: usize = 12;

/// Decodes `(key, writer)` from a value, checking the filler too.
pub fn parse_value(bytes: &[u8], len: usize) -> Option<(u32, u64)> {
    if bytes.len() != len.max(HEADER) {
        return None;
    }
    let key = u32::from_le_bytes(bytes[..4].try_into().ok()?);
    let writer = u64::from_le_bytes(bytes[4..HEADER].try_into().ok()?);
    let fill = (writer as u8) ^ (key as u8) ^ 0x5A;
    bytes[HEADER..]
        .iter()
        .all(|&b| b == fill)
        .then_some((key, writer))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_ops_and_other_seed_differs() {
        let spec = Spec::of(Kind::KvLinearizable);
        let a = round_ops(&spec, 7);
        assert_eq!(a, round_ops(&spec, 7));
        assert_ne!(a, round_ops(&spec, 8));
        let expected = spec.window.as_secs_f64() * spec.nominal_rps();
        assert!(
            (a.len() as f64 - expected).abs() < expected * 0.05,
            "{}",
            a.len()
        );
        let writes = a.iter().filter(|o| o.write).count() as f64 / a.len() as f64;
        assert!((writes - 0.70).abs() < 0.02, "{writes}");
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
    }

    #[test]
    fn writes_and_reads_use_their_own_key_sets() {
        let spec = Spec::of(Kind::KvCached);
        let ops = round_ops(&spec, 3);
        assert!(ops
            .iter()
            .filter(|o| o.write)
            .all(|o| o.key < spec.write_keys));
        assert!(ops.iter().all(|o| o.key < spec.read_keys));
        assert_eq!(rung_ops(&spec, 3, 1e5).len(), spec.rung_ops);
    }

    #[test]
    fn values_round_trip_and_reject_corruption() {
        let v = value(17, 99, 64);
        assert_eq!(parse_value(&v, 64), Some((17, 99)));
        assert_eq!(parse_value(&value(3, INITIAL, 64), 64), Some((3, INITIAL)));
        let mut bad = v.clone();
        bad[40] ^= 1;
        assert_eq!(parse_value(&bad, 64), None);
        assert_eq!(parse_value(&v[..63], 64), None);
    }
}
