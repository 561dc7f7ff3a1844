//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <kv-cached|kv-linearizable|fn-pipeline|rest-kv> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats rounds of the workload for `--seconds` and prints
//! the end-to-end metrics; `--trace 1` runs the traced analysis and
//! prints the per-layer metrics. Either way every output is checked, and
//! the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Any failed check
//! exits with code 1. Metric definitions: `perfbench/METRICS.md`.

mod host;
mod layers;
mod spec;
mod stats;
mod world;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::rc::Rc;
use std::time::{Duration, Instant};

use spec::Spec;
use stats::{median, percentile};
use world::Mode;

#[global_allocator]
static GLOBAL: host::Counting = host::Counting;

/// Rounds a timed run makes at least, so every run repeats the round
/// and proves its virtual-time results identical.
const MIN_ROUNDS: usize = 3;

/// The second seed every run also checks: `seed ^ HELD_OUT`.
const HELD_OUT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Bisection steps of the capacity ladder after its first miss: the
/// result is within 1/2^3 of the octave the capacity lies in.
const LADDER_REFINE: u32 = 3;

struct Args {
    spec: Spec,
    /// Set in a child process: the one job it runs.
    job: Option<Job>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut job) = (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? == 1),
            "--job" => {
                job = Some(match value.strip_prefix("rung:") {
                    Some(rate) => {
                        Job::Rung(rate.parse().map_err(|_| format!("bad rung rate {rate}"))?)
                    }
                    None if value == "round" => Job::Round,
                    None => return Err(format!("unknown job {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        spec: Spec::by_name(&workload).ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: seed.ok_or("--seed is required")?,
        job,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// Each round runs in a child process of its own: a finished simulation
/// keeps its never-ending background tasks (anti-entropy, the SLO
/// ticker) alive through reference cycles, so rounds in one process
/// would pile up memory, and `peak_rss_mib` would grow with the number
/// of rounds a machine fits into `--seconds`.
#[derive(Debug, Clone, Copy)]
enum Job {
    /// One measured round at the nominal rate.
    Round,
    /// One capacity-ladder rung at the given rate.
    Rung(f64),
}

/// What a child reports about its round.
#[derive(Debug, Default)]
struct Child {
    setup_s: f64,
    window_s: f64,
    /// CPU seconds the reference work interleaved with the window took.
    reference_s: f64,
    attempted: u64,
    failed: u64,
    /// Hash of every virtual-time result, to compare repeats.
    fingerprint: u64,
    mean_us: f64,
    /// Percentiles, NaN when too few samples lie beyond them.
    p99_us: f64,
    p999_us: f64,
    backlog_growing: bool,
    rss_mib: f64,
    errors: Vec<String>,
}

fn run_child(spec: &Spec, seed: u64, job: Job) -> Child {
    let ops = Rc::new(match job {
        Job::Round => spec::round_ops(spec, seed),
        Job::Rung(rate) => spec::rung_ops(spec, seed, rate),
    });
    let r = world::run(spec, &ops, Mode::MEASURED);
    let sorted = r.sorted_ok();
    let pct = |q: f64| percentile(&sorted, q).map_or(f64::NAN, |ns| ns as f64 / 1e3);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for v in r.latency_ns.iter().chain([&r.usd.to_bits()]) {
        hash = (hash ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut errors = r.errors.clone();
    let rss_mib = host::peak_rss_mib().unwrap_or_else(|e| {
        errors.push(e);
        f64::NAN
    });
    Child {
        setup_s: r.setup_s,
        window_s: r.window_s,
        reference_s: r.reference_s,
        attempted: r.attempted(),
        failed: r.failed(),
        fingerprint: hash,
        mean_us: sorted.iter().sum::<u64>() as f64 / sorted.len().max(1) as f64 / 1e3,
        p99_us: pct(0.99),
        p999_us: pct(0.999),
        backlog_growing: stats::backlog_growing(&r.in_flight),
        rss_mib,
        errors,
    }
}

fn print_child(c: &Child) {
    println!(
        "ROUND {:?} {:?} {:?} {} {} {} {:?} {:?} {:?} {} {:?}",
        c.setup_s,
        c.window_s,
        c.reference_s,
        c.attempted,
        c.failed,
        c.fingerprint,
        c.mean_us,
        c.p99_us,
        c.p999_us,
        u8::from(c.backlog_growing),
        c.rss_mib
    );
    for e in &c.errors {
        println!("ERROR {e}");
    }
}

fn parse_child(out: &str) -> Result<Child, String> {
    let mut c = Child::default();
    let mut found = false;
    for line in out.lines() {
        if let Some(e) = line.strip_prefix("ERROR ") {
            c.errors.push(e.to_owned());
        } else if let Some(rest) = line.strip_prefix("ROUND ") {
            let f: Vec<&str> = rest.split(' ').collect();
            if f.len() != 11 {
                return Err(format!("malformed round line: {line}"));
            }
            let num = |i: usize| {
                f[i].parse::<f64>()
                    .map_err(|_| format!("bad field {i} in: {line}"))
            };
            let int = |i: usize| {
                f[i].parse::<u64>()
                    .map_err(|_| format!("bad field {i} in: {line}"))
            };
            c.setup_s = num(0)?;
            c.window_s = num(1)?;
            c.reference_s = num(2)?;
            c.attempted = int(3)?;
            c.failed = int(4)?;
            c.fingerprint = int(5)?;
            c.mean_us = num(6)?;
            c.p99_us = num(7)?;
            c.p999_us = num(8)?;
            c.backlog_growing = int(9)? == 1;
            c.rss_mib = num(10)?;
            found = true;
        }
    }
    found
        .then_some(c)
        .ok_or_else(|| "a round printed no result".to_owned())
}

/// Runs `job` in a child process and waits for it.
fn spawn(spec: &Spec, seed: u64, job: Job) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let job_arg = match job {
        Job::Round => "round".to_owned(),
        Job::Rung(rate) => format!("rung:{rate}"),
    };
    let out = std::process::Command::new(exe)
        .args([
            "--workload",
            spec.name,
            "--seed",
            &seed.to_string(),
            "--job",
            &job_arg,
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run a round: {e}"))?;
    let mut child = parse_child(&String::from_utf8_lossy(&out.stdout))?;
    if !out.status.success() && child.errors.is_empty() {
        child
            .errors
            .push(format!("a round exited with {}", out.status));
    }
    Ok(child)
}

/// The end-to-end metrics of rounds of one seed: virtual time from the
/// first round (the others are checked identical to it), host figures
/// over all of them. Errors when a percentile has too few samples
/// beyond it to be reported.
fn end_to_end(rounds: &[Child]) -> Result<Metrics, String> {
    let first = &rounds[0];
    let mut m = Metrics::new();
    for (name, v) in [("op_p99_us", first.p99_us), ("op_p999_us", first.p999_us)] {
        if v.is_nan() {
            return Err(format!(
                "{name} has fewer than {} samples beyond it",
                stats::MIN_BEYOND
            ));
        }
        m.insert(name, (v, "us"));
    }
    m.insert("op_mean_us", (first.mean_us, "us"));
    // Host times are in reference seconds (see `host::Reference`): each
    // round is scaled by the reference work run inside its own window.
    let scale = |c: &Child| host::REFERENCE_S / c.reference_s;
    let setups: Vec<f64> = rounds.iter().map(|c| c.setup_s * scale(c)).collect();
    m.insert("setup_s", (median(&setups), "s"));
    // All rounds' ops over all their window time: averages the host's
    // drift out better than a median of per-round rates does.
    let ops: u64 = rounds.iter().map(|c| c.attempted).sum();
    let window_s: f64 = rounds.iter().map(|c| c.window_s * scale(c)).sum();
    m.insert("host_ops_per_s", (ops as f64 / window_s, "1/s"));
    let rss: Vec<f64> = rounds.iter().map(|c| c.rss_mib).collect();
    m.insert("peak_rss_mib", (median(&rss), "MiB"));
    Ok(m)
}

/// The capacity ladder: short steady runs at `nominal · 2^k` until the
/// first rung misses the p99 limit, fails an op or grows a backlog, then
/// a bisection below that rung. `refine = 0` and `steps = 1` runs the
/// nominal rung alone.
fn capacity(
    spec: &Spec,
    seed: u64,
    steps: u32,
    refine: u32,
    errors: &mut Vec<String>,
) -> Option<f64> {
    let limit = spec.slo.as_nanos() as u64;
    stats::capacity(
        spec.nominal_rps(),
        steps,
        refine,
        limit,
        |rate| match spawn(spec, seed, Job::Rung(rate)) {
            Ok(c) => {
                // Overload may fail ops, but must never return a wrong value.
                errors.extend(
                    c.errors
                        .iter()
                        .map(|e| format!("ladder at {rate} rps: {e}")),
                );
                stats::Rung {
                    p99_ns: (!c.p99_us.is_nan()).then_some((c.p99_us * 1e3) as u64),
                    failed: c.failed,
                    backlog_growing: c.backlog_growing,
                }
            }
            Err(e) => {
                errors.push(format!("ladder at {rate} rps: {e}"));
                stats::Rung {
                    p99_ns: None,
                    failed: 0,
                    backlog_growing: false,
                }
            }
        },
    )
}

struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

fn timed(args: &Args) -> Outcome {
    let spec = &args.spec;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut rounds: Vec<Child> = Vec::new();
    let mut errors = Vec::new();
    while rounds.len() < MIN_ROUNDS || Instant::now() < deadline {
        match spawn(spec, args.seed, Job::Round) {
            Ok(mut c) => {
                errors.append(&mut c.errors);
                if rounds
                    .first()
                    .is_some_and(|f| f.fingerprint != c.fingerprint)
                {
                    errors.push(format!(
                        "round {} of seed {} differs in virtual time from round 0",
                        rounds.len(),
                        args.seed
                    ));
                }
                rounds.push(c);
            }
            Err(e) => {
                errors.push(e);
                break;
            }
        }
    }
    if rounds.is_empty() {
        return Outcome {
            metrics: Metrics::new(),
            attempted: 0,
            failed: 0,
            errors,
        };
    }
    let metrics = end_to_end(&rounds).unwrap_or_else(|e| {
        errors.push(e);
        Metrics::new()
    });

    // The held-out seed: every check must pass, and one round of it must
    // report exactly the same metrics.
    let held = args.seed ^ HELD_OUT;
    match spawn(spec, held, Job::Round) {
        Ok(h) => {
            errors.extend(
                h.errors
                    .iter()
                    .map(|e| format!("held-out seed {held}: {e}")),
            );
            match end_to_end(std::slice::from_ref(&h)) {
                Ok(hm) if hm.keys().eq(metrics.keys()) => {}
                Ok(_) => errors.push(format!(
                    "held-out seed {held} reports another set of metrics"
                )),
                Err(e) => errors.push(format!("held-out seed {held}: {e}")),
            }
        }
        Err(e) => errors.push(format!("held-out seed {held}: {e}")),
    }
    eprintln!(
        "{}: {} rounds of {} ops, seed {} (held-out seed {held})",
        spec.name,
        rounds.len(),
        rounds[0].attempted,
        args.seed
    );
    Outcome {
        metrics,
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
        errors,
    }
}

fn traced(args: &Args) -> Outcome {
    let spec = &args.spec;
    let ops = Rc::new(spec::round_ops(spec, args.seed));
    let t = layers::run(spec, &ops, args.seconds as f64);
    let mut errors = t.errors;
    let mut metrics = t.metrics;
    match capacity(spec, args.seed, spec.rung_steps, LADDER_REFINE, &mut errors) {
        Some(c) => {
            metrics.insert("client.capacity_rps", (c, "1/s"));
        }
        None => errors.push(format!(
            "{} misses its p99 limit at the nominal rate",
            spec.name
        )),
    }
    // The held-out seed: a round with every check, and the nominal rung
    // of the ladder, which must pass for capacity to be reportable.
    let held = args.seed ^ HELD_OUT;
    match spawn(spec, held, Job::Round) {
        Ok(h) => errors.extend(
            h.errors
                .iter()
                .map(|e| format!("held-out seed {held}: {e}")),
        ),
        Err(e) => errors.push(format!("held-out seed {held}: {e}")),
    }
    if capacity(spec, held, 1, 0, &mut errors).is_none() {
        errors.push(format!(
            "held-out seed {held} misses its p99 limit at the nominal rate"
        ));
    }
    if let Ok(rss) = host::peak_rss_mib() {
        eprintln!(
            "{}: traced run, seed {}, peak RSS {rss:.1} MiB",
            args.spec.name, args.seed
        );
    }
    if let Err(e) = write_spans(&args.spec, args.seed, &t.outer) {
        errors.push(e);
    }
    Outcome {
        metrics,
        attempted: t.attempted,
        failed: t.failed,
        errors,
    }
}

/// Writes the traced round's outer spans, kept in memory until now, to
/// `perfbench/out/spans-<workload>-<seed>.tsv`.
fn write_spans(spec: &Spec, seed: u64, spans: &[world::OuterSpan]) -> Result<(), String> {
    let dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut text = String::from("id\tparent\tname\tstart_ns\tend_ns\thost_ns\n");
    for s in spans {
        let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
        let _ = writeln!(
            text,
            "{}\t{parent}\t{}\t{}\t{}\t{}",
            s.id,
            s.name,
            s.start.as_nanos(),
            s.end.as_nanos(),
            s.host_ns
        );
    }
    let path = dir.join(format!("spans-{}-{seed}.tsv", spec.name));
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn json_line(o: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.errors.is_empty(),
        o.attempted,
        o.failed
    );
    for (i, (name, (value, unit))) in o.metrics.iter().enumerate() {
        // JSON has no NaN; a non-finite value already failed the run.
        let v = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            s,
            "{}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}",
            if i > 0 { ", " } else { "" }
        );
    }
    s.push_str("}}");
    s
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(job) = args.job {
        let c = run_child(&args.spec, args.seed, job);
        print_child(&c);
        std::process::exit(i32::from(!c.errors.is_empty()));
    }
    let mut outcome = if args.trace {
        traced(&args)
    } else {
        timed(&args)
    };
    for (name, (value, _)) in &outcome.metrics {
        if !value.is_finite() {
            outcome.errors.push(format!("{name} is {value}"));
        }
    }
    let mut out = std::io::stdout().lock();
    let _ = writeln!(
        out,
        "workload {} seed {} trace {}",
        args.spec.name,
        args.seed,
        u8::from(args.trace)
    );
    for (name, (value, unit)) in &outcome.metrics {
        let _ = writeln!(out, "  {name:<32} {value:>16.6} {unit}");
    }
    for e in &outcome.errors {
        let _ = writeln!(out, "CHECK FAILED: {e}");
    }
    let _ = writeln!(out, "{}", json_line(&outcome));
    let _ = out.flush();
    if !outcome.errors.is_empty() {
        std::process::exit(1);
    }
}
