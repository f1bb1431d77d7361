//! `serve`: the in-process HTTP service (`em-serve`, default options)
//! under an open-loop rate ladder. One server with a byte-budgeted store
//! is warmed at the reference rate, then every ladder step runs in
//! ascending order. At most `nproc` client threads, one keep-alive
//! connection each, send requests on a fixed schedule; a request waits
//! for a free connection if all are busy, and its latency is timed from
//! when it was due, so a stall shows on every request behind it. Two
//! predicts per explain; each request carries several pairs drawn with
//! skewed popularity from the serving context's test split, and the store
//! budget keeps evicting, so some but not all explains repeat.
//!
//! End-to-end: explain latency at the reference rate (`p50_ms`,
//! `tail_ms`) and the rate the service completes at the top step, which
//! offers more than the connections can carry (`per_s`, the saturation
//! throughput). The latency-limited rate is the per-layer
//! `serve.max_rps`: near the knee it swings with the host's scheduling
//! noise too much to gate on.

use crate::common::derive_seed;
use crate::config::{num, nums};
use crate::report::{Fnv, Report};
use crate::stats::{median, summarize};
use em_data::EntityPair;
use em_eval::{EvalSession, ExperimentConfig, ExplainerKind, StoreBudget};
use em_rngs::rngs::StdRng;
use em_rngs::seq::SliceRandom;
use em_rngs::{Rng, SeedableRng};
use em_serve::{
    explanation_json, num_json, parse_json, write_request, Connection, Json, Limits, ServeOptions,
    ServeState, Server,
};
use em_synth::Family;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The serving dataset family.
const FAMILY: Family = Family::Restaurants;

/// Every `EXPLAIN_EVERY`-th request is an explain, the rest predicts.
const EXPLAIN_EVERY: usize = 3;

/// Responses per step and kind compared with direct session calls.
const VERIFY_PER_STEP: usize = 6;

/// Pairs in every request body: enough that each batching window has
/// real work.
const PAIRS_PER_REQUEST: usize = 4;

/// Distinct request bodies in the schedule (cycled).
const SCHEDULE_REQUESTS: usize = 4096;

/// Popularity skew over the test split: weight 1/(rank+1)^s.
const ZIPF_EXPONENT: f64 = 1.0;

/// Store budget: small enough that eviction keeps some explains cold,
/// large enough that most explain requests hit, so the median request
/// is a hit and the tail a miss on every seed.
const STORE_BUDGET_BYTES: usize = 3 << 20;

/// Shares of the run spent warming the store and at the reference rate;
/// the other ladder steps split the rest.
const WARMUP_SHARE: f64 = 0.05;
const REFERENCE_SHARE: f64 = 0.6;

/// A step whose generator runs later than this over its last quarter
/// has a growing backlog.
const BACKLOG_LAG_MS: f64 = 20.0;

/// The loaded service state and the request bodies of the workload.
pub struct Setup {
    pub state: Arc<ServeState>,
    /// Request pair lists, in schedule order (cycled).
    requests: Vec<Vec<EntityPair>>,
}

/// One request's outcome.
struct Sample {
    index: usize,
    explain: bool,
    /// From due time to the full response, ms.
    latency_ms: f64,
    /// From due time to the send, ms (generator lateness).
    lag_ms: f64,
    body: Result<String, String>,
}

/// What one ladder step measured.
pub struct Step {
    pub rate: f64,
    explain_ms: Vec<f64>,
    predict_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    failed: usize,
    /// Median generator lag over the last quarter of the step.
    late_lag_ms: f64,
    /// Requests answered per second, from the first due time to the
    /// last response.
    pub achieved_rps: f64,
    /// Hits (coalesced lookups included) ÷ lookups of both session
    /// stores over the step, from `GET /stats`.
    pub shared_share: f64,
    /// Sampled requests and their bodies, for verification.
    samples: Vec<Sample>,
}

fn body_of(pairs: &[EntityPair]) -> String {
    let side = |r: &em_data::Record| {
        let values: Vec<String> = r
            .values()
            .iter()
            .map(|v| format!("\"{}\"", em_serve::escape_json(v)))
            .collect();
        format!("[{}]", values.join(","))
    };
    let items: Vec<String> = pairs
        .iter()
        .map(|p| {
            format!(
                "{{\"left\":{},\"right\":{}}}",
                side(p.left()),
                side(p.right())
            )
        })
        .collect();
    format!("{{\"pairs\":[{}]}}", items.join(","))
}

/// Load the serving state (context, embeddings, trained matcher) and
/// draw the request schedule's pairs from `seed`.
pub fn setup(seed: u64) -> Result<Setup, String> {
    let budget = StoreBudget::total(STORE_BUDGET_BYTES);
    // One query thread per explanation: the dispatcher already fans a
    // batch's explanations out over the pool.
    let config = ExperimentConfig {
        threads: 1,
        ..ExperimentConfig::default()
    };
    let state = ServeState::load_bounded(FAMILY, config, budget)
        .map_err(|e| format!("serve state: {e}"))?;
    let mut pool: Vec<EntityPair> = state
        .ctx
        .split
        .test
        .examples()
        .iter()
        .map(|ex| ex.pair.clone())
        .collect();
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0x5e7e));
    // Popularity follows list position after a seeded shuffle, so a few
    // pairs are hot and the long tail is cold.
    pool.shuffle(&mut rng);
    let weights: Vec<f64> = (0..pool.len())
        .map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_EXPONENT))
        .collect();
    let total: f64 = weights.iter().sum();
    let requests = (0..SCHEDULE_REQUESTS)
        .map(|_| {
            (0..PAIRS_PER_REQUEST)
                .map(|_| {
                    let mut x = rng.gen_range(0.0..total);
                    let mut pick = pool.len() - 1;
                    for (i, w) in weights.iter().enumerate() {
                        if x < *w {
                            pick = i;
                            break;
                        }
                        x -= w;
                    }
                    pool[pick].clone()
                })
                .collect()
        })
        .collect();
    Ok(Setup {
        state: Arc::new(state),
        requests,
    })
}

fn connect(addr: SocketAddr) -> Result<Connection<TcpStream>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    Ok(Connection::new(stream))
}

fn call(
    conn: &mut Connection<TcpStream>,
    method: &str,
    path: &str,
    body: &str,
) -> Result<String, String> {
    write_request(conn.stream_mut(), method, path, body.as_bytes()).map_err(|e| e.to_string())?;
    let resp = conn
        .read_response(&Limits::default())
        .map_err(|e| format!("read: {e:?}"))?;
    let text = String::from_utf8(resp.body).map_err(|_| "non-UTF-8 body".to_string())?;
    if resp.status != 200 {
        return Err(format!("status {}: {text}", resp.status));
    }
    Ok(text)
}

/// Cumulative (hits, lookups) of both session stores, read from the
/// server's own `GET /stats` (coalesced lookups count as hits).
fn store_counts(addr: SocketAddr) -> Result<(f64, f64), String> {
    let stats = connect(addr).and_then(|mut c| call(&mut c, "GET", "/stats", ""))?;
    let doc = parse_json(&stats).map_err(|e| format!("/stats: {e}"))?;
    let (mut hits, mut lookups) = (0.0, 0.0);
    for store in ["explanations", "perturbation_sets"] {
        let get = |k: &str| {
            doc.get(store)
                .and_then(|s| s.get(k))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("/stats lacks {store}.{k}"))
        };
        hits += get("hits")?;
        lookups += get("hits")? + get("misses")?;
    }
    Ok((hits, lookups))
}

/// Send schedule requests `first..first + rate·seconds` to `addr` at
/// `rate` per second over at most `nproc` keep-alive connections.
fn step(
    setup: &Setup,
    addr: SocketAddr,
    first: usize,
    rate: f64,
    seconds: f64,
) -> Result<Step, String> {
    let (hits0, lookups0) = store_counts(addr)?;
    let total = ((rate * seconds).round() as usize).max(1);
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Sample>> = Mutex::new(Vec::with_capacity(total));
    let t0 = Instant::now() + Duration::from_millis(20);
    let connect_errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..em_pool::default_threads() {
            scope.spawn(|| {
                let mut conn = match connect(addr) {
                    Ok(c) => c,
                    Err(e) => {
                        connect_errors.lock().expect("error list").push(e);
                        return;
                    }
                };
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= total {
                        break;
                    }
                    let due = t0 + Duration::from_secs_f64(i as f64 / rate);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    let index = first + i;
                    let explain = index % EXPLAIN_EVERY == EXPLAIN_EVERY - 1;
                    let body = body_of(&setup.requests[index % setup.requests.len()]);
                    let path = if explain { "/explain" } else { "/predict" };
                    let result = call(&mut conn, "POST", path, &body);
                    let done = Instant::now();
                    local.push(Sample {
                        index,
                        explain,
                        latency_ms: done.duration_since(due).as_secs_f64() * 1e3,
                        lag_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
                        body: result,
                    });
                }
                out.lock().expect("sample list").extend(local);
            });
        }
    });
    if let Some(e) = connect_errors.into_inner().expect("error list").first() {
        return Err(e.clone());
    }
    let achieved_rps = total as f64 / t0.elapsed().as_secs_f64();
    let (hits1, lookups1) = store_counts(addr)?;
    let mut samples = out.into_inner().expect("sample list");
    samples.sort_by_key(|s| s.index);

    let mut step = Step {
        rate,
        explain_ms: Vec::new(),
        predict_ms: Vec::new(),
        lag_ms: Vec::new(),
        failed: 0,
        late_lag_ms: 0.0,
        achieved_rps,
        shared_share: (hits1 - hits0) / (lookups1 - lookups0).max(1.0),
        samples: Vec::new(),
    };
    for s in &samples {
        step.lag_ms.push(s.lag_ms);
        if s.body.is_err() {
            step.failed += 1;
            continue;
        }
        if s.explain {
            step.explain_ms.push(s.latency_ms);
        } else {
            step.predict_ms.push(s.latency_ms);
        }
    }
    let late: Vec<f64> = samples[samples.len() * 3 / 4..]
        .iter()
        .map(|s| s.lag_ms)
        .collect();
    step.late_lag_ms = median(&late).unwrap_or(0.0);
    // Keep failures and an evenly spread sample of each kind to verify.
    let mut kept = [0usize; 2];
    let stride = (samples.len() / (2 * VERIFY_PER_STEP)).max(1);
    for s in samples {
        let k = s.explain as usize;
        if s.body.is_err() || (s.index % stride == 0 && kept[k] < VERIFY_PER_STEP) {
            kept[k] += s.body.is_ok() as usize;
            step.samples.push(s);
        }
    }
    Ok(step)
}

/// The response a direct session call gives for `pairs`: the same JSON
/// the server renders, built from `EvalSession` and the matcher.
fn direct_body(
    setup: &Setup,
    direct: &EvalSession,
    pairs: &[EntityPair],
    explain: bool,
) -> Result<String, String> {
    let state = &setup.state;
    let items: Result<Vec<String>, String> = if explain {
        pairs
            .iter()
            .map(|p| {
                let out = direct
                    .explain_for(state.matcher_kind, ExplainerKind::Crew, &state.ctx, p)
                    .map_err(|e| e.to_string())?;
                Ok(format!(
                    "{{\"explainer\":\"{}\",\"explanation\":{}}}",
                    out.kind.label(),
                    explanation_json(&out, state)
                ))
            })
            .collect()
    } else {
        Ok(state
            .matcher
            .predict_proba_batch(pairs)
            .into_iter()
            .map(|p| {
                format!(
                    "{{\"probability\":{},\"match\":{}}}",
                    num_json(p),
                    p >= state.threshold
                )
            })
            .collect())
    };
    Ok(format!("{{\"results\":[{}]}}", items?.join(",")))
}

/// Count every request of a step as a check, and compare the sampled
/// responses with direct session calls on the same pairs.
fn verify(setup: &Setup, direct: &EvalSession, step: &Step, digest: &mut Fnv, report: &mut Report) {
    let ok = (step.explain_ms.len() + step.predict_ms.len()) as u64;
    report.passed(ok);
    for s in &step.samples {
        let pairs = &setup.requests[s.index % setup.requests.len()];
        match &s.body {
            Err(e) => report.check(false, || {
                format!("serve r{} request {}: {e}", step.rate, s.index)
            }),
            Ok(body) => {
                let doc_ok = parse_json(body)
                    .ok()
                    .and_then(|d| d.get("results").and_then(Json::as_array).map(|a| a.len()))
                    == Some(pairs.len());
                let expected = direct_body(setup, direct, pairs, s.explain);
                let same = expected.as_deref() == Ok(body.as_str());
                report.check(doc_ok && same, || {
                    format!(
                        "serve r{} request {}: served response differs from the direct call",
                        step.rate, s.index
                    )
                });
                digest.bytes(body.as_bytes());
            }
        }
    }
}

/// Whether a step meets the latency limit with no failures and no
/// growing generator backlog.
fn passes(step: &Step, limit_ms: f64) -> bool {
    let tail = summarize(&step.explain_ms).map_or(f64::INFINITY, |s| s.tail);
    step.failed == 0 && tail <= limit_ms && step.late_lag_ms <= BACKLOG_LAG_MS
}

/// The highest rate meeting the limit, interpolated on the logarithm of
/// the explain tail between the last passing step and the next one.
/// When even the first step misses, that rate scaled by limit ÷ tail.
fn max_rps(steps: &[Step], limit_ms: f64) -> f64 {
    let tail = |s: &Step| summarize(&s.explain_ms).map_or(f64::INFINITY, |x| x.tail);
    let Some(last_ok) = steps.iter().rposition(|s| passes(s, limit_ms)) else {
        let first = &steps[0];
        return first.rate * (limit_ms / tail(first)).min(1.0);
    };
    let lo = &steps[last_ok];
    match steps.get(last_ok + 1) {
        None => lo.rate,
        Some(hi) => {
            let (t_lo, t_hi) = (tail(lo), tail(hi));
            let frac = if t_hi.is_finite() && t_hi > t_lo {
                ((limit_ms.ln() - t_lo.ln()) / (t_hi.ln() - t_lo.ln())).clamp(0.0, 1.0)
            } else {
                0.0
            };
            lo.rate + frac * (hi.rate - lo.rate)
        }
    }
}

/// Start one server, warm its stores at the reference rate (checked but
/// not timed), then run the ladder upward; the reference step runs
/// longest. Returns the warm-up step and the ladder steps.
pub fn ladder(setup: &Setup, seconds: f64) -> Result<(Step, Vec<Step>), String> {
    let rates = nums(&["serve", "ladder_rps"]);
    let reference = num(&["serve", "reference_rps"]);
    let warmup = seconds * WARMUP_SHARE;
    let ref_s = seconds * REFERENCE_SHARE;
    let other = (seconds - warmup - ref_s) / (rates.len() - 1) as f64;
    let mut server = Server::start(Arc::clone(&setup.state), ServeOptions::default())
        .map_err(|e| format!("server start: {e}"))?;
    let addr = server.addr();
    let mut first = 0usize;
    let mut run = |rate: f64, secs: f64| {
        let s = step(setup, addr, first, rate, secs);
        first += (rate * secs).round() as usize;
        s
    };
    let result = run(reference, warmup).and_then(|w| {
        let steps = rates
            .iter()
            .map(|&r| run(r, if r == reference { ref_s } else { other }))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((w, steps))
    });
    server.shutdown();
    result
}

/// Count every request as a check, compare the sampled responses with
/// direct session calls, and record the output digest.
pub fn verify_ladder(setup: &Setup, warmup: &Step, steps: &[Step], report: &mut Report) {
    let direct = EvalSession::new(setup.state.session.config().clone());
    let mut digest = Fnv::default();
    for s in std::iter::once(warmup).chain(steps) {
        verify(setup, &direct, s, &mut digest, report);
    }
    report.digests.insert("serve".into(), digest.hex());
}

/// Report the end-to-end metrics of a ladder.
pub fn report_ladder(steps: &[Step], report: &mut Report) {
    let reference = num(&["serve", "reference_rps"]);
    let limit = num(&["serve", "latency_limit_ms"]);
    let refstep = steps
        .iter()
        .find(|s| s.rate == reference)
        .expect("the ladder holds the reference rate");
    if let Some(s) = summarize(&refstep.explain_ms) {
        report.metric("p50_ms", s.p50, "ms", s.n);
        report.metric("tail_ms", s.tail, "ms", s.n);
        report.notes.push(format!(
            "serve: tail_ms is p{} of {} explain requests at {reference} req/s",
            s.tail_pct, s.n
        ));
    }
    // The top step offers more than nproc connections can carry, so its
    // achieved rate is the service's saturation throughput.
    let top = steps.last().expect("the ladder has steps");
    report.metric(
        "per_s",
        top.achieved_rps,
        "1/s",
        top.explain_ms.len() + top.predict_ms.len(),
    );
    for s in steps {
        let e = summarize(&s.explain_ms);
        let p = summarize(&s.predict_ms);
        report.notes.push(format!(
            "serve: {} req/s (achieved {:.1}): explain p50 {:.2} tail {:.2} ms (n={}), predict p50 {:.2} tail {:.2} ms (n={}), late lag {:.2} ms, shared {:.3}, failed {}, {}",
            s.rate,
            s.achieved_rps,
            e.map_or(f64::NAN, |x| x.p50),
            e.map_or(f64::NAN, |x| x.tail),
            s.explain_ms.len(),
            p.map_or(f64::NAN, |x| x.p50),
            p.map_or(f64::NAN, |x| x.tail),
            s.predict_ms.len(),
            s.late_lag_ms,
            s.shared_share,
            s.failed,
            if passes(s, limit) { "meets the limit" } else { "misses the limit" },
        ));
    }
}

/// The untraced workload. Returns `setup_s`.
pub fn measure(seed: u64, seconds: f64, report: &mut Report) -> Result<f64, String> {
    let (setup, setup_s) = crate::repeated_setup(|| setup(seed))?;
    let (warmup, steps) = ladder(&setup, seconds)?;
    verify_ladder(&setup, &warmup, &steps, report);
    report_ladder(&steps, report);
    Ok(setup_s)
}

/// The rates of the ladder, as they appear in per-layer metric names.
pub fn rate_label(rate: f64) -> String {
    format!("r{}", rate.round() as u64)
}

/// Per-layer metrics of a ladder: the explain and predict tails at every
/// step; at the reference rate the predict latencies, the generator
/// lateness, the store sharing and the served-over-direct predict cost.
pub fn trace_metrics(setup: &Setup, steps: &[Step], report: &mut Report) {
    for s in steps {
        let label = rate_label(s.rate);
        let e = summarize(&s.explain_ms);
        let p = summarize(&s.predict_ms);
        report.metric(
            &format!("serve.explain_tail_ms.{label}"),
            e.map_or(f64::NAN, |x| x.tail),
            "ms",
            s.explain_ms.len(),
        );
        report.metric(
            &format!("serve.predict_tail_ms.{label}"),
            p.map_or(f64::NAN, |x| x.tail),
            "ms",
            s.predict_ms.len(),
        );
    }
    let reference = num(&["serve", "reference_rps"]);
    let refstep = steps
        .iter()
        .find(|s| s.rate == reference)
        .expect("the ladder holds the reference rate");
    let p = summarize(&refstep.predict_ms);
    let served_p50 = p.map_or(f64::NAN, |x| x.p50);
    report.metric(
        "serve.predict_p50_ms",
        served_p50,
        "ms",
        refstep.predict_ms.len(),
    );
    report.metric(
        "serve.predict_tail_ms",
        p.map_or(f64::NAN, |x| x.tail),
        "ms",
        refstep.predict_ms.len(),
    );
    let lag = summarize(&refstep.lag_ms);
    report.metric(
        "serve.gen_lag_tail_ms",
        lag.map_or(f64::NAN, |x| x.tail),
        "ms",
        refstep.lag_ms.len(),
    );
    report.metric("serve.shared_share", refstep.shared_share, "share", 1);
    report.metric(
        "serve.max_rps",
        max_rps(steps, num(&["serve", "latency_limit_ms"])),
        "1/s",
        steps.len(),
    );
    // The same predict bodies, straight into the matcher.
    let n = refstep.predict_ms.len() + refstep.explain_ms.len() + refstep.failed;
    let direct: Vec<f64> = (0..n)
        .filter(|i| i % EXPLAIN_EVERY != EXPLAIN_EVERY - 1)
        .map(|i| {
            let pairs = &setup.requests[i % setup.requests.len()];
            let t = Instant::now();
            std::hint::black_box(setup.state.matcher.predict_proba_batch(pairs));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    report.metric(
        "serve.predict_overhead_ms",
        served_p50 - median(&direct).unwrap_or(f64::NAN),
        "ms",
        direct.len(),
    );
}

/// The headline latency of a ladder: explain p50 at the reference rate.
pub fn headline_ms(steps: &[Step]) -> f64 {
    let reference = num(&["serve", "reference_rps"]);
    steps
        .iter()
        .find(|s| s.rate == reference)
        .and_then(|s| median(&s.explain_ms))
        .unwrap_or(f64::NAN)
}
