//! The `served` workload: multi-tenant serving over loopback. An
//! in-process `atgis_server::Server` serves a GeoJSON and a WKT
//! dataset; one pipelined connection (a sender and a receiver thread)
//! offers Interactive containment/aggregation tiles drawn Zipf-skewed
//! from a key space twice the default 256-entry aggregate cache, a few
//! percent Batch joins, and STATS polls at a fixed period. Open-loop
//! phases at fixed spacing measure two fixed rates (`low`, `high`) and
//! a rate ladder that finds the highest rate whose Interactive tail
//! stays under the latency limit; a closed loop with a fixed number of
//! requests in flight then gives the gated figures, which stay steady
//! where open-loop latencies on a small shared host do not.

use crate::common::{
    median, mib, ms, square, threads, timed_setup, Args, Fingerprint, Report, Rng, Summary,
    SETUP_REPEATS,
};
use crate::trace::{self, Tracer};
use atgis::{Dataset, Engine, ExecOptions, QueryResult, QueryScheduler};
use atgis_datagen::{write_geojson, write_wkt, OsmGenerator};
use atgis_formats::Format;
use atgis_server::protocol::{encode_stats_request, parse_response, MAX_RESPONSE_FRAME};
use atgis_server::{
    Client, MetricMask, Priority, QuerySpec, Response, Server, ServerHandle, StatsReport,
    NO_TIMEOUT,
};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Objects per served dataset.
const OBJECTS: usize = 3_000;
/// Distinct Interactive tile keys: twice the default cache capacity.
const KEYS: usize = 512;
/// Zipf exponent of tile popularity.
const ZIPF_S: f64 = 1.0;
/// Share of requests that are Batch joins.
const JOIN_SHARE: f64 = 0.02;
/// Distinct join thresholds per dataset.
const JOIN_THRESHOLDS: usize = 4;
/// STATS poll period.
const POLL: Duration = Duration::from_millis(250);
/// The two fixed offered rates, requests per second.
const LOW_QPS: f64 = 100.0;
const HIGH_QPS: f64 = 400.0;
/// The fixed rate ladder (Interactive traffic only) and its limit on
/// the Interactive wire tail.
const LADDER_QPS: [f64; 5] = [200.0, 400.0, 800.0, 1200.0, 1600.0];
const LIMIT_MS: f64 = 50.0;
/// Requests in flight in the closed-loop phase, and the keys drawn
/// for it (more than the phase can send).
const WINDOW: usize = 8;
const CLOSED_WINDOW: Duration = Duration::from_secs(1);
const CLOSED_KEYS: usize = 40_000;

/// One request the client can send: an Interactive tile key or a
/// Batch join.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Key {
    Tile(usize),
    Join(u64, usize),
}

struct Catalog {
    tiles: Vec<(u64, QuerySpec)>,
    joins: Vec<u64>,
    /// Cumulative Zipf weights over popularity ranks, and the rank →
    /// tile permutation.
    cdf: Vec<f64>,
    rank_to_tile: Vec<usize>,
}

impl Catalog {
    fn new(seed: u64) -> Catalog {
        let mut rng = Rng::new(seed, 6);
        let tiles = (0..KEYS)
            .map(|k| {
                let side = rng.range(0.02, 0.2);
                let region = square(&mut rng, side);
                let spec = if (k / 2) % 2 == 0 {
                    QuerySpec::Containment(region)
                } else {
                    QuerySpec::Aggregation {
                        region,
                        metrics: MetricMask::ALL,
                    }
                };
                ((k % 2) as u64, spec)
            })
            .collect();
        let joins = (0..JOIN_THRESHOLDS)
            .map(|_| (OBJECTS as f64 * rng.range(0.3, 0.7)) as u64)
            .collect();
        let mut total = 0.0;
        let cdf = (1..=KEYS)
            .map(|r| {
                total += 1.0 / (r as f64).powf(ZIPF_S);
                total
            })
            .collect();
        let mut rank_to_tile: Vec<usize> = (0..KEYS).collect();
        rng.shuffle(&mut rank_to_tile);
        Catalog {
            tiles,
            joins,
            cdf,
            rank_to_tile,
        }
    }

    fn draw(&self, rng: &mut Rng, interactive_only: bool) -> Key {
        if !interactive_only && rng.unit() < JOIN_SHARE {
            return Key::Join(rng.below(2) as u64, rng.below(JOIN_THRESHOLDS));
        }
        let u = rng.unit() * self.cdf[KEYS - 1];
        let rank = self.cdf.partition_point(|&c| c < u).min(KEYS - 1);
        Key::Tile(self.rank_to_tile[rank])
    }

    fn request(&self, key: Key) -> (u64, QuerySpec, Priority) {
        match key {
            Key::Tile(k) => (self.tiles[k].0, self.tiles[k].1, Priority::Interactive),
            Key::Join(d, t) => (d, QuerySpec::Join(self.joins[t]), Priority::Batch),
        }
    }
}

/// One scheduled send: a request or a STATS poll, due `due` after the
/// phase starts.
#[derive(Clone, Copy)]
enum Item {
    Request(Key),
    Poll,
}

struct Phase {
    name: &'static str,
    qps: f64,
    items: Vec<(Duration, Item)>,
    length: Duration,
}

fn phase(
    name: &'static str,
    catalog: &Catalog,
    rng: &mut Rng,
    qps: f64,
    length: Duration,
    interactive_only: bool,
) -> Phase {
    let count = (qps * length.as_secs_f64()) as usize;
    let mut items: Vec<(Duration, Item)> = (0..count)
        .map(|i| {
            (
                Duration::from_secs_f64(i as f64 / qps),
                Item::Request(catalog.draw(rng, interactive_only)),
            )
        })
        .collect();
    let mut poll = POLL;
    while poll < length {
        items.push((poll, Item::Poll));
        poll += POLL;
    }
    items.sort_by_key(|(due, _)| *due);
    Phase {
        name,
        qps,
        items,
        length,
    }
}

/// What happened to one request of a phase.
struct Outcome {
    due: Duration,
    sent: Duration,
    received: Option<Duration>,
    interactive: bool,
    bytes: usize,
    ok: bool,
    wrong: bool,
}

struct PhaseResult {
    outcomes: Vec<Outcome>,
}

impl PhaseResult {
    fn wire_latencies(&self) -> Vec<f64> {
        Self::wire_latencies_of(self.outcomes.iter())
    }

    fn wire_latencies_of<'a>(outcomes: impl Iterator<Item = &'a Outcome>) -> Vec<f64> {
        // A failed request counts as missing every limit.
        outcomes
            .filter(|o| o.interactive)
            .map(|o| match (o.ok, o.received) {
                (true, Some(r)) => ms(r.saturating_sub(o.due)),
                _ => f64::INFINITY,
            })
            .collect()
    }

    fn failed(&self) -> u64 {
        self.outcomes.iter().filter(|o| !o.ok).count() as u64
    }

    fn interactive_failed(&self) -> bool {
        self.outcomes.iter().any(|o| o.interactive && !o.ok)
    }

    /// Requests due by `at` whose reply had not arrived by then.
    fn backlog(&self, at: Duration) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.due <= at && o.received.is_none_or(|r| r > at))
            .count()
    }

    fn gen_lag_ms(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .map(|o| ms(o.sent.saturating_sub(o.due)))
            .collect()
    }
}

fn write_frame(mut stream: &TcpStream, payload: &[u8]) -> std::io::Result<()> {
    stream.write_all(&(payload.len() as u32).to_be_bytes())?;
    stream.write_all(payload)
}

fn read_frame(stream: &mut TcpStream) -> std::io::Result<Response> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    let len = u32::from_be_bytes(len);
    if len == 0 || len > MAX_RESPONSE_FRAME {
        return Err(std::io::Error::other(format!(
            "response frame of {len} bytes"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    stream.read_exact(&mut payload)?;
    parse_response(&payload).map_err(|e| std::io::Error::other(e.to_string()))
}

/// Offers one phase's schedule over the connection: the sender thread
/// sends each item when due, the receiver thread matches replies to
/// requests. Returns once every reply has arrived.
fn run_phase(
    client: &mut Client,
    t: &Traffic<'_>,
    phase: &Phase,
    first_id: u64,
) -> std::io::Result<PhaseResult> {
    let requests: Vec<Key> = phase
        .items
        .iter()
        .filter_map(|(_, i)| match i {
            Item::Request(k) => Some(*k),
            Item::Poll => None,
        })
        .collect();
    let n = requests.len();
    let polls = phase.items.len() - n;
    let mut reader = client.stream().try_clone()?;
    reader.set_read_timeout(Some(Duration::from_secs(60)))?;
    let start = Instant::now();
    let (sent, received) = std::thread::scope(|s| {
        let keys = &requests;
        let receiver = s.spawn(move || {
            let done = |replies, stats| replies == n && stats == polls;
            receive(&mut reader, start, first_id, keys, t.expected, done, || {})
        });
        let mut sent = Vec::with_capacity(n);
        let mut send_all = || -> std::io::Result<()> {
            for (due, item) in &phase.items {
                if let Some(wait) = due.checked_sub(start.elapsed()) {
                    std::thread::sleep(wait);
                }
                match item {
                    Item::Poll => write_frame(client.stream(), &encode_stats_request())?,
                    Item::Request(key) => {
                        let (dataset, spec, priority) = t.catalog.request(*key);
                        let at = start.elapsed();
                        client.submit(dataset, &spec, priority, NO_TIMEOUT)?;
                        sent.push((*due, at));
                    }
                }
            }
            Ok(())
        };
        let sending = send_all();
        let received = receiver.join().expect("receiver thread panicked");
        (sending.map(|_| sent), received)
    });
    let (sent, received) = (sent?, received?);
    let outcomes = requests
        .iter()
        .zip(sent)
        .zip(received)
        .map(|((key, (due, at)), reply)| t.outcome(*key, due, at, reply))
        .collect();
    Ok(PhaseResult { outcomes })
}

/// How a reply compared with the request's checked answer.
#[derive(Clone, Copy, PartialEq)]
enum Status {
    Right,
    Wrong,
    Refused,
}

/// When a reply arrived, and how it compared.
type Reply = (Duration, Status);

/// Reads replies off the connection until `done(replies, stats)`,
/// classifying each against the checked answers as it arrives (no
/// result is kept), and calling `on_reply` after each request's reply.
fn receive(
    reader: &mut TcpStream,
    start: Instant,
    first_id: u64,
    keys: &[Key],
    expected: &HashMap<Key, QueryResult>,
    done: impl Fn(usize, usize) -> bool,
    on_reply: impl Fn(),
) -> std::io::Result<Vec<Option<Reply>>> {
    let mut got: Vec<Option<Reply>> = vec![None; keys.len()];
    let (mut replies, mut stats) = (0, 0);
    while !done(replies, stats) {
        let (id, result) = match read_frame(reader)? {
            Response::Stats(_) => {
                stats += 1;
                continue;
            }
            Response::Result { req_id, result } => (req_id, Some(result)),
            Response::Error { req_id, .. } => (req_id, None),
        };
        let at = start.elapsed();
        // Request ids are the connection's submit sequence.
        let Some(i) = id.checked_sub(first_id).map(|i| i as usize) else {
            continue;
        };
        if let Some(slot @ None) = got.get_mut(i) {
            let status = match result {
                Some(r) if expected.get(&keys[i]) == Some(&r) => Status::Right,
                Some(_) => Status::Wrong,
                None => Status::Refused,
            };
            *slot = Some((at, status));
            replies += 1;
            on_reply();
        }
    }
    Ok(got)
}

/// What the client offers and how it checks replies: the request
/// catalog, the served datasets' sizes and every request's checked
/// answer.
struct Traffic<'a> {
    catalog: &'a Catalog,
    sizes: [usize; 2],
    expected: &'a HashMap<Key, QueryResult>,
}

impl Traffic<'_> {
    /// Classifies one request from its reply.
    fn outcome(&self, key: Key, due: Duration, sent: Duration, reply: Option<Reply>) -> Outcome {
        let (dataset, _, priority) = self.catalog.request(key);
        let status = reply.map(|(_, s)| s);
        Outcome {
            due,
            sent,
            received: reply.map(|(at, _)| at),
            interactive: priority == Priority::Interactive,
            bytes: self.sizes[dataset as usize],
            ok: status == Some(Status::Right),
            wrong: status == Some(Status::Wrong),
        }
    }
}

/// Offers `keys` in a closed loop over the pipelined connection: at
/// most `WINDOW` requests in flight, the sender refilling the window
/// as the receiver matches replies, until `length` has elapsed. A
/// final STATS poll fences the receiver.
fn run_closed(
    client: &mut Client,
    t: &Traffic<'_>,
    keys: &[Key],
    length: Duration,
    first_id: u64,
    tracer: Option<&Tracer>,
) -> std::io::Result<PhaseResult> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let mut reader = client.stream().try_clone()?;
    reader.set_read_timeout(Some(Duration::from_secs(60)))?;
    let sent_total = AtomicUsize::new(usize::MAX);
    let (permit_tx, permits) = std::sync::mpsc::channel::<()>();
    let start = Instant::now();
    let (sent, received) = std::thread::scope(|s| {
        let sent_total = &sent_total;
        let receiver = s.spawn(move || {
            receive(
                &mut reader,
                start,
                first_id,
                keys,
                t.expected,
                |replies, _| replies >= sent_total.load(Ordering::SeqCst),
                || {
                    let _ = permit_tx.send(());
                },
            )
        });
        let mut sent = Vec::new();
        let mut send_all = || -> std::io::Result<()> {
            for key in keys {
                if start.elapsed() >= length {
                    break;
                }
                if sent.len() >= WINDOW && permits.recv().is_err() {
                    break;
                }
                let (dataset, spec, priority) = t.catalog.request(*key);
                let at = start.elapsed();
                let span = tracer.map(|t| t.open("server.submit", None, sent.len() as u64));
                client.submit(dataset, &spec, priority, NO_TIMEOUT)?;
                if let (Some(t), Some(id)) = (tracer, span) {
                    t.close(id);
                }
                sent.push((at, at));
            }
            Ok(())
        };
        let sending = send_all();
        sent_total.store(sent.len(), Ordering::SeqCst);
        let fence = write_frame(client.stream(), &encode_stats_request());
        let received = receiver.join().expect("receiver thread panicked");
        (sending.and(fence).map(|_| sent), received)
    });
    let (sent, received) = (sent?, received?);
    let outcomes = keys
        .iter()
        .zip(sent)
        .zip(received)
        .map(|((key, (due, at)), reply)| t.outcome(*key, due, at, reply))
        .collect();
    Ok(PhaseResult { outcomes })
}

/// Splits a closed-loop phase into windows by send time and returns
/// the medians over windows of named MiB/s, Interactive round-trip
/// p50 and tail: a transient stall of the host moves one window, not
/// the result.
fn window_medians(r: &PhaseResult, length: Duration) -> (f64, f64, f64) {
    let windows = ((length.as_secs_f64() / CLOSED_WINDOW.as_secs_f64()) as usize).max(1);
    let width = length.as_secs_f64() / windows as f64;
    let (mut mbps, mut p50, mut tail) = (Vec::new(), Vec::new(), Vec::new());
    for w in 0..windows {
        let inside: Vec<&Outcome> = r
            .outcomes
            .iter()
            .filter(|o| (o.sent.as_secs_f64() / width) as usize == w)
            .collect();
        let bytes: usize = inside.iter().filter(|o| o.ok).map(|o| o.bytes).sum();
        mbps.push(mib(bytes) / width);
        let s = Summary::of(&PhaseResult::wire_latencies_of(inside.into_iter()));
        p50.push(s.p50);
        tail.push(s.tail);
    }
    (median(&mbps), median(&p50), median(&tail))
}

struct Setup {
    handle: ServerHandle,
    client: Client,
}

fn timed_stats(client: &mut Client) -> std::io::Result<(StatsReport, f64)> {
    let started = Instant::now();
    let r = client.stats()?;
    Ok((r, ms(started.elapsed())))
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::new();
    match serve(args, &mut report) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("served workload failed: {e}");
            report.failed = report.attempted.max(1);
            report.wrong = report.wrong.max(1);
        }
    }
    report
}

fn serve(args: &Args, report: &mut Report) -> std::io::Result<()> {
    let threads = threads();
    let objects = OsmGenerator::new(args.seed).generate(OBJECTS);
    let raw = [
        (write_geojson(&objects), Format::GeoJson),
        (write_wkt(&objects), Format::Wkt),
    ];
    let sizes = [raw[0].0.len(), raw[1].0.len()];
    let catalog = Catalog::new(args.seed);

    // The schedule: a warm-up, the two fixed rates, then either the
    // rate ladder and the closed window, or (traced) the closed window
    // untraced and traced.
    let mut rng = Rng::new(args.seed, 7);
    let secs = |share: f64| Duration::from_secs_f64(args.seconds * share);
    let warm = phase("warm", &catalog, &mut rng, LOW_QPS, secs(0.05), false);
    let mut open = vec![
        phase("low", &catalog, &mut rng, LOW_QPS, secs(0.1), false),
        phase("high", &catalog, &mut rng, HIGH_QPS, secs(0.1), false),
    ];
    if !args.trace {
        for qps in LADDER_QPS {
            let rung = secs(0.15 / LADDER_QPS.len() as f64);
            open.push(phase("rung", &catalog, &mut rng, qps, rung, true));
        }
    }
    let closed_length = secs(if args.trace { 0.375 } else { 0.6 });
    let closed_keys: Vec<Key> = (0..CLOSED_KEYS)
        .map(|_| catalog.draw(&mut rng, false))
        .collect();

    let mut fp = Fingerprint::new();
    for (bytes, format) in &raw {
        fp.add(bytes);
        println!("dataset {format:?}: {:.2} MiB", mib(bytes.len()));
    }
    for p in std::iter::once(&warm).chain(&open) {
        for (due, item) in &p.items {
            match item {
                Item::Request(k) => fp.add_debug(&(due, catalog.request(*k))),
                Item::Poll => fp.add_debug(&(due, "poll")),
            }
        }
    }
    for k in &closed_keys {
        fp.add_debug(&catalog.request(*k));
    }
    println!("input_fingerprint: {}", fp.hex());
    println!(
        "workload served: 1 pipelined connection (sender + receiver thread); {KEYS} tile keys (Zipf s={ZIPF_S}), {:.0}% Batch joins; open loop at fixed spacing with STATS every {} ms: low {LOW_QPS} req/s, high {HIGH_QPS} req/s, ladder {LADDER_QPS:?} req/s (Interactive only, limit {LIMIT_MS} ms); closed loop with {WINDOW} requests in flight; threads {threads}",
        JOIN_SHARE * 100.0,
        POLL.as_millis()
    );

    // Set-up: engine, scheduler, dataset materialisation and
    // registration, bind, connect.
    let (setup, setup_s) = timed_setup(SETUP_REPEATS, || -> std::io::Result<Setup> {
        let engine = Engine::builder().threads(threads).build();
        let server = Server::new(QueryScheduler::new(engine));
        for (id, (bytes, format)) in raw.iter().enumerate() {
            server.register(id as u64, Dataset::from_bytes(bytes.clone(), *format));
        }
        let handle = server.serve("127.0.0.1:0".parse().expect("loopback address"))?;
        let client = Client::connect(handle.addr())?;
        Ok(Setup { handle, client })
    });
    let Setup { handle, mut client } = setup?;

    // Oracle: every distinct request of the schedule, run in-process
    // through `QuerySpec::to_query`, untimed.
    let oracle = Engine::builder().threads(threads).build();
    let datasets: Vec<Dataset> = raw
        .iter()
        .map(|(b, f)| Dataset::from_bytes(b.clone(), *f))
        .collect();
    let mut expected = HashMap::new();
    let scheduled = std::iter::once(&warm)
        .chain(&open)
        .flat_map(|p| &p.items)
        .filter_map(|(_, item)| match item {
            Item::Request(k) => Some(k),
            Item::Poll => None,
        });
    for key in scheduled.chain(&closed_keys) {
        if expected.contains_key(key) {
            continue;
        }
        let (dataset, spec, _) = catalog.request(*key);
        let answer = oracle
            .run(
                &[spec.to_query()],
                &datasets[dataset as usize],
                &ExecOptions::new(),
            )
            .and_then(|o| o.into_single())
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        expected.insert(*key, answer);
    }
    drop((oracle, datasets));
    println!(
        "oracle: {} distinct requests answered in-process",
        expected.len()
    );

    let account = |report: &mut Report, r: &PhaseResult| {
        report.attempted += r.outcomes.len() as u64;
        report.failed += r.failed();
        report.wrong += r.outcomes.iter().filter(|o| o.wrong).count() as u64;
    };
    let traffic = Traffic {
        catalog: &catalog,
        sizes,
        expected: &expected,
    };
    let warm_result = run_phase(&mut client, &traffic, &warm, 1)?;
    account(report, &warm_result);
    let mut next_id = 1 + warm_result.outcomes.len() as u64;
    let (before, rpc_start) = timed_stats(&mut client)?;

    let mut results = Vec::new();
    let mut max_qps = 0.0;
    for p in &open {
        let r = run_phase(&mut client, &traffic, p, next_id)?;
        next_id += r.outcomes.len() as u64;
        account(report, &r);
        let s = Summary::of(&r.wire_latencies());
        println!(
            "{} ({} req/s, {} requests): {}",
            p.name,
            p.qps,
            r.outcomes.len(),
            s.describe("Interactive wire latency from due time")
        );
        if p.name == "rung" {
            let mid = r.backlog(p.length / 2);
            let end = r.backlog(p.length);
            let pass = s.tail < LIMIT_MS && !r.interactive_failed() && end <= 2 * mid + 5;
            println!(
                "  backlog {mid} at half-rung, {end} at rung end: {}",
                if pass { "pass" } else { "fail" }
            );
            if !pass {
                break;
            }
            max_qps = p.qps;
        }
        results.push((p, r, s));
    }

    let tracer = Tracer::new();
    let mut closed = Vec::new();
    for traced in [false, true] {
        if traced && !args.trace {
            break;
        }
        let keys = &closed_keys[closed.len() * CLOSED_KEYS / 2..];
        let r = run_closed(
            &mut client,
            &traffic,
            keys,
            closed_length,
            next_id,
            traced.then_some(&tracer),
        )?;
        next_id += r.outcomes.len() as u64;
        account(report, &r);
        let (mbps, p50, tail) = window_medians(&r, closed_length);
        println!(
            "closed{} ({WINDOW} in flight, {} requests): {mbps:.1} MiB/s named, Interactive round trip p50 {p50:.3} ms, tail {tail:.3} ms (medians over {}-s windows)",
            if traced { " traced" } else { "" },
            r.outcomes.len(),
            CLOSED_WINDOW.as_secs_f64()
        );
        closed.push((r, (p50, tail), mbps));
    }
    let (after, rpc_end) = timed_stats(&mut client)?;
    drop(client);
    handle.shutdown();

    let find = |name: &str| results.iter().find(|(p, _, _)| p.name == name);
    for label in ["low", "high"] {
        if let Some((_, _, s)) = find(label) {
            println!("wire_p50_ms.{label}: {} ms", s.p50);
            println!(
                "wire_tail_ms.{label}: {} ms (p{:.2}, {} samples)",
                s.tail, s.tail_pct, s.n
            );
        }
    }
    if !args.trace {
        println!("wire_max_qps: {max_qps} req/s (limit {LIMIT_MS} ms on the Interactive tail)");
    }
    let (_, (p50, tail), mbps) = &closed[0];
    report.set("setup_s", setup_s);
    report.set("throughput_mbps", *mbps);
    report.set("latency_p50_ms", *p50);
    report.set("latency_tail_ms", *tail);

    // Per-layer: scheduler counters as deltas over the measured
    // phases, server-side latency, STATS round trips, generator lag.
    let served = (after.served - before.served).max(1) as f64;
    report.set(
        "scheduler.cache_hit_ratio",
        (after.cache_hits - before.cache_hits) as f64 / served,
    );
    report.set(
        "scheduler.dedup_ratio",
        (after.dedup_hits - before.dedup_hits) as f64 / served,
    );
    report.set(
        "scheduler.scan_passes_per_kreq",
        1e3 * (after.scan_passes - before.scan_passes) as f64 / served,
    );
    report.set(
        "scheduler.shed_ratio",
        (after.overloaded - before.overloaded) as f64 / served,
    );
    let server_p50 = after.interactive.p50_us as f64 / 1e3;
    let mut all_wire: Vec<f64> = warm_result.wire_latencies();
    let mut lags = Vec::new();
    for (_, r, _) in &results {
        all_wire.extend(r.wire_latencies());
        lags.extend(r.gen_lag_ms());
    }
    for (r, _, _) in &closed {
        all_wire.extend(r.wire_latencies());
    }
    report.set("server.reply_p50_ms", server_p50);
    report.set("server.wire_overhead_ms", median(&all_wire) - server_p50);
    report.set("server.stats_rpc_ms", (rpc_start + rpc_end) / 2.0);
    println!("server.stats_rpc_ms: {rpc_start:.3} ms at start, {rpc_end:.3} ms at end");
    report.set(
        "bench.gen_lag_ms",
        lags.iter().sum::<f64>() / lags.len().max(1) as f64,
    );
    if let Some((traced, _, traced_mbps)) = closed.get(1) {
        report.set("bench.trace_overhead_ratio", traced_mbps / mbps);
        // Request spans have only the client-side submit child: the
        // server's share of each request stays unattributed until the
        // program records spans of its own.
        let submit = trace::self_ms(&tracer.self_times(), "server.submit");
        let round_trips: f64 = traced
            .outcomes
            .iter()
            .filter_map(|o| o.received.map(|r| ms(r.saturating_sub(o.due))))
            .sum();
        report.set(
            "bench.unattributed_share",
            1.0 - submit / round_trips.max(f64::MIN_POSITIVE),
        );
        if let Err(e) = tracer.write(&trace::trace_path("served", args.seed)) {
            eprintln!("could not write the trace: {e}");
        }
    }
    Ok(())
}
