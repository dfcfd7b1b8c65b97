//! The `ingest` workload: the write path beside the reads. Each cycle
//! streams a dataset chunk by chunk into a `QuerySession`, runs
//! single-pass queries on the ingested prefix every few chunks, seals
//! the session and runs a join batch on it, then runs one
//! `Engine::run_streaming` single-pass batch over a chunk source.
//! Closed loop, one client.

use crate::adhoc::results_agree;
use crate::common::{
    median, mib, ms, square, threads, timed_setup, windowed, Args, Fingerprint, Report, Rng,
    Summary, SETUP_REPEATS,
};
use crate::trace::{self, Tracer};
use atgis::{Dataset, Engine, ExecOptions, Query, QueryResult, QuerySession, SliceChunkSource};
use atgis_datagen::{write_geojson, write_wkt, OsmGenerator};
use atgis_formats::Format;
use std::time::{Duration, Instant};

/// Objects per streamed dataset.
const OBJECTS: usize = 6_000;
/// Distinct cycle plans; the timed loop repeats them in order.
const PLANS: usize = 8;
/// A prefix query runs after every this many chunks.
const QUERY_EVERY: usize = 2;
/// Prefix-query latencies are summarised over windows of at least this
/// many samples.
const WINDOW_SAMPLES: usize = 300;

struct Plan {
    dataset: usize,
    chunks: Vec<usize>,
    prefix_queries: Vec<Query>,
    join_batch: Vec<Query>,
    stream_batch: Vec<Query>,
    stream_chunk: usize,
}

/// What one cycle produced: prefix answers, the sealed join batch and
/// the streamed batch.
#[derive(Default)]
struct Answers {
    prefix: Vec<QueryResult>,
    join: Vec<QueryResult>,
    stream: Vec<QueryResult>,
}

fn single_pass(rng: &mut Rng, i: usize) -> Query {
    let side = rng.range(0.1, 0.3);
    let region = square(rng, side);
    if i.is_multiple_of(2) {
        Query::containment(region)
    } else {
        Query::aggregation(region)
    }
}

fn plans(seed: u64, sizes: [usize; 2]) -> Vec<Plan> {
    let mut rng = Rng::new(seed, 5);
    (0..PLANS)
        .map(|p| {
            let dataset = p % 2;
            let mut chunks = Vec::new();
            let mut total = 0;
            while total < sizes[dataset] {
                let c = (rng.range(64.0, 384.0) as usize) << 10;
                chunks.push(c.min(sizes[dataset] - total));
                total += c;
            }
            let queries = chunks.len().div_ceil(QUERY_EVERY);
            let threshold = OBJECTS as u64 / 2;
            Plan {
                dataset,
                prefix_queries: (0..queries).map(|i| single_pass(&mut rng, i)).collect(),
                join_batch: vec![
                    Query::join(threshold),
                    Query::combined(threshold, 300.0, 4_000.0),
                ],
                stream_batch: vec![single_pass(&mut rng, 0), single_pass(&mut rng, 1)],
                stream_chunk: (rng.range(64.0, 384.0) as usize) << 10,
                chunks,
            }
        })
        .collect()
}

/// Spans a traced cycle records, beside the cycle's root span.
struct Cycle<'a> {
    tracer: Option<&'a Tracer>,
    root: Option<usize>,
    request: u64,
}

impl Cycle<'_> {
    fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match self.tracer {
            Some(t) => t.span(name, self.root, self.request, f),
            None => f(),
        }
    }
}

struct Outcome {
    answers: Answers,
    prefix_latencies: Vec<f64>,
    last_chunk_to_result: f64,
    chunks: u64,
    stream: [atgis::StreamStats; 2],
    batches: Vec<atgis::BatchStats>,
}

/// Runs one cycle; `None` when a call failed.
fn cycle(engine: &Engine, plan: &Plan, data: &Dataset, cx: &Cycle<'_>) -> Option<Outcome> {
    let bytes = data.bytes();
    let format = data.format();
    let opts = if cx.tracer.is_some() {
        ExecOptions::new().timed()
    } else {
        ExecOptions::new()
    };
    let mut session = QuerySession::streaming(engine.clone(), format).ok()?;
    let mut answers = Answers::default();
    let mut prefix_latencies = Vec::new();
    let mut pos = 0;
    let mut last_chunk = Instant::now();
    for (i, &len) in plan.chunks.iter().enumerate() {
        last_chunk = Instant::now();
        cx.span("stream.ingest_chunk", || {
            session.ingest_chunk(&bytes[pos..pos + len])
        })
        .ok()?;
        pos += len;
        if (i + 1) % QUERY_EVERY == 0 || i + 1 == plan.chunks.len() {
            let q = &plan.prefix_queries[i / QUERY_EVERY];
            let started = Instant::now();
            let r = cx.span("executor.run", || {
                session.run(std::slice::from_ref(q), &ExecOptions::new())
            });
            prefix_latencies.push(ms(started.elapsed()));
            answers.prefix.push(r.ok()?.into_single().ok()?);
        }
    }
    let sealed = cx.span("stream.finish", || session.finish()).ok()?;
    let joined = cx
        .span("batch.run", || session.run(&plan.join_batch, &opts))
        .ok()?;
    let last_chunk_to_result = ms(last_chunk.elapsed());
    let mut batches: Vec<_> = joined.batch.iter().cloned().collect();
    answers.join = joined.collapse().ok()?;
    let mut source = SliceChunkSource::new(bytes, plan.stream_chunk);
    let streamed = cx
        .span("stream.run_streaming", || {
            engine.run_streaming(&plan.stream_batch, &mut source, format, &opts)
        })
        .ok()?;
    let stream_stats = streamed.stream.clone().unwrap_or_default();
    batches.extend(streamed.batch.iter().cloned());
    answers.stream = streamed.collapse().ok()?;
    Some(Outcome {
        answers,
        prefix_latencies,
        last_chunk_to_result,
        chunks: plan.chunks.len() as u64,
        stream: [sealed, stream_stats],
        batches,
    })
}

/// The buffered answers a cycle must reproduce.
fn buffered(engine: &Engine, plan: &Plan, data: &Dataset) -> Option<Answers> {
    let run = |queries: &[Query], ds: &Dataset| {
        engine
            .run(queries, ds, &ExecOptions::new())
            .and_then(|o| o.collapse())
            .ok()
    };
    // The queryable prefix after each chunk is whatever a session
    // exposes; the buffered oracle re-runs each prefix query over a
    // copy of exactly those bytes.
    let mut session = QuerySession::streaming(engine.clone(), data.format()).ok()?;
    let mut answers = Answers::default();
    let mut pos = 0;
    for (i, &len) in plan.chunks.iter().enumerate() {
        session.ingest_chunk(&data.bytes()[pos..pos + len]).ok()?;
        pos += len;
        if (i + 1) % QUERY_EVERY == 0 || i + 1 == plan.chunks.len() {
            let prefix = Dataset::from_bytes(session.dataset().bytes().to_vec(), data.format());
            let q = &plan.prefix_queries[i / QUERY_EVERY];
            answers
                .prefix
                .extend(run(std::slice::from_ref(q), &prefix)?);
        }
    }
    answers.join = run(&plan.join_batch, data)?;
    answers.stream = run(&plan.stream_batch, data)?;
    Some(answers)
}

/// What a timed phase of whole cycle rounds measured.
#[derive(Default)]
struct Phase {
    /// Prefix-query latencies, one vector per round of the plans.
    latencies: Vec<Vec<f64>>,
    to_result: Vec<f64>,
    /// Median over rounds of the plans of MiB ingested per second.
    mbps: f64,
    cycles: u64,
    chunks: u64,
    stream: atgis::StreamStats,
    batches: u64,
    scan_passes: u64,
    batch_queries: u64,
}

fn agree(a: &[QueryResult], b: &[QueryResult]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| results_agree(x, y))
}

pub fn run(args: &Args) -> Report {
    let threads = threads();
    let objects = OsmGenerator::new(args.seed).generate(OBJECTS);
    let raw = [
        (write_geojson(&objects), Format::GeoJson),
        (write_wkt(&objects), Format::Wkt),
    ];
    let plans = plans(args.seed, [raw[0].0.len(), raw[1].0.len()]);
    let mut fp = Fingerprint::new();
    for (bytes, format) in &raw {
        fp.add(bytes);
        println!("dataset {format:?}: {:.2} MiB", mib(bytes.len()));
    }
    for p in &plans {
        fp.add_debug(&(
            p.dataset,
            &p.chunks,
            &p.prefix_queries,
            &p.join_batch,
            &p.stream_batch,
            p.stream_chunk,
        ));
    }
    println!("input_fingerprint: {}", fp.hex());
    println!(
        "workload ingest: {PLANS} cycle plans, chunks of 64-384 KiB, a prefix query every {QUERY_EVERY} chunks, closed loop, 1 client, threads {threads}"
    );

    let ((engine, data), setup_s) = timed_setup(SETUP_REPEATS, || {
        let engine = Engine::builder().threads(threads).build();
        let data: Vec<Dataset> = raw
            .iter()
            .map(|(b, f)| Dataset::from_bytes(b.clone(), *f))
            .collect();
        (engine, data)
    });

    // Warm-up: one checked cycle per plan, untimed.
    let mut report = Report::new();
    let untraced = Cycle {
        tracer: None,
        root: None,
        request: 0,
    };
    let mut expected = Vec::new();
    for plan in &plans {
        let ds = &data[plan.dataset];
        let got = cycle(&engine, plan, ds, &untraced);
        let want = buffered(&engine, plan, ds);
        let requests = (plan.prefix_queries.len() + 2) as u64;
        report.attempted += requests;
        match (got, want) {
            (Some(g), Some(w))
                if agree(&g.answers.prefix, &w.prefix)
                    && agree(&g.answers.join, &w.join)
                    && agree(&g.answers.stream, &w.stream) =>
            {
                expected.push(Some(g.answers))
            }
            _ => {
                report.failed += requests;
                report.wrong += requests;
                eprintln!("oracle mismatch on ingest plan {:?}", plan.chunks.len());
                expected.push(None);
            }
        }
    }

    let budget = Duration::from_secs_f64(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    let tracer = Tracer::new();
    let phase = |traced: bool, report: &mut Report| {
        let mut p = Phase::default();
        let mut rounds = Vec::new();
        let started = Instant::now();
        while started.elapsed() < budget {
            let round = Instant::now();
            let mut bytes = 0usize;
            p.latencies.push(Vec::new());
            for (plan, want) in plans.iter().zip(&expected) {
                p.cycles += 1;
                let ds = &data[plan.dataset];
                let root = traced.then(|| tracer.open("cycle", None, p.cycles));
                let cx = Cycle {
                    tracer: traced.then_some(&tracer),
                    root,
                    request: p.cycles,
                };
                let got = cycle(&engine, plan, ds, &cx);
                if let Some(r) = root {
                    tracer.close(r);
                }
                let requests = (plan.prefix_queries.len() + 2) as u64;
                report.attempted += requests;
                let Some(got) = got else {
                    report.failed += requests;
                    continue;
                };
                let ok = want.as_ref().is_some_and(|w| {
                    agree(&got.answers.prefix, &w.prefix)
                        && agree(&got.answers.join, &w.join)
                        && agree(&got.answers.stream, &w.stream)
                });
                if !ok {
                    report.failed += requests;
                    report.wrong += requests;
                    continue;
                }
                p.latencies
                    .last_mut()
                    .expect("a round in progress")
                    .extend(got.prefix_latencies);
                p.to_result.push(got.last_chunk_to_result);
                bytes += 2 * ds.len();
                p.chunks += got.chunks;
                for s in &got.stream {
                    p.stream.regions += s.regions;
                    p.stream.merges += s.merges;
                    p.stream.peak_fragments = p.stream.peak_fragments.max(s.peak_fragments);
                    p.stream.ingest_wait += s.ingest_wait;
                }
                for b in got.batches {
                    p.batches += 1;
                    p.scan_passes += b.scan_passes;
                    p.batch_queries += b.queries;
                }
            }
            rounds.push(mib(bytes) / round.elapsed().as_secs_f64());
        }
        // The median round damps a transient stall of the host.
        p.mbps = median(&rounds);
        p
    };

    let untraced = phase(false, &mut report);
    let throughput = untraced.mbps;
    let (summary, windows) = windowed(&untraced.latencies, WINDOW_SAMPLES);
    let to_result = Summary::of(&untraced.to_result);
    println!(
        "{} (medians over {windows} windows of at least {WINDOW_SAMPLES})",
        summary.describe("prefix query latency")
    );
    println!(
        "last_chunk_to_result_ms: {} ms (median of {} cycles; tail {:.3} ms at p{:.2})",
        to_result.p50, to_result.n, to_result.tail, to_result.tail_pct
    );
    report.set("setup_s", setup_s);
    report.set("throughput_mbps", throughput);
    report.set("latency_p50_ms", summary.p50);
    report.set("latency_tail_ms", summary.tail);

    if args.trace {
        let p = phase(true, &mut report);
        if let Err(e) = tracer.write(&trace::trace_path("ingest", args.seed)) {
            eprintln!("could not write the trace: {e}");
        }
        let selfs = tracer.self_times();
        let totals = tracer.total_times();
        let per_cycle = |v: f64| v / p.cycles.max(1) as f64;
        report.set(
            "stream.ingest_chunk_ms",
            trace::self_ms(&selfs, "stream.ingest_chunk") / p.chunks.max(1) as f64,
        );
        report.set(
            "stream.finish_ms",
            per_cycle(trace::self_ms(&selfs, "stream.finish")),
        );
        report.set("stream.regions", per_cycle(p.stream.regions as f64));
        report.set("stream.merges", per_cycle(p.stream.merges as f64));
        report.set("stream.peak_fragments", p.stream.peak_fragments as f64);
        report.set("stream.ingest_wait_ms", per_cycle(ms(p.stream.ingest_wait)));
        // Both batches of a cycle: the sealed join batch (served from
        // the partition index built during ingest) and the streamed
        // single-pass batch.
        report.set(
            "batch.scan_passes",
            p.scan_passes as f64 / p.batches.max(1) as f64,
        );
        if p.scan_passes > 0 {
            report.set(
                "batch.queries_per_pass",
                p.batch_queries as f64 / p.scan_passes as f64,
            );
        }
        report.set("bench.trace_overhead_ratio", p.mbps / throughput);
        let cycle_total = totals.get("cycle").copied().unwrap_or_default();
        report.set(
            "bench.unattributed_share",
            trace::self_ms(&selfs, "cycle") / ms(cycle_total).max(f64::MIN_POSITIVE),
        );
    }
    report
}
