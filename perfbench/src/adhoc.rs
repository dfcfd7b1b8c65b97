//! The two closed-loop, one-client workloads of one-shot queries over
//! raw files: `adhoc_scan` (containment and aggregation) and
//! `adhoc_join` (PBSM join and the combined query). Each request is
//! one `Engine::run`; nothing is cached between requests.

use crate::common::{
    median, mib, ms, square, threads, timed_setup, Args, Fingerprint, Report, Rng, Summary,
    SETUP_REPEATS,
};
use crate::replay::{self, Counts, Ctx, JoinAnswer};
use crate::trace::{self, Tracer};
use atgis::partition::GridSpec;
use atgis::pipeline::{ContainmentAgg, MetricsAgg};
use atgis::{Dataset, Engine, ExecOptions, FilterStrategy, Query, QueryResult};
use atgis_baselines::{sequential, BaselineAnswer, BaselineQuery};
use atgis_datagen::{write_geojson, write_osm_xml, write_wkt, OsmGenerator};
use atgis_formats::{Format, Mode};
use atgis_geometry::Mbr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Objects per generated dataset (about twice the paper's Table 2
/// sample sizes).
const OBJECTS: usize = 10_000;
/// Objects per join dataset: joins cost more per byte than scans, so
/// smaller inputs keep enough requests in a run.
const JOIN_OBJECTS: usize = 3_000;
/// Join thresholds as shares of the object ids, and the combined
/// query's perimeter filters in metres (long left objects, short right
/// ones).
const JOIN_SPLITS: [f64; 3] = [0.3, 0.5, 0.7];
const MIN_LEFT_PERIMETER: f64 = 300.0;
const MAX_RIGHT_PERIMETER: f64 = 4_000.0;
/// Area selectivities of the query regions, as a share of the
/// generated world.
const SELECTIVITIES: [f64; 6] = [0.001, 0.003, 0.01, 0.03, 0.1, 0.3];
/// Engine defaults the replay must mirror: blocks per thread, and the
/// partition grid.
const BLOCK_MULTIPLIER: usize = 4;

struct Request {
    dataset: usize,
    mode: Mode,
    query: Query,
}

struct Workload {
    datasets: Vec<(&'static str, Vec<u8>, Format)>,
    requests: Vec<Request>,
}

/// PAT:FAT is 3:1 on GeoJSON and WKT; OSM XML ignores the mode.
fn mode_for(i: usize, format: Format) -> Mode {
    if format != Format::OsmXml && i % 4 == 3 {
        Mode::Fat
    } else {
        Mode::Pat
    }
}

fn scan_workload(seed: u64) -> Workload {
    let objects = OsmGenerator::new(seed).generate(OBJECTS);
    let datasets = vec![
        ("OSM-G", write_geojson(&objects), Format::GeoJson),
        ("OSM-W", write_wkt(&objects), Format::Wkt),
        ("OSM-X", write_osm_xml(&objects), Format::OsmXml),
    ];
    let mut rng = Rng::new(seed, 1);
    let mut requests = Vec::new();
    for (d, (_, _, format)) in datasets.iter().enumerate() {
        for (level, &share) in SELECTIVITIES.iter().enumerate() {
            for aggregate in [false, true] {
                // OSM XML is the slowest format to parse and to check:
                // one query type per selectivity, alternating.
                if *format == Format::OsmXml && aggregate != (level % 2 == 1) {
                    continue;
                }
                let r = square(&mut rng, share.sqrt());
                let query = if aggregate {
                    Query::aggregation(r)
                } else {
                    Query::containment(r)
                };
                requests.push(Request {
                    dataset: d,
                    mode: mode_for(level * 2 + aggregate as usize, *format),
                    query,
                });
            }
        }
    }
    Workload { datasets, requests }
}

fn join_workload(seed: u64) -> Workload {
    let objects = OsmGenerator::new(seed).generate(JOIN_OBJECTS);
    let hotspot = OsmGenerator::new(seed ^ 0x5eed)
        .with_hotspot(0.2, 0.05)
        .generate(JOIN_OBJECTS);
    let datasets = vec![
        ("OSM-G", write_geojson(&objects), Format::GeoJson),
        ("OSM-W", write_wkt(&objects), Format::Wkt),
        ("OSM-G-hotspot", write_geojson(&hotspot), Format::GeoJson),
    ];
    let mut requests = Vec::new();
    for (d, (_, _, format)) in datasets.iter().enumerate() {
        for (i, share) in JOIN_SPLITS.into_iter().enumerate() {
            let threshold = (JOIN_OBJECTS as f64 * share) as u64;
            requests.push(Request {
                dataset: d,
                mode: mode_for(i * 2, *format),
                query: Query::join(threshold),
            });
            requests.push(Request {
                dataset: d,
                mode: mode_for(i * 2 + 1, *format),
                query: Query::combined(threshold, MIN_LEFT_PERIMETER, MAX_RIGHT_PERIMETER),
            });
        }
    }
    Workload { datasets, requests }
}

fn baseline_query(q: &Query) -> Option<BaselineQuery> {
    match q {
        Query::Containment { region } => Some(BaselineQuery::Containment(region.clone())),
        Query::Aggregation { region, .. } => Some(BaselineQuery::Aggregation(region.clone())),
        _ => None,
    }
}

/// Checks an engine answer against the sequential baseline's.
fn matches_baseline(got: &QueryResult, want: &BaselineAnswer) -> bool {
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
    match want {
        BaselineAnswer::Matches(ids) => {
            let mut g: Vec<u64> = got.matches().iter().map(|m| m.id).collect();
            g.sort_unstable();
            &g == ids
        }
        BaselineAnswer::Aggregate(count, area, perimeter) => got.aggregate().is_some_and(|a| {
            a.count == *count && close(a.total_area, *area) && close(a.total_perimeter, *perimeter)
        }),
        BaselineAnswer::Pairs(_) => false,
    }
}

pub fn results_agree(a: &QueryResult, b: &QueryResult) -> bool {
    match (a, b) {
        (
            QueryResult::Combined {
                pairs: pa,
                total_union_area: ta,
            },
            QueryResult::Combined {
                pairs: pb,
                total_union_area: tb,
            },
        ) => pa == pb && (ta - tb).abs() <= 1e-9 * tb.abs().max(1.0),
        _ => a == b,
    }
}

fn run_one(engine: &Engine, query: &Query, dataset: &Dataset) -> Option<QueryResult> {
    engine
        .run(std::slice::from_ref(query), dataset, &ExecOptions::new())
        .and_then(|o| o.into_single())
        .ok()
}

pub fn run_scan(args: &Args) -> Report {
    run(args, "adhoc_scan", scan_workload(args.seed))
}

pub fn run_join(args: &Args) -> Report {
    run(args, "adhoc_join", join_workload(args.seed))
}

fn run(args: &Args, name: &str, workload: Workload) -> Report {
    let threads = threads();
    let mut fp = Fingerprint::new();
    for (label, bytes, _) in &workload.datasets {
        fp.add(bytes);
        println!("dataset {label}: {:.2} MiB", mib(bytes.len()));
    }
    for r in &workload.requests {
        fp.add_debug(&(r.dataset, r.mode, &r.query));
    }
    println!("input_fingerprint: {}", fp.hex());
    println!(
        "workload {name}: {} distinct requests, closed loop, 1 client, threads {threads}",
        workload.requests.len()
    );

    // Set-up: engine and pool build plus dataset materialisation.
    let ((pat, fat, datasets), setup_s) = timed_setup(SETUP_REPEATS, || {
        let pat = Engine::builder().threads(threads).mode(Mode::Pat).build();
        let fat = Engine::builder().threads(threads).mode(Mode::Fat).build();
        let datasets: Vec<Dataset> = workload
            .datasets
            .iter()
            .map(|(_, b, f)| Dataset::from_bytes(b.clone(), *f))
            .collect();
        (pat, fat, datasets)
    });
    let engine = |m: Mode| if m == Mode::Fat { &fat } else { &pat };

    // Warm-up: every distinct request once, untimed, checked against
    // its oracle; the checked answer is what the timed loop compares
    // against.
    let mut report = Report::new();
    let one_thread = |m: Mode| Engine::builder().threads(1).mode(m).build();
    let (oracle_pat, oracle_fat) = (one_thread(Mode::Pat), one_thread(Mode::Fat));
    let mut expected = Vec::with_capacity(workload.requests.len());
    for r in &workload.requests {
        let ds = &datasets[r.dataset];
        let got = run_one(engine(r.mode), &r.query, ds);
        let ok = match (&got, baseline_query(&r.query)) {
            (Some(g), Some(bq)) => sequential::execute(ds.bytes(), ds.format(), &bq)
                .is_ok_and(|want| matches_baseline(g, &want)),
            (Some(g), None) => {
                let oracle = if r.mode == Mode::Fat {
                    &oracle_fat
                } else {
                    &oracle_pat
                };
                run_one(oracle, &r.query, ds).is_some_and(|want| results_agree(g, &want))
            }
            (None, _) => false,
        };
        report.attempted += 1;
        if !ok {
            report.failed += 1;
            report.wrong += 1;
            eprintln!("oracle mismatch on {:?} ({:?})", r.query, r.mode);
        }
        expected.push(got);
    }
    drop((oracle_pat, oracle_fat));

    let budget = Duration::from_secs_f64(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    let mut order_rng = Rng::new(args.seed, 3);
    let mut order: Vec<usize> = (0..workload.requests.len()).collect();

    let mut latencies = Vec::new();
    // MiB/s of each complete pass over the request pool.
    let mut passes = Vec::new();
    let started = Instant::now();
    while started.elapsed() < budget {
        order_rng.shuffle(&mut order);
        let pass = Instant::now();
        let mut bytes = 0;
        for &i in &order {
            let r = &workload.requests[i];
            let ds = &datasets[r.dataset];
            let t = Instant::now();
            let got = run_one(engine(r.mode), &r.query, ds);
            latencies.push(ms(t.elapsed()));
            report.attempted += 1;
            match got {
                Some(g) if Some(&g) == expected[i].as_ref() => bytes += ds.len(),
                Some(_) => {
                    report.failed += 1;
                    report.wrong += 1;
                }
                None => report.failed += 1,
            }
        }
        passes.push(mib(bytes) / pass.elapsed().as_secs_f64());
    }
    let summary = Summary::of(&latencies);
    // The median pass damps a transient stall of the host.
    let throughput = median(&passes);
    println!("{}", summary.describe("request latency"));
    println!(
        "throughput: median of {} passes over the request pool",
        passes.len()
    );
    report.set("setup_s", setup_s);
    report.set("throughput_mbps", throughput);
    report.set("latency_p50_ms", summary.p50);
    report.set("latency_tail_ms", summary.tail);

    if args.trace {
        traced(
            args,
            name,
            &workload,
            &datasets,
            &engine,
            &expected,
            budget,
            throughput,
            threads,
            &mut report,
        );
    }
    report
}

/// The traced run: each request runs through `Engine::run` (its wall
/// time is the base of the parallel efficiency) and then through the
/// single-threaded layer replay inside a root span.
#[allow(clippy::too_many_arguments)]
fn traced<'e>(
    args: &Args,
    name: &str,
    workload: &Workload,
    datasets: &[Dataset],
    engine: &dyn Fn(Mode) -> &'e Engine,
    expected: &[Option<QueryResult>],
    budget: Duration,
    untraced_mbps: f64,
    threads: usize,
    report: &mut Report,
) {
    let tracer = Tracer::new();
    let mut counts = Counts::default();
    let grid = GridSpec::new(Mbr::new(-180.0, -90.0, 180.0, 90.0), 1.0);
    let world = grid.extent.area();
    let blocks = threads * BLOCK_MULTIPLIER;
    let mut order_rng = Rng::new(args.seed, 4);
    let mut order: Vec<usize> = (0..workload.requests.len()).collect();
    let mut requests = 0u64;
    let mut run_wall = Duration::ZERO;
    let mut run_bytes = 0usize;
    let mut matched = 0u64;
    let started = Instant::now();
    while started.elapsed() < budget {
        order_rng.shuffle(&mut order);
        for &i in &order {
            let r = &workload.requests[i];
            let ds = &datasets[r.dataset];
            requests += 1;
            report.attempted += 1;
            let run_span = tracer.open("executor.run", None, requests);
            let got = run_one(engine(r.mode), &r.query, ds);
            tracer.close(run_span);
            run_wall += tracer.duration(run_span);
            run_bytes += ds.len();

            let root = tracer.open("replay", None, requests);
            let mut cx = Ctx {
                tracer: &tracer,
                root,
                request: requests,
                counts: &mut counts,
            };
            let replayed: Option<QueryResult> = match &r.query {
                Query::Containment { region } => {
                    let proto = ContainmentAgg::new(Arc::new(region.clone()));
                    replay::scan(&mut cx, ds, r.mode, blocks, &proto, "pipeline.absorb")
                        .ok()
                        .map(|a| {
                            let mut m = a.matches;
                            m.sort_by_key(|m| m.offset);
                            matched += m.len() as u64;
                            QueryResult::Matches(m)
                        })
                }
                Query::Aggregation {
                    region,
                    metrics,
                    model,
                    strategy,
                } => {
                    // The engine's Auto rule: stream when the region
                    // selects at least a quarter of the grid extent.
                    let strategy = match strategy {
                        FilterStrategy::Auto if region.mbr().area() / world >= 0.25 => {
                            FilterStrategy::Streaming
                        }
                        FilterStrategy::Auto => FilterStrategy::Buffered,
                        s => *s,
                    };
                    let proto =
                        MetricsAgg::new(Arc::new(region.clone()), metrics, *model, strategy);
                    replay::scan(&mut cx, ds, r.mode, blocks, &proto, "pipeline.absorb")
                        .ok()
                        .map(|a| {
                            matched += a.values().count;
                            QueryResult::Aggregate(a.values())
                        })
                }
                Query::Join { id_threshold } => {
                    replay::join(&mut cx, ds, r.mode, blocks, grid, *id_threshold, None)
                        .ok()
                        .map(|a| match a {
                            JoinAnswer::Pairs(p) => QueryResult::Joined(p),
                            JoinAnswer::Combined { .. } => unreachable!("plain join"),
                        })
                }
                Query::Combined {
                    id_threshold,
                    min_perimeter_left,
                    max_perimeter_right,
                } => replay::join(
                    &mut cx,
                    ds,
                    r.mode,
                    blocks,
                    grid,
                    *id_threshold,
                    Some((*min_perimeter_left, *max_perimeter_right)),
                )
                .ok()
                .map(|a| match a {
                    JoinAnswer::Combined {
                        pairs,
                        total_union_area,
                    } => QueryResult::Combined {
                        pairs,
                        total_union_area,
                    },
                    JoinAnswer::Pairs(_) => unreachable!("combined query"),
                }),
            };
            tracer.close(root);
            let want = expected[i].as_ref();
            let ok = got.as_ref() == want && replayed.as_ref() == want;
            if !ok {
                report.failed += 1;
                report.wrong += 1;
                eprintln!("traced mismatch on {:?} ({:?})", r.query, r.mode);
            }
        }
    }
    let phase_wall = started.elapsed();
    if let Err(e) = tracer.write(&trace::trace_path(name, args.seed)) {
        eprintln!("could not write the trace: {e}");
    }

    let selfs = tracer.self_times();
    let totals = tracer.total_times();
    let per_req = |v: f64| v / requests.max(1) as f64;
    let layer = |n: &str| trace::self_ms(&selfs, n);
    for (metric, span) in [
        ("transducer.split_ms", "transducer.split"),
        ("transducer.scan_ms", "transducer.scan"),
        ("formats.parse_ms", "formats.parse"),
        ("pipeline.absorb_ms", "pipeline.absorb"),
        ("executor.merge_ms", "executor.merge"),
        ("partition.build_ms", "partition.build"),
        ("join.pbsm_ms", "join.pbsm"),
        ("join.dedup_ms", "join.dedup"),
        ("formats.reparse_ms", "formats.reparse"),
    ] {
        report.set(metric, per_req(layer(span)));
    }
    let rate = |bytes: usize, t: Duration| {
        if t.is_zero() {
            0.0
        } else {
            mib(bytes) / t.as_secs_f64()
        }
    };
    report.set(
        "transducer.scan_mbps",
        rate(counts.scan_bytes, counts.scan_time),
    );
    for (i, metric) in [
        "formats.parse_mbps.geojson",
        "formats.parse_mbps.wkt",
        "formats.parse_mbps.osmxml",
    ]
    .into_iter()
    .enumerate()
    {
        report.set(metric, rate(counts.parse_bytes[i], counts.parse_time[i]));
    }
    report.set("formats.features", per_req(counts.features as f64));
    report.set("formats.errors", per_req(counts.errors as f64));
    if counts.features > 0 && name == "adhoc_scan" {
        report.set(
            "pipeline.match_ratio",
            matched as f64 / counts.features as f64,
        );
    }
    report.set("executor.merges", per_req(counts.merges as f64));
    let layer_sum: f64 = [
        "transducer.split",
        "transducer.scan",
        "formats.parse",
        "pipeline.absorb",
        "executor.merge",
        "partition.build",
        "join.pbsm",
        "join.dedup",
        "formats.reparse",
    ]
    .iter()
    .map(|n| layer(n))
    .sum();
    report.set(
        "executor.parallel_efficiency",
        layer_sum / (ms(run_wall) * threads as f64),
    );
    let joins = counts.sweep_partitions + counts.rtree_partitions;
    if name == "adhoc_join" {
        report.set("partition.slots", per_req(counts.slots as f64));
        report.set("partition.slot_skew", per_req(counts.slot_skew_sum));
        report.set("join.pairs", per_req(counts.pairs as f64));
        report.set(
            "formats.reparse_calls",
            per_req(counts.reparse_calls as f64),
        );
        if joins > 0 {
            report.set(
                "join.rtree_share",
                counts.rtree_partitions as f64 / joins as f64,
            );
        }
    }
    // Traced throughput counts the request path only: the phase wall
    // less the replay spans.
    let replay_total = totals.get("replay").copied().unwrap_or_default();
    let traced_mbps = mib(run_bytes) / (phase_wall - replay_total).as_secs_f64();
    report.set("bench.trace_overhead_ratio", traced_mbps / untraced_mbps);
    report.set(
        "bench.unattributed_share",
        layer("replay") / ms(replay_total).max(f64::MIN_POSITIVE),
    );
    println!(
        "traced: {requests} requests; layer self time {:.1} ms over Engine::run wall {:.1} ms x {threads} threads",
        layer_sum,
        ms(run_wall)
    );
}
