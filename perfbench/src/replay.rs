//! The traced replay of one request: the same work `Engine::run`
//! does, driven single-threaded from the benchmark through each
//! layer's public functions, with a span around every call. Self times
//! of these spans are the per-layer metrics; the replay's answer must
//! equal the engine's, so the decomposition is checked on every
//! traced request.

use crate::trace::{SpanId, Tracer};
use atgis::executor::StreamMerger;
use atgis::join::{pbsm_join_mapped_on, JoinOptions, Reparser};
use atgis::partition::{ArrayStore, GridSpec, PartEntry, PartitionStore};
use atgis::pipeline::QueryAggregate;
use atgis::pool::WorkerPool;
use atgis::{AdaptiveConfig, Dataset, JoinPair, PartitionMap};
use atgis_formats::geojson::fat::GeoFragment;
use atgis_formats::geojson::lexer::{lex_block, STATE_OUT};
use atgis_formats::split::find_marker;
use atgis_formats::wkt::WktFragment;
use atgis_formats::{
    fixed_blocks, geojson, marker_blocks, osmxml, wkt, Format, MetadataFilter, Mode, ParseError,
    RawFeature,
};
use atgis_geometry::{measures, DistanceModel, Geometry};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Counts gathered while replaying, beside the spans.
#[derive(Default)]
pub struct Counts {
    pub features: u64,
    pub errors: u64,
    /// Parse time and parsed bytes per format (GeoJSON, WKT, OSM XML).
    pub parse_time: [Duration; 3],
    pub parse_bytes: [usize; 3],
    pub scan_time: Duration,
    pub scan_bytes: usize,
    pub merges: u64,
    pub slots: u64,
    pub slot_skew_sum: f64,
    pub pairs: u64,
    pub sweep_partitions: u64,
    pub rtree_partitions: u64,
    pub reparse_calls: u64,
}

fn format_index(f: Format) -> usize {
    match f {
        Format::GeoJson => 0,
        Format::Wkt => 1,
        Format::OsmXml => 2,
    }
}

/// One replayed request: the tracer, the root span and the request id
/// every child span carries.
pub struct Ctx<'a> {
    pub tracer: &'a Tracer,
    pub root: SpanId,
    pub request: u64,
    pub counts: &'a mut Counts,
}

impl Ctx<'_> {
    fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let started = Instant::now();
        let out = f();
        let ended = Instant::now();
        self.tracer
            .record(name, Some(self.root), self.request, started, ended);
        (out, ended - started)
    }

    fn parse<T>(&mut self, format: Format, bytes: usize, f: impl FnOnce() -> T) -> T {
        let (out, took) = self.timed("formats.parse", f);
        self.counts.parse_time[format_index(format)] += took;
        self.counts.parse_bytes[format_index(format)] += bytes;
        out
    }

    fn errors<T>(&mut self, r: Result<T, ParseError>) -> Result<T, ParseError> {
        if r.is_err() {
            self.counts.errors += 1;
        }
        r
    }
}

/// Speculative GeoJSON block fragment: `(lexer start, lexer final,
/// parse fragment)` per start state, composed as the format's own
/// block fragment does.
type GeoEntries = Vec<(u8, u8, GeoFragment)>;

fn merge_geo(left: GeoEntries, right: GeoEntries, input: &[u8]) -> Result<GeoEntries, ParseError> {
    left.into_iter()
        .map(|(start, mid, l)| {
            let (_, fin, r) = right
                .iter()
                .find(|(s, _, _)| *s == mid)
                .ok_or(ParseError::Desync { offset: 0 })?;
            Ok((start, *fin, l.merge(r.clone(), input, &MetadataFilter::All)))
        })
        .collect()
}

fn wkt_rows(input: &[u8], start: usize, end: usize) -> Result<Vec<RawFeature>, ParseError> {
    let mut out = Vec::new();
    let mut pos = start;
    while pos < end {
        while pos < end && input[pos] == b'\n' {
            pos += 1;
        }
        if pos >= end {
            break;
        }
        let row_end = find_marker(input, b"\n", pos).unwrap_or(input.len());
        if let Some(f) = wkt::parse_row(input, pos, row_end, &MetadataFilter::All)? {
            out.push(f);
        }
        pos = row_end + 1;
    }
    Ok(out)
}

/// Replays one single-pass scan of `dataset` in `mode` over `blocks`
/// blocks, absorbing features into clones of `proto` inside spans
/// named `absorb` (`pipeline.absorb` for queries, `partition.build`
/// for the join's partition pass).
pub fn scan<A: QueryAggregate>(
    cx: &mut Ctx<'_>,
    dataset: &Dataset,
    mode: Mode,
    blocks: usize,
    proto: &A,
    absorb: &'static str,
) -> Result<A, ParseError> {
    let input = dataset.bytes();
    let format = dataset.format();
    let absorb_all = |cx: &mut Ctx<'_>, features: &[RawFeature]| {
        cx.counts.features += features.len() as u64;
        cx.timed(absorb, || {
            let mut a = proto.clone();
            for f in features {
                a.absorb(f);
            }
            a
        })
        .0
    };
    match (format, mode) {
        (Format::OsmXml, _) => {
            cx.timed("transducer.split", || marker_blocks(input, b"\n", blocks));
            let features = cx.parse(format, input.len(), || {
                osmxml::parse(input, &MetadataFilter::All)
            });
            let features = cx.errors(features)?;
            Ok(absorb_all(cx, &features))
        }
        (Format::GeoJson | Format::Wkt, Mode::Pat) => {
            let marker: &[u8] = if format == Format::GeoJson {
                geojson::FEATURE_MARKER
            } else {
                b"\n"
            };
            let (split, _) = cx.timed("transducer.split", || marker_blocks(input, marker, blocks));
            let mut merger: StreamMerger<A, ParseError> = StreamMerger::new();
            for (i, b) in split.iter().enumerate() {
                let features = cx.parse(format, b.len(), || {
                    if format == Format::GeoJson {
                        let mut out = Vec::new();
                        geojson::fast::parse_block(
                            input,
                            b.start,
                            b.end,
                            &MetadataFilter::All,
                            &mut out,
                        )
                        .map(|_| out)
                    } else {
                        wkt_rows(input, b.start, b.end)
                    }
                });
                let features = cx.errors(features)?;
                let a = absorb_all(cx, &features);
                cx.timed("executor.merge", || {
                    merger.push(i, a, |x, y| Ok(x.combine(y)))
                });
            }
            cx.counts.merges += merger.merges();
            let (merged, _) = cx.timed("executor.merge", || merger.finish());
            Ok(merged?.unwrap_or_else(|| proto.clone()))
        }
        (Format::GeoJson, _) => {
            let (split, _) = cx.timed("transducer.split", || fixed_blocks(input.len(), blocks));
            let mut merger: StreamMerger<GeoEntries, ParseError> = StreamMerger::new();
            for (i, b) in split.iter().enumerate() {
                let (lexed, took) = cx.timed("transducer.scan", || {
                    lex_block(b.slice(input), b.start as u64)
                });
                cx.counts.scan_time += took;
                cx.counts.scan_bytes += b.len();
                let entries: GeoEntries = cx.parse(format, b.len(), || {
                    lexed
                        .into_entries()
                        .into_iter()
                        .map(|(s, f, tokens)| {
                            (
                                s,
                                f,
                                GeoFragment::from_tokens(input, &tokens, &MetadataFilter::All),
                            )
                        })
                        .collect()
                });
                cx.timed("executor.merge", || {
                    merger.push(i, entries, |l, r| merge_geo(l, r, input))
                });
            }
            cx.counts.merges += merger.merges();
            let (merged, _) = cx.timed("executor.merge", || merger.finish());
            let features = cx.parse(format, 0, || {
                merged?
                    .unwrap_or_default()
                    .into_iter()
                    .find(|(s, _, _)| *s == STATE_OUT)
                    .ok_or(ParseError::Desync { offset: 0 })?
                    .2
                    .finalize(input, &MetadataFilter::All)
            });
            let features = cx.errors(features)?;
            Ok(absorb_all(cx, &features))
        }
        (Format::Wkt, _) => {
            let (split, _) = cx.timed("transducer.split", || fixed_blocks(input.len(), blocks));
            let mut merger: StreamMerger<WktFragment, ParseError> = StreamMerger::new();
            for (i, b) in split.iter().enumerate() {
                let frag = cx.parse(format, b.len(), || {
                    wkt::process_block(input, *b, &MetadataFilter::All)
                });
                let frag = cx.errors(frag)?;
                cx.timed("executor.merge", || {
                    merger.push(i, frag, |l, r| l.merge(r, input, &MetadataFilter::All))
                });
            }
            cx.counts.merges += merger.merges();
            let (merged, _) = cx.timed("executor.merge", || merger.finish());
            let features = cx.parse(format, 0, || match merged? {
                Some(m) => m.finalize(input, &MetadataFilter::All),
                None => Ok(Vec::new()),
            });
            let features = cx.errors(features)?;
            Ok(absorb_all(cx, &features))
        }
    }
}

/// The join's partition pass as an aggregate: the same side tagging,
/// perimeter pre-filters and grid pushes the engine's partition
/// pipeline performs.
#[derive(Clone)]
pub struct PartitionPass {
    pub grid: GridSpec,
    pub store: ArrayStore,
    pub threshold: u64,
    pub min_left: Option<f64>,
    pub max_right: Option<f64>,
}

impl QueryAggregate for PartitionPass {
    fn identity() -> Self {
        unreachable!("built with the grid and the query's threshold")
    }

    fn absorb(&mut self, f: &RawFeature) {
        let left = f.id < self.threshold;
        let perimeter = || measures::perimeter(&f.geometry, DistanceModel::Spherical);
        if left {
            if self.min_left.is_some_and(|min| perimeter() <= min) {
                return;
            }
        } else if self.max_right.is_some_and(|max| perimeter() >= max) {
            return;
        }
        let entry = PartEntry::from_feature(f, left);
        for cell in self.grid.cells_for(&entry.mbr) {
            self.store.push(cell, entry);
        }
    }

    fn combine(mut self, other: Self) -> Self {
        let store = std::mem::replace(&mut self.store, ArrayStore::new(0));
        self.store = store.merge(other.store);
        self
    }
}

/// What a replayed join produced, in the engine's result terms.
pub enum JoinAnswer {
    Pairs(Vec<JoinPair>),
    Combined { pairs: u64, total_union_area: f64 },
}

/// The engine's single-object re-parse for GeoJSON and WKT.
fn reparse_one(
    input: &[u8],
    format: Format,
    offset: u64,
    len: u32,
) -> Result<Geometry, ParseError> {
    match format {
        Format::GeoJson => {
            let mut out = Vec::new();
            geojson::fast::parse_block(
                input,
                offset as usize,
                offset as usize + 1,
                &MetadataFilter::All,
                &mut out,
            )?;
            out.into_iter()
                .next()
                .map(|f| f.geometry)
                .ok_or_else(|| ParseError::syntax(offset, "no feature at offset"))
        }
        _ => {
            let end = if len == u32::MAX {
                find_marker(input, b"\n", offset as usize).unwrap_or(input.len())
            } else {
                offset as usize + len as usize
            };
            wkt::parse_row(input, offset as usize, end, &MetadataFilter::All)?
                .map(|f| f.geometry)
                .ok_or_else(|| ParseError::syntax(offset, "no row at offset"))
        }
    }
}

/// Replays a join (or, with `perimeters`, the combined query) of
/// `dataset` at `threshold`: partition pass, adaptive map refinement,
/// single-threaded PBSM join with a traced re-parser, and the combined
/// query's union-area aggregation.
#[allow(clippy::too_many_arguments)]
pub fn join(
    cx: &mut Ctx<'_>,
    dataset: &Dataset,
    mode: Mode,
    blocks: usize,
    grid: GridSpec,
    threshold: u64,
    perimeters: Option<(f64, f64)>,
) -> Result<JoinAnswer, ParseError> {
    let input = dataset.bytes();
    let format = dataset.format();
    let proto = PartitionPass {
        grid,
        store: ArrayStore::new(grid.num_cells()),
        threshold,
        min_left: perimeters.map(|p| p.0),
        max_right: perimeters.map(|p| p.1),
    };
    let pass = scan(cx, dataset, mode, blocks, &proto, "partition.build")?;
    let (map, _) = cx.timed("partition.build", || {
        PartitionMap::adaptive(&grid, &pass.store, &AdaptiveConfig::default())
    });
    let occupied = map.occupied_slots(&pass.store);
    let loads: Vec<f64> = occupied
        .iter()
        .map(|&s| map.slot_len(&pass.store, s) as f64)
        .collect();
    if !loads.is_empty() {
        let mean = loads.iter().sum::<f64>() / loads.len() as f64;
        let max = loads.iter().copied().fold(0.0, f64::max);
        cx.counts.slot_skew_sum += max / mean;
    }
    cx.counts.slots += map.num_slots() as u64;

    let tracer = cx.tracer;
    let request = cx.request;
    let pbsm = tracer.open("join.pbsm", Some(cx.root), request);
    let calls = std::sync::atomic::AtomicU64::new(0);
    let reparse = |offset: u64, len: u32| {
        calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        tracer.span("formats.reparse", Some(pbsm), request, || {
            reparse_one(input, format, offset, len)
        })
    };
    let reparser: &Reparser<'_> = &reparse;
    let pool = WorkerPool::new(0);
    let outcome = pbsm_join_mapped_on(
        &pool,
        &pass.store,
        &map,
        reparser,
        JoinOptions {
            threads: 1,
            ..JoinOptions::default()
        },
        None,
    );
    let ended = Instant::now();
    tracer.close(pbsm);
    let outcome = match outcome {
        Ok(o) => o,
        Err(atgis::Error::Parse(e)) => return cx.errors(Err(e)),
        Err(e) => return cx.errors(Err(ParseError::syntax(0, e.to_string()))),
    };
    // Duplicate elimination is the last step inside the join call.
    tracer.record(
        "join.dedup",
        Some(pbsm),
        request,
        ended - outcome.dedup,
        ended,
    );
    cx.counts.pairs += outcome.pairs.len() as u64;
    cx.counts.sweep_partitions += outcome.decisions.sweep_partitions;
    cx.counts.rtree_partitions += outcome.decisions.rtree_partitions;

    let answer = if perimeters.is_none() {
        JoinAnswer::Pairs(outcome.pairs)
    } else {
        // ST_Area(ST_Union(d1, d2)) over the joined pairs, re-parsing
        // each object once, summed in pair order as the engine does.
        let agg = tracer.open("join.dedup", Some(cx.root), request);
        let needed: HashSet<u64> = outcome
            .pairs
            .iter()
            .flat_map(|p| [p.left_offset, p.right_offset])
            .collect();
        let mut table = std::collections::HashMap::with_capacity(needed.len());
        let mut failed = None;
        for off in needed {
            calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            match tracer.span("formats.reparse", Some(agg), request, || {
                reparse_one(input, format, off, u32::MAX)
            }) {
                Ok(g) => {
                    table.insert(off, g);
                }
                Err(e) => failed = Some(e),
            }
        }
        let total: f64 = if failed.is_none() {
            outcome.pairs.iter().fold(0.0, |acc, p| {
                acc + atgis::operators::union_area(&table[&p.left_offset], &table[&p.right_offset])
            })
        } else {
            0.0
        };
        tracer.close(agg);
        if let Some(e) = failed {
            return cx.errors(Err(e));
        }
        JoinAnswer::Combined {
            pairs: outcome.pairs.len() as u64,
            total_union_area: total,
        }
    };
    cx.counts.reparse_calls += calls.into_inner();
    Ok(answer)
}
