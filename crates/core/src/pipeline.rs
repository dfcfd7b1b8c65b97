//! Per-block query pipelines (Fig. 6): parse → transform/filter →
//! aggregate, composed per §3.2 by storing downstream aggregates on
//! the parse fragments' tapes.
//!
//! The [`QueryAggregate`] trait is the downstream transducer: it
//! absorbs features the moment a block (or a fragment merge) completes
//! them and combines associatively, so feature buffers never span the
//! whole input. In FAT mode one aggregate is kept per speculated lexer
//! start state, mirroring the paper's predicated tapes.
//!
//! This module is also the scan kernel: the one place where a byte
//! range of a format, scanned in a mode, becomes an aggregate. A scan
//! resolves a `ScanPlan` (PAT, FAT or whole-document XML), cuts its
//! range into blocks (§4.1, Fig. 5), processes each block into a
//! `ScanFrag` and merges the fragments associatively before finishing
//! them (§3.2). The buffered scan, the streamed scan and the shard
//! scans are drivers over it that differ only in how many blocks they
//! cut and when.

use crate::exact::ExactSum;
use crate::query::{FilterStrategy, Metric};
use crate::result::{AggregateValues, MatchRecord};
use atgis_formats::feature::{MetadataFilter, RawFeature};
use atgis_formats::geojson::fat::BlockFragment;
use atgis_formats::wkt::WktFragment;
use atgis_formats::{fixed_blocks, marker_blocks, Block, Format, Mode, ParseError};
use atgis_geometry::relate::intersects;
use atgis_geometry::{measures, DistanceModel, Geometry, Polygon};
use std::any::Any;

/// The downstream (transform + aggregation) stages of a single-pass
/// pipeline, as an associative aggregate over completed features.
pub trait QueryAggregate: Send + Sync + Clone {
    /// The empty aggregate.
    fn identity() -> Self;
    /// Folds one completed feature in.
    fn absorb(&mut self, feature: &RawFeature);
    /// Associative combination (self covers earlier input).
    fn combine(self, other: Self) -> Self;
}

/// Object-safe view of a [`QueryAggregate`], so aggregates of
/// *different* concrete types can ride one scan together (the
/// shared-scan batch fan-out). Implemented for every
/// `QueryAggregate + 'static` via the blanket impl below; positionally
/// paired sinks must be the same concrete type — [`MultiSink`]
/// guarantees this by always combining position `i` with position `i`.
pub trait AggregateSink: Send + Sync {
    /// Folds one completed feature in.
    fn absorb_feature(&mut self, feature: &RawFeature);
    /// Associative combination with a sink of the same concrete type.
    fn combine_sink(self: Box<Self>, other: Box<dyn AggregateSink>) -> Box<dyn AggregateSink>;
    /// Deep clone (fragment prototypes are cloned per block).
    fn clone_sink(&self) -> Box<dyn AggregateSink>;
    /// Downcast support for result extraction.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
    /// The panic message when this sink is the tombstone a panicked
    /// [`MultiSink`] member was replaced with; `None` for live sinks.
    /// Extraction code must check this before downcasting.
    fn panic_message(&self) -> Option<&str> {
        None
    }
}

impl<A: QueryAggregate + 'static> AggregateSink for A {
    fn absorb_feature(&mut self, feature: &RawFeature) {
        self.absorb(feature);
    }

    fn combine_sink(self: Box<Self>, other: Box<dyn AggregateSink>) -> Box<dyn AggregateSink> {
        let other = other
            .into_any()
            .downcast::<A>()
            .expect("combined sinks share one concrete type per position");
        Box::new((*self).combine(*other))
    }

    fn clone_sink(&self) -> Box<dyn AggregateSink> {
        Box::new(self.clone())
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Takes a finished sink back to its concrete aggregate type.
pub fn downcast_sink<A: 'static>(sink: Box<dyn AggregateSink>) -> A {
    *sink
        .into_any()
        .downcast::<A>()
        .expect("sink extraction requested the wrong aggregate type")
}

/// Tombstone for a [`MultiSink`] member whose aggregate panicked
/// mid-scan: it absorbs nothing, combines to itself (failure is
/// sticky, the earliest message wins), and reports the panic via
/// [`AggregateSink::panic_message`]. This is how a panic in one
/// query's sink fails only that query — the scan, its batch mates and
/// the worker pool all complete normally.
pub(crate) struct FailedSink {
    message: String,
}

impl FailedSink {
    /// A tombstone carrying the panic payload of the member it
    /// replaced (minted in `MultiSink` when a member sink panics, and
    /// in the sharded gather when one shard's scan panics).
    pub(crate) fn new(message: impl Into<String>) -> Self {
        FailedSink {
            message: message.into(),
        }
    }
}

impl AggregateSink for FailedSink {
    fn absorb_feature(&mut self, _feature: &RawFeature) {}

    fn combine_sink(self: Box<Self>, _other: Box<dyn AggregateSink>) -> Box<dyn AggregateSink> {
        self
    }

    fn clone_sink(&self) -> Box<dyn AggregateSink> {
        Box::new(FailedSink {
            message: self.message.clone(),
        })
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }

    fn panic_message(&self) -> Option<&str> {
        Some(&self.message)
    }
}

/// The multi-sink fan-out of the shared-scan batch layer: one
/// aggregate that dispatches every completed feature to N per-query
/// member sinks and combines member-wise. Because it implements
/// [`QueryAggregate`], it flows through every existing execution path
/// unchanged — PAT block scans, the speculated FAT fragments and the
/// parallel tree merge — so one parse pass serves every member query.
///
/// Member order is the fan-out contract: `combine` zips positionally,
/// so member `i` sees exactly the absorb/combine sequence it would
/// have seen running alone. Results are therefore bit-identical to
/// per-query execution.
pub struct MultiSink {
    sinks: Vec<Box<dyn AggregateSink>>,
}

impl MultiSink {
    /// Builds the fan-out over per-query prototype sinks.
    pub fn new(sinks: Vec<Box<dyn AggregateSink>>) -> Self {
        MultiSink { sinks }
    }

    /// Number of member sinks.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// True when no queries ride this scan.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }

    /// Surrenders the member sinks, in construction order, for
    /// per-query result extraction.
    pub fn into_sinks(self) -> Vec<Box<dyn AggregateSink>> {
        self.sinks
    }
}

impl Clone for MultiSink {
    fn clone(&self) -> Self {
        MultiSink {
            sinks: self.sinks.iter().map(|s| s.clone_sink()).collect(),
        }
    }
}

impl QueryAggregate for MultiSink {
    fn identity() -> Self {
        // A width-0 sink would silently zip-truncate real members in
        // `combine`; the fan-out width is batch state, like the other
        // parameterized aggregates here.
        unreachable!("use MultiSink::new — the member sinks are query state")
    }

    fn absorb(&mut self, feature: &RawFeature) {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        for sink in &mut self.sinks {
            // Member-level failure domain: a panicking member becomes
            // a FailedSink tombstone and the scan keeps feeding its
            // batch mates. AssertUnwindSafe is sound because the
            // half-mutated member is replaced, never observed again.
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| sink.absorb_feature(feature))) {
                *sink = Box::new(FailedSink {
                    message: crate::pool::panic_message(&*p),
                });
            }
        }
    }

    fn combine(self, other: Self) -> Self {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        debug_assert_eq!(
            self.sinks.len(),
            other.sinks.len(),
            "fan-out width is fixed for one scan"
        );
        MultiSink {
            sinks: self
                .sinks
                .into_iter()
                .zip(other.sinks)
                .map(|(a, b)| {
                    // Sticky failure, earliest (document-order) side
                    // wins — checked up front so a live sink never
                    // tries to downcast a tombstone.
                    if a.panic_message().is_some() {
                        return a;
                    }
                    if b.panic_message().is_some() {
                        return b;
                    }
                    match catch_unwind(AssertUnwindSafe(|| a.combine_sink(b))) {
                        Ok(s) => s,
                        Err(p) => Box::new(FailedSink {
                            message: crate::pool::panic_message(&*p),
                        }),
                    }
                })
                .collect(),
        }
    }
}

/// Containment-query aggregate: buffers matching records (§4.4: "it
/// is also used for containment queries to store the output of the
/// transformation stage").
#[derive(Debug, Clone)]
pub struct ContainmentAgg {
    region: std::sync::Arc<Polygon>,
    /// Matches found so far.
    pub matches: Vec<MatchRecord>,
}

impl ContainmentAgg {
    /// Creates the aggregate for a reference region.
    pub fn new(region: std::sync::Arc<Polygon>) -> Self {
        ContainmentAgg {
            region,
            matches: Vec::new(),
        }
    }
}

impl QueryAggregate for ContainmentAgg {
    fn identity() -> Self {
        unreachable!("use ContainmentAgg::new — the region is a query parameter")
    }

    fn absorb(&mut self, f: &RawFeature) {
        let mbr = f.geometry.mbr();
        // MBR pre-filter, then exact geometry refinement (§2.3's
        // filter-refine pattern).
        if !mbr.intersects(&self.region.mbr()) {
            return;
        }
        if intersects(&f.geometry, &Geometry::Polygon((*self.region).clone())) {
            self.matches.push(MatchRecord {
                id: f.id,
                offset: f.offset,
                len: f.len,
                mbr,
            });
        }
    }

    fn combine(mut self, mut other: Self) -> Self {
        self.matches.append(&mut other.matches);
        self
    }
}

/// Aggregation-query aggregate: containment test plus numeric
/// summarisation, with the streaming/buffered trade-off of Fig. 7.
///
/// Sums accumulate in [`ExactSum`]s, so the reported values are the
/// correctly-rounded true sums — identical bits no matter how the scan
/// was chunked, blocked or threaded. That invariance is what lets the
/// streaming execution path promise results bit-identical to the
/// buffered path.
#[derive(Debug, Clone)]
pub struct MetricsAgg {
    region: std::sync::Arc<Polygon>,
    model: DistanceModel,
    strategy: FilterStrategy,
    want_area: bool,
    want_perimeter: bool,
    count: u64,
    area: ExactSum,
    perimeter: ExactSum,
}

impl MetricsAgg {
    /// Creates the aggregate.
    pub fn new(
        region: std::sync::Arc<Polygon>,
        metrics: &[Metric],
        model: DistanceModel,
        strategy: FilterStrategy,
    ) -> Self {
        MetricsAgg {
            region,
            model,
            strategy,
            want_area: metrics.contains(&Metric::Area),
            want_perimeter: metrics.contains(&Metric::Perimeter),
            count: 0,
            area: ExactSum::new(),
            perimeter: ExactSum::new(),
        }
    }

    /// The aggregated values (sums correctly rounded).
    pub fn values(&self) -> AggregateValues {
        AggregateValues {
            count: self.count,
            total_area: self.area.value(),
            total_perimeter: self.perimeter.value(),
        }
    }

    fn passes(&self, f: &RawFeature) -> bool {
        f.geometry.mbr().intersects(&self.region.mbr())
            && intersects(&f.geometry, &Geometry::Polygon((*self.region).clone()))
    }
}

impl QueryAggregate for MetricsAgg {
    fn identity() -> Self {
        unreachable!("use MetricsAgg::new — parameters are query state")
    }

    fn absorb(&mut self, f: &RawFeature) {
        match self.strategy {
            FilterStrategy::Streaming => {
                // Compute the metrics unconditionally, concurrent with
                // the test; discard on failure (Fig. 7b).
                let area = if self.want_area {
                    measures::area(&f.geometry, self.model)
                } else {
                    0.0
                };
                let perimeter = if self.want_perimeter {
                    measures::perimeter(&f.geometry, self.model)
                } else {
                    0.0
                };
                if self.passes(f) {
                    self.count += 1;
                    self.area.add(area);
                    self.perimeter.add(perimeter);
                }
            }
            FilterStrategy::Buffered | FilterStrategy::Auto => {
                // Buffer the geometry until the filter decides, then
                // compute metrics from the buffered copy (Fig. 7a).
                // The copy is the buffering overhead the paper weighs
                // against streaming's redundant computation; `Auto`
                // resolution happens in the engine, here it behaves as
                // buffered.
                if self.passes(f) {
                    let buffered: Geometry = f.geometry.clone();
                    self.count += 1;
                    if self.want_area {
                        self.area.add(measures::area(&buffered, self.model));
                    }
                    if self.want_perimeter {
                        self.perimeter
                            .add(measures::perimeter(&buffered, self.model));
                    }
                }
            }
        }
    }

    fn combine(mut self, other: Self) -> Self {
        self.count += other.count;
        self.area.merge(&other.area);
        self.perimeter.merge(&other.perimeter);
        self
    }
}

/// The FAT GeoJSON pipeline fragment: the parse fragment composed with
/// one downstream aggregate per speculated lexer start state (§3.2's
/// "the first transducer now stores a predicated set of fragments
/// from the second transducer").
pub(crate) struct FatGeoJsonFrag<A: QueryAggregate> {
    parse: BlockFragment,
    /// `(lexer start state, aggregate)` pairs.
    aggs: Vec<(u8, A)>,
}

impl<A: QueryAggregate> FatGeoJsonFrag<A> {
    /// Lexes, parses and aggregates one block.
    pub fn process(
        input: &[u8],
        block: Block,
        filter: &MetadataFilter,
        proto: &A,
    ) -> Result<Self, ParseError> {
        let mut parse = atgis_formats::geojson::fat::process_block(input, block, filter)?;
        let aggs = parse
            .drain_features()
            .into_iter()
            .map(|(state, features)| {
                let mut a = proto.clone();
                for f in &features {
                    a.absorb(f);
                }
                (state, a)
            })
            .collect();
        Ok(FatGeoJsonFrag { parse, aggs })
    }

    /// Fragment merge: compose the parse relation, absorb
    /// boundary-spanning features, combine aggregates along each
    /// speculation chain.
    pub fn merge(
        self,
        other: Self,
        input: &[u8],
        filter: &MetadataFilter,
    ) -> Result<Self, ParseError> {
        let finals = self.parse.entry_finals();
        let mut parse = self.parse.merge(other.parse, input, filter)?;
        let spanning = parse.drain_features();
        let aggs = self
            .aggs
            .into_iter()
            .map(|(start, left)| {
                let mid = finals
                    .iter()
                    .find(|(s, _)| *s == start)
                    .map(|(_, f)| *f)
                    .expect("entry exists");
                let mut combined = left;
                if let Some((_, mids)) = spanning.iter().find(|(s, _)| *s == start) {
                    for f in mids {
                        combined.absorb(f);
                    }
                }
                let right = other
                    .aggs
                    .iter()
                    .find(|(s, _)| *s == mid)
                    .map(|(_, a)| a.clone())
                    .expect("right entry exists");
                (start, combined.combine(right))
            })
            .collect();
        Ok(FatGeoJsonFrag { parse, aggs })
    }

    /// Resolves the speculation and finishes the pipeline.
    pub fn finalize(self, input: &[u8], filter: &MetadataFilter) -> Result<A, ParseError> {
        let mut agg = self
            .aggs
            .into_iter()
            .find(|(s, _)| *s == atgis_formats::geojson::lexer::STATE_OUT)
            .map(|(_, a)| a)
            .expect("STATE_OUT entry");
        for f in self.parse.finalize(input, filter)? {
            agg.absorb(&f);
        }
        Ok(agg)
    }
}

/// The FAT WKT pipeline fragment (no speculation — a single chain).
pub(crate) struct FatWktFrag<A: QueryAggregate> {
    parse: WktFragment,
    agg: A,
}

impl<A: QueryAggregate> FatWktFrag<A> {
    /// Parses and aggregates one block.
    pub fn process(
        input: &[u8],
        block: Block,
        filter: &MetadataFilter,
        proto: &A,
    ) -> Result<Self, ParseError> {
        let mut parse = atgis_formats::wkt::process_block(input, block, filter)?;
        let mut agg = proto.clone();
        for f in parse.drain_features() {
            agg.absorb(&f);
        }
        Ok(FatWktFrag { parse, agg })
    }

    /// Fragment merge.
    pub fn merge(
        self,
        other: Self,
        input: &[u8],
        filter: &MetadataFilter,
    ) -> Result<Self, ParseError> {
        let mut parse = self.parse.merge(other.parse, input, filter)?;
        let mut agg = self.agg;
        for f in parse.drain_features() {
            agg.absorb(&f);
        }
        Ok(FatWktFrag {
            parse,
            agg: agg.combine(other.agg),
        })
    }

    /// Finishes the pipeline.
    pub fn finalize(self, input: &[u8], filter: &MetadataFilter) -> Result<A, ParseError> {
        let mut agg = self.agg;
        for f in self.parse.finalize(input, filter)? {
            agg.absorb(&f);
        }
        Ok(agg)
    }
}

/// How a scan turns its byte range into blocks and each block into a
/// [`ScanFrag`]: the resolved (format, mode) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ScanPlan {
    /// Blocks start at record markers and parse block-locally straight
    /// into the aggregate.
    Pat,
    /// Blocks start anywhere and parse speculatively into fragments
    /// whose edges resolve at merge.
    Fat,
    /// OSM XML: relations need the global node table, so the whole
    /// document parses once and a range absorbs its own features
    /// ([`absorb_range`]).
    Xml,
}

impl ScanPlan {
    /// The plan for `format` under the configured `mode`, with
    /// `Adaptive` resolved from the marker density of `seen` (the whole
    /// input for buffered and shard scans, the bytes ingested so far
    /// for a stream) for `want_blocks` blocks.
    pub(crate) fn resolve(format: Format, mode: Mode, seen: &[u8], want_blocks: usize) -> Self {
        if format == Format::OsmXml {
            return ScanPlan::Xml;
        }
        match format.resolve_mode(mode, seen, want_blocks) {
            Mode::Fat => ScanPlan::Fat,
            _ => ScanPlan::Pat,
        }
    }

    /// Cuts `input[start..end]` into at most `n` blocks that tile it
    /// exactly, with **absolute** offsets so features keep their global
    /// identity: at record markers for PAT (and XML's collection pass),
    /// at arbitrary offsets for FAT. An empty range yields one empty
    /// block.
    pub(crate) fn blocks(
        self,
        format: Format,
        input: &[u8],
        start: usize,
        end: usize,
        n: usize,
    ) -> Vec<Block> {
        let mut blocks = match self {
            ScanPlan::Fat => fixed_blocks(end - start, n),
            ScanPlan::Pat | ScanPlan::Xml => {
                marker_blocks(&input[start..end], format.record_marker(), n)
            }
        };
        for b in &mut blocks {
            b.start += start;
            b.end += start;
        }
        blocks
    }
}

/// One block's (or one merged run of blocks') scan result: the
/// aggregate itself for PAT, or a FAT parse fragment still carrying
/// unresolved block edges. Produced by [`ScanFrag::process`], combined
/// by [`ScanFrag::merge`] in block order, resolved by
/// [`ScanFrag::finish`].
pub(crate) enum ScanFrag<A: QueryAggregate> {
    /// A PAT block's aggregate.
    Pat(A),
    /// A FAT GeoJSON fragment.
    FatGeoJson(Box<FatGeoJsonFrag<A>>),
    /// A FAT WKT fragment.
    FatWkt(Box<FatWktFrag<A>>),
}

impl<A: QueryAggregate> ScanFrag<A> {
    /// Parses `block` of `input` under `plan` and absorbs its completed
    /// features into a clone of `proto`.
    pub(crate) fn process(
        plan: ScanPlan,
        format: Format,
        input: &[u8],
        block: Block,
        filter: &MetadataFilter,
        proto: &A,
    ) -> Result<Self, ParseError> {
        let parse_pat = match (plan, format) {
            (ScanPlan::Xml, _) | (_, Format::OsmXml) => {
                unreachable!("OSM XML parses the whole document, never blocks")
            }
            (ScanPlan::Pat, Format::GeoJson) => atgis_formats::geojson::fast::parse_block,
            (ScanPlan::Pat, Format::Wkt) => atgis_formats::wkt::parse_block,
            (ScanPlan::Fat, Format::GeoJson) => {
                return FatGeoJsonFrag::process(input, block, filter, proto)
                    .map(|f| ScanFrag::FatGeoJson(Box::new(f)))
            }
            (ScanPlan::Fat, Format::Wkt) => {
                return FatWktFrag::process(input, block, filter, proto)
                    .map(|f| ScanFrag::FatWkt(Box::new(f)))
            }
        };
        let mut features = Vec::new();
        parse_pat(input, block.start, block.end, filter, &mut features)?;
        let mut agg = proto.clone();
        for f in &features {
            agg.absorb(f);
        }
        Ok(ScanFrag::Pat(agg))
    }

    /// Associative merge; `self` covers the bytes just before `other`.
    pub(crate) fn merge(
        self,
        other: Self,
        input: &[u8],
        filter: &MetadataFilter,
    ) -> Result<Self, ParseError> {
        Ok(match (self, other) {
            (ScanFrag::Pat(a), ScanFrag::Pat(b)) => ScanFrag::Pat(a.combine(b)),
            (ScanFrag::FatGeoJson(a), ScanFrag::FatGeoJson(b)) => {
                ScanFrag::FatGeoJson(Box::new(a.merge(*b, input, filter)?))
            }
            (ScanFrag::FatWkt(a), ScanFrag::FatWkt(b)) => {
                ScanFrag::FatWkt(Box::new(a.merge(*b, input, filter)?))
            }
            _ => unreachable!("one plan per scan"),
        })
    }

    /// Resolves the fragment's remaining edges (FAT speculation, the
    /// first and last partial records) into the finished aggregate.
    pub(crate) fn finish(self, input: &[u8], filter: &MetadataFilter) -> Result<A, ParseError> {
        match self {
            ScanFrag::Pat(a) => Ok(a),
            ScanFrag::FatGeoJson(f) => f.finalize(input, filter),
            ScanFrag::FatWkt(f) => f.finalize(input, filter),
        }
    }
}

/// Absorbs into `agg` the features of a whole-document parse whose
/// offset lies in `[start, end)` — how a byte range of an OSM XML
/// dataset becomes an aggregate.
pub(crate) fn absorb_range<A: QueryAggregate>(
    agg: &mut A,
    features: &[RawFeature],
    start: usize,
    end: usize,
) {
    for f in features {
        if (start as u64) <= f.offset && f.offset < end as u64 {
            agg.absorb(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atgis_geometry::Mbr;
    use std::sync::Arc;

    fn region() -> Arc<Polygon> {
        Arc::new(Polygon::from_mbr(&Mbr::new(-0.5, -0.5, 0.5, 0.5)))
    }

    fn feature(id: u64, x: f64, y: f64) -> RawFeature {
        RawFeature {
            id,
            geometry: Geometry::Point(atgis_geometry::Point::new(x, y)),
            offset: id * 100,
            len: 50,
        }
    }

    #[test]
    fn containment_agg_filters_by_region() {
        let mut agg = ContainmentAgg::new(region());
        agg.absorb(&feature(1, 0.0, 0.0)); // inside
        agg.absorb(&feature(2, 5.0, 5.0)); // outside
        agg.absorb(&feature(3, 0.5, 0.5)); // on boundary
        assert_eq!(agg.matches.len(), 2);
        assert_eq!(agg.matches[0].id, 1);
    }

    #[test]
    fn containment_combine_preserves_order() {
        let mut a = ContainmentAgg::new(region());
        a.absorb(&feature(1, 0.0, 0.0));
        let mut b = ContainmentAgg::new(region());
        b.absorb(&feature(2, 0.1, 0.1));
        let c = a.combine(b);
        assert_eq!(c.matches.iter().map(|m| m.id).collect::<Vec<_>>(), [1, 2]);
    }

    #[test]
    fn metrics_agg_streaming_equals_buffered() {
        let square = RawFeature {
            id: 1,
            geometry: Geometry::Polygon(atgis_geometry::polygon::unit_square()),
            offset: 0,
            len: 10,
        };
        let outside = RawFeature {
            id: 2,
            geometry: Geometry::Polygon(Polygon::from_mbr(&Mbr::new(10.0, 10.0, 11.0, 11.0))),
            offset: 100,
            len: 10,
        };
        let reg = Arc::new(Polygon::from_mbr(&Mbr::new(-1.0, -1.0, 2.0, 2.0)));
        let metrics = [Metric::Area, Metric::Perimeter, Metric::Count];
        let mut streaming = MetricsAgg::new(
            reg.clone(),
            &metrics,
            DistanceModel::Planar,
            FilterStrategy::Streaming,
        );
        let mut buffered = MetricsAgg::new(
            reg,
            &metrics,
            DistanceModel::Planar,
            FilterStrategy::Buffered,
        );
        for f in [&square, &outside] {
            streaming.absorb(f);
            buffered.absorb(f);
        }
        assert_eq!(streaming.values(), buffered.values());
        assert_eq!(streaming.values().count, 1);
        assert_eq!(streaming.values().total_area, 1.0);
        assert_eq!(streaming.values().total_perimeter, 4.0);
    }

    #[test]
    fn multi_sink_members_match_solo_runs() {
        let reg = region();
        let metrics = [Metric::Area, Metric::Perimeter, Metric::Count];
        let features: Vec<RawFeature> = (0..20)
            .map(|i| feature(i, (i as f64) * 0.07 - 0.5, 0.0))
            .collect();

        // Solo runs.
        let mut solo_c = ContainmentAgg::new(reg.clone());
        let mut solo_m = MetricsAgg::new(
            reg.clone(),
            &metrics,
            DistanceModel::Planar,
            FilterStrategy::Streaming,
        );
        for f in &features {
            solo_c.absorb(f);
            solo_m.absorb(f);
        }

        // The same queries riding one fan-out, split over two halves
        // combined associatively (as a two-block scan would).
        let proto = MultiSink::new(vec![
            Box::new(ContainmentAgg::new(reg.clone())),
            Box::new(MetricsAgg::new(
                reg,
                &metrics,
                DistanceModel::Planar,
                FilterStrategy::Streaming,
            )),
        ]);
        let mut left = proto.clone();
        let mut right = proto.clone();
        for f in &features[..9] {
            left.absorb(f);
        }
        for f in &features[9..] {
            right.absorb(f);
        }
        let merged = left.combine(right);
        let mut sinks = merged.into_sinks().into_iter();
        let c: ContainmentAgg = downcast_sink(sinks.next().unwrap());
        let m: MetricsAgg = downcast_sink(sinks.next().unwrap());
        assert_eq!(c.matches, solo_c.matches);
        assert_eq!(m.values(), solo_m.values());
    }

    #[test]
    fn multi_sink_clone_is_deep() {
        let proto = MultiSink::new(vec![Box::new(ContainmentAgg::new(region()))]);
        let mut a = proto.clone();
        a.absorb(&feature(1, 0.0, 0.0));
        let b = proto.clone();
        let a_c: ContainmentAgg = downcast_sink(a.into_sinks().pop().unwrap());
        let b_c: ContainmentAgg = downcast_sink(b.into_sinks().pop().unwrap());
        assert_eq!(a_c.matches.len(), 1);
        assert!(b_c.matches.is_empty(), "prototype must stay untouched");
    }

    /// Aggregate that panics on a specific feature id — the fault
    /// model for member-isolation tests.
    #[derive(Clone)]
    struct BombAgg {
        bomb_id: u64,
        seen: u64,
    }

    impl QueryAggregate for BombAgg {
        fn identity() -> Self {
            BombAgg {
                bomb_id: u64::MAX,
                seen: 0,
            }
        }

        fn absorb(&mut self, f: &RawFeature) {
            assert!(f.id != self.bomb_id, "sink bomb");
            self.seen += 1;
        }

        fn combine(mut self, other: Self) -> Self {
            self.seen += other.seen;
            self
        }
    }

    #[test]
    fn panicking_member_fails_alone_and_batch_mates_survive() {
        let mut multi = MultiSink::new(vec![
            Box::new(ContainmentAgg::new(region())),
            Box::new(BombAgg {
                bomb_id: 1,
                seen: 0,
            }),
            Box::new(ContainmentAgg::new(region())),
        ]);
        for i in 0..5 {
            multi.absorb(&feature(i, 0.0, 0.0));
        }
        let sinks = multi.into_sinks();
        assert!(sinks[0].panic_message().is_none());
        let msg = sinks[2].panic_message();
        assert!(sinks[1]
            .panic_message()
            .expect("bombed")
            .contains("sink bomb"));
        assert!(msg.is_none());
        let healthy: ContainmentAgg = downcast_sink(sinks.into_iter().next().unwrap());
        assert_eq!(healthy.matches.len(), 5, "batch mates saw every feature");
    }

    #[test]
    fn failure_is_sticky_across_combines() {
        let proto = MultiSink::new(vec![Box::new(BombAgg {
            bomb_id: 7,
            seen: 0,
        })]);
        let mut left = proto.clone();
        let mut right = proto.clone();
        left.absorb(&feature(7, 0.0, 0.0)); // bombs the left member
        right.absorb(&feature(8, 0.0, 0.0));
        let merged = left.combine(right);
        let sinks = merged.into_sinks();
        assert!(
            sinks[0]
                .panic_message()
                .expect("sticky")
                .contains("sink bomb"),
            "a failed member stays failed through combine"
        );
    }

    #[test]
    fn fat_geojson_pipeline_matches_direct_parse() {
        let input =
            atgis_datagen::write_geojson(&atgis_datagen::OsmGenerator::new(77).generate(60));
        for n in [1, 3, 9] {
            let blocks = fixed_blocks(input.len(), n);
            let matches = scan_blocks(ScanPlan::Fat, Format::GeoJson, &input, &blocks);
            assert_eq!(matches.len(), 60, "blocks={n}");
        }
    }

    #[test]
    fn fat_wkt_pipeline_matches_direct_parse() {
        let input = atgis_datagen::write_wkt(&atgis_datagen::OsmGenerator::new(78).generate(40));
        for n in [1, 4, 11] {
            let blocks = fixed_blocks(input.len(), n);
            let matches = scan_blocks(ScanPlan::Fat, Format::Wkt, &input, &blocks);
            assert_eq!(matches.len(), 40, "blocks={n}");
        }
    }

    /// Folds `blocks` in order through the scan kernel, as a one-worker
    /// scan would, with a whole-world containment aggregate.
    fn scan_blocks(
        plan: ScanPlan,
        format: Format,
        input: &[u8],
        blocks: &[Block],
    ) -> Vec<MatchRecord> {
        let filter = MetadataFilter::All;
        let world = Polygon::from_mbr(&Mbr::new(-180.0, -90.0, 180.0, 90.0));
        let proto = ContainmentAgg::new(Arc::new(world));
        let mut acc: Option<ScanFrag<ContainmentAgg>> = None;
        for &b in blocks {
            let f = ScanFrag::process(plan, format, input, b, &filter, &proto).unwrap();
            acc = Some(match acc {
                None => f,
                Some(a) => a.merge(f, input, &filter).unwrap(),
            });
        }
        acc.unwrap().finish(input, &filter).unwrap().matches
    }

    #[test]
    fn scan_plan_blocks_tile_a_mid_dataset_range_with_absolute_offsets() {
        let ds = atgis_datagen::OsmGenerator::new(79).generate(80);
        for (format, input) in [
            (Format::GeoJson, atgis_datagen::write_geojson(&ds)),
            (Format::Wkt, atgis_datagen::write_wkt(&ds)),
        ] {
            let marker = format.record_marker();
            // The second of four marker-aligned shards: a range that
            // neither starts nor ends at the input's edges.
            let Block { start, end, .. } = marker_blocks(&input, marker, 4)[1];
            assert!(0 < start && end < input.len(), "{format:?}");
            let whole = Block {
                index: 0,
                start: 0,
                end: input.len(),
            };
            let expected: Vec<MatchRecord> = scan_blocks(ScanPlan::Pat, format, &input, &[whole])
                .into_iter()
                .filter(|m| start as u64 <= m.offset && m.offset < end as u64)
                .collect();
            assert!(!expected.is_empty(), "{format:?}");
            for plan in [ScanPlan::Pat, ScanPlan::Fat] {
                for n in 1..=9 {
                    let blocks = plan.blocks(format, &input, start, end, n);
                    let label = format!("{format:?} {plan:?} n={n}");
                    assert!(!blocks.is_empty() && blocks.len() <= n, "{label}");
                    assert_eq!(blocks[0].start, start, "{label}");
                    assert_eq!(blocks[blocks.len() - 1].end, end, "{label}");
                    for w in blocks.windows(2) {
                        assert_eq!(w[0].end, w[1].start, "{label}: no gap or overlap");
                        assert!(!w[1].is_empty(), "{label}");
                    }
                    if plan == ScanPlan::Pat {
                        for b in &blocks {
                            assert!(input[b.start..].starts_with(marker), "{label}");
                        }
                    }
                    assert_eq!(
                        scan_blocks(plan, format, &input, &blocks),
                        expected,
                        "{label}: the range scans to exactly its own features"
                    );
                }
            }
        }
    }

    #[test]
    fn scan_plan_resolve_follows_format_resolve_mode() {
        let ds = atgis_datagen::OsmGenerator::new(80).generate(40);
        let xml = atgis_datagen::write_osm_xml(&ds);
        for mode in [Mode::Pat, Mode::Fat, Mode::Adaptive] {
            for n in [1, 4, 64] {
                assert_eq!(
                    ScanPlan::resolve(Format::OsmXml, mode, &xml, n),
                    ScanPlan::Xml
                );
            }
        }
        let mut adaptive = Vec::new();
        for (format, input) in [
            (Format::GeoJson, atgis_datagen::write_geojson(&ds)),
            (Format::Wkt, atgis_datagen::write_wkt(&ds)),
        ] {
            // 40 records give plenty of markers for 1 block and too few
            // for 64, so Adaptive takes both branches.
            for n in [1, 4, 64] {
                assert_eq!(
                    ScanPlan::resolve(format, Mode::Pat, &input, n),
                    ScanPlan::Pat
                );
                assert_eq!(
                    ScanPlan::resolve(format, Mode::Fat, &input, n),
                    ScanPlan::Fat
                );
                let want = match format.resolve_mode(Mode::Adaptive, &input, n) {
                    Mode::Fat => ScanPlan::Fat,
                    _ => ScanPlan::Pat,
                };
                let got = ScanPlan::resolve(format, Mode::Adaptive, &input, n);
                assert_eq!(got, want, "{format:?} n={n}");
                adaptive.push(got);
            }
        }
        assert!(adaptive.contains(&ScanPlan::Pat) && adaptive.contains(&ScanPlan::Fat));
    }
}
