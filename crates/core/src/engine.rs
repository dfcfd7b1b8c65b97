//! The AT-GIS engine: translates Table 3 queries into parallel
//! pipeline executions over raw datasets (§4).

use crate::cancel::CancelToken;
use crate::dataset::Dataset;
use crate::exec::{self, ExecOptions, RunOutcome};
use crate::executor::{resolve_threads, run_blocks_on};
use crate::join::{ProbeStrategy, Reparser};
use crate::partition::{AdaptiveConfig, GridSpec, PartEntry, PartitionMap, PartitionStore};
use crate::pipeline::{absorb_range, QueryAggregate, ScanFrag, ScanPlan};
use crate::pool::WorkerPool;
use crate::query::{FilterStrategy, Query};
use crate::stats::Timings;
use crate::{Error, Result};
use atgis_formats::feature::{MetadataFilter, RawFeature};
use atgis_formats::{Format, Mode, ParseError};
use atgis_geometry::{Geometry, Mbr, Polygon};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which data structure holds partitions (§4.4 / Fig. 15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StoreKind {
    /// Flat arrays: locality, linear-time merge.
    #[default]
    Array,
    /// Chunk lists: constant-time merge, slower reads.
    List,
}

/// Whether partitioning runs inside the associative pipeline or as a
/// separate sequential phase after it (§5.6 / Fig. 15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PartitionPhase {
    /// Partition transducer inside the pipeline; stores merge
    /// associatively.
    #[default]
    Associative,
    /// The pipeline only bounds geometries; a sequential step
    /// partitions the merged entry list.
    Separate,
}

/// Engine configuration builder.
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    threads: usize,
    pub(crate) mode: Mode,
    block_multiplier: usize,
    pub(crate) cell_deg: f64,
    pub(crate) grid_extent: Mbr,
    pub(crate) store: StoreKind,
    pub(crate) partition_phase: PartitionPhase,
    pub(crate) sort_batch: usize,
    pub(crate) adaptive: AdaptiveConfig,
    pub(crate) probe: ProbeStrategy,
    persist_root: Option<std::path::PathBuf>,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder {
            threads: 1,
            mode: Mode::Pat,
            block_multiplier: 4,
            cell_deg: 1.0,
            grid_extent: Mbr::new(-180.0, -90.0, 180.0, 90.0),
            store: StoreKind::Array,
            partition_phase: PartitionPhase::Associative,
            sort_batch: 1 << 16,
            adaptive: AdaptiveConfig::default(),
            probe: ProbeStrategy::Auto,
            persist_root: None,
        }
    }
}

impl EngineBuilder {
    /// Worker threads for all parallel phases. `0` means "match the
    /// machine" (`std::thread::available_parallelism`). The default is
    /// 1 (fully sequential) so results are reproducible on any host
    /// unless parallelism is asked for; per-job worker counts are
    /// always clamped to the number of work items, so small inputs
    /// never oversubscribe.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// FAT vs PAT execution (§5's AT-GIS-FAT / AT-GIS-PAT).
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Blocks per thread (more blocks = better load balance, more
    /// merge work).
    pub fn block_multiplier(mut self, m: usize) -> Self {
        self.block_multiplier = m.max(1);
        self
    }

    /// Partition cell size in degrees (§5.6 sweeps 0.25–4).
    pub fn cell_size(mut self, deg: f64) -> Self {
        self.cell_deg = deg;
        self
    }

    /// Extent covered by the partition grid.
    pub fn grid_extent(mut self, extent: Mbr) -> Self {
        self.grid_extent = extent;
        self
    }

    /// Partition store data structure.
    pub fn store(mut self, kind: StoreKind) -> Self {
        self.store = kind;
        self
    }

    /// Associative vs separate partitioning phase.
    pub fn partition_phase(mut self, phase: PartitionPhase) -> Self {
        self.partition_phase = phase;
        self
    }

    /// SORT-stage batch size for joins.
    pub fn sort_batch(mut self, n: usize) -> Self {
        self.sort_batch = n.max(1);
        self
    }

    /// Target objects per join partition for the skew-adaptive
    /// second-level split: grid cells holding more entries are split
    /// into their own sub-grid. `0` keeps the pure uniform grid.
    pub fn partition_target(mut self, n: usize) -> Self {
        self.adaptive.target_per_cell = n;
        self
    }

    /// Full skew-adaptive split configuration (target, sub-grid cap,
    /// replication budget).
    pub fn adaptive_config(mut self, cfg: AdaptiveConfig) -> Self {
        self.adaptive = cfg;
        self
    }

    /// MBR COMPARE algorithm selection for joins (sweep vs R-tree
    /// probe; the default picks per partition by cost).
    pub fn probe_strategy(mut self, probe: ProbeStrategy) -> Self {
        self.probe = probe;
        self
    }

    /// Roots the engine's persistent snapshot store at `path`
    /// (created if missing): sessions spill their derived state
    /// (partition indexes, shard layouts, cached aggregates) there and
    /// warm-start from it after a restart — see [`crate::persist`].
    /// An unopenable store degrades to the ordinary in-memory-only
    /// behaviour rather than failing the build.
    pub fn persist_path(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.persist_root = Some(path.into());
        self
    }

    /// Finalises the engine, spawning its persistent worker pool
    /// (`threads - 1` pool workers; the query-submitting thread is the
    /// remaining execution unit). The pool outlives individual queries
    /// and is shared by clones of the engine.
    pub fn build(mut self) -> Engine {
        self.threads = resolve_threads(self.threads);
        let pool = Arc::new(WorkerPool::new(self.threads.saturating_sub(1)));
        let persist = self
            .persist_root
            .as_ref()
            .and_then(|root| crate::persist::PersistStore::open(root).ok().map(Arc::new));
        Engine {
            config: self,
            pool,
            persist,
        }
    }
}

/// The query engine: a configuration plus a persistent worker pool,
/// executing Table 3 queries over raw [`Dataset`] bytes. Cloning
/// shares the underlying worker pool.
///
/// ```
/// use atgis::{Dataset, Engine, ExecOptions, Query};
/// use atgis_formats::{Format, Mode};
/// use atgis_geometry::Mbr;
///
/// let bytes = atgis_datagen::write_geojson(&atgis_datagen::OsmGenerator::new(3).generate(100));
/// let dataset = Dataset::from_bytes(bytes, Format::GeoJson);
/// let engine = Engine::builder().threads(2).mode(Mode::Pat).build();
/// let opts = ExecOptions::new();
///
/// let matches = engine
///     .run(&[Query::containment(Mbr::new(-10.0, 40.0, 10.0, 60.0))], &dataset, &opts)
///     .unwrap()
///     .into_single()
///     .unwrap();
/// assert!(!matches.matches().is_empty());
///
/// let joined = engine
///     .run(&[Query::join(50)], &dataset, &opts)
///     .unwrap()
///     .into_single()
///     .unwrap();
/// for pair in joined.joined() {
///     assert!(pair.left_id < 50 && pair.right_id >= 50);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Engine {
    config: EngineBuilder,
    pool: Arc<WorkerPool>,
    persist: Option<Arc<crate::persist::PersistStore>>,
}

impl Engine {
    /// Starts building an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Configured thread count.
    pub fn threads(&self) -> usize {
        self.config.threads
    }

    /// The engine configuration (the batch planner reads partitioning
    /// knobs from it).
    pub(crate) fn config(&self) -> &EngineBuilder {
        &self.config
    }

    /// The engine's persistent worker pool.
    pub(crate) fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// The engine's persistent snapshot store, when one was configured
    /// with [`EngineBuilder::persist_path`] and opened successfully.
    pub fn persist(&self) -> Option<&Arc<crate::persist::PersistStore>> {
        self.persist.as_ref()
    }

    /// Area of the configured partition-grid extent (the scheduler's
    /// selectivity denominator).
    pub(crate) fn grid_extent_area(&self) -> f64 {
        self.config.grid_extent.area()
    }

    /// The unified entry point: executes `queries` over `dataset`
    /// under one [`ExecOptions`] request — cancellation, deadline,
    /// timing, fault isolation and sharded scatter–gather are fields,
    /// not method-name permutations (see [`crate::exec`]).
    ///
    /// Every call, one query or many, runs the shared-scan batch
    /// executor: plan, one scan feeding a [`crate::pipeline::MultiSink`],
    /// per-query finish — sharded when [`ExecOptions::shards`] asks for
    /// it. Results are bit-identical across every shard count.
    ///
    /// ```
    /// use atgis::{Dataset, Engine, ExecOptions, Query};
    /// use atgis_formats::Format;
    /// use atgis_geometry::Mbr;
    ///
    /// let bytes = atgis_datagen::write_geojson(&atgis_datagen::OsmGenerator::new(4).generate(80));
    /// let dataset = Dataset::from_bytes(bytes, Format::GeoJson);
    /// let engine = Engine::builder().threads(2).build();
    /// let queries = vec![
    ///     Query::containment(Mbr::new(-10.0, 40.0, 10.0, 60.0)),
    ///     Query::aggregation(Mbr::new(-6.0, 44.0, 4.0, 56.0)),
    ///     Query::join(40),
    /// ];
    ///
    /// // One shared parse pass, timed, scattered over 4 shards.
    /// let out = engine
    ///     .run(&queries, &dataset, &ExecOptions::new().timed().sharded(4))
    ///     .unwrap();
    /// let stats = out.shard_stats().expect("sharded run");
    /// assert!(stats.shards >= 1);
    /// // Every result is bit-identical to running its query alone on
    /// // a single node.
    /// for (q, batched) in queries.iter().zip(&out.outcomes) {
    ///     let solo = engine
    ///         .run(std::slice::from_ref(q), &dataset, &ExecOptions::new())
    ///         .unwrap();
    ///     assert_eq!(batched, &solo.outcomes[0]);
    /// }
    /// ```
    pub fn run(
        &self,
        queries: &[Query],
        dataset: &Dataset,
        opts: &ExecOptions,
    ) -> Result<RunOutcome> {
        let token = opts.effective_token();
        let shards = opts.shards.resolve(self.threads());
        let cache = crate::batch::IndexCache::new();
        let set = match shards {
            1 => None,
            n => Some(crate::shard::ShardSet::build(
                self,
                dataset,
                n,
                token.as_ref(),
            )?),
        };
        let (outcomes, stats) = match set.filter(|s| s.len() > 1) {
            Some(set) => crate::batch::execute_sharded_impl(
                self,
                queries,
                dataset,
                &cache,
                &set,
                token.as_ref(),
            )?,
            None => {
                crate::batch::execute_batch_impl(self, queries, dataset, &cache, token.as_ref())?
            }
        };
        exec::finish_run(outcomes, Some(stats), None, None, opts)
    }

    /// Resolves `FilterStrategy::Auto` with the paper's ~25% rule: the
    /// fraction of the dataset extent selected by the region estimates
    /// selectivity (§5.4: below ~25% selected, buffering wins).
    pub(crate) fn resolve_strategy(
        &self,
        strategy: FilterStrategy,
        region: &Polygon,
    ) -> FilterStrategy {
        match strategy {
            FilterStrategy::Auto => {
                let world = self.config.grid_extent.area();
                let selected = region.mbr().area();
                if world > 0.0 && selected / world >= 0.25 {
                    FilterStrategy::Streaming
                } else {
                    FilterStrategy::Buffered
                }
            }
            s => s,
        }
    }

    /// Number of blocks for a parallel pass.
    pub(crate) fn block_count(&self) -> usize {
        self.config.threads * self.config.block_multiplier
    }

    /// Runs a single-pass pipeline with the given aggregate prototype
    /// — the low-level API for custom aggregates and metadata filters
    /// pushed into the parse stage.
    pub fn single_pass<A: QueryAggregate>(
        &self,
        dataset: &Dataset,
        filter: &MetadataFilter,
        proto: A,
    ) -> Result<(A, Timings)> {
        self.scan_range_cancellable(dataset, 0, dataset.len(), filter, proto, None)
    }

    /// The buffered scan of the byte range `[start, end)` of `dataset`
    /// (the whole dataset, or one shard): a driver over the scan kernel
    /// in [`crate::pipeline`] that cuts `threads × block_multiplier`
    /// blocks and runs them on the worker pool. Blocks carry
    /// **absolute** offsets, so features keep their global identity
    /// (offset/len) and results over marker-aligned ranges compose
    /// bit-identically with a whole-dataset scan. `Adaptive` mode
    /// resolves on the whole dataset, so every shard scans in the mode
    /// a single-node pass would. OSM XML (whose relations need the
    /// global node table) parses the full document and absorbs only
    /// the features whose offset falls in the range; sharded batch
    /// execution parses once and buckets instead of calling this per
    /// shard.
    ///
    /// The `token` is observed between blocks (a tripped token skips
    /// every not-yet-started block and the scan returns
    /// [`Error::Cancelled`] / [`Error::DeadlineExceeded`]), and a
    /// panicking aggregate fails only this scan
    /// ([`Error::TaskPanicked`]) — the pool survives.
    pub(crate) fn scan_range_cancellable<A: QueryAggregate>(
        &self,
        dataset: &Dataset,
        start: usize,
        end: usize,
        filter: &MetadataFilter,
        proto: A,
        token: Option<&CancelToken>,
    ) -> Result<(A, Timings)> {
        let input = dataset.bytes();
        let format = dataset.format();
        let n = self.block_count();
        let plan = ScanPlan::resolve(format, self.config.mode, input, n);
        if plan == ScanPlan::Xml {
            let (features, mut t) = self.parse_xml(dataset, filter, token)?;
            let started = Instant::now();
            let mut agg = proto;
            absorb_range(&mut agg, &features, start, end);
            t.merge += started.elapsed();
            return Ok((agg, t));
        }
        let started = Instant::now();
        let blocks = plan.blocks(format, input, start, end, n);
        let split = started.elapsed();
        let (merged, mut t) = run_blocks_on(
            &self.pool,
            &blocks,
            self.config.threads,
            token,
            |b| ScanFrag::process(plan, format, input, b, filter, &proto).map_err(Error::Parse),
            |a, b| a.merge(b, input, filter).map_err(Error::Parse),
        );
        t.split = split;
        let started = Instant::now();
        let agg = match merged? {
            Some(frag) => frag.finish(input, filter)?,
            None => proto,
        };
        t.merge += started.elapsed();
        Ok((agg, t))
    }

    /// The XML parse (§4.4): one block-parallel collection pass
    /// (blocks merge by concatenation), then the temporary node table
    /// and a sequential assembly of ways and relations against it.
    pub(crate) fn parse_xml(
        &self,
        dataset: &Dataset,
        filter: &MetadataFilter,
        token: Option<&CancelToken>,
    ) -> Result<(Vec<RawFeature>, Timings)> {
        use atgis_formats::osmxml;
        let input = dataset.bytes();
        let started = Instant::now();
        let blocks =
            ScanPlan::Xml.blocks(Format::OsmXml, input, 0, input.len(), self.block_count());
        let split = started.elapsed();

        let (collected, mut t) = run_blocks_on(
            &self.pool,
            &blocks,
            self.config.threads,
            token,
            |b| osmxml::collect_block(input, b.start, b.end).map_err(Error::Parse),
            |mut a, b| {
                a.append(b);
                Ok(a)
            },
        );
        let collected = collected?.unwrap_or_default();

        let started = Instant::now();
        let features = osmxml::assemble(
            &collected.ways,
            &collected.relations,
            &collected.node_table(),
            filter,
        );
        t.split = split;
        t.merge += started.elapsed();
        Ok((features, t))
    }
}

/// Builds the format-specific single-object reparser for the join
/// pipeline.
pub(crate) fn make_reparser<'a>(
    input: &'a [u8],
    format: Format,
    xml_table: Option<&'a HashMap<u64, Geometry>>,
) -> Box<Reparser<'a>> {
    match format {
        Format::GeoJson => Box::new(move |offset, _len| {
            let mut out = Vec::new();
            atgis_formats::geojson::fast::parse_block(
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
        }),
        Format::Wkt => Box::new(move |offset, len| {
            let end = if len == u32::MAX {
                // Length unknown: the row ends at the next newline.
                atgis_formats::split::find_marker(input, b"\n", offset as usize)
                    .unwrap_or(input.len())
            } else {
                offset as usize + len as usize
            };
            atgis_formats::wkt::parse_row(input, offset as usize, end, &MetadataFilter::All)?
                .map(|f| f.geometry)
                .ok_or_else(|| ParseError::syntax(offset, "no row at offset"))
        }),
        Format::OsmXml => {
            let table = xml_table.expect("XML joins require the geometry table");
            Box::new(move |offset, _len| {
                table
                    .get(&offset)
                    .cloned()
                    .ok_or_else(|| ParseError::syntax(offset, "unknown XML object offset"))
            })
        }
    }
}

/// The join partition pass's aggregate: bounds geometries and
/// partitions them (associatively, or collecting entries for a
/// separate phase) into one side-agnostic index shared by every join
/// spec of a batch — sides and perimeter bounds resolve per query at
/// join time.
#[derive(Clone)]
pub(crate) struct PartitionAgg<S: PartitionStore + Clone> {
    pub(crate) grid: GridSpec,
    pub(crate) store: S,
    pub(crate) entries: Vec<PartEntry>,
    pub(crate) associative: bool,
}

impl<S: PartitionStore + Clone> PartitionAgg<S> {
    /// Seals the finished pass into its store plus the skew-refined
    /// map, scattering the entry list into the store first under the
    /// separate partition phase. The duration is the map refinement's.
    pub(crate) fn seal(mut self, adaptive: &AdaptiveConfig) -> (S, PartitionMap, Duration) {
        for e in std::mem::take(&mut self.entries) {
            for cell in self.grid.cells_for(&e.mbr) {
                self.store.push(cell, e);
            }
        }
        let started = Instant::now();
        let map = PartitionMap::adaptive(&self.grid, &self.store, adaptive);
        (self.store, map, started.elapsed())
    }
}

impl<S: PartitionStore + Clone> QueryAggregate for PartitionAgg<S> {
    fn identity() -> Self {
        unreachable!("constructed by the engine with grid parameters")
    }

    fn absorb(&mut self, f: &RawFeature) {
        let entry = PartEntry::from_feature(f, true);
        if self.associative {
            for cell in self.grid.cells_for(&entry.mbr) {
                self.store.push(cell, entry);
            }
        } else {
            self.entries.push(entry);
        }
    }

    fn combine(mut self, mut other: Self) -> Self {
        if self.associative {
            let store = std::mem::replace(&mut self.store, S::new(0));
            self.store = store.merge(other.store);
        } else {
            self.entries.append(&mut other.entries);
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::QueryResult;
    use crate::testutil::RunExt;
    use atgis_datagen::{write_geojson, write_wkt, OsmGenerator};

    fn dataset(n: usize, format: Format) -> Dataset {
        let ds = OsmGenerator::new(500).generate(n);
        let bytes = match format {
            Format::GeoJson => write_geojson(&ds),
            Format::Wkt => write_wkt(&ds),
            Format::OsmXml => atgis_datagen::write_osm_xml(&ds),
        };
        Dataset::from_bytes(bytes, format)
    }

    #[test]
    fn containment_whole_world_selects_everything() {
        let ds = dataset(80, Format::GeoJson);
        let engine = Engine::builder().threads(2).build();
        let q = Query::containment(Mbr::new(-180.0, -90.0, 180.0, 90.0));
        let r = engine.exec1(&q, &ds).unwrap();
        assert_eq!(r.matches().len(), 80);
    }

    #[test]
    fn containment_empty_region_selects_nothing() {
        let ds = dataset(50, Format::GeoJson);
        let engine = Engine::builder().build();
        let q = Query::containment(Mbr::new(100.0, -80.0, 101.0, -79.0));
        let r = engine.exec1(&q, &ds).unwrap();
        assert!(r.matches().is_empty());
    }

    #[test]
    fn fat_and_pat_agree_on_containment() {
        let ds = dataset(60, Format::GeoJson);
        let q = Query::containment(Mbr::new(-5.0, 45.0, 5.0, 55.0));
        let pat = Engine::builder().mode(Mode::Pat).threads(2).build();
        let fat = Engine::builder().mode(Mode::Fat).threads(2).build();
        let a = pat.exec1(&q, &ds).unwrap();
        let b = fat.exec1(&q, &ds).unwrap();
        assert_eq!(a.matches(), b.matches());
        assert!(!a.matches().is_empty(), "region should select something");
    }

    #[test]
    fn aggregation_counts_match_containment() {
        let ds = dataset(70, Format::GeoJson);
        let region = Mbr::new(-5.0, 45.0, 5.0, 55.0);
        let engine = Engine::builder().threads(2).build();
        let matches = engine
            .exec1(&Query::containment(region), &ds)
            .unwrap()
            .matches()
            .len() as u64;
        let agg = engine
            .exec1(&Query::aggregation(region), &ds)
            .unwrap()
            .aggregate()
            .unwrap();
        assert_eq!(agg.count, matches);
        assert!(agg.total_area > 0.0);
        assert!(agg.total_perimeter > 0.0);
    }

    #[test]
    fn formats_agree_on_aggregation() {
        let region = Mbr::new(-10.0, 40.0, 10.0, 60.0);
        let engine = Engine::builder().threads(2).build();
        let g = engine
            .exec1(&Query::aggregation(region), &dataset(40, Format::GeoJson))
            .unwrap()
            .aggregate()
            .unwrap();
        let w = engine
            .exec1(&Query::aggregation(region), &dataset(40, Format::Wkt))
            .unwrap()
            .aggregate()
            .unwrap();
        assert_eq!(g.count, w.count);
        assert!((g.total_area - w.total_area).abs() / g.total_area.max(1.0) < 1e-4);
    }

    #[test]
    fn join_finds_intersecting_pairs() {
        let ds = dataset(60, Format::GeoJson);
        let engine = Engine::builder().threads(2).cell_size(2.0).build();
        let r = engine.exec1(&Query::join(30), &ds).unwrap();
        // Pairs must respect the id partition.
        for p in r.joined() {
            assert!(p.left_id < 30, "{p:?}");
            assert!(p.right_id >= 30, "{p:?}");
        }
        // No duplicates.
        let mut seen = std::collections::HashSet::new();
        for p in r.joined() {
            assert!(seen.insert((p.left_offset, p.right_offset)), "dup {p:?}");
        }
    }

    #[test]
    fn join_matches_brute_force() {
        let gen = OsmGenerator::new(501).generate(50);
        let bytes = write_geojson(&gen);
        let ds = Dataset::from_bytes(bytes, Format::GeoJson);
        let engine = Engine::builder().threads(2).cell_size(1.0).build();
        let got: std::collections::HashSet<(u64, u64)> = engine
            .exec1(&Query::join(25), &ds)
            .unwrap()
            .joined()
            .iter()
            .map(|p| (p.left_id, p.right_id))
            .collect();
        let mut want = std::collections::HashSet::new();
        for a in &gen.objects {
            for b in &gen.objects {
                if a.id < 25 && b.id >= 25 && atgis_geometry::intersects(&a.geometry, &b.geometry) {
                    want.insert((a.id, b.id));
                }
            }
        }
        assert_eq!(got, want);
    }

    #[test]
    fn join_store_kinds_agree() {
        let ds = dataset(50, Format::GeoJson);
        let q = Query::join(25);
        let array = Engine::builder()
            .store(StoreKind::Array)
            .cell_size(2.0)
            .build();
        let list = Engine::builder()
            .store(StoreKind::List)
            .cell_size(2.0)
            .build();
        let a = array.exec1(&q, &ds).unwrap();
        let l = list.exec1(&q, &ds).unwrap();
        assert_eq!(a.joined(), l.joined());
    }

    #[test]
    fn join_partition_phases_agree() {
        let ds = dataset(50, Format::GeoJson);
        let q = Query::join(25);
        let assoc = Engine::builder()
            .partition_phase(PartitionPhase::Associative)
            .cell_size(2.0)
            .build();
        let sep = Engine::builder()
            .partition_phase(PartitionPhase::Separate)
            .cell_size(2.0)
            .build();
        assert_eq!(
            assoc.exec1(&q, &ds).unwrap().joined(),
            sep.exec1(&q, &ds).unwrap().joined()
        );
    }

    #[test]
    fn wkt_join_agrees_with_geojson_join() {
        let gen = OsmGenerator::new(502).generate(40);
        let g = Dataset::from_bytes(write_geojson(&gen), Format::GeoJson);
        let w = Dataset::from_bytes(write_wkt(&gen), Format::Wkt);
        let engine = Engine::builder().cell_size(2.0).build();
        let q = Query::join(20);
        let pg: Vec<(u64, u64)> = engine
            .exec1(&q, &g)
            .unwrap()
            .joined()
            .iter()
            .map(|p| (p.left_id, p.right_id))
            .collect();
        let pw: Vec<(u64, u64)> = engine
            .exec1(&q, &w)
            .unwrap()
            .joined()
            .iter()
            .map(|p| (p.left_id, p.right_id))
            .collect();
        assert_eq!(pg, pw);
    }

    #[test]
    fn combined_query_produces_union_area() {
        let ds = dataset(60, Format::GeoJson);
        let engine = Engine::builder().cell_size(2.0).build();
        let r = engine
            .exec1(&Query::combined(30, 0.0, f64::INFINITY), &ds)
            .unwrap();
        match r {
            QueryResult::Combined {
                pairs,
                total_union_area,
            } => {
                if pairs > 0 {
                    assert!(total_union_area > 0.0);
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn combined_filters_reduce_pairs() {
        let ds = dataset(60, Format::GeoJson);
        let engine = Engine::builder().cell_size(2.0).build();
        let all = match engine
            .exec1(&Query::combined(30, 0.0, f64::INFINITY), &ds)
            .unwrap()
        {
            QueryResult::Combined { pairs, .. } => pairs,
            _ => unreachable!(),
        };
        let filtered = match engine
            .exec1(&Query::combined(30, 1e9, f64::INFINITY), &ds)
            .unwrap()
        {
            QueryResult::Combined { pairs, .. } => pairs,
            _ => unreachable!(),
        };
        assert!(filtered <= all);
        assert_eq!(filtered, 0, "1e9 m perimeter filter rejects everything");
    }

    #[test]
    fn thread_counts_do_not_change_results() {
        let ds = dataset(80, Format::GeoJson);
        let q = Query::aggregation(Mbr::new(-10.0, 40.0, 10.0, 60.0));
        let base = Engine::builder()
            .threads(1)
            .build()
            .exec1(&q, &ds)
            .unwrap()
            .aggregate()
            .unwrap();
        for threads in [2, 3, 8] {
            let got = Engine::builder()
                .threads(threads)
                .build()
                .exec1(&q, &ds)
                .unwrap()
                .aggregate()
                .unwrap();
            assert_eq!(got.count, base.count, "threads={threads}");
            assert!((got.total_area - base.total_area).abs() / base.total_area.max(1.0) < 1e-9);
        }
    }

    #[test]
    fn xml_containment_counts_objects() {
        let ds = dataset(40, Format::OsmXml);
        let engine = Engine::builder().threads(2).build();
        let q = Query::containment(Mbr::new(-180.0, -90.0, 180.0, 90.0));
        let r = engine.exec1(&q, &ds).unwrap();
        // Collections flatten into multiple ways, so >= is correct;
        // ways with <2 resolvable points are dropped.
        assert!(!r.matches().is_empty());
    }

    #[test]
    fn adaptive_partitioning_preserves_join_results() {
        let ds = dataset(120, Format::GeoJson);
        let q = Query::join(60);
        let uniform = Engine::builder()
            .threads(2)
            .cell_size(4.0)
            .partition_target(0)
            .build();
        // Tiny target to force splits on this small dataset.
        let adaptive = Engine::builder()
            .threads(2)
            .cell_size(4.0)
            .partition_target(4)
            .build();
        let (u, us) = uniform.execb_timed(std::slice::from_ref(&q), &ds).unwrap();
        let (a, ast) = adaptive.execb_timed(std::slice::from_ref(&q), &ds).unwrap();
        assert_eq!(u, a);
        let ud = us.per_query[0].decisions.expect("join reports decisions");
        let ad = ast.per_query[0].decisions.expect("join reports decisions");
        assert_eq!(ud.map.split_cells, 0, "uniform never splits");
        assert!(ad.map.split_cells > 0, "tiny target must split: {ad:?}");
        assert!(ad.map.slots > ud.map.slots);
    }

    #[test]
    fn probe_strategies_agree_at_engine_level() {
        let ds = dataset(80, Format::GeoJson);
        let q = Query::join(40);
        let sweep = Engine::builder()
            .cell_size(4.0)
            .probe_strategy(crate::join::ProbeStrategy::Sweep)
            .build();
        let rtree = Engine::builder()
            .cell_size(4.0)
            .probe_strategy(crate::join::ProbeStrategy::RTree)
            .build();
        let s = sweep.exec1(&q, &ds).unwrap();
        let (r, rs) = rtree.execb_timed(std::slice::from_ref(&q), &ds).unwrap();
        assert_eq!(vec![s], r);
        let d = rs.per_query[0].decisions.unwrap();
        assert!(
            d.rtree_partitions > 0,
            "forced probe must be recorded: {d:?}"
        );
        assert_eq!(d.sweep_partitions, 0);
    }

    #[test]
    fn xml_join_runs() {
        let ds = dataset(30, Format::OsmXml);
        let engine = Engine::builder().cell_size(2.0).build();
        let r = engine.exec1(&Query::join(15), &ds).unwrap();
        for p in r.joined() {
            assert!(p.left_id < 15 && p.right_id >= 15);
        }
    }
}
