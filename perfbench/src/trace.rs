//! In-memory spans recorded around the benchmark's own calls into
//! each layer's public functions. Spans are written out as JSON lines
//! when the run ends; per-layer self time is derived from them.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub type SpanId = usize;

struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<SpanId>,
    request: u64,
}

/// A span recorder. Thread-safe, so spans opened inside closures the
/// library runs on worker threads land in the same tree.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn open(&self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let start = self.epoch.elapsed();
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        spans.len() - 1
    }

    pub fn close(&self, id: SpanId) {
        let end = self.epoch.elapsed();
        self.spans.lock().expect("span recorder poisoned")[id].end = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// Records an already-measured interval as a span.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        started: Instant,
        ended: Instant,
    ) {
        let start = started.saturating_duration_since(self.epoch);
        let end = ended.saturating_duration_since(self.epoch);
        self.spans
            .lock()
            .expect("span recorder poisoned")
            .push(Span {
                name,
                start,
                end,
                parent,
                request,
            });
    }

    pub fn duration(&self, id: SpanId) -> Duration {
        let spans = self.spans.lock().expect("span recorder poisoned");
        spans[id].end.saturating_sub(spans[id].start)
    }

    /// Summed self time per span name: each span's duration minus the
    /// time covered by its direct children.
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        let spans = self.spans.lock().expect("span recorder poisoned");
        let mut child_time = vec![Duration::ZERO; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_time[p] += s.end.saturating_sub(s.start);
            }
        }
        let mut out: BTreeMap<&'static str, Duration> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            *out.entry(s.name).or_default() +=
                s.end.saturating_sub(s.start).saturating_sub(child_time[i]);
        }
        out
    }

    /// Summed full duration per span name.
    pub fn total_times(&self) -> BTreeMap<&'static str, Duration> {
        let spans = self.spans.lock().expect("span recorder poisoned");
        let mut out: BTreeMap<&'static str, Duration> = BTreeMap::new();
        for s in spans.iter() {
            *out.entry(s.name).or_default() += s.end.saturating_sub(s.start);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let spans = self.spans.lock().expect("span recorder poisoned");
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.request
            )?;
        }
        out.flush()
    }
}

/// Self time of `name` in milliseconds, summed over the run.
pub fn self_ms(times: &BTreeMap<&'static str, Duration>, name: &str) -> f64 {
    times.get(name).map_or(0.0, |d| d.as_secs_f64() * 1e3)
}

/// Where a traced run's spans are written: `out/` beside this
/// package's manifest.
pub fn trace_path(workload: &str, seed: u64) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}-{seed}.jsonl"))
}
