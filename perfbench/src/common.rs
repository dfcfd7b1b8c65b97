//! Shared harness pieces: arguments, seeded randomness, latency
//! summaries, process metrics, the calibration loop and the result
//! report.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Command-line arguments: `--workload <name> --seed <n> --seconds <s>
/// --trace <0|1>`.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = 10.0f64;
        let mut trace = false;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = value.parse().map_err(|_| bad())?,
                "--seconds" => seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds {seconds} outside (0, 600]"));
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// SplitMix64: a tiny seeded generator, so inputs depend on the seed
/// alone and not on any library's stream.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Worker threads for every engine: the machine's parallelism.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A square query region inside the generated world
/// (`OsmGenerator::new`'s 20°×20° default), its side `side_share` of the
/// world's side, placed uniformly at random.
pub fn square(rng: &mut Rng, side_share: f64) -> atgis_geometry::Mbr {
    let (x0, y0, side) = (-10.0, 40.0, 20.0 * side_share);
    let x = rng.range(x0, x0 + 20.0 - side);
    let y = rng.range(y0, y0 + 20.0 - side);
    atgis_geometry::Mbr::new(x, y, x + side, y + side)
}

/// FNV-1a 64 over everything the program receives, printed so both
/// sides of an A/B comparison can be shown to measure the same inputs.
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn add_debug(&mut self, value: &impl std::fmt::Debug) {
        self.add(format!("{value:?}").as_bytes());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A latency sample summary: the median and the highest percentile
/// that still has at least ten samples beyond it.
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail: f64,
    pub tail_pct: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let (tail, tail_pct) = if n > 10 {
            (v[n - 11], 100.0 * (n - 10) as f64 / n as f64)
        } else {
            (v.last().copied().unwrap_or(0.0), 100.0)
        };
        Summary {
            n,
            p50: median(&v),
            tail,
            tail_pct,
        }
    }

    pub fn describe(&self, name: &str) -> String {
        format!(
            "{name}: p50 {:.3} ms, tail {:.3} ms at p{:.2} ({} samples, 10 beyond)",
            self.p50, self.tail, self.tail_pct, self.n
        )
    }
}

/// Medians, over consecutive windows of at least `min` samples, of
/// each window's p50 and tail: a transient stall of the host moves one
/// window's figures, not the result. `rounds` are the samples in time
/// order, grouped by the rounds they were taken in; a window closes at
/// a round boundary, and a short last window joins the one before.
pub fn windowed(rounds: &[Vec<f64>], min: usize) -> (Summary, usize) {
    let mut windows: Vec<Vec<f64>> = vec![Vec::new()];
    for round in rounds {
        if windows.last().is_some_and(|w| w.len() >= min) {
            windows.push(Vec::new());
        }
        windows.last_mut().expect("one window").extend(round);
    }
    if windows.len() > 1 && windows.last().is_some_and(|w| w.len() < min) {
        let short = windows.pop().expect("more than one window");
        windows.last_mut().expect("one window").extend(short);
    }
    let summaries: Vec<Summary> = windows.iter().map(|w| Summary::of(w)).collect();
    let pick = |f: fn(&Summary) -> f64| median(&summaries.iter().map(f).collect::<Vec<_>>());
    let combined = Summary {
        n: summaries.iter().map(|s| s.n).sum(),
        p50: pick(|s| s.p50),
        tail: pick(|s| s.tail),
        tail_pct: pick(|s| s.tail_pct),
    };
    (combined, windows.len())
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A pure-std byte-hashing loop over a 4 MiB buffer: its MiB/s shows
/// machine drift between the two sides of a comparison.
pub fn calibration_mbps() -> f64 {
    let buf: Vec<u8> = (0..4usize << 20).map(|i| (i * 31 % 251) as u8).collect();
    let started = Instant::now();
    let mut bytes = 0usize;
    let mut h = Fingerprint::new();
    while started.elapsed() < Duration::from_millis(150) {
        h.add(std::hint::black_box(&buf));
        bytes += buf.len();
    }
    std::hint::black_box(h.hex());
    mib(bytes) / started.elapsed().as_secs_f64()
}

/// How many times a run repeats its set-up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 21;

/// Runs `build` `times` times and keeps the last result, returning it
/// with the median build time in seconds.
pub fn timed_setup<T>(times: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        drop(last.take());
        let started = Instant::now();
        let built = build();
        secs.push(started.elapsed().as_secs_f64());
        last = Some(built);
    }
    (last.expect("at least one setup"), median(&secs))
}

/// The end-to-end metrics every workload reports, with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_mbps", "MiB/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics of the traced run. Every workload reports
/// all of them; a layer a workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("transducer.split_ms", "ms/req"),
    ("transducer.scan_ms", "ms/req"),
    ("transducer.scan_mbps", "MiB/s"),
    ("formats.parse_ms", "ms/req"),
    ("formats.parse_mbps.geojson", "MiB/s"),
    ("formats.parse_mbps.wkt", "MiB/s"),
    ("formats.parse_mbps.osmxml", "MiB/s"),
    ("formats.features", "count/req"),
    ("formats.errors", "count/req"),
    ("pipeline.absorb_ms", "ms/req"),
    ("pipeline.match_ratio", "ratio"),
    ("executor.merge_ms", "ms/req"),
    ("executor.merges", "count/req"),
    ("executor.parallel_efficiency", "ratio"),
    ("partition.build_ms", "ms/req"),
    ("partition.slots", "count/req"),
    ("partition.slot_skew", "ratio"),
    ("join.pbsm_ms", "ms/req"),
    ("join.pairs", "count/req"),
    ("join.rtree_share", "ratio"),
    ("join.dedup_ms", "ms/req"),
    ("formats.reparse_ms", "ms/req"),
    ("formats.reparse_calls", "count/req"),
    ("stream.ingest_chunk_ms", "ms/chunk"),
    ("stream.finish_ms", "ms/cycle"),
    ("stream.regions", "count/cycle"),
    ("stream.merges", "count/cycle"),
    ("stream.peak_fragments", "count"),
    ("stream.ingest_wait_ms", "ms/cycle"),
    ("batch.scan_passes", "count/batch"),
    ("batch.queries_per_pass", "ratio"),
    ("scheduler.cache_hit_ratio", "ratio"),
    ("scheduler.dedup_ratio", "ratio"),
    ("scheduler.scan_passes_per_kreq", "count/kreq"),
    ("scheduler.shed_ratio", "ratio"),
    ("server.reply_p50_ms", "ms"),
    ("server.wire_overhead_ms", "ms"),
    ("server.stats_rpc_ms", "ms"),
    ("bench.gen_lag_ms", "ms"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.unattributed_share", "ratio"),
    ("bench.calibration_mbps", "MiB/s"),
];

/// What one workload run produced.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub per_layer: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            attempted: 0,
            failed: 0,
            wrong: 0,
            end_to_end: BTreeMap::new(),
            per_layer: PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = if END_TO_END.iter().any(|(n, _)| *n == name) {
            &mut self.end_to_end
        } else {
            assert!(self.per_layer.contains_key(name), "unknown metric {name}");
            &mut self.per_layer
        };
        slot.insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// Prints the human-readable metric lines, then the one-line JSON
    /// result, and returns the process exit code: non-zero when any
    /// answer was wrong.
    pub fn finish(mut self, trace: bool) -> i32 {
        let failed_ratio = self.failed as f64 / self.attempted.max(1) as f64;
        self.set("ok_ratio", 1.0 - failed_ratio);
        self.set("peak_rss_mb", peak_rss_mb());
        println!(
            "attempted {} failed {} wrong answers {} failed_ratio {failed_ratio} ratio",
            self.attempted, self.failed, self.wrong
        );
        let (list, values): (&[(&str, &str)], _) = if trace {
            (&PER_LAYER, &self.per_layer)
        } else {
            (&END_TO_END, &self.end_to_end)
        };
        let mut fields = Vec::new();
        for (name, unit) in list {
            let value = values.get(name).copied().unwrap_or(0.0);
            println!("{name}: {value} {unit}");
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        let correct = self.wrong == 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
        if correct {
            0
        } else {
            1
        }
    }
}

fn json_number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}
