//! Shared helpers for the table/figure regenerators in `src/bin/` and the
//! plain-`main` benches in `benches/`.
//!
//! Every binary prints the rows/series of one paper artifact (see the
//! experiment index in DESIGN.md). The helpers here keep workloads,
//! measurement, and formatting consistent across them: [`median_s`] is the
//! one timing loop every bench and micro tier uses.

use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

use fedsz::partition::{route_of, Route};
use fedsz_tensor::{SplitMix64, StateDict, Tensor, TensorKind};

/// Wall-clock a closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Median wall seconds of `reps` calls of `f`, after one untimed warm-up
/// call that sizes buffers and warms caches. Each result goes through
/// `black_box`, so the work is not optimised away. Panics when `reps` is 0:
/// no sample has a median.
pub fn median_s<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    assert!(reps > 0, "median_s: reps must be at least 1, got 0");
    black_box(f());
    let mut secs: Vec<f64> = (0..reps).map(|_| time(|| black_box(f())).1).collect();
    secs.sort_by(f64::total_cmp);
    secs[reps / 2]
}

/// `VmRSS` / `VmHWM` in kB from `/proc/self/status` (0 if unavailable).
pub fn proc_status_kb(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find(|l| l.starts_with(field))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Deterministic synthetic client update: `params` values split into one
/// big lossy-routed weight tensor and a small lossless-routed bias. Weights
/// are normal noise at trained-network scale — smooth analytic data would
/// compress to almost nothing and make decode unrealistically cheap.
pub fn synth_update(params: usize, seed: u64) -> StateDict {
    let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
    let bias_len = 16.min(params / 4).max(1);
    let weight_len = params.saturating_sub(bias_len).max(1);
    let mut normals = |n: usize, std: f64| -> Vec<f32> {
        (0..n).map(|_| rng.normal_with(0.0, std) as f32).collect()
    };
    let mut sd = StateDict::new();
    let w = normals(weight_len, 0.05);
    sd.insert("features.weight", TensorKind::Weight, Tensor::from_vec(w));
    let b = normals(bias_len, 0.01);
    sd.insert("classifier.bias", TensorKind::Bias, Tensor::from_vec(b));
    sd
}

/// The relative error bounds of Table I.
pub const TABLE1_BOUNDS: [f64; 3] = [1e-2, 1e-3, 1e-4];
/// The relative error bounds of Table V / Figure 7.
pub const TABLE5_BOUNDS: [f64; 4] = [1e-1, 1e-2, 1e-3, 1e-4];
/// The relative error bounds of Figure 5.
pub const FIG5_BOUNDS: [f64; 5] = [1e-5, 1e-4, 1e-3, 1e-2, 1e-1];

/// Concatenated values of the lossy partition of a state dict — the data an
/// EBLC sees in Table I (per-tensor framing excluded).
pub fn lossy_partition_values(sd: &StateDict, threshold: usize) -> Vec<f32> {
    let mut out = Vec::new();
    for e in sd.entries() {
        if route_of(&e.name, e.tensor.numel(), threshold) == Route::Lossy {
            out.extend_from_slice(e.tensor.data());
        }
    }
    out
}

/// Concatenated little-endian bytes of the lossless (metadata) partition.
pub fn metadata_partition_bytes(sd: &StateDict, threshold: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for e in sd.entries() {
        if route_of(&e.name, e.tensor.numel(), threshold) == Route::Lossless {
            out.extend_from_slice(&fedsz_tensor::f32s_to_le_bytes(e.tensor.data()));
        }
    }
    out
}

/// Simple argv flag parsing shared by the regenerator binaries. Each
/// argument is marked seen once `flag` or `value` reads it, and
/// [`Args::finish`] refuses any left unread.
pub struct Args(Vec<(String, Cell<bool>)>);

impl Args {
    /// Capture the process arguments.
    pub fn parse() -> Self {
        Self::new(std::env::args().skip(1))
    }

    fn new(args: impl IntoIterator<Item = String>) -> Self {
        Self(args.into_iter().map(|a| (a, Cell::new(false))).collect())
    }

    /// The position of `name`, marked seen; `None` when it is absent.
    fn find(&self, name: &str) -> Option<usize> {
        let i = self.0.iter().position(|(arg, _)| arg == name)?;
        self.0[i].1.set(true);
        Some(i)
    }

    /// Whether `--name` is present.
    pub fn flag(&self, name: &str) -> bool {
        self.find(name).is_some()
    }

    /// Value of `--name <value>` parsed as `T`, or the default when the
    /// flag is absent. Panics, naming the flag and the text, when the value
    /// is missing or does not parse: a typo must not run the default.
    pub fn value<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        let Some(i) = self.find(name) else {
            return default;
        };
        let text = self.0.get(i + 1).map_or("", |(text, seen)| {
            seen.set(true);
            text.as_str()
        });
        text.parse()
            .unwrap_or_else(|_| panic!("{name}: cannot parse {text:?}"))
    }

    /// Panics naming the first argument no `flag` or `value` call read — a
    /// misspelt or repeated flag must not run the defaults. Call it after
    /// the reads and before any work.
    pub fn finish(&self) {
        if let Some((arg, _)) = self.0.iter().find(|(_, seen)| !seen.get()) {
            panic!("unknown argument {arg:?}");
        }
    }
}

/// Print a title row, the host the numbers were taken on (every timing
/// depends on its core count and SIMD level) and a tab-joined column row,
/// for the regenerators' text tables.
pub fn print_header(title: &str, cols: &[&str]) {
    println!("# {title}");
    println!(
        "# host: available_parallelism={} simd={}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        fedsz_simd::active_level().name()
    );
    println!("{}", cols.join("\t"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsz::DEFAULT_THRESHOLD;
    use fedsz_models::ModelKind;

    #[test]
    fn lossy_partition_dominates_alexnet() {
        let sd = ModelKind::AlexNet.synthesize(10, 1);
        let lossy = lossy_partition_values(&sd, DEFAULT_THRESHOLD);
        let meta = metadata_partition_bytes(&sd, DEFAULT_THRESHOLD);
        let total = sd.num_params();
        let frac = lossy.len() as f64 / total as f64;
        // Table III: 99.98% of AlexNet is lossy data.
        assert!(frac > 0.999, "lossy fraction {frac}");
        assert_eq!(lossy.len() * 4 + meta.len(), total * 4);
    }

    #[test]
    fn time_measures_something() {
        let (v, secs) = time(|| (0..100_000u64).sum::<u64>());
        assert_eq!(v, 4_999_950_000);
        assert!(secs >= 0.0);
    }

    fn args(raw: &[&str]) -> Args {
        Args::new(raw.iter().map(|a| a.to_string()))
    }

    #[test]
    fn args_parse_values() {
        let args = args(&["--fast", "--rounds", "7"]);
        assert!(args.flag("--fast"));
        assert!(!args.flag("--slow"));
        assert_eq!(args.value("--rounds", 50usize), 7);
        assert_eq!(args.value("--clients", 4usize), 4);
        args.finish();
    }

    #[test]
    #[should_panic(expected = "--reps: cannot parse \"1O\"")]
    fn args_refuse_an_unparsable_value() {
        args(&["--reps", "1O"]).value("--reps", 5usize);
    }

    #[test]
    #[should_panic(expected = "unknown argument \"--rouds\"")]
    fn args_refuse_an_unread_argument() {
        let args = args(&["--rounds", "3", "--rouds", "3"]);
        assert_eq!(args.value("--rounds", 10usize), 3);
        args.finish();
    }

    #[test]
    #[should_panic(expected = "median_s: reps must be at least 1, got 0")]
    fn median_s_refuses_zero_reps() {
        median_s(0, || ());
    }

    #[test]
    fn median_s_warms_up_once_then_returns_the_middle_sample() {
        use std::time::Duration;
        // The untimed warm-up is the slowest call; were it timed, the
        // median of the four samples would be the 50 ms one.
        let sleeps_ms = [100, 1, 50, 10];
        let mut calls = 0;
        let secs = median_s(3, || {
            std::thread::sleep(Duration::from_millis(sleeps_ms[calls]));
            calls += 1;
        });
        assert_eq!(calls, 4);
        assert!((0.010..0.050).contains(&secs), "median {secs} s");
    }
}
