//! Small shared pieces: a seeded RNG, summary statistics, the process's
//! peak resident set, seeded kernel memory and the float tolerance of the
//! correctness checks.

use std::time::Instant;

use lslp_interp::{Memory, Value};
use lslp_ir::ScalarType;

/// SplitMix64: a tiny, seedable, platform-independent generator, so the
/// same `--seed` gives the same inputs everywhere.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_1E55_C0FF_EE00)
    }

    /// An independent stream for one named purpose.
    pub fn derive(seed: u64, purpose: &str) -> Rng {
        Rng::new(seed ^ fnv(purpose.as_bytes()).rotate_left(17))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// FNV-1a, for deriving streams and fingerprints.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Microseconds since `t` as a float with all its digits.
pub fn us_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

/// Pin the calling thread, and every thread it starts afterwards, to the
/// CPU it is running on now, so `serve`'s client, event loop and worker,
/// which take turns, hand off without cross-CPU wake-ups.
pub fn pin_to_current_cpu() {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: plain libc calls on this thread; the mask outlives the call
    // and its size is passed alongside.
    unsafe {
        let cpu = sched_getcpu();
        if (0..1024).contains(&cpu) {
            let mut mask = [0u64; 16];
            mask[cpu as usize / 64] |= 1 << (cpu % 64);
            sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
        }
    }
}

/// Linear-interpolation quantile of `sorted` (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v), 0.5)
}

pub fn geomean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// Least-squares slope of `ln y` on `ln x`.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let xs: Vec<f64> = points.iter().map(|p| p.0.ln()).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.1.ln()).collect();
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    sxy / sxx
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Both values agree: bit-exact for integers, within the fast-math relative
/// tolerance of DESIGN.md for floats (the guard's own oracle formula).
pub fn values_agree(x: &Value, y: &Value) -> bool {
    match (x, y) {
        (Value::Float(a), Value::Float(b)) => {
            (a.is_nan() && b.is_nan()) || (a - b).abs() <= 1e-8 * a.abs().max(b.abs()).max(1.0)
        }
        _ => x == y,
    }
}

/// One pointer parameter's array: name, element type and length.
#[derive(Clone, Debug)]
pub struct ArraySpec {
    pub name: String,
    pub ty: ScalarType,
    pub len: usize,
}

/// The pointer parameters of an SLC kernel signature
/// `kernel k(f64* A, i64* B, i64 i)`, in order.
pub fn pointer_params(src: &str) -> Vec<(String, ScalarType)> {
    let open = src.find('(').expect("kernel signature");
    let close = open + src[open..].find(')').expect("kernel signature");
    src[open + 1..close]
        .split(',')
        .filter_map(|p| {
            let (ty, name) = p.trim().split_once(' ')?;
            let ty = ty.strip_suffix('*')?;
            let st = match ty {
                "f64" => ScalarType::F64,
                "f32" => ScalarType::F32,
                "i64" => ScalarType::I64,
                "i32" => ScalarType::I32,
                "i16" => ScalarType::I16,
                "i8" => ScalarType::I8,
                other => panic!("unsupported element type {other}"),
            };
            Some((name.trim().to_string(), st))
        })
        .collect()
}

/// Seeded initial contents for every array: floats in `[0.5, 1.5)` and
/// integers in `1..=4096`, so products stay finite and divisions defined.
pub fn seeded_arrays(specs: &[ArraySpec], rng: &mut Rng) -> Vec<Vec<Value>> {
    specs
        .iter()
        .map(|s| {
            (0..s.len)
                .map(|_| match s.ty {
                    ScalarType::F64 | ScalarType::F32 => {
                        let v = 0.5 + rng.unit();
                        Value::Float(if s.ty == ScalarType::F32 { v as f32 as f64 } else { v })
                    }
                    _ => Value::Int(1 + rng.below(4096) as i64),
                })
                .collect()
        })
        .collect()
}

fn elem_bytes(ty: ScalarType) -> usize {
    match ty {
        ScalarType::I8 => 1,
        ScalarType::I16 => 2,
        ScalarType::I32 | ScalarType::F32 => 4,
        ScalarType::I64 | ScalarType::F64 | ScalarType::Ptr => 8,
    }
}

/// A fresh interpreter memory holding `init`.
pub fn build_memory(specs: &[ArraySpec], init: &[Vec<Value>]) -> Memory {
    let mut mem = Memory::new();
    for (s, vals) in specs.iter().zip(init) {
        let w = elem_bytes(s.ty);
        let p = mem.alloc(&s.name, s.len * w);
        for (k, v) in vals.iter().enumerate() {
            mem.write_scalar(&p, (k * w) as i64, s.ty, v.clone()).expect("in bounds");
        }
    }
    mem
}

/// Every array's contents, for comparison.
pub fn read_memory(specs: &[ArraySpec], mem: &Memory) -> Vec<Vec<Value>> {
    specs
        .iter()
        .map(|s| {
            let p = mem.ptr(&s.name).expect("array allocated");
            let w = elem_bytes(s.ty);
            (0..s.len)
                .map(|k| mem.read_scalar(&p, (k * w) as i64, s.ty).expect("in bounds"))
                .collect()
        })
        .collect()
}

/// `None` when both memory images agree, else where they first differ.
pub fn first_mismatch(
    specs: &[ArraySpec],
    got: &[Vec<Value>],
    want: &[Vec<Value>],
) -> Option<String> {
    for (s, (g, w)) in specs.iter().zip(got.iter().zip(want)) {
        for (k, (x, y)) in g.iter().zip(w).enumerate() {
            if !values_agree(x, y) {
                return Some(format!("{}[{k}]: got {x:?}, want {y:?}", s.name));
            }
        }
    }
    None
}

/// Instructions in a function, across CFG blocks when it has any.
pub fn inst_count(f: &lslp_ir::Function) -> usize {
    let blocks: usize = match f.cfg() {
        Some(_) => (0..f.num_blocks())
            .map(|b| f.block(lslp_ir::BlockId::from_raw(b as u32)).insts().len())
            .sum(),
        None => 0,
    };
    f.body_len() + blocks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
    }

    #[test]
    fn slope_of_a_power_law() {
        let pts: Vec<(f64, f64)> = (1..10).map(|x| (x as f64, 3.0 * (x as f64).powi(2))).collect();
        assert!((loglog_slope(&pts) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn signature_parsing() {
        let p = pointer_params("kernel k(f32* A, i64* Bq, i64 i) { }");
        assert_eq!(p, vec![("A".into(), ScalarType::F32), ("Bq".into(), ScalarType::I64)]);
    }
}
