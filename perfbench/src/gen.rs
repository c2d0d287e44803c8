//! The benchmark's own seeded kernel generator.
//!
//! A generated kernel is `groups` groups of four adjacent `f64` stores
//! (`A[i+4g+l]`, lanes `l = 0..4`). Every lane of a group computes the same
//! expression template: a chain of commutative `+`/`*` over four leaves,
//! where the leaves read the group's own elements of `B`/`C`, an element of
//! `D` from another group (reads across groups), and either a constant or a
//! repeat of an earlier load (work for CSE). Each lane swaps the operands
//! of each operation by its own coin flip: the per-lane non-isomorphism
//! that LSLP's operand reordering repairs. The seed picks the swaps, the
//! leaf order, the offsets, the constants and which group each group reads
//! across; the mix of template kinds is fixed by the size.
//!
//! The generator also evaluates what it rendered, in plain Rust on the
//! seeded arrays; that evaluation is the reference every compiled artifact
//! of a generated kernel is checked against.

use lslp_interp::{Memory, Value};
use lslp_ir::ScalarType;

use crate::util::{build_memory, read_memory, seeded_arrays, ArraySpec, Rng};

const LANES: usize = 4;
const CONSTS: [f64; 4] = [0.5, 0.75, 1.25, 2.0];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Add,
    Mul,
}

#[derive(Clone, Debug)]
enum Expr {
    /// `arr[i + 4*group + lane + skew]`, `arr` one of `B`, `C`, `D`.
    Load {
        arr: usize,
        group: usize,
        skew: usize,
    },
    Const(f64),
    Bin {
        op: Op,
        l: Box<Expr>,
        r: Box<Expr>,
        swap: [bool; LANES],
    },
}

const INPUTS: [&str; 3] = ["B", "C", "D"];

/// One generated kernel: its SLC text and what it must compute.
#[derive(Clone, Debug)]
pub struct GenKernel {
    pub name: String,
    pub src: String,
    pub groups: usize,
    templates: Vec<Expr>,
}

impl GenKernel {
    /// Generate a kernel of `groups` store groups from `rng`.
    pub fn generate(name: &str, groups: usize, rng: &mut Rng) -> GenKernel {
        assert!(groups >= 1);
        let offset = rng.below(KINDS);
        // Each group reads `D` of a distinct group (a seeded permutation).
        let mut across: Vec<usize> = (0..groups).collect();
        rng.shuffle(&mut across);
        let templates = (0..groups)
            .map(|g| template(g, (g + offset) % KINDS, across[g], rng))
            .collect::<Vec<_>>();
        let mut src = format!("kernel {name}(f64* A, f64* B, f64* C, f64* D, i64 i) {{\n");
        for (g, t) in templates.iter().enumerate() {
            for lane in 0..LANES {
                src.push_str(&format!("    A[i+{}] = ", LANES * g + lane));
                render(t, lane, &mut src);
                src.push_str(";\n");
            }
        }
        src.push_str("}\n");
        GenKernel { name: name.to_string(), src, groups, templates }
    }

    /// Number of stores (the kernel's nominal size).
    pub fn stores(&self) -> usize {
        self.groups * LANES
    }

    /// The arrays the kernel reads and writes (`A` is the output).
    pub fn arrays(&self) -> Vec<ArraySpec> {
        let len = self.stores() + 1;
        ["A", "B", "C", "D"]
            .iter()
            .map(|n| ArraySpec { name: n.to_string(), ty: ScalarType::F64, len })
            .collect()
    }

    /// Seeded initial memory contents, one vector per [`Self::arrays`].
    pub fn inputs(&self, rng: &mut Rng) -> Vec<Vec<Value>> {
        seeded_arrays(&self.arrays(), rng)
    }

    /// The generator's own evaluation: the expected contents of `A` after
    /// one call with `i = 0` on `init`.
    pub fn reference(&self, init: &[Vec<Value>]) -> Vec<Value> {
        let mut out = init[0].clone();
        for (g, t) in self.templates.iter().enumerate() {
            for lane in 0..LANES {
                out[LANES * g + lane] = Value::Float(eval(t, lane, init));
            }
        }
        out
    }

    /// Interpret `f` (this kernel, compiled somehow) once on `init` and
    /// return the contents of `A`.
    pub fn run(
        &self,
        f: &lslp_ir::Function,
        init: &[Vec<Value>],
    ) -> Result<(Vec<Value>, lslp_interp::ExecStats), String> {
        let specs = self.arrays();
        let mut mem = build_memory(&specs, init);
        let args = args(&mem);
        let stats = lslp_interp::run_function(f, &args, &mut mem).map_err(|e| e.to_string())?;
        Ok((read_memory(&specs[..1], &mem).remove(0), stats))
    }
}

/// Call arguments for a generated kernel over `mem` (`i = 0`).
pub fn args(mem: &Memory) -> Vec<Value> {
    let mut a: Vec<Value> =
        ["A", "B", "C", "D"].iter().map(|n| mem.ptr(n).expect("array allocated")).collect();
    a.push(Value::Int(0));
    a
}

/// Template kinds: every combination of base opcode, tree shape and
/// fourth leaf. Groups take them in turn from a seeded offset, so any run of
/// consecutive groups holds a near-even mix and a kernel's compile cost
/// depends on its size, not on its seed.
const KINDS: usize = 12;

/// The expression template of group `g`: kind `kind`, reading `D` of group
/// `across`.
fn template(g: usize, kind: usize, across: usize, rng: &mut Rng) -> Expr {
    let own = |arr: usize, rng: &mut Rng| Expr::Load { arr, group: g, skew: rng.below(2) };
    let first = own(0, rng);
    let second = own(1, rng);
    let across = Expr::Load { arr: 2, group: across, skew: 0 };
    // The fourth leaf repeats one of the loads above or is a constant.
    let fourth = match kind % 3 {
        0 => first.clone(),
        1 => second.clone(),
        _ => Expr::Const(CONSTS[rng.below(CONSTS.len())]),
    };
    let mut leaves = vec![first, second, across, fourth];
    rng.shuffle(&mut leaves);
    // A mostly same-opcode chain, so LSLP can form multi-nodes; the last
    // operation switches opcode in one kind of three.
    let base = if kind.is_multiple_of(2) { Op::Add } else { Op::Mul };
    let last = if kind % 3 == 1 { flip(base) } else { base };
    let bin = |op: Op, l: Expr, r: Expr, rng: &mut Rng| Expr::Bin {
        op,
        l: Box::new(l),
        r: Box::new(r),
        swap: [rng.coin(), rng.coin(), rng.coin(), rng.coin()],
    };
    let [a, b, c, d]: [Expr; 4] = leaves.try_into().expect("four leaves");
    if (kind / 2).is_multiple_of(2) {
        // ((a . b) . c) . d
        let ab = bin(base, a, b, rng);
        let abc = bin(base, ab, c, rng);
        bin(last, abc, d, rng)
    } else {
        // (a . b) . (c . d)
        let ab = bin(base, a, b, rng);
        let cd = bin(base, c, d, rng);
        bin(last, ab, cd, rng)
    }
}

fn flip(op: Op) -> Op {
    match op {
        Op::Add => Op::Mul,
        Op::Mul => Op::Add,
    }
}

fn render(e: &Expr, lane: usize, out: &mut String) {
    match e {
        Expr::Load { arr, group, skew } => {
            out.push_str(&format!("{}[i+{}]", INPUTS[*arr], LANES * group + lane + skew));
        }
        Expr::Const(c) => out.push_str(&format!("{c:?}")),
        Expr::Bin { op, l, r, swap } => {
            let (x, y) = if swap[lane] { (r, l) } else { (l, r) };
            out.push('(');
            render(x, lane, out);
            out.push_str(if *op == Op::Add { " + " } else { " * " });
            render(y, lane, out);
            out.push(')');
        }
    }
}

fn eval(e: &Expr, lane: usize, init: &[Vec<Value>]) -> f64 {
    match e {
        Expr::Load { arr, group, skew } => init[arr + 1][LANES * group + lane + skew].as_float(),
        Expr::Const(c) => *c,
        Expr::Bin { op, l, r, swap } => {
            let (x, y) = if swap[lane] { (r, l) } else { (l, r) };
            let (x, y) = (eval(x, lane, init), eval(y, lane, init));
            match op {
                Op::Add => x + y,
                Op::Mul => x * y,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::values_agree;

    fn lowered(k: &GenKernel) -> lslp_ir::Function {
        let m = lslp_frontend::compile(&k.src).unwrap_or_else(|e| panic!("{e}\n{}", k.src));
        m.functions.into_iter().next().unwrap()
    }

    /// The reference evaluation must agree bit for bit with the interpreter
    /// on the unoptimized lowering: both evaluate the rendered operations in
    /// the same order.
    #[test]
    fn reference_matches_unoptimized_lowering() {
        for seed in 0..24u64 {
            let mut rng = Rng::new(seed);
            let groups = 1 + rng.below(12);
            let k = GenKernel::generate(&format!("g{seed}"), groups, &mut rng);
            let init = k.inputs(&mut rng);
            let (got, _) = k.run(&lowered(&k), &init).unwrap();
            assert_eq!(got, k.reference(&init), "seed {seed}\n{}", k.src);
        }
    }

    /// And within the fast-math tolerance after the full LSLP pipeline,
    /// which must also find something to vectorize.
    #[test]
    fn reference_matches_vectorized_artifact() {
        for seed in 0..8u64 {
            let mut rng = Rng::new(100 + seed);
            let k = GenKernel::generate("v", 4 + seed as usize, &mut rng);
            let init = k.inputs(&mut rng);
            let opts = lslp::CompileOptions::preset("LSLP").target("skylake-avx2").build().unwrap();
            let art = lslp::Session::new(opts).compile(&k.src).unwrap();
            assert!(art.trees_vectorized() > 0, "seed {seed}: nothing vectorized\n{}", k.src);
            let (got, _) = k.run(&art.module.functions[0], &init).unwrap();
            let want = k.reference(&init);
            assert!(got.iter().zip(&want).all(|(a, b)| values_agree(a, b)), "seed {seed}");
        }
    }

    #[test]
    fn same_seed_same_kernel() {
        let a = GenKernel::generate("k", 9, &mut Rng::new(7));
        let b = GenKernel::generate("k", 9, &mut Rng::new(7));
        let c = GenKernel::generate("k", 9, &mut Rng::new(8));
        assert_eq!(a.src, b.src);
        assert_ne!(a.src, c.src);
    }
}
