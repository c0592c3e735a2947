//! Linear-algebra kernels.
//!
//! # Summation contract
//!
//! Every output element starts at `0.0` and adds the products
//! `a[i,p] · b[p,j]` for `p = 0..k` in ascending order, each as a
//! separate multiply then add (Rust never contracts them to an FMA).
//! Blocking may change which outputs are computed together, never the
//! order within one output, so every layout change is bit-identical.
//!
//! The one deviation is the zero skip: [`matmul`] and [`matmul_tn`] skip
//! the products whose `a` element is `±0.0`. Adding `±0.0 · b` for a
//! finite `b` changes at most the sign of a zero result, so on finite
//! inputs they equal the naive loop (and [`matmul_nt`] on the transposed
//! operand) under `==`, though not always bit for bit.
//!
//! `matmul` and `matmul_tn` stay row-axpy loops on purpose. ReLU makes
//! about half of their `a` zero in training, and the skip pays more than
//! register blocking: a 4×8 tile that kept the skip took 0.89 ms against
//! the axpy's 0.39 ms on the first HDC layer's shape (batch 32,
//! 784 → 192) at 50 % zeros, on a 2-CPU x86-64 host.

use crate::Tensor;

/// Matrix multiplication `a (m×k) × b (k×n) → (m×n)`.
///
/// A cache-friendly i-k-j loop with the inner j-loop over contiguous
/// rows of `b`, skipping zero elements of `a` (see the module doc).
///
/// # Panics
///
/// Panics unless both operands are rank 2 and `a.cols == b.rows`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape().rank(), 2, "matmul lhs must be a matrix");
    assert_eq!(b.shape().rank(), 2, "matmul rhs must be a matrix");
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(
        k, k2,
        "matmul inner dimensions differ: {}x{} * {}x{}",
        m, k, k2, n
    );
    let av = a.as_slice();
    let bv = b.as_slice();
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let arow = &av[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (p, &aval) in arow.iter().enumerate() {
            if aval == 0.0 {
                continue;
            }
            let brow = &bv[p * n..(p + 1) * n];
            for (o, &bval) in orow.iter_mut().zip(brow.iter()) {
                *o += aval * bval;
            }
        }
    }
    Tensor::from_vec(out, &[m, n])
}

/// `a^T × b` without materializing the transpose.
///
/// `a` is `k×m`, `b` is `k×n`, the result is `m×n`.
///
/// # Panics
///
/// Panics unless both operands are rank 2 with matching outer (`k`)
/// dimensions.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape().rank(), 2, "matmul_tn lhs must be a matrix");
    assert_eq!(b.shape().rank(), 2, "matmul_tn rhs must be a matrix");
    let (k, m) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "matmul_tn outer dimensions differ");
    let av = a.as_slice();
    let bv = b.as_slice();
    let mut out = vec![0.0f32; m * n];
    for p in 0..k {
        let arow = &av[p * m..(p + 1) * m];
        let brow = &bv[p * n..(p + 1) * n];
        for (i, &aval) in arow.iter().enumerate() {
            if aval == 0.0 {
                continue;
            }
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, &bval) in orow.iter_mut().zip(brow.iter()) {
                *o += aval * bval;
            }
        }
    }
    Tensor::from_vec(out, &[m, n])
}

/// Output-tile height of [`matmul_nt`]: rows of `a` per tile.
const MR: usize = 4;
/// Output-tile width of [`matmul_nt`]: rows of `b` per packed panel, one
/// lane each.
const NR: usize = 8;
/// Depth of one packed panel of [`matmul_nt`]: `KC × NR` values live on
/// the stack (8 KiB), so the kernel allocates nothing but its result.
const KC: usize = 256;

/// `a × b^T` without materializing the transpose.
///
/// `a` is `m×k`, `b` is `n×k`, the result is `m×n`.
///
/// Register-blocked: `NR` rows of `b` at a time are packed, `KC` values
/// of `k` at a time, into a stack panel of `b^T`, and each `MR × NR`
/// output tile stays in a local array across the panel's `k` loop, with
/// lanes across `j`; a deeper `k` resumes each tile from its stored
/// partial sums. The ragged edges run the same tile: the unused lanes of
/// a last, narrower panel keep stale values and a last, shorter row tile
/// repeats the last row of `a`; those lanes and rows are computed and
/// dropped. Every kept output therefore sums exactly as the naive dot
/// product does (see the module doc).
///
/// # Panics
///
/// Panics unless both operands are rank 2 with matching inner (`k`)
/// dimensions.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape().rank(), 2, "matmul_nt lhs must be a matrix");
    assert_eq!(b.shape().rank(), 2, "matmul_nt rhs must be a matrix");
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (n, k2) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "matmul_nt inner dimensions differ");
    let av = a.as_slice();
    let bv = b.as_slice();
    let mut out = vec![0.0f32; m * n];
    let mut panel = [0.0f32; KC * NR];
    for j0 in (0..n).step_by(NR) {
        let width = NR.min(n - j0);
        for p0 in (0..k).step_by(KC) {
            let depth = KC.min(k - p0);
            let panel = &mut panel[..depth * NR];
            for lane in 0..width {
                let brow = &bv[(j0 + lane) * k + p0..][..depth];
                for (dst, &v) in panel[lane..].iter_mut().step_by(NR).zip(brow) {
                    *dst = v;
                }
            }
            for i0 in (0..m).step_by(MR) {
                let rows = std::array::from_fn(|r| {
                    let i = (i0 + r).min(m - 1);
                    &av[i * k + p0..][..depth]
                });
                let kept = MR.min(m - i0);
                let mut tile = [[0.0f32; NR]; MR];
                for (r, lanes) in tile.iter_mut().enumerate().take(kept) {
                    let o = (i0 + r) * n + j0;
                    lanes[..width].copy_from_slice(&out[o..o + width]);
                }
                let tile = nt_tile(tile, rows, panel);
                for (r, lanes) in tile.iter().enumerate().take(kept) {
                    let o = (i0 + r) * n + j0;
                    out[o..o + width].copy_from_slice(&lanes[..width]);
                }
            }
        }
    }
    Tensor::from_vec(out, &[m, n])
}

/// One `MR × NR` tile of [`matmul_nt`]: adds `rows[r][p] · panel[p·NR + c]`
/// to `acc[r][c]` in ascending `p`.
fn nt_tile(mut acc: [[f32; NR]; MR], rows: [&[f32]; MR], panel: &[f32]) -> [[f32; NR]; MR] {
    let [a0, a1, a2, a3] = rows;
    let steps = panel.chunks_exact(NR).zip(a0).zip(a1).zip(a2).zip(a3);
    for ((((bp, &x0), &x1), &x2), &x3) in steps {
        for c in 0..NR {
            acc[0][c] += x0 * bp[c];
            acc[1][c] += x1 * bp[c];
            acc[2][c] += x2 * bp[c];
            acc[3][c] += x3 * bp[c];
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_eq(a: &Tensor, b: &Tensor) {
        assert_eq!(a.dims(), b.dims());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_small_known_answer() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = Tensor::from_vec((0..12).map(|v| v as f32 * 0.3).collect(), &[4, 3]);
        let b = Tensor::from_vec((0..8).map(|v| v as f32 - 3.0).collect(), &[4, 2]);
        approx_eq(&matmul_tn(&a, &b), &matmul(&a.transpose(), &b));
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = Tensor::from_vec((0..12).map(|v| v as f32 * 0.3).collect(), &[3, 4]);
        let b = Tensor::from_vec((0..8).map(|v| v as f32 - 3.0).collect(), &[2, 4]);
        approx_eq(&matmul_nt(&a, &b), &matmul(&a, &b.transpose()));
    }

    #[test]
    fn matmul_nt_blocked_and_remainder_columns_match_transpose() {
        // m = 5, n = 6: one full row tile plus a 1-row tail, and a single
        // panel narrower than NR.
        let a = Tensor::from_vec((0..35).map(|v| (v as f32) * 0.17 - 2.0).collect(), &[5, 7]);
        let b = Tensor::from_vec((0..42).map(|v| (v as f32) * 0.11 - 1.5).collect(), &[6, 7]);
        approx_eq(&matmul_nt(&a, &b), &matmul(&a, &b.transpose()));
    }

    /// The `matmul_nt` loop before register blocking: four scalar dot
    /// products at a time, then a scalar tail. The oracle for the tiled
    /// kernel.
    fn matmul_nt_oracle(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[0];
        let av = a.as_slice();
        let bv = b.as_slice();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let arow = &av[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            let mut j = 0;
            while j + 4 <= n {
                let b0 = &bv[j * k..(j + 1) * k];
                let b1 = &bv[(j + 1) * k..(j + 2) * k];
                let b2 = &bv[(j + 2) * k..(j + 3) * k];
                let b3 = &bv[(j + 3) * k..(j + 4) * k];
                let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
                for ((((&x, &y0), &y1), &y2), &y3) in arow.iter().zip(b0).zip(b1).zip(b2).zip(b3) {
                    s0 += x * y0;
                    s1 += x * y1;
                    s2 += x * y2;
                    s3 += x * y3;
                }
                orow[j] = s0;
                orow[j + 1] = s1;
                orow[j + 2] = s2;
                orow[j + 3] = s3;
                j += 4;
            }
            for (j, o) in orow.iter_mut().enumerate().skip(j) {
                let brow = &bv[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (&x, &y) in arow.iter().zip(brow.iter()) {
                    acc += x * y;
                }
                *o = acc;
            }
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// A seeded matrix mixing normal values, signed zeros and subnormals.
    fn awkward_matrix(rng: &mut impl rand::Rng, rows: usize, cols: usize) -> Tensor {
        let values = (0..rows * cols)
            .map(|_| match rng.gen_range(0..8u32) {
                0 => 0.0,
                1 => -0.0,
                2 => f32::from_bits(rng.gen_range(1..0x0080_0000u32)),
                3 => -f32::from_bits(rng.gen_range(1..0x0080_0000u32)),
                4 => f32::MIN_POSITIVE * rng.gen_range(-4.0f32..4.0),
                _ => rng.gen_range(-2.0f32..2.0),
            })
            .collect();
        Tensor::from_vec(values, &[rows, cols])
    }

    #[test]
    fn matmul_nt_is_bit_identical_to_the_unblocked_loop() {
        use rand::SeedableRng;
        // Every remainder modulo MR and NR, empty dims, and depths around
        // one and two stack panels.
        let dims = [0usize, 1, 3, 4, 5, 7, 8, 9, 31, 33];
        let depths = [KC - 1, KC, KC + 1, 2 * KC + 3];
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x4E54);
        for &m in &dims {
            for &n in &dims {
                for &k in dims.iter().chain(&depths) {
                    let a = awkward_matrix(&mut rng, m, k);
                    let b = awkward_matrix(&mut rng, n, k);
                    let got = matmul_nt(&a, &b);
                    let want = matmul_nt_oracle(&a, &b);
                    assert_eq!(got.dims(), &[m, n]);
                    let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect();
                    let (got, want): (Vec<u32>, Vec<u32>) = (bits(&got), bits(&want));
                    assert_eq!(got, want, "m={m} n={n} k={k}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn matmul_rejects_mismatch() {
        matmul(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[2, 3]));
    }

    #[test]
    fn matmul_with_zero_dim() {
        let a = Tensor::zeros(&[0, 3]);
        let b = Tensor::zeros(&[3, 4]);
        let c = matmul(&a, &b);
        assert_eq!(c.dims(), &[0, 4]);
        assert!(c.is_empty());
    }

    #[test]
    fn matmul_is_associative_on_small_inputs() {
        let a = Tensor::from_vec((0..4).map(|v| v as f32).collect(), &[2, 2]);
        let b = Tensor::from_vec((0..4).map(|v| (v as f32) * 0.5).collect(), &[2, 2]);
        let c = Tensor::from_vec((0..4).map(|v| (v as f32) - 1.0).collect(), &[2, 2]);
        approx_eq(&matmul(&matmul(&a, &b), &c), &matmul(&a, &matmul(&b, &c)));
    }
}
