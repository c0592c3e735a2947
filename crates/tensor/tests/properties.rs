//! Algebraic property tests over the tensor kernels: the identities the
//! backward passes silently rely on.

use inceptionn_tensor::{conv2d, matmul, matmul_nt, matmul_tn, ConvSpec, Tensor};
use proptest::prelude::*;

fn tensor_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |v| Tensor::from_vec(v, &[rows, cols]))
}

/// `len` values in `[-2, 2)`, about half of them replaced by `0.0`, as
/// ReLU leaves the backward pass's operands.
fn half_zero_values(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec((any::<bool>(), -2.0f32..2.0), len).prop_map(|v| {
        v.into_iter()
            .map(|(z, x)| if z { 0.0 } else { x })
            .collect()
    })
}

fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
    assert_eq!(a.dims(), b.dims());
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        assert!((x - y).abs() <= tol, "{x} vs {y}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_distributes_over_addition(
        a in tensor_strategy(3, 4),
        b in tensor_strategy(3, 4),
        c in tensor_strategy(4, 2),
    ) {
        let lhs = matmul(&(&a + &b), &c);
        let rhs = &matmul(&a, &c) + &matmul(&b, &c);
        assert_close(&lhs, &rhs, 1e-3);
    }

    #[test]
    fn transpose_reverses_products(
        a in tensor_strategy(3, 5),
        b in tensor_strategy(5, 2),
    ) {
        let lhs = matmul(&a, &b).transpose();
        let rhs = matmul(&b.transpose(), &a.transpose());
        assert_close(&lhs, &rhs, 1e-3);
    }

    #[test]
    fn fused_transpose_kernels_agree(
        (k, m, n) in (1usize..12, 1usize..12, 1usize..20),
        av in half_zero_values(11 * 11),
        bv in half_zero_values(11 * 19),
    ) {
        // matmul_tn(a, b) == a^T b ; matmul_nt(x, y) == x y^T, exactly:
        // every kernel sums in ascending k, and the zero skip of matmul /
        // matmul_tn changes at most the sign of a zero. Shapes cross
        // matmul_nt's 4×8 tile edges.
        let a = Tensor::from_vec(av[..k * m].to_vec(), &[k, m]);
        let b = Tensor::from_vec(bv[..k * n].to_vec(), &[k, n]);
        assert_eq!(matmul_tn(&a, &b), matmul(&a.transpose(), &b));
        let x = a.transpose(); // m×k
        assert_eq!(matmul_nt(&x, &b.clone().transpose()), matmul(&x, &b));
    }

    #[test]
    fn scalar_multiplication_commutes_with_matmul(
        a in tensor_strategy(2, 3),
        b in tensor_strategy(3, 2),
        s in -3.0f32..3.0,
    ) {
        let lhs = matmul(&(&a * s), &b);
        let rhs = &matmul(&a, &b) * s;
        assert_close(&lhs, &rhs, 2e-3);
    }

    #[test]
    fn convolution_is_linear_in_the_input(
        x in proptest::collection::vec(-1.0f32..1.0, 2 * 36),
        y in proptest::collection::vec(-1.0f32..1.0, 2 * 36),
        w in proptest::collection::vec(-1.0f32..1.0, 3 * 2 * 9),
    ) {
        let spec = ConvSpec::new(2, 3, 3, 1, 1);
        let xt = Tensor::from_vec(x, &[1, 2, 6, 6]);
        let yt = Tensor::from_vec(y, &[1, 2, 6, 6]);
        let wt = Tensor::from_vec(w, &[3, 18]);
        let bias = Tensor::zeros(&[3]);
        let lhs = conv2d(&(&xt + &yt), &wt, &bias, &spec);
        let rhs = &conv2d(&xt, &wt, &bias, &spec) + &conv2d(&yt, &wt, &bias, &spec);
        assert_close(&lhs, &rhs, 5e-3);
    }

    #[test]
    fn norm_satisfies_triangle_inequality(
        a in tensor_strategy(4, 4),
        b in tensor_strategy(4, 4),
    ) {
        let sum = &a + &b;
        prop_assert!(sum.norm() <= a.norm() + b.norm() + 1e-4);
    }

    #[test]
    fn sum_is_invariant_under_reshape(v in proptest::collection::vec(-5.0f32..5.0, 24)) {
        let a = Tensor::from_vec(v, &[2, 3, 4]);
        let b = a.clone().reshape(&[6, 4]);
        prop_assert!((a.sum() - b.sum()).abs() < 1e-4);
    }
}
