//! The owned dense tensor type.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

use crate::shape::{broadcast_shapes, Shape};

/// An owned, contiguous, row-major tensor of `f32` values.
///
/// `Tensor` is the single numeric container used throughout the
/// reproduction: activations, weights, and gradients are all `Tensor`s.
/// Cloning copies the buffer; all arithmetic allocates its result (the
/// `_assign` variants mutate in place and are used on hot paths).
///
/// # Examples
///
/// ```
/// use inceptionn_tensor::Tensor;
///
/// let x = Tensor::zeros(&[2, 3]);
/// let y = Tensor::full(&[2, 3], 1.5);
/// let z = &x + &y;
/// assert_eq!(z.as_slice(), &[1.5; 6]);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the number of elements
    /// implied by `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let shape = Shape::new(shape);
        assert_eq!(
            data.len(),
            shape.num_elements(),
            "buffer of {} elements does not fill shape {}",
            data.len(),
            shape
        );
        Tensor { shape, data }
    }

    /// Creates a zero-filled tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor::full(shape, 0.0)
    }

    /// Creates a one-filled tensor.
    pub fn ones(shape: &[usize]) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let shape = Shape::new(shape);
        let data = vec![value; shape.num_elements()];
        Tensor { shape, data }
    }

    /// Creates the `n`×`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimensions, outermost first.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the flat row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the flat row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reads the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds or has the wrong rank.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.flat_index(index)]
    }

    /// Writes the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds or has the wrong rank.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let flat = self.shape.flat_index(index);
        self.data[flat] = value;
    }

    /// Returns a tensor with the same buffer reinterpreted under a new
    /// shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(mut self, shape: &[usize]) -> Self {
        let new_shape = Shape::new(shape);
        assert_eq!(
            self.shape.num_elements(),
            new_shape.num_elements(),
            "cannot reshape {} into {}",
            self.shape,
            new_shape
        );
        self.shape = new_shape;
        self
    }

    /// Transposes a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn transpose(&self) -> Self {
        assert_eq!(self.shape.rank(), 2, "transpose requires a matrix");
        let (rows, cols) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = vec![0.0f32; self.data.len()];
        for r in 0..rows {
            for c in 0..cols {
                out[c * rows + r] = self.data[r * cols + c];
            }
        }
        Tensor::from_vec(out, &[cols, rows])
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Elementwise combination of two same-shaped tensors.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Self {
        assert_eq!(
            self.shape, other.shape,
            "zip_map requires identical shapes ({} vs {})",
            self.shape, other.shape
        );
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Sum of all elements (f64 accumulator for stability).
    pub fn sum(&self) -> f32 {
        self.data.iter().map(|&v| v as f64).sum::<f64>() as f32
    }

    /// Mean of all elements.
    ///
    /// Returns 0 for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Largest element, or `f32::NEG_INFINITY` when empty.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Index of the largest element in the flat buffer.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn argmax(&self) -> usize {
        assert!(!self.data.is_empty(), "argmax of an empty tensor");
        let mut best = 0usize;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        best
    }

    /// The L2 norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        self.data
            .iter()
            .map(|&v| (v as f64) * (v as f64))
            .sum::<f64>()
            .sqrt() as f32
    }

    /// `self += alpha * other`, elementwise over identical shapes.
    ///
    /// This is the fused update used by SGD and gradient aggregation.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(
            self.shape, other.shape,
            "axpy requires identical shapes ({} vs {})",
            self.shape, other.shape
        );
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Multiplies every element by `alpha` in place.
    pub fn scale(&mut self, alpha: f32) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Elementwise broadcasted binary operation.
    ///
    /// # Panics
    ///
    /// Panics if the shapes cannot broadcast.
    pub fn broadcast_op(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        if self.shape == other.shape {
            return self.zip_map(other, f);
        }
        let out_shape =
            broadcast_shapes(&self.shape, &other.shape).unwrap_or_else(|e| panic!("{e}"));
        let rank = out_shape.rank();
        let out_dims = out_shape.dims().to_vec();
        let n = out_shape.num_elements();
        let mut out = Vec::with_capacity(n);
        let a_dims = self.shape.dims();
        let b_dims = other.shape.dims();
        let a_strides = self.shape.strides();
        let b_strides = other.shape.strides();
        let mut idx = vec![0usize; rank];
        for _ in 0..n {
            let mut ai = 0usize;
            let mut bi = 0usize;
            for (axis, &coord) in idx.iter().enumerate() {
                // Align trailing axes; broadcast (size-1) axes contribute 0.
                let a_axis = (axis + a_dims.len()).checked_sub(rank);
                if let Some(a_axis) = a_axis {
                    if a_dims[a_axis] != 1 {
                        ai += coord * a_strides[a_axis];
                    }
                }
                let b_axis = (axis + b_dims.len()).checked_sub(rank);
                if let Some(b_axis) = b_axis {
                    if b_dims[b_axis] != 1 {
                        bi += coord * b_strides[b_axis];
                    }
                }
            }
            out.push(f(self.data[ai], other.data[bi]));
            // Row-major increment.
            for axis in (0..rank).rev() {
                idx[axis] += 1;
                if idx[axis] < out_dims[axis] {
                    break;
                }
                idx[axis] = 0;
            }
        }
        Tensor::from_vec(out, &out_dims)
    }

    /// Matrix multiplication `self (m×k) * other (k×n)`.
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are rank 2 with matching inner
    /// dimensions.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        crate::ops::matmul(self, other)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let preview: Vec<f32> = self.data.iter().take(8).copied().collect();
        let ellipsis = if self.data.len() > 8 { ", …" } else { "" };
        write!(f, "Tensor{} {:?}{}", self.shape, preview, ellipsis)
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

macro_rules! binop_impl {
    ($trait:ident, $method:ident, $f:expr) => {
        impl $trait<&Tensor> for &Tensor {
            type Output = Tensor;
            fn $method(self, rhs: &Tensor) -> Tensor {
                self.broadcast_op(rhs, $f)
            }
        }
        impl $trait<Tensor> for Tensor {
            type Output = Tensor;
            fn $method(self, rhs: Tensor) -> Tensor {
                (&self).broadcast_op(&rhs, $f)
            }
        }
        impl $trait<f32> for &Tensor {
            type Output = Tensor;
            fn $method(self, rhs: f32) -> Tensor {
                self.map(|v| $f(v, rhs))
            }
        }
    };
}

binop_impl!(Add, add, |a, b| a + b);
binop_impl!(Sub, sub, |a, b| a - b);
binop_impl!(Mul, mul, |a, b| a * b);
binop_impl!(Div, div, |a, b| a / b);

impl AddAssign<&Tensor> for Tensor {
    fn add_assign(&mut self, rhs: &Tensor) {
        self.axpy(1.0, rhs);
    }
}

impl Neg for &Tensor {
    type Output = Tensor;
    fn neg(self) -> Tensor {
        self.map(|v| -v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_length() {
        let t = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "does not fill")]
    fn from_vec_rejects_bad_length() {
        Tensor::from_vec(vec![1.0], &[2]);
    }

    #[test]
    fn eye_is_identity_under_matmul() {
        let a = Tensor::from_vec((0..9).map(|v| v as f32).collect(), &[3, 3]);
        assert_eq!(a.matmul(&Tensor::eye(3)).as_slice(), a.as_slice());
        assert_eq!(Tensor::eye(3).matmul(&a).as_slice(), a.as_slice());
    }

    #[test]
    fn transpose_twice_is_identity() {
        let a = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]);
        let t = a.transpose();
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(t.at(&[2, 1]), a.at(&[1, 2]));
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn arithmetic_and_broadcast() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let row = Tensor::from_vec(vec![10.0, 20.0], &[2]);
        let sum = &a + &row;
        assert_eq!(sum.as_slice(), &[11.0, 22.0, 13.0, 24.0]);
        let col = Tensor::from_vec(vec![100.0, 200.0], &[2, 1]);
        let sum = &a + &col;
        assert_eq!(sum.as_slice(), &[101.0, 102.0, 203.0, 204.0]);
    }

    #[test]
    fn scalar_ops() {
        let a = Tensor::from_vec(vec![1.0, -2.0], &[2]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, -4.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, 2.0]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.max(), 4.0);
        assert_eq!(a.argmax(), 3);
        assert!((a.norm() - 30.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::ones(&[3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[1.5, 2.0, 2.5]);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]);
        let b = a.clone().reshape(&[3, 2]);
        assert_eq!(b.dims(), &[3, 2]);
        assert_eq!(b.as_slice(), a.as_slice());
    }

    #[test]
    fn debug_is_never_empty() {
        let s = format!("{:?}", Tensor::zeros(&[0]));
        assert!(!s.is_empty());
        assert!(s.contains("Tensor"));
    }

    #[test]
    fn set_and_at_round_trip() {
        let mut t = Tensor::zeros(&[2, 2]);
        t.set(&[1, 0], 7.0);
        assert_eq!(t.at(&[1, 0]), 7.0);
        assert_eq!(t.at(&[0, 1]), 0.0);
    }
}
