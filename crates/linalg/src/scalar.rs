//! The element types the chain's streamed kernels are generic over.
//!
//! [`Scalar`] is sealed and implemented for `f64` and `f32` only. Every
//! kernel in [`crate::permuted`] and [`crate::envelope`] is written once
//! against it, so the f64 tier and the f32 tier share one operation order
//! per row, per pivot and per reduction block — with one exception, the
//! envelope forward pass's row reduction ([`Scalar::sub_row_dot`]): the
//! f64 order is pinned, and the f32 width splits the row over four
//! independent partial sums, which the chain's long bottom rows need to
//! escape the serial add latency.

use std::fmt::Debug;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

mod sealed {
    pub trait Sealed {}
    impl Sealed for f64 {}
    impl Sealed for f32 {}
}

/// A floating-point element type a chain operator can be stored and
/// applied at: `f64` (the default everywhere) or `f32`.
pub trait Scalar:
    sealed::Sealed
    + Copy
    + Debug
    + PartialEq
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + AddAssign
    + SubAssign
{
    /// Additive identity.
    const ZERO: Self;

    /// Rounds an `f64` to this width (the identity for `f64`).
    fn from_f64(v: f64) -> Self;

    /// Widens to `f64` (exact).
    fn to_f64(self) -> f64;

    /// Rounds every entry of an owned `f64` vector to this width. The
    /// `f64` instantiation hands the vector back untouched — no copy.
    fn from_f64_vec(v: Vec<f64>) -> Vec<Self>;

    /// `acc[j] −= Σ_t l[t] · z[t·k + j]` for `k = acc.len()` columns: one
    /// packed row of a triangular factor against a row-major block. Each
    /// column's operation order depends only on the row, never on `k`, so
    /// blocked solves stay bitwise identical to single ones.
    ///
    /// `f64` subtracts term by term in row order (the pinned order). `f32`
    /// sums the products over four partial chains by position mod 4,
    /// combined `(s0 + s1) + (s2 + s3)`, and subtracts once.
    fn sub_row_dot(acc: &mut [Self], l: &[Self], z: &[Self]);
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v
    }

    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }

    fn from_f64_vec(v: Vec<f64>) -> Vec<Self> {
        v
    }

    #[inline(always)]
    fn sub_row_dot(acc: &mut [f64], l: &[f64], z: &[f64]) {
        let k = acc.len();
        for (row, &lt) in z.chunks_exact(k).zip(l) {
            for (a, &zj) in acc.iter_mut().zip(row) {
                *a -= lt * zj;
            }
        }
    }
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v as f32
    }

    #[inline(always)]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }

    fn from_f64_vec(v: Vec<f64>) -> Vec<Self> {
        v.into_iter().map(|w| w as f32).collect()
    }

    #[inline(always)]
    fn sub_row_dot(acc: &mut [f32], l: &[f32], z: &[f32]) {
        const COLS: usize = 32;
        let k = acc.len();
        // Columns in blocks of `COLS` keep the four chains on the stack.
        for c0 in (0..k).step_by(COLS) {
            let w = (k - c0).min(COLS);
            let mut s = [[0.0f32; COLS]; 4];
            let mut lq = l.chunks_exact(4);
            let mut zq = z.chunks_exact(4 * k);
            for (lquad, zquad) in (&mut lq).zip(&mut zq) {
                for c in 0..4 {
                    let zc = &zquad[c * k + c0..c * k + c0 + w];
                    for (sj, &zj) in s[c][..w].iter_mut().zip(zc) {
                        *sj += lquad[c] * zj;
                    }
                }
            }
            let rest = zq.remainder().chunks_exact(k);
            for (c, (&lt, zrow)) in lq.remainder().iter().zip(rest).enumerate() {
                for (sj, &zj) in s[c][..w].iter_mut().zip(&zrow[c0..c0 + w]) {
                    *sj += lt * zj;
                }
            }
            for (j, a) in acc[c0..c0 + w].iter_mut().enumerate() {
                *a -= (s[0][j] + s[1][j]) + (s[2][j] + s[3][j]);
            }
        }
    }
}
