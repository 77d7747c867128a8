//! Fixed-width SIMD vectors with AVX-512-style memory primitives.

use std::any::TypeId;
use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Sub, SubAssign};

use crate::arch::avx512;
use crate::count;
use crate::element::SimdElement;
use crate::mask::Mask;

/// A fixed-width SIMD vector of `N` lanes of `T`, modelling one AVX-512
/// register (`__m512` / `__m512i` when `T` is 32-bit and `N == 16`).
///
/// All lane-wise operations cost one emulated SIMD instruction (recorded by
/// [`crate::count`]). Memory primitives follow AVX-512 semantics:
///
/// * [`gather`](Self::gather) / [`scatter`](Self::scatter) perform indexed
///   loads/stores; on duplicate scatter indices the **highest lane wins**,
///   exactly like `vpscatterdd`.
/// * masked variants leave unselected lanes (or memory) untouched.
/// * [`compress`](Self::compress) / [`expand`](Self::expand) model
///   `vpcompressd` / `vpexpandd`.
///
/// # Example
///
/// ```
/// use invector_simd::{F32x16, I32x16, Mask16};
///
/// let data = [10.0f32, 20.0, 30.0, 40.0];
/// let idx = I32x16::from_array(std::array::from_fn(|i| (i % 4) as i32));
/// let v = F32x16::gather(&data, idx);
/// assert_eq!(v.extract(5), 20.0);
/// ```
#[derive(Clone, Copy, PartialEq)]
#[repr(C, align(64))]
pub struct SimdVec<T, const N: usize>([T; N]);

impl<T: SimdElement, const N: usize> SimdVec<T, N> {
    /// Builds a vector from an array of lane values.
    #[inline]
    pub const fn from_array(lanes: [T; N]) -> Self {
        SimdVec(lanes)
    }

    /// Returns the lanes as an array.
    #[inline]
    pub const fn to_array(self) -> [T; N] {
        self.0
    }

    /// Borrows the lanes.
    #[inline]
    pub const fn as_array(&self) -> &[T; N] {
        &self.0
    }

    /// Mutably borrows the lanes.
    #[inline]
    pub const fn as_mut_array(&mut self) -> &mut [T; N] {
        &mut self.0
    }

    /// Broadcasts `value` to all lanes (`vpbroadcastd`).
    #[inline]
    pub fn splat(value: T) -> Self {
        count::bump(1);
        SimdVec([value; N])
    }

    /// The all-zero (default-element) vector.
    #[inline]
    pub fn zero() -> Self {
        SimdVec([T::default(); N])
    }

    /// Loads `N` consecutive elements starting at `slice[0]` (`vmovups`).
    ///
    /// # Panics
    ///
    /// Panics if `slice.len() < N`.
    #[inline]
    pub fn load(slice: &[T]) -> Self {
        count::bump(1);
        assert!(slice.len() >= N, "slice shorter than vector width {N}");
        crate::trace::access_span(slice.as_ptr() as usize, N * std::mem::size_of::<T>());
        let head: &[T; N] = slice[..N].try_into().unwrap();
        SimdVec(*head)
    }

    /// Loads up to `N` elements, filling the remaining lanes with `fill`.
    /// Returns the vector and the mask of lanes that received real data.
    #[inline]
    pub fn load_partial(slice: &[T], fill: T) -> (Self, Mask<N>) {
        count::bump(1);
        let n = slice.len().min(N);
        let mut lanes = [fill; N];
        lanes[..n].copy_from_slice(&slice[..n]);
        (SimdVec(lanes), Mask::first_n(n))
    }

    /// Stores all lanes to `slice[..N]` (`vmovups`).
    ///
    /// # Panics
    ///
    /// Panics if `slice.len() < N`.
    #[inline]
    pub fn store(self, slice: &mut [T]) {
        count::bump(1);
        crate::trace::access_span(slice.as_ptr() as usize, N * std::mem::size_of::<T>());
        slice[..N].copy_from_slice(&self.0);
    }

    /// Reads lane `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= N`.
    #[inline]
    pub fn extract(self, i: usize) -> T {
        count::bump(1);
        self.0[i]
    }

    /// Returns a copy with lane `i` replaced by `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= N`.
    #[inline]
    #[must_use]
    pub fn insert(mut self, i: usize, value: T) -> Self {
        count::bump(1);
        self.0[i] = value;
        self
    }

    /// Lane-wise minimum (`vpminsd` / `vminps`).
    #[inline]
    #[must_use]
    pub fn min(self, other: Self) -> Self {
        count::bump(1);
        SimdVec(std::array::from_fn(|i| self.0[i].lane_min(other.0[i])))
    }

    /// Lane-wise maximum (`vpmaxsd` / `vmaxps`).
    #[inline]
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        count::bump(1);
        SimdVec(std::array::from_fn(|i| self.0[i].lane_max(other.0[i])))
    }

    /// Selects `self` on set lanes of `mask` and `other` elsewhere
    /// (`vpblendmd`).
    #[inline]
    #[must_use]
    pub fn blend(self, mask: Mask<N>, other: Self) -> Self {
        count::bump(1);
        SimdVec(std::array::from_fn(|i| if mask.test(i) { self.0[i] } else { other.0[i] }))
    }

    /// Lane-wise equality compare (`vpcmpeqd`).
    #[inline]
    pub fn simd_eq(self, other: Self) -> Mask<N> {
        count::bump(1);
        Mask::from_array(std::array::from_fn(|i| self.0[i] == other.0[i]))
    }

    /// Lane-wise inequality compare.
    #[inline]
    pub fn simd_ne(self, other: Self) -> Mask<N> {
        count::bump(1);
        Mask::from_array(std::array::from_fn(|i| self.0[i] != other.0[i]))
    }

    /// Lane-wise `<` compare.
    #[inline]
    pub fn simd_lt(self, other: Self) -> Mask<N> {
        count::bump(1);
        Mask::from_array(std::array::from_fn(|i| self.0[i] < other.0[i]))
    }

    /// Lane-wise `<=` compare.
    #[inline]
    pub fn simd_le(self, other: Self) -> Mask<N> {
        count::bump(1);
        Mask::from_array(std::array::from_fn(|i| self.0[i] <= other.0[i]))
    }

    /// Lane-wise `>` compare.
    #[inline]
    pub fn simd_gt(self, other: Self) -> Mask<N> {
        count::bump(1);
        Mask::from_array(std::array::from_fn(|i| self.0[i] > other.0[i]))
    }

    /// Lane-wise `>=` compare.
    #[inline]
    pub fn simd_ge(self, other: Self) -> Mask<N> {
        count::bump(1);
        Mask::from_array(std::array::from_fn(|i| self.0[i] >= other.0[i]))
    }

    /// Compares every lane against the broadcast scalar `value`
    /// (`vpcmpeqd` with an embedded broadcast operand).
    #[inline]
    pub fn eq_broadcast(self, value: T) -> Mask<N> {
        count::bump(1);
        Mask::from_array(std::array::from_fn(|i| self.0[i] == value))
    }

    /// Gathers `base[idx[i]]` into each lane (`vpgatherdd` / `vgatherdps`).
    ///
    /// # Panics
    ///
    /// Panics if any index is negative or `>= base.len()`.
    #[inline]
    pub fn gather(base: &[T], idx: SimdVec<i32, N>) -> Self {
        count::bump(count::GATHER_COST);
        trace_lanes(base, idx, Mask::all());
        if let Some(v) = native_gather(base, idx) {
            return v;
        }
        SimdVec(std::array::from_fn(|i| base[checked_index(idx.0[i], base.len())]))
    }

    /// Gathers `base[idx[i]]` on set lanes of `mask`; other lanes keep the
    /// corresponding lane of `self` (masked `vgatherdps`).
    ///
    /// # Panics
    ///
    /// Panics if any *selected* index is negative or `>= base.len()`.
    #[inline]
    #[must_use]
    pub fn mask_gather(self, mask: Mask<N>, base: &[T], idx: SimdVec<i32, N>) -> Self {
        count::bump(count::GATHER_COST);
        trace_lanes(base, idx, mask);
        SimdVec(std::array::from_fn(|i| {
            if mask.test(i) {
                base[checked_index(idx.0[i], base.len())]
            } else {
                self.0[i]
            }
        }))
    }

    /// Scatters each lane to `base[idx[i]]` (`vpscatterdd` / `vscatterdps`).
    ///
    /// On duplicate indices the highest lane wins, matching AVX-512.
    ///
    /// # Panics
    ///
    /// Panics if any index is negative or `>= base.len()`.
    #[inline]
    pub fn scatter(self, base: &mut [T], idx: SimdVec<i32, N>) {
        count::bump(count::SCATTER_COST);
        trace_lanes(base, idx, Mask::all());
        for i in 0..N {
            base[checked_index(idx.0[i], base.len())] = self.0[i];
        }
    }

    /// Scatters the lanes selected by `mask` to `base[idx[i]]` (masked
    /// `vscatterdps`). Unselected lanes write nothing. On duplicate selected
    /// indices the highest lane wins.
    ///
    /// # Panics
    ///
    /// Panics if any *selected* index is negative or `>= base.len()`.
    #[inline]
    pub fn mask_scatter(self, mask: Mask<N>, base: &mut [T], idx: SimdVec<i32, N>) {
        count::bump(count::SCATTER_COST);
        trace_lanes(base, idx, mask);
        for i in mask.iter_set() {
            base[checked_index(idx.0[i], base.len())] = self.0[i];
        }
    }

    /// Packs the lanes selected by `mask` into the low lanes, filling the
    /// rest with the default element (`vpcompressd` into a zeroed register).
    #[inline]
    #[must_use]
    pub fn compress(self, mask: Mask<N>) -> Self {
        count::bump(1);
        let mut lanes = [T::default(); N];
        for (out, lane) in mask.iter_set().enumerate() {
            lanes[out] = self.0[lane];
        }
        SimdVec(lanes)
    }

    /// Spreads the low lanes of `self` into the lanes selected by `mask`;
    /// unselected lanes take the corresponding lane of `fill`
    /// (`vpexpandd`).
    #[inline]
    #[must_use]
    pub fn expand(self, mask: Mask<N>, fill: Self) -> Self {
        count::bump(1);
        let mut lanes = fill.0;
        for (src, lane) in mask.iter_set().enumerate() {
            lanes[lane] = self.0[src];
        }
        SimdVec(lanes)
    }

    /// Stores the lanes selected by `mask` contiguously to the front of
    /// `out` and returns how many were written (`vpcompressstoreu`) — the
    /// idiom vectorized frontier/queue building uses.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than the number of selected lanes.
    ///
    /// # Example
    ///
    /// ```
    /// use invector_simd::{I32x16, Mask16};
    /// let v = I32x16::iota();
    /// let mut out = [0i32; 4];
    /// let n = v.compress_store(Mask16::from_bits(0b1000_0010_0001), &mut out);
    /// assert_eq!(n, 3);
    /// assert_eq!(&out[..3], &[0, 5, 11]);
    /// ```
    pub fn compress_store(self, mask: Mask<N>, out: &mut [T]) -> usize {
        count::bump(1);
        let needed = mask.count_ones() as usize;
        assert!(out.len() >= needed, "compress_store needs {needed} slots, got {}", out.len());
        for (k, lane) in mask.iter_set().enumerate() {
            out[k] = self.0[lane];
        }
        needed
    }

    /// Horizontal reduction of the lanes selected by `mask` with the
    /// associative combiner `f`, starting from `identity`.
    ///
    /// AVX-512 exposes this as the `_mm512_mask_reduce_*` family; the paper
    /// counts one such reduction as a single instruction, and so does this
    /// model.
    ///
    /// # Example
    ///
    /// ```
    /// use invector_simd::{F32x16, Mask16};
    /// let v = F32x16::splat(2.0);
    /// let s = v.reduce(Mask16::from_bits(0b111), 0.0, |a, b| a + b);
    /// assert_eq!(s, 6.0);
    /// ```
    #[inline]
    pub fn reduce(self, mask: Mask<N>, identity: T, f: impl Fn(T, T) -> T) -> T {
        count::bump(1);
        let mut acc = identity;
        for lane in mask.iter_set() {
            acc = f(acc, self.0[lane]);
        }
        acc
    }
}

/// Feeds the selected lanes' addresses to the trace hook (no-op unless a
/// cache simulator is installed on this thread).
#[inline]
fn trace_lanes<T: SimdElement, const N: usize>(base: &[T], idx: SimdVec<i32, N>, mask: Mask<N>) {
    if crate::trace::is_active() {
        let elem = std::mem::size_of::<T>();
        let lanes = idx.as_array();
        for i in mask.iter_set() {
            crate::trace::access(base.as_ptr() as usize + lanes[i] as usize * elem, elem);
        }
    }
}

/// Validates a gather/scatter lane index against the backing slice length.
#[inline(always)]
fn checked_index(idx: i32, len: usize) -> usize {
    let u = idx as usize; // negative values become huge and fail the check below
    assert!(
        (idx as i64) >= 0 && u < len,
        "gather/scatter index {idx} out of bounds for slice of length {len}"
    );
    u
}

/// Hardware gather for `f32`/`i32`/`u32` × 16 when AVX-512 is available.
///
/// Falls back to `None` (portable path) for other shapes. Bounds are checked
/// before issuing the hardware gather so safety never depends on the ISA.
#[inline]
fn native_gather<T: SimdElement, const N: usize>(
    base: &[T],
    idx: SimdVec<i32, N>,
) -> Option<SimdVec<T, N>> {
    if N != 16 || !avx512::available() {
        return None;
    }
    for &i in idx.as_array().iter() {
        let _ = checked_index(i, base.len());
    }
    let idx16: [i32; 16] = *idx.as_array().first_chunk::<16>()?;
    if TypeId::of::<T>() == TypeId::of::<f32>() {
        // SAFETY: T == f32 (checked via TypeId); indices validated above.
        let out = unsafe {
            avx512::gather_f32(
                std::slice::from_raw_parts(base.as_ptr().cast::<f32>(), base.len()),
                idx16,
            )
        };
        let lanes = unsafe { std::mem::transmute_copy::<[f32; 16], [T; N]>(&out) };
        return Some(SimdVec(lanes));
    }
    if TypeId::of::<T>() == TypeId::of::<i32>() || TypeId::of::<T>() == TypeId::of::<u32>() {
        // SAFETY: T is a 32-bit integer (checked via TypeId); indices validated.
        let out = unsafe {
            avx512::gather_i32(
                std::slice::from_raw_parts(base.as_ptr().cast::<i32>(), base.len()),
                idx16,
            )
        };
        let lanes = unsafe { std::mem::transmute_copy::<[i32; 16], [T; N]>(&out) };
        return Some(SimdVec(lanes));
    }
    None
}

macro_rules! impl_arith {
    ($t:ty, $wrap:ident) => {
        impl<const N: usize> Add for SimdVec<$t, N> {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                count::bump(1);
                SimdVec(std::array::from_fn(|i| impl_arith!(@add $wrap, self.0[i], rhs.0[i])))
            }
        }
        impl<const N: usize> Sub for SimdVec<$t, N> {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                count::bump(1);
                SimdVec(std::array::from_fn(|i| impl_arith!(@sub $wrap, self.0[i], rhs.0[i])))
            }
        }
        impl<const N: usize> Mul for SimdVec<$t, N> {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: Self) -> Self {
                count::bump(1);
                SimdVec(std::array::from_fn(|i| impl_arith!(@mul $wrap, self.0[i], rhs.0[i])))
            }
        }
        impl<const N: usize> AddAssign for SimdVec<$t, N> {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                *self = *self + rhs;
            }
        }
        impl<const N: usize> SubAssign for SimdVec<$t, N> {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                *self = *self - rhs;
            }
        }
        impl<const N: usize> MulAssign for SimdVec<$t, N> {
            #[inline]
            fn mul_assign(&mut self, rhs: Self) {
                *self = *self * rhs;
            }
        }
    };
    (@add wrapping, $a:expr, $b:expr) => { $a.wrapping_add($b) };
    (@sub wrapping, $a:expr, $b:expr) => { $a.wrapping_sub($b) };
    (@mul wrapping, $a:expr, $b:expr) => { $a.wrapping_mul($b) };
    (@add plain, $a:expr, $b:expr) => { $a + $b };
    (@sub plain, $a:expr, $b:expr) => { $a - $b };
    (@mul plain, $a:expr, $b:expr) => { $a * $b };
}

impl_arith!(i32, wrapping);
impl_arith!(u32, wrapping);
impl_arith!(f32, plain);
impl_arith!(i64, wrapping);
impl_arith!(u64, wrapping);
impl_arith!(f64, plain);

macro_rules! impl_float_div {
    ($t:ty) => {
        impl<const N: usize> Div for SimdVec<$t, N> {
            type Output = Self;
            /// Lane-wise division (`vdivps` / `vdivpd`).
            #[inline]
            fn div(self, rhs: Self) -> Self {
                count::bump(1);
                SimdVec(std::array::from_fn(|i| self.0[i] / rhs.0[i]))
            }
        }

        impl<const N: usize> DivAssign for SimdVec<$t, N> {
            #[inline]
            fn div_assign(&mut self, rhs: Self) {
                *self = *self / rhs;
            }
        }
    };
}

impl_float_div!(f32);
impl_float_div!(f64);

macro_rules! impl_bitwise {
    ($t:ty, $u:ty) => {
        impl<const N: usize> std::ops::BitAnd for SimdVec<$t, N> {
            type Output = Self;
            /// Lane-wise AND (`vpandd` / `vpandq`).
            #[inline]
            fn bitand(self, rhs: Self) -> Self {
                count::bump(1);
                SimdVec(std::array::from_fn(|i| self.0[i] & rhs.0[i]))
            }
        }
        impl<const N: usize> std::ops::BitOr for SimdVec<$t, N> {
            type Output = Self;
            /// Lane-wise OR (`vpord` / `vporq`).
            #[inline]
            fn bitor(self, rhs: Self) -> Self {
                count::bump(1);
                SimdVec(std::array::from_fn(|i| self.0[i] | rhs.0[i]))
            }
        }
        impl<const N: usize> std::ops::BitXor for SimdVec<$t, N> {
            type Output = Self;
            /// Lane-wise XOR (`vpxord` / `vpxorq`).
            #[inline]
            fn bitxor(self, rhs: Self) -> Self {
                count::bump(1);
                SimdVec(std::array::from_fn(|i| self.0[i] ^ rhs.0[i]))
            }
        }
        impl<const N: usize> SimdVec<$t, N> {
            /// Lane-wise logical shift left by `count` bits (`vpslld`).
            /// Not the `Shl` operator impl: takes a bit count, not a
            /// lane-wise shift vector.
            #[inline]
            #[must_use]
            #[allow(clippy::should_implement_trait)]
            pub fn shl(self, count_bits: u32) -> Self {
                count::bump(1);
                SimdVec(std::array::from_fn(|i| self.0[i] << count_bits))
            }

            /// Lane-wise **logical** shift right by `count` bits
            /// (`vpsrld` — zero-filling, even for signed lanes).
            /// Not the `Shr` operator impl: takes a bit count, not a
            /// lane-wise shift vector.
            #[inline]
            #[must_use]
            #[allow(clippy::should_implement_trait)]
            pub fn shr(self, count_bits: u32) -> Self {
                count::bump(1);
                SimdVec(std::array::from_fn(|i| ((self.0[i] as $u) >> count_bits) as $t))
            }
        }
    };
}

impl_bitwise!(i32, u32);
impl_bitwise!(u32, u32);
impl_bitwise!(i64, u64);
impl_bitwise!(u64, u64);

impl<const N: usize> SimdVec<i32, N> {
    /// Reinterprets the lanes as `u32` (free — no instruction).
    #[inline]
    pub fn cast_u32(self) -> SimdVec<u32, N> {
        SimdVec(std::array::from_fn(|i| self.0[i] as u32))
    }
}

impl<const N: usize> SimdVec<u32, N> {
    /// Reinterprets the lanes as `i32` (free — no instruction).
    #[inline]
    pub fn cast_i32(self) -> SimdVec<i32, N> {
        SimdVec(std::array::from_fn(|i| self.0[i] as i32))
    }
}

impl<T: SimdElement, const N: usize> Default for SimdVec<T, N> {
    fn default() -> Self {
        SimdVec([T::default(); N])
    }
}

impl<T: SimdElement, const N: usize> fmt::Debug for SimdVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimdVec{:?}", &self.0[..])
    }
}

impl<T: SimdElement, const N: usize> From<[T; N]> for SimdVec<T, N> {
    fn from(lanes: [T; N]) -> Self {
        SimdVec(lanes)
    }
}

impl<T: SimdElement, const N: usize> From<SimdVec<T, N>> for [T; N] {
    fn from(v: SimdVec<T, N>) -> Self {
        v.0
    }
}

impl<const N: usize> SimdVec<i32, N> {
    /// The index vector `[0, 1, 2, ..., N-1]`, useful for strided loads.
    #[inline]
    pub fn iota() -> Self {
        SimdVec(std::array::from_fn(|i| i as i32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type F = SimdVec<f32, 16>;
    type I = SimdVec<i32, 16>;
    type M = Mask<16>;

    #[test]
    fn splat_and_extract() {
        let v = F::splat(3.5);
        for i in 0..16 {
            assert_eq!(v.extract(i), 3.5);
        }
    }

    #[test]
    fn load_store_round_trip() {
        let data: Vec<f32> = (0..20).map(|i| i as f32).collect();
        let v = F::load(&data);
        let mut out = vec![0.0f32; 16];
        v.store(&mut out);
        assert_eq!(&out[..], &data[..16]);
    }

    #[test]
    #[should_panic(expected = "shorter than vector width")]
    fn load_short_slice_panics() {
        let _ = F::load(&[1.0, 2.0]);
    }

    #[test]
    fn load_partial_fills_tail() {
        let (v, m) = F::load_partial(&[1.0, 2.0, 3.0], -1.0);
        assert_eq!(m, M::first_n(3));
        assert_eq!(v.extract(2), 3.0);
        assert_eq!(v.extract(3), -1.0);
        assert_eq!(v.extract(15), -1.0);
    }

    #[test]
    fn arithmetic_lane_wise() {
        let a = F::splat(6.0);
        let b = F::splat(2.0);
        assert_eq!((a + b).extract(0), 8.0);
        assert_eq!((a - b).extract(7), 4.0);
        assert_eq!((a * b).extract(15), 12.0);
        assert_eq!((a / b).extract(3), 3.0);
    }

    #[test]
    fn integer_arithmetic_wraps() {
        let a = I::splat(i32::MAX);
        let b = I::splat(1);
        assert_eq!((a + b).extract(0), i32::MIN);
    }

    #[test]
    fn min_max() {
        let a = I::from_array(std::array::from_fn(|i| i as i32));
        let b = I::splat(8);
        assert_eq!(a.min(b).extract(12), 8);
        assert_eq!(a.min(b).extract(3), 3);
        assert_eq!(a.max(b).extract(12), 12);
    }

    #[test]
    fn compares_produce_masks() {
        let a = I::from_array(std::array::from_fn(|i| i as i32));
        let m = a.simd_lt(I::splat(4));
        assert_eq!(m, M::first_n(4));
        assert_eq!(a.simd_ge(I::splat(4)), !M::first_n(4));
        assert_eq!(a.eq_broadcast(5), M::none().with(5, true));
        assert_eq!(a.simd_le(I::splat(0)), M::first_n(1));
        assert_eq!(a.simd_gt(I::splat(14)), M::none().with(15, true));
        assert_eq!(a.simd_ne(a), M::none());
    }

    #[test]
    fn blend_selects_by_mask() {
        let a = F::splat(1.0);
        let b = F::splat(2.0);
        let v = a.blend(M::from_bits(0b1), b);
        assert_eq!(v.extract(0), 1.0);
        assert_eq!(v.extract(1), 2.0);
    }

    #[test]
    fn gather_reads_indexed_elements() {
        let base: Vec<f32> = (0..100).map(|i| i as f32 * 10.0).collect();
        let idx = I::from_array(std::array::from_fn(|i| (i * 3) as i32));
        let v = F::gather(&base, idx);
        for i in 0..16 {
            assert_eq!(v.extract(i), (i * 3) as f32 * 10.0);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_rejects_out_of_range_index() {
        let base = vec![0.0f32; 4];
        let _ = F::gather(&base, I::splat(4));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_rejects_negative_index() {
        let base = vec![0.0f32; 4];
        let _ = F::gather(&base, I::splat(-1));
    }

    #[test]
    fn mask_gather_preserves_unselected_lanes() {
        let base = vec![9.0f32; 8];
        let v = F::splat(1.0).mask_gather(M::from_bits(0b10), &base, I::splat(0));
        assert_eq!(v.extract(0), 1.0);
        assert_eq!(v.extract(1), 9.0);
    }

    #[test]
    fn mask_gather_ignores_bad_index_on_unselected_lane() {
        let base = vec![9.0f32; 8];
        // Lane 1's index is out of range but lane 1 is not selected.
        let idx = I::from_array(std::array::from_fn(|i| if i == 1 { 100 } else { 0 }));
        let v = F::splat(1.0).mask_gather(M::from_bits(0b1), &base, idx);
        assert_eq!(v.extract(0), 9.0);
        assert_eq!(v.extract(1), 1.0);
    }

    #[test]
    fn scatter_highest_lane_wins_on_duplicates() {
        let mut base = vec![0i32; 8];
        let vals = I::from_array(std::array::from_fn(|i| i as i32));
        let idx = I::splat(5);
        vals.scatter(&mut base, idx);
        assert_eq!(base[5], 15);
    }

    #[test]
    fn mask_scatter_writes_only_selected() {
        let mut base = vec![0i32; 8];
        let vals = I::splat(7);
        let idx = I::from_array(std::array::from_fn(|i| (i % 8) as i32));
        vals.mask_scatter(M::from_bits(0b101), &mut base, idx);
        assert_eq!(base, vec![7, 0, 7, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn compress_packs_low() {
        let v = I::from_array(std::array::from_fn(|i| i as i32));
        let c = v.compress(M::from_bits(0b1000_0000_0001_0010));
        assert_eq!(c.extract(0), 1);
        assert_eq!(c.extract(1), 4);
        assert_eq!(c.extract(2), 15);
        assert_eq!(c.extract(3), 0);
    }

    #[test]
    fn expand_is_compress_inverse_on_selected_lanes() {
        let mask = M::from_bits(0b0110_0000_0011_0100);
        let v = I::from_array(std::array::from_fn(|i| (i * 7 + 1) as i32));
        let round = v.compress(mask).expand(mask, I::splat(-1));
        for i in 0..16 {
            if mask.test(i) {
                assert_eq!(round.extract(i), v.extract(i));
            } else {
                assert_eq!(round.extract(i), -1);
            }
        }
    }

    #[test]
    fn reduce_respects_mask_and_identity() {
        let v = F::from_array(std::array::from_fn(|i| i as f32));
        let sum = v.reduce(M::from_bits(0b1011), 0.0, |a, b| a + b);
        assert_eq!(sum, 0.0 + 1.0 + 3.0);
        let min = v.reduce(M::none(), f32::INFINITY, |a, b| a.min(b));
        assert_eq!(min, f32::INFINITY);
    }

    #[test]
    fn iota_counts_up() {
        let v = I::iota();
        assert_eq!(v.extract(0), 0);
        assert_eq!(v.extract(15), 15);
    }

    #[test]
    fn conversion_round_trip() {
        let arr: [i32; 16] = std::array::from_fn(|i| i as i32);
        let v: I = arr.into();
        let back: [i32; 16] = v.into();
        assert_eq!(arr, back);
    }

    #[cfg(feature = "count")]
    #[test]
    fn instruction_counting_charges_ops() {
        count::reset();
        let a = F::splat(1.0); // 1
        let b = F::splat(2.0); // 1
        let _ = a + b; // 1
        assert_eq!(count::read(), 3);
    }

    #[test]
    fn f64_eight_lane_vectors_work_end_to_end() {
        // The 64-bit side of the ISA: 8 lanes of f64 gathered through i32
        // indices (`vgatherdpd`), reduced, scattered.
        type F64 = SimdVec<f64, 8>;
        type I8v = SimdVec<i32, 8>;
        let base: Vec<f64> = (0..32).map(|i| i as f64 * 0.25).collect();
        let idx = I8v::from_array(std::array::from_fn(|i| (i * 3) as i32));
        let v = F64::gather(&base, idx);
        assert_eq!(v.extract(4), 3.0);
        let sum = v.reduce(Mask::<8>::all(), 0.0, |a, b| a + b);
        assert_eq!(sum, (0..8).map(|i| (i * 3) as f64 * 0.25).sum::<f64>());
        let mut out = vec![0.0f64; 32];
        (v + F64::splat(1.0)).mask_scatter(Mask::<8>::from_bits(0b11), &mut out, idx);
        assert_eq!(out[0], 1.0);
        assert_eq!(out[3], 1.75);
        assert_eq!(out[6], 0.0);
    }

    #[test]
    fn i64_arithmetic_wraps() {
        type I64 = SimdVec<i64, 8>;
        let v = I64::splat(i64::MAX) + I64::splat(1);
        assert_eq!(v.extract(0), i64::MIN);
        assert_eq!((I64::splat(10) * I64::splat(-3)).extract(7), -30);
    }

    #[test]
    fn f64_division() {
        type F64 = SimdVec<f64, 8>;
        assert_eq!((F64::splat(1.0) / F64::splat(4.0)).extract(2), 0.25);
    }

    #[test]
    fn bitwise_ops_are_lane_wise() {
        let a = I::splat(0b1100);
        let b = I::splat(0b1010);
        assert_eq!((a & b).extract(0), 0b1000);
        assert_eq!((a | b).extract(5), 0b1110);
        assert_eq!((a ^ b).extract(15), 0b0110);
    }

    #[test]
    fn shifts_match_scalar_semantics() {
        let v = I::splat(-8);
        // Logical right shift zero-fills even for negative lanes.
        assert_eq!(v.shr(1).extract(0), ((-8i32 as u32) >> 1) as i32);
        assert_eq!(I::splat(3).shl(4).extract(0), 48);
        type U = SimdVec<u32, 16>;
        assert_eq!(U::splat(0x8000_0000).shr(31).extract(0), 1);
    }

    #[test]
    fn casts_reinterpret_bits() {
        let v = I::splat(-1);
        assert_eq!(v.cast_u32().extract(0), u32::MAX);
        assert_eq!(v.cast_u32().cast_i32(), v);
    }

    #[test]
    fn compress_store_writes_contiguous_prefix() {
        let v = I::iota();
        let mut out = [0i32; 16];
        let n = v.compress_store(Mask::from_bits(0xF0), &mut out);
        assert_eq!(n, 4);
        assert_eq!(&out[..4], &[4, 5, 6, 7]);
    }

    #[test]
    #[should_panic(expected = "compress_store needs")]
    fn compress_store_rejects_short_output() {
        let mut out = [0i32; 2];
        let _ = I::iota().compress_store(Mask::from_bits(0b111), &mut out);
    }
}
