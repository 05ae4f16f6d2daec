//! MPI reduction operators applied elementwise over typed byte buffers.
//!
//! Buffers cross the stack as raw little-endian bytes (they ride in GM
//! packets); the operator reinterprets them per [`Datatype`]. All provided
//! operators are commutative and associative (over the reals — floating
//! point rounding makes f64 sums order-sensitive in the last ulps, which is
//! why correctness tests compare against a fold in tree order or use exact
//! integer payloads).

use crate::types::{Datatype, MprError};

/// A reduction operator (`MPI_SUM`, `MPI_MIN`, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise product.
    Prod,
    /// Elementwise minimum.
    Min,
    /// Elementwise maximum.
    Max,
    /// Bitwise AND (integers only).
    BAnd,
    /// Bitwise OR (integers only).
    BOr,
    /// Bitwise XOR (integers only).
    BXor,
    /// Logical AND: nonzero is true; result 1 or 0 (integers only).
    LAnd,
    /// Logical OR (integers only).
    LOr,
}

impl ReduceOp {
    /// Stable human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ReduceOp::Sum => "sum",
            ReduceOp::Prod => "prod",
            ReduceOp::Min => "min",
            ReduceOp::Max => "max",
            ReduceOp::BAnd => "band",
            ReduceOp::BOr => "bor",
            ReduceOp::BXor => "bxor",
            ReduceOp::LAnd => "land",
            ReduceOp::LOr => "lor",
        }
    }

    /// True if the operator is defined for `dtype`.
    pub fn defined_for(self, dtype: Datatype) -> bool {
        match self {
            ReduceOp::Sum | ReduceOp::Prod | ReduceOp::Min | ReduceOp::Max => true,
            _ => dtype.is_integer(),
        }
    }

    /// Apply `acc[i] = op(acc[i], operand[i])` for every element.
    ///
    /// Returns [`MprError::InvalidOpForType`] for undefined combinations and
    /// [`MprError::ShapeMismatch`] when the buffers disagree in length or
    /// are not whole elements.
    pub fn apply(self, dtype: Datatype, acc: &mut [u8], operand: &[u8]) -> Result<(), MprError> {
        if acc.len() != operand.len() {
            return Err(MprError::ShapeMismatch {
                expected: acc.len(),
                actual: operand.len(),
            });
        }
        if !acc.len().is_multiple_of(dtype.size()) {
            return Err(MprError::ShapeMismatch {
                expected: acc.len().next_multiple_of(dtype.size()),
                actual: acc.len(),
            });
        }
        if !self.defined_for(dtype) {
            return Err(MprError::InvalidOpForType {
                op: self.name(),
                dtype,
            });
        }
        match dtype {
            Datatype::F64 => {
                apply_typed::<f64, 8>(self, acc, operand, f64::from_le_bytes, |v| v.to_le_bytes())
            }
            Datatype::I64 => {
                apply_typed::<i64, 8>(self, acc, operand, i64::from_le_bytes, |v| v.to_le_bytes())
            }
            Datatype::I32 => {
                apply_typed::<i32, 4>(self, acc, operand, i32::from_le_bytes, |v| v.to_le_bytes())
            }
            Datatype::U8 => apply_typed::<u8, 1>(self, acc, operand, |b| b[0], |v| [v]),
        }
        Ok(())
    }
}

/// The elementwise combine for one numeric type.
trait Combine: Copy + PartialOrd {
    fn sum(self, rhs: Self) -> Self;
    fn prod(self, rhs: Self) -> Self;
    fn band(self, rhs: Self) -> Self;
    fn bor(self, rhs: Self) -> Self;
    fn bxor(self, rhs: Self) -> Self;
    fn truthy(self) -> bool;
    fn from_bool(b: bool) -> Self;
}

macro_rules! combine_int {
    ($t:ty) => {
        impl Combine for $t {
            fn sum(self, rhs: Self) -> Self {
                self.wrapping_add(rhs)
            }
            fn prod(self, rhs: Self) -> Self {
                self.wrapping_mul(rhs)
            }
            fn band(self, rhs: Self) -> Self {
                self & rhs
            }
            fn bor(self, rhs: Self) -> Self {
                self | rhs
            }
            fn bxor(self, rhs: Self) -> Self {
                self ^ rhs
            }
            fn truthy(self) -> bool {
                self != 0
            }
            fn from_bool(b: bool) -> Self {
                b as $t
            }
        }
    };
}

combine_int!(i64);
combine_int!(i32);
combine_int!(u8);

impl Combine for f64 {
    fn sum(self, rhs: Self) -> Self {
        self + rhs
    }
    fn prod(self, rhs: Self) -> Self {
        self * rhs
    }
    // Unreachable: defined_for() rejects bitwise/logical ops on F64.
    fn band(self, _: Self) -> Self {
        unreachable!("bitwise op on f64")
    }
    fn bor(self, _: Self) -> Self {
        unreachable!("bitwise op on f64")
    }
    fn bxor(self, _: Self) -> Self {
        unreachable!("bitwise op on f64")
    }
    fn truthy(self) -> bool {
        self != 0.0
    }
    fn from_bool(b: bool) -> Self {
        b as u8 as f64
    }
}

fn apply_typed<T: Combine, const N: usize>(
    op: ReduceOp,
    acc: &mut [u8],
    operand: &[u8],
    decode: impl Fn([u8; N]) -> T,
    encode: impl Fn(T) -> [u8; N],
) {
    for (a_chunk, o_chunk) in acc.chunks_exact_mut(N).zip(operand.chunks_exact(N)) {
        let a = decode(a_chunk.try_into().unwrap());
        let o = decode(o_chunk.try_into().unwrap());
        let r = match op {
            ReduceOp::Sum => a.sum(o),
            ReduceOp::Prod => a.prod(o),
            ReduceOp::Min => {
                if o < a {
                    o
                } else {
                    a
                }
            }
            ReduceOp::Max => {
                if o > a {
                    o
                } else {
                    a
                }
            }
            ReduceOp::BAnd => a.band(o),
            ReduceOp::BOr => a.bor(o),
            ReduceOp::BXor => a.bxor(o),
            ReduceOp::LAnd => T::from_bool(a.truthy() && o.truthy()),
            ReduceOp::LOr => T::from_bool(a.truthy() || o.truthy()),
        };
        a_chunk.copy_from_slice(&encode(r));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{bytes_to_f64s, bytes_to_i32s, f64s_to_bytes, i32s_to_bytes};

    #[test]
    fn f64_sum() {
        let mut acc = f64s_to_bytes(&[1.0, 2.0, 3.0]);
        let rhs = f64s_to_bytes(&[0.5, -2.0, 10.0]);
        ReduceOp::Sum.apply(Datatype::F64, &mut acc, &rhs).unwrap();
        assert_eq!(bytes_to_f64s(&acc), vec![1.5, 0.0, 13.0]);
    }

    #[test]
    fn f64_prod_min_max() {
        let mut acc = f64s_to_bytes(&[2.0, 5.0, -1.0]);
        let rhs = f64s_to_bytes(&[3.0, 4.0, -2.0]);
        let mut p = acc.clone();
        ReduceOp::Prod.apply(Datatype::F64, &mut p, &rhs).unwrap();
        assert_eq!(bytes_to_f64s(&p), vec![6.0, 20.0, 2.0]);
        let mut mn = acc.clone();
        ReduceOp::Min.apply(Datatype::F64, &mut mn, &rhs).unwrap();
        assert_eq!(bytes_to_f64s(&mn), vec![2.0, 4.0, -2.0]);
        ReduceOp::Max.apply(Datatype::F64, &mut acc, &rhs).unwrap();
        assert_eq!(bytes_to_f64s(&acc), vec![3.0, 5.0, -1.0]);
    }

    #[test]
    fn i32_bitwise() {
        let mut acc = i32s_to_bytes(&[0b1100, 0b1010]);
        let rhs = i32s_to_bytes(&[0b1010, 0b0110]);
        let mut band = acc.clone();
        ReduceOp::BAnd
            .apply(Datatype::I32, &mut band, &rhs)
            .unwrap();
        assert_eq!(bytes_to_i32s(&band), vec![0b1000, 0b0010]);
        let mut bor = acc.clone();
        ReduceOp::BOr.apply(Datatype::I32, &mut bor, &rhs).unwrap();
        assert_eq!(bytes_to_i32s(&bor), vec![0b1110, 0b1110]);
        ReduceOp::BXor.apply(Datatype::I32, &mut acc, &rhs).unwrap();
        assert_eq!(bytes_to_i32s(&acc), vec![0b0110, 0b1100]);
    }

    #[test]
    fn logical_ops_normalize_to_01() {
        let mut acc = i32s_to_bytes(&[5, 0, 7, 0]);
        let rhs = i32s_to_bytes(&[3, 2, 0, 0]);
        let mut land = acc.clone();
        ReduceOp::LAnd
            .apply(Datatype::I32, &mut land, &rhs)
            .unwrap();
        assert_eq!(bytes_to_i32s(&land), vec![1, 0, 0, 0]);
        ReduceOp::LOr.apply(Datatype::I32, &mut acc, &rhs).unwrap();
        assert_eq!(bytes_to_i32s(&acc), vec![1, 1, 1, 0]);
    }

    #[test]
    fn u8_sum_wraps() {
        let mut acc = vec![250u8, 1];
        ReduceOp::Sum
            .apply(Datatype::U8, &mut acc, &[10, 2])
            .unwrap();
        assert_eq!(acc, vec![4, 3]);
    }

    #[test]
    fn i64_min_handles_negatives() {
        let mut acc = (-5i64).to_le_bytes().to_vec();
        let rhs = (-100i64).to_le_bytes().to_vec();
        ReduceOp::Min.apply(Datatype::I64, &mut acc, &rhs).unwrap();
        assert_eq!(i64::from_le_bytes(acc.try_into().unwrap()), -100);
    }

    #[test]
    fn bitwise_on_f64_is_rejected() {
        let mut acc = f64s_to_bytes(&[1.0]);
        let rhs = acc.clone();
        for op in [
            ReduceOp::BAnd,
            ReduceOp::BOr,
            ReduceOp::BXor,
            ReduceOp::LAnd,
            ReduceOp::LOr,
        ] {
            let err = op.apply(Datatype::F64, &mut acc, &rhs).unwrap_err();
            assert!(matches!(err, MprError::InvalidOpForType { .. }), "{op:?}");
        }
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let mut acc = vec![0u8; 8];
        let err = ReduceOp::Sum
            .apply(Datatype::F64, &mut acc, &[0u8; 16])
            .unwrap_err();
        assert!(matches!(err, MprError::ShapeMismatch { .. }));
    }

    #[test]
    fn ragged_buffer_is_rejected() {
        let mut acc = vec![0u8; 6];
        let err = ReduceOp::Sum
            .apply(Datatype::F64, &mut acc, &[0u8; 6])
            .unwrap_err();
        assert!(matches!(err, MprError::ShapeMismatch { .. }));
    }

    #[test]
    fn empty_buffers_are_fine() {
        let mut acc: Vec<u8> = vec![];
        ReduceOp::Sum.apply(Datatype::F64, &mut acc, &[]).unwrap();
    }

    #[test]
    fn all_ops_have_names() {
        for op in [
            ReduceOp::Sum,
            ReduceOp::Prod,
            ReduceOp::Min,
            ReduceOp::Max,
            ReduceOp::BAnd,
            ReduceOp::BOr,
            ReduceOp::BXor,
            ReduceOp::LAnd,
            ReduceOp::LOr,
        ] {
            assert!(!op.name().is_empty());
        }
    }

    #[test]
    fn commutativity_on_random_f64() {
        // op(a, b) == op(b, a) for the arithmetic ops.
        let a = f64s_to_bytes(&[1.25, -3.5, 1e300]);
        let b = f64s_to_bytes(&[2.5, 4.0, -1e299]);
        for op in [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Min, ReduceOp::Max] {
            let mut ab = a.clone();
            op.apply(Datatype::F64, &mut ab, &b).unwrap();
            let mut ba = b.clone();
            op.apply(Datatype::F64, &mut ba, &a).unwrap();
            assert_eq!(ab, ba, "{op:?} not commutative");
        }
    }
}
